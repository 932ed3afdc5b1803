//! The hierarchical phase engine: contracted covers and incremental
//! cluster graphs.
//!
//! The seed implementation recomputed steps (i) and (iii) of every phase —
//! the cluster cover and the Das–Narasimhan cluster graph `H_{i-1}` — from
//! scratch over the full `n`-node spanner. With ~625 weight bins at 10^6
//! nodes that made the phase loop Θ(phases · n): the entire 1M build was
//! the rescans (see docs/PERFORMANCE.md, "Phase engine").
//!
//! This engine exploits three structural facts of the paper's phase
//! schedule:
//!
//! 1. **Covers freeze.** Phase `i` needs a cover of radius
//!    `ρ_i = δ·W_{i-1}` with `δ < 1/2` (validated by
//!    [`SpannerParams`](crate::SpannerParams)), while every edge the
//!    phases *after* the cover's construction can add weighs more than
//!    `W_{i-1} > 2ρ_i`. Paths of length ≤ `ρ_i` therefore never change
//!    once the cover is built: both the coverage radii and the centre
//!    separation of a cover remain *exactly* valid for the rest of the
//!    run. A cover built at radius `ρ` can serve every later phase whose
//!    radius is in `[ρ, Λ·ρ]` — coverage only tightens (`ρ ≤ ρ_i` keeps
//!    every lemma that upper-bounds member distances), and separation
//!    degrades by at most the constant `Λ` (a `Λ^d` factor in the packing
//!    constants, not in any correctness argument). The engine thus keeps
//!    one cover per geometric *level* and rebuilds only when the phase
//!    radius outgrows `Λ·ρ` — `O(log_Λ(W_max/W_0))` rebuilds per run
//!    instead of one per phase. On the scale harness' deployment
//!    (uniform, expected degree 8, ε = 1) that is 9 rebuilds over 418
//!    phases at 2·10^4 nodes and 11 over 625 at 10^6, as measured by the
//!    `level_rebuilds_on_the_scale_schedule_*` tests.
//!
//! 2. **Cluster graphs contract.** In `H_{i-1}` every non-centre node has
//!    exactly one edge — to its centre, weighted by its recorded distance.
//!    So for any two nodes `u, v` in distinct clusters,
//!    `sp_H(u, v) = d(u) + sp_Q(a, b) + d(v)` where `Q` is the quotient
//!    graph on the *centres* alone. The engine maintains `Q` incrementally
//!    as a [`Contraction`]: a full (deterministic-order) edge scan seeds it
//!    at each level rebuild, and afterwards each phase folds in only the
//!    edges it actually added. Every quotient edge weight is a real walk
//!    through the centres (`d(u) + w + d(v)` for a crossing edge
//!    `{u, v}`), so quotient distances upper-bound true spanner distances
//!    — a "no" answer to `sp_H(u,v) ≤ t·w` can only over-add edges, never
//!    break the stretch argument. The seed path's Lemma-5 centre sweeps
//!    (direct centre–centre edges with exact distances, condition (i) of
//!    Section 2.2.3) are dropped: nearby centres without a crossing edge
//!    are still connected in `Q` through intermediate clusters, at a
//!    ≤ `2ρ`-per-hop overestimate that the `t − t1` margin absorbs. The
//!    effect is a slight shift in which query edges get added, not a
//!    weaker guarantee (EXPERIMENTS.md records the shift).
//!
//! 3. **The quotient freezes per level, too.** Queries run on a frozen
//!    layout, never on the live adjacency-list `Q` (the repo's "mutate on
//!    `WeightedGraph`, measure on `CsrGraph`" rule). The engine freezes
//!    `Q` into a [`CsrGraph`] base once per level rebuild, and from then
//!    on [`PhaseEngine::absorb_kept`] pushes every quotient edge that
//!    [`Contraction::absorb_change`] actually added or cheapened onto an
//!    [`OverlayGraph`] delta, at its new weight. Step (iii) of a phase
//!    then takes that view in O(1) instead of collecting and sorting the
//!    whole quotient again. A base entry shadowed by a cheaper delta
//!    entry stays in place: searches take the minimum over parallel
//!    edges, and IEEE addition is monotone, so every query and
//!    redundancy distance is bitwise identical to the one on a fresh
//!    per-phase freeze (the `overlay_answers_match_a_fresh_quotient_freeze`
//!    property test gates exactly that). The level's [`BucketConfig`] is
//!    reused: Δ stays the base's mean weight, and the ring is widened on
//!    every push that exceeds the heaviest edge it spans — a heavier
//!    delta edge would otherwise wrap onto a stale ring slot and be
//!    dropped.

use super::cover::ClusterCover;
use super::driver::{Phase, PhaseSteps};
use super::query::answer_queries;
use super::redundant::contracted_redundant_removals;
use tc_graph::bucket::BucketConfig;
use tc_graph::{Contraction, CsrGraph, Edge, NodeId, OverlayGraph, WeightedGraph};

/// Geometric growth factor `Λ` between cover levels: a level built at
/// radius `ρ` serves every phase with radius in `[ρ, Λ·ρ]`. Larger values
/// mean fewer rebuilds but a looser effective centre separation
/// (`≥ ρ_phase/Λ`), which costs a `Λ^d` factor in the packing constants
/// behind the degree bound. 2 keeps both within a small constant of the
/// per-phase-rebuild baseline.
const LEVEL_GROWTH: f64 = 2.0;

/// Everything the engine keeps for one cover level.
#[derive(Debug)]
struct Level {
    /// Phase radius the level's cover was built at.
    radius: f64,
    cover: ClusterCover,
    /// The exact quotient `Q`, updated edge by edge.
    contraction: Contraction,
    /// `Q` as the phases query it: the CSR frozen at the level rebuild
    /// plus every quotient edge absorbed since, at its new weight.
    quotient: OverlayGraph,
    /// Bucket tuning for `quotient`: Δ from the frozen base, the ring
    /// widened to the heaviest edge pushed since.
    config: BucketConfig,
}

/// Persistent state of the hierarchical phase engine across the phases of
/// one relaxed-greedy run (a fresh engine has no cover level yet).
#[derive(Debug, Default)]
pub(crate) struct PhaseEngine {
    level: Option<Level>,
    rebuilds: usize,
}

impl PhaseEngine {
    /// Ensures the engine holds a cover usable for a phase of radius
    /// `radius` over the current `spanner`, rebuilding the level if the
    /// radius outgrew it. Returns whether a rebuild happened.
    ///
    /// On rebuild the previous level's centres are offered centre-hood
    /// first (ascending id), so each new cluster is a union of
    /// previous-level clusters wherever the radii allow — the new cover is
    /// computed *over the contracted structure* — while the claiming
    /// sweeps run on the real spanner, keeping coverage distances and
    /// centre separation exact rather than quotient-approximate. The
    /// rebuild is also the only place the quotient is frozen into a
    /// [`CsrGraph`]; the previous level's snapshot and contraction are
    /// dropped before the new ones are built.
    pub fn prepare(&mut self, spanner: &WeightedGraph, radius: f64) -> bool {
        if let Some(level) = &self.level {
            if radius <= LEVEL_GROWTH * level.radius {
                return false;
            }
        }
        let priority: Vec<NodeId> = match self.level.take() {
            Some(previous) => {
                let mut centers = previous.cover.centers().to_vec();
                centers.sort_unstable();
                centers
            }
            None => Vec::new(),
        };
        let cover = ClusterCover::greedy_with_candidates(spanner, radius, &priority);
        let n = spanner.node_count();
        let assignment: Vec<u32> = (0..n).map(|v| cover.cluster_of(v) as u32).collect();
        let offsets: Vec<f64> = (0..n).map(|v| cover.dist_to_center(v)).collect();
        let contraction =
            Contraction::from_graph(spanner, assignment, offsets, cover.cluster_count());
        let base = CsrGraph::from(contraction.quotient());
        let config = BucketConfig::for_graph(&base);
        self.level = Some(Level {
            radius,
            cover,
            contraction,
            quotient: OverlayGraph::new(base),
            config,
        });
        self.rebuilds += 1;
        true
    }

    /// The current level.
    ///
    /// # Panics
    ///
    /// Panics if [`PhaseEngine::prepare`] has never been called.
    fn level(&self) -> &Level {
        // Documented API contract (see `# Panics` above): the phase loop
        // calls prepare() first. tc-lint: allow(panic-hygiene)
        self.level.as_ref().expect("prepare() establishes a level")
    }

    /// Number of level rebuilds so far (for stats and tests).
    #[cfg(test)]
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// The per-phase freeze this engine replaced, kept as a test oracle: a
    /// fresh CSR snapshot of the whole quotient and its own bucket
    /// configuration.
    #[cfg(test)]
    pub fn freeze(&self) -> (CsrGraph, BucketConfig) {
        let csr = CsrGraph::from(self.level().contraction.quotient());
        let config = BucketConfig::for_graph(&csr);
        (csr, config)
    }

    /// Folds the edges a phase decided to keep into the quotient, and
    /// pushes every quotient edge that actually changed onto the level's
    /// overlay at its new weight (widening the bucket ring to match).
    /// Call *after* redundancy removal so withdrawn edges never touch the
    /// contraction (they only ever removed same-phase additions, which are
    /// absorbed here and nowhere else).
    ///
    /// # Panics
    ///
    /// Panics if [`PhaseEngine::prepare`] has never been called.
    pub fn absorb_kept(&mut self, kept: impl IntoIterator<Item = Edge>) {
        // Same prepare()-first contract as level().
        let level = self
            .level
            .as_mut()
            // tc-lint: allow(panic-hygiene)
            .expect("prepare() establishes a level");
        for e in kept {
            if let Some(changed) = level.contraction.absorb_change(e) {
                level.quotient.push(changed);
                level.config = level.config.covering(changed.weight);
            }
        }
    }
}

/// The production steps: the level-frozen cover, the quotient overlay and
/// the contracted redundancy analysis.
impl PhaseSteps for PhaseEngine {
    /// Reuses the frozen level while the radius still fits, and rebuilds
    /// it on the previous level's contraction otherwise.
    fn cover(&mut self, spanner: &WeightedGraph, phase: &Phase) -> &ClusterCover {
        self.prepare(spanner, phase.radius);
        &self.level().cover
    }

    /// Nothing to do: `H` only changes in step (v), which pushes each
    /// change onto the quotient's overlay as it happens.
    fn cluster_graph(&mut self, _spanner: &WeightedGraph, _phase: &Phase, _queries: &[Edge]) {}

    fn answer(&mut self, _spanner: &WeightedGraph, phase: &Phase, queries: &[Edge]) -> Vec<bool> {
        // Any H-path between distinct clusters starts and ends with the
        // endpoints' centre edges, so each endpoint is projected onto its
        // centre.
        let level = self.level();
        let t = phase.params.t;
        answer_queries(&level.quotient, &level.config, queries, t, |v| {
            level.contraction.project(v)
        })
    }

    /// Finds the removals on the quotient, then folds the kept additions
    /// into it so the next phase's `H` sees them. Removals only ever
    /// withdraw this phase's own additions, so absorbing after removal
    /// keeps the contraction exact without any quotient-deletion
    /// machinery.
    fn redundant(&mut self, phase: &Phase, added: &[Edge]) -> Vec<usize> {
        let level = self.level();
        let (t1, h) = (phase.params.t1, &level.quotient);
        let removals =
            contracted_redundant_removals(added, &level.contraction, h, &level.config, t1);
        // `removals` is ascending.
        let kept = (0..added.len()).filter(|i| removals.binary_search(i).is_err());
        self.absorb_kept(kept.map(|i| added[i]));
        removals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use tc_graph::GraphView;

    /// A random connected-ish weighted graph with weights in
    /// `[w_lo, w_hi)`.
    fn random_graph(
        rng: &mut rand::rngs::StdRng,
        n: usize,
        p: f64,
        w_lo: f64,
        w_hi: f64,
    ) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(u, v, rng.gen_range(w_lo..w_hi));
                }
            }
        }
        g
    }

    #[test]
    fn first_prepare_matches_the_oracle_greedy_cover() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = random_graph(&mut rng, 30, 0.2, 0.1, 1.0);
        let mut engine = PhaseEngine::default();
        assert!(engine.prepare(&g, 0.3));
        let oracle = ClusterCover::greedy(&g, 0.3);
        assert_eq!(engine.level().cover.centers(), oracle.centers());
        for v in 0..30 {
            assert_eq!(engine.level().cover.cluster_of(v), oracle.cluster_of(v));
            assert_eq!(
                engine.level().cover.dist_to_center(v),
                oracle.dist_to_center(v)
            );
        }
    }

    #[test]
    fn radii_within_the_level_growth_reuse_the_cover() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let g = random_graph(&mut rng, 40, 0.15, 0.1, 1.0);
        let mut engine = PhaseEngine::default();
        assert!(engine.prepare(&g, 0.2));
        assert!(!engine.prepare(&g, 0.3));
        assert!(!engine.prepare(&g, 0.2 * LEVEL_GROWTH));
        assert_eq!(engine.rebuilds(), 1);
        assert!(engine.prepare(&g, 0.2 * LEVEL_GROWTH + 1e-9));
        assert_eq!(engine.rebuilds(), 2);
    }

    #[test]
    fn quotient_matches_full_edge_scan_after_incremental_absorption() {
        // Seed a contraction from a partial graph, absorb the remaining
        // edges one by one, and compare against a bulk rebuild over the
        // final graph with the same cover.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut g = random_graph(&mut rng, 25, 0.2, 0.2, 1.0);
        let mut engine = PhaseEngine::default();
        engine.prepare(&g, 0.25);
        let cover = engine.level().cover.clone();
        // Edges heavier than twice the radius keep the cover frozen-valid.
        let extra: Vec<Edge> = (0..8)
            .filter_map(|_| {
                let (u, v) = (rng.gen_range(0..25), rng.gen_range(0..25));
                (u != v && !g.has_edge(u, v)).then(|| Edge::new(u, v, rng.gen_range(0.8..1.5)))
            })
            .collect();
        for &e in &extra {
            g.add(e);
        }
        engine.absorb_kept(extra.iter().copied());
        let n = g.node_count();
        let assignment: Vec<u32> = (0..n).map(|v| cover.cluster_of(v) as u32).collect();
        let offsets: Vec<f64> = (0..n).map(|v| cover.dist_to_center(v)).collect();
        let bulk = Contraction::from_graph(&g, assignment, offsets, cover.cluster_count());
        assert_eq!(
            engine.level().contraction.quotient().sorted_edges(),
            bulk.quotient().sorted_edges()
        );
    }

    /// Level rebuilds and phases of a relaxed-greedy run on the scale
    /// harness' deployment (seed 2006, uniform, expected degree 8, unit
    /// disk, ε = 1) with `n` nodes. The rebuild decision depends only on
    /// the phase radii `δ·W_{i-1}` of the non-empty bins, so an edgeless
    /// spanner replays the exact schedule of the real run.
    fn rebuilds_on_the_scale_schedule(n: usize) -> (usize, usize) {
        use crate::relaxed::BinPartition;
        use crate::SpannerParams;
        use tc_ubg::{generators, UbgBuilder};

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2006);
        let side = generators::side_for_target_degree(n, 2, 8.0);
        let points = generators::uniform_points(&mut rng, n, 2, side);
        let ubg = UbgBuilder::unit_disk().build(points).unwrap();
        let params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
        let bins = BinPartition::new(ubg.graph(), params.alpha / n as f64, params.r);
        let edgeless = WeightedGraph::new(n);
        let mut engine = PhaseEngine::default();
        let mut phases = 0;
        for i in bins.non_empty_bins().into_iter().filter(|&i| i > 0) {
            engine.prepare(&edgeless, params.delta * bins.upper(i - 1));
            phases += 1;
        }
        (engine.rebuilds(), phases)
    }

    /// The module docs quote these counts: a handful of level rebuilds
    /// (and so of quotient freezes) against hundreds of phases.
    #[test]
    fn level_rebuilds_on_the_scale_schedule_at_20k() {
        assert_eq!(rebuilds_on_the_scale_schedule(20_000), (9, 418));
    }

    #[test]
    #[ignore = "10^6-node UBG; run in release with --ignored"]
    fn level_rebuilds_on_the_scale_schedule_at_1m() {
        assert_eq!(rebuilds_on_the_scale_schedule(1_000_000), (11, 625));
    }

    /// Drives `engine` through a phase schedule with geometrically growing
    /// radii and ever-heavier edge additions — the shape the
    /// relaxed-greedy loop guarantees: random edges sorted ascending like
    /// the bin partition, added in chunks, with each phase's radius
    /// `0.45·w` from the heaviest edge already in the spanner. Before each
    /// chunk is added, `at_phase` sees the prepared engine, the current
    /// spanner and the chunk (the phase's "bin"); a final call with an
    /// empty chunk follows the last addition.
    fn run_phase_schedule(
        seed: u64,
        n: usize,
        p: f64,
        mut at_phase: impl FnMut(&PhaseEngine, &WeightedGraph, &[Edge]),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges: Vec<Edge> = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    edges.push(Edge::new(u, v, rng.gen_range(0.01..1.0)));
                }
            }
        }
        edges.sort();
        let mut spanner = WeightedGraph::new(n);
        let mut engine = PhaseEngine::default();
        let delta = 0.45; // < 1/2, like every validated parameter set
        let chunk = 4.max(edges.len() / 6);
        let mut processed = 0;
        let mut w_prev = 0.0_f64;
        while processed < edges.len() {
            // Phase radius from the heaviest edge already *in* the
            // spanner — the next chunk's edges are all heavier.
            engine.prepare(&spanner, delta * w_prev);
            let next = (processed + chunk).min(edges.len());
            at_phase(&engine, &spanner, &edges[processed..next]);
            for e in &edges[processed..next] {
                spanner.add(*e);
                w_prev = w_prev.max(e.weight);
            }
            engine.absorb_kept(edges[processed..next].iter().copied());
            processed = next;
        }
        engine.prepare(&spanner, delta * w_prev);
        at_phase(&engine, &spanner, &[]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Across the phase schedule of [`run_phase_schedule`], the
        /// engine's contracted cover remains a valid cover of the
        /// *current* spanner at every phase, including the phases that
        /// reuse a frozen level.
        #[test]
        fn contracted_cover_stays_valid_across_phases(
            seed in 0u64..300,
            n in 5usize..36,
            p in 0.08f64..0.4,
        ) {
            run_phase_schedule(seed, n, p, |engine, spanner, _| {
                assert!(
                    engine.level().cover.is_valid_cover(spanner),
                    "cover invalid with {} spanner edges",
                    spanner.edge_count()
                );
            });
        }

        /// On the same schedule, every phase's query verdicts and
        /// redundancy removals are identical whether measured on the
        /// engine's level-frozen CSR plus overlay or on the per-phase
        /// freeze it replaced (a fresh `CsrGraph` of the whole quotient
        /// with its own bucket configuration).
        #[test]
        fn overlay_answers_match_a_fresh_quotient_freeze(
            seed in 0u64..300,
            n in 5usize..36,
            p in 0.08f64..0.4,
            t in 1.1f64..3.0,
        ) {
            let t1 = 1.0 + (t - 1.0) / 2.0;
            run_phase_schedule(seed, n, p, |engine, _, bin| {
                let (h, config) = (&engine.level().quotient, &engine.level().config);
                let (csr, csr_config) = engine.freeze();
                assert_eq!(h.node_count(), csr.node_count());
                let project = |v| engine.level().contraction.project(v);
                let verdicts = answer_queries(h, config, bin, t, project);
                assert_eq!(verdicts, answer_queries(&csr, &csr_config, bin, t, project));
                let added: Vec<Edge> = bin
                    .iter()
                    .zip(&verdicts)
                    .filter(|&(_, &needed)| needed)
                    .map(|(&e, _)| e)
                    .collect();
                let contraction = &engine.level().contraction;
                for candidates in [bin, &added[..]] {
                    assert_eq!(
                        contracted_redundant_removals(candidates, contraction, h, config, t1),
                        contracted_redundant_removals(candidates, contraction, &csr, &csr_config, t1)
                    );
                }
            });
        }
    }
}
