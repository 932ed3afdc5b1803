//! The distributed relaxed greedy algorithm (Section 3 of the paper).
//!
//! The distributed algorithm runs the same phase structure as the
//! sequential relaxed greedy, with each step replaced by its local,
//! message-passing counterpart:
//!
//! * **Phase 0** (Section 3.1): each node learns its closed 1-hop
//!   neighbourhood, identifies its clique component of `G_0`, runs
//!   `SEQ-GREEDY` locally and announces its incident spanner edges —
//!   `O(1)` rounds.
//! * **Cluster cover** (Section 3.2.1): the "within `δ·W_{i-1}`" graph `J`
//!   is a UBG of constant doubling dimension (Lemma 15); an MIS of `J`
//!   yields the cluster centres and every other node attaches to the
//!   reachable centre with the highest identifier — `O(log* n)` rounds in
//!   the paper via Kuhn–Moscibroda–Wattenhofer; here the rounds of the
//!   stand-in MIS protocol are *measured* (see DESIGN.md, substitution 2).
//! * **Query-edge selection, cluster graph, query answering** (Sections
//!   3.2.2–3.2.4): each requires gathering information from a constant
//!   number of hops — `O(1)` rounds, charged at the hop bounds the paper
//!   derives.
//! * **Redundant-edge removal** (Section 3.2.5): an MIS on the conflict
//!   graph of mutually redundant edges (a UBG of constant doubling
//!   dimension, Lemma 20).
//!
//! Rather than shipping every byte through the simulator, the
//! construction runs the crate's shared phase driver (the one behind
//! [`RelaxedGreedy`](crate::RelaxedGreedy)) with message-passing steps:
//! each step computes its *data* centrally and charges a [`RoundLedger`]
//! for the *communication*, at exactly the hop bounds proved in the
//! paper. The two MIS invocations per phase are run as genuine
//! message-passing protocols on [`tc_simnet::SyncNetwork`] and their
//! measured rounds are charged. Phase 0, query-edge selection and the
//! spanner updates are the driver's own, so the output is identical in
//! structure to the sequential algorithm (and the spanner guarantees
//! carry over) while the round count for the complexity experiment (E4)
//! stays honest.
//!
//! As the local protocol's cost does, each phase's central work follows
//! what the phase touches rather than `n`: the cover sweeps and runs its
//! MIS only over the nodes with a spanner edge within the cover radius
//! (every other node is its own isolated centre), and `H_{i-1}` is built
//! only over the region the phase's queries can read.

use crate::ablation::AblationConfig;
use crate::params::SpannerParams;
use crate::relaxed::{
    analyze_redundancy, answer_queries_on, run_phases, Balls, ClusterCover, Phase, PhaseSteps,
    PhaseTiming, PointCountMismatch, RegionClusterGraph, SpannerResult,
};
use crate::weighting::EdgeWeighting;
use serde::{Deserialize, Serialize};
use tc_geometry::PointAccess;
use tc_graph::bucket::BucketConfig;
use tc_graph::{Edge, NodeId, WeightedGraph};
use tc_simnet::{log2_ceil, log_star, mis, CommStats, RoundLedger};
use tc_ubg::UnitBallGraph;

/// Which distributed MIS protocol stands in for the paper's
/// Kuhn–Moscibroda–Wattenhofer black box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MisProtocol {
    /// Deterministic highest-rank-joins protocol (ranks = node ids).
    #[default]
    Rank,
    /// Luby's randomised protocol with the given seed.
    Luby {
        /// Seed for the per-node random priorities.
        seed: u64,
    },
}

impl MisProtocol {
    /// Runs the protocol on `graph`.
    fn run(self, graph: &WeightedGraph) -> mis::MisResult {
        match self {
            MisProtocol::Rank => mis::rank_mis(graph, None),
            MisProtocol::Luby { seed } => mis::luby_mis(graph, seed),
        }
    }

    /// Runs the protocol on an `n`-node graph given by its non-isolated
    /// part `graph`, whose node `k` is node `ids[k]`; the result is the
    /// whole graph's (see [`mis::rank_mis_compact`]).
    fn run_compact(self, n: usize, ids: &[NodeId], graph: &WeightedGraph) -> mis::MisResult {
        match self {
            MisProtocol::Rank => mis::rank_mis_compact(n, ids, graph),
            MisProtocol::Luby { seed } => mis::luby_mis_compact(n, ids, graph, seed),
        }
    }
}

/// The outcome of a distributed construction: the spanner plus the full
/// communication accounting.
#[derive(Debug, Clone)]
pub struct DistributedSpannerResult {
    /// The constructed spanner and per-phase statistics (same format as
    /// the sequential result).
    pub result: SpannerResult,
    /// Round/message charges, labelled per phase and step.
    pub ledger: RoundLedger,
    /// Total rounds across all phases.
    pub rounds: usize,
    /// Total messages of the MIS sub-protocols (the only genuinely
    /// message-level simulations).
    pub messages: usize,
    /// Number of nodes `n`.
    pub nodes: usize,
    /// `⌈log2 n⌉`.
    pub log_n: f64,
    /// `log* n`.
    pub log_star_n: u32,
}

impl DistributedSpannerResult {
    /// Rounds divided by the paper's bound `log n · log* n`; the
    /// round-complexity experiment plots this ratio, which should stay
    /// bounded as `n` grows.
    pub fn normalized_rounds(&self) -> f64 {
        self.rounds as f64 / (self.log_n * self.log_star_n.max(1) as f64)
    }
}

/// The distributed relaxed greedy construction.
///
/// # Example
///
/// ```
/// use tc_spanner::{DistributedRelaxedGreedy, SpannerParams};
/// use tc_ubg::{generators, UbgBuilder};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let points = generators::uniform_points(&mut rng, 50, 2, 2.0);
/// let ubg = UbgBuilder::unit_disk().build(points).unwrap();
/// let params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
/// let out = DistributedRelaxedGreedy::new(params).run(&ubg);
/// assert!(out.rounds > 0);
/// assert!(out.result.spanner.edge_count() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DistributedRelaxedGreedy {
    params: SpannerParams,
    weighting: EdgeWeighting,
    mis_protocol: MisProtocol,
}

impl DistributedRelaxedGreedy {
    /// Creates a distributed construction with the given parameters, the
    /// Euclidean weighting and the deterministic rank MIS.
    pub fn new(params: SpannerParams) -> Self {
        Self {
            params,
            weighting: EdgeWeighting::Euclidean,
            mis_protocol: MisProtocol::Rank,
        }
    }

    /// Selects the edge weighting.
    pub fn with_weighting(mut self, weighting: EdgeWeighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// Selects the distributed MIS protocol.
    pub fn with_mis_protocol(mut self, protocol: MisProtocol) -> Self {
        self.mis_protocol = protocol;
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> &SpannerParams {
        &self.params
    }

    /// Runs the distributed construction on a realised α-UBG.
    pub fn run(&self, ubg: &UnitBallGraph) -> DistributedSpannerResult {
        self.run_timed(ubg).0
    }

    /// Runs the distributed construction on a realised α-UBG, additionally
    /// recording per-phase wall-clock timings of the message-passing steps
    /// (see [`PhaseTiming`] for why timings live outside the result).
    pub fn run_timed(&self, ubg: &UnitBallGraph) -> (DistributedSpannerResult, Vec<PhaseTiming>) {
        let graph = self.weighting.weighted_graph(ubg);
        // weighted_graph() derives the graph from ubg.points(), so the
        // counts agree by construction.
        self.run_on_timed(ubg.points(), &graph)
            // tc-lint: allow(panic-hygiene)
            .expect("the UBG's own points match its graph by construction")
    }

    /// Runs the construction on an explicit (points, weighted graph) pair;
    /// see [`crate::RelaxedGreedy::run_on`].
    ///
    /// # Errors
    ///
    /// Returns [`PointCountMismatch`] if `points` does not have exactly one
    /// point per graph vertex.
    pub fn run_on<P: PointAccess + ?Sized>(
        &self,
        points: &P,
        graph: &WeightedGraph,
    ) -> Result<DistributedSpannerResult, PointCountMismatch> {
        Ok(self.run_on_timed(points, graph)?.0)
    }

    fn run_on_timed<P: PointAccess + ?Sized>(
        &self,
        points: &P,
        graph: &WeightedGraph,
    ) -> Result<(DistributedSpannerResult, Vec<PhaseTiming>), PointCountMismatch> {
        let mut steps = MessagePassingSteps {
            mis_protocol: self.mis_protocol,
            ledger: RoundLedger::default(),
            cover: ClusterCover::default(),
            // Replaced by the partial spanner's own in every phase's step (i).
            config: BucketConfig::new(1.0, 1.0),
            h: RegionClusterGraph::default(),
        };
        let mechanisms = AblationConfig::full();
        let (result, timings) = run_phases(
            points,
            graph,
            &self.params,
            self.weighting,
            &mechanisms,
            &mut steps,
        )?;
        let ledger = steps.ledger;
        let total = ledger.total();
        let n = graph.node_count();
        let out = DistributedSpannerResult {
            result,
            rounds: total.rounds,
            messages: total.messages,
            nodes: n,
            log_n: log2_ceil(n),
            log_star_n: log_star(n),
            ledger,
        };
        Ok((out, timings))
    }
}

/// The message-passing steps (Sections 3.2.1–3.2.5). Each computes its
/// data centrally and charges `ledger` for the communication the paper's
/// local protocol needs.
struct MessagePassingSteps {
    mis_protocol: MisProtocol,
    ledger: RoundLedger,
    cover: ClusterCover,
    /// The bucket configuration of the phase's partial spanner, derived
    /// once in step (i) for the cover's and the cluster graph's sweeps.
    config: BucketConfig,
    /// `H_{i-1}` over the region the phase's queries can read.
    h: RegionClusterGraph,
}

/// The distributed cover of `spanner` with radius `radius`: the centres
/// are an MIS of the "within `radius`" graph J, measured as `protocol`
/// runs it, and every node attaches to the reachable centre with the
/// highest identifier. Returns the cover and the MIS run.
///
/// Only the nodes with a spanner edge within the radius sweep: any other
/// node reaches itself alone, so it is isolated in J, in every MIS and
/// its own singleton centre. J is built over the swept nodes, relabelled
/// in ascending id order, and the MIS runs there with the original ids;
/// the isolated nodes join directly (see [`mis::rank_mis_compact`]).
fn mis_cover(
    spanner: &WeightedGraph,
    radius: f64,
    config: &BucketConfig,
    protocol: MisProtocol,
) -> (ClusterCover, mis::MisResult) {
    let n = spanner.node_count();
    let swept: Vec<NodeId> = (0..n)
        .filter(|&u| spanner.neighbors(u).iter().any(|&(_, w)| w <= radius))
        .collect();
    // One radius-bounded sweep per swept node gives its J-neighbours, and
    // the centres' sweeps are the balls they attach: O(nodes reached) per
    // node, in one flat buffer.
    let balls = Balls::sweep(spanner, &swept, radius, config, |v| Some(v as u32));
    // A ball's other nodes each have an edge within the radius (the last
    // one on the path that reached them), so they are swept nodes too.
    let local = |v: u32| {
        let k = swept.partition_point(|&x| x < v as NodeId);
        debug_assert_eq!(
            swept.get(k),
            Some(&(v as NodeId)),
            "a ball left the swept nodes"
        );
        k
    };
    let j_edges = swept.iter().enumerate().flat_map(|(k, &u)| {
        balls
            .row(k)
            .iter()
            .filter(move |&&(v, _)| v as NodeId > u)
            .map(move |&(v, _)| Edge::new(k, local(v), 1.0))
    });
    let j_graph = WeightedGraph::from_edges(swept.len(), j_edges);
    let mis_result = protocol.run_compact(n, &swept, &j_graph);
    let cover = ClusterCover::from_balls(n, &swept, &balls, &mis_result.mis, radius);
    (cover, mis_result)
}

/// The ledger label of `step` in `phase`.
fn label(phase: &Phase, step: &str) -> String {
    format!("phase{}/{step}", phase.bin)
}

/// Hop bound the paper derives (Sections 2.2.4 and 3.2): nodes at spanner
/// distance `distance` are at most `2·distance/α` hops apart in G, because
/// any two nodes two hops apart on a shortest path are more than α apart.
fn hops_for(phase: &Phase, distance: f64) -> usize {
    ((2.0 * distance / phase.alpha_w).ceil() as usize).max(1)
}

/// Hops a query answer (and a conflict-graph round) spans.
fn query_answer_hops(phase: &Phase) -> usize {
    let p = phase.params;
    ((2.0 * (2.0 * p.delta + 1.0) / p.alpha).ceil() as usize).max(1)
}

impl PhaseSteps for MessagePassingSteps {
    /// Cluster cover via MIS on the derived graph J
    /// (x ~ y iff sp_{G'_{i-1}}(x, y) <= radius).
    fn cover(&mut self, spanner: &WeightedGraph, phase: &Phase) -> &ClusterCover {
        let radius = phase.radius;
        self.config = BucketConfig::for_graph(spanner);
        let (cover, mis_result) = mis_cover(spanner, radius, &self.config, self.mis_protocol);
        self.cover = cover;
        let cover_gather_hops = hops_for(phase, radius);
        self.ledger
            .charge_rounds(label(phase, "cover/gather"), cover_gather_hops);
        // Each MIS round over J is simulated by relaying through at most
        // `cover_gather_hops` hops of G.
        let rounds = mis_result.stats.rounds * cover_gather_hops;
        self.ledger.charge(
            label(phase, "cover/mis"),
            CommStats {
                rounds,
                ..mis_result.stats
            },
        );
        self.ledger.charge_rounds(label(phase, "cover/attach"), 1);
        &self.cover
    }

    /// Also charges step (ii), which the driver runs just before: cluster
    /// heads gather all bin edges between their cluster and any other,
    /// discard covered ones and pick the minimiser per cluster pair.
    fn cluster_graph(&mut self, spanner: &WeightedGraph, phase: &Phase, queries: &[Edge]) {
        let delta = phase.params.delta;
        let select_hops = 1 + hops_for(phase, phase.radius);
        self.ledger
            .charge_rounds(label(phase, "query-selection/gather"), select_hops);
        self.h =
            RegionClusterGraph::for_queries(spanner, &self.cover, phase, queries, &self.config);
        let h_hops = hops_for(phase, (2.0 * delta + 1.0) * phase.w_prev);
        self.ledger
            .charge_rounds(label(phase, "cluster-graph/gather"), h_hops);
    }

    fn answer(&mut self, _spanner: &WeightedGraph, phase: &Phase, queries: &[Edge]) -> Vec<bool> {
        let verdicts = answer_queries_on(self.h.graph(), &self.h.local(queries), phase.params.t);
        self.ledger
            .charge_rounds(label(phase, "queries/answer"), query_answer_hops(phase));
        verdicts
    }

    /// Redundant-edge removal via MIS on the conflict graph.
    fn redundant(&mut self, phase: &Phase, added: &[Edge]) -> Vec<usize> {
        // The phase's H is not needed after this analysis; taking it frees
        // it before the next phase builds its own.
        let h = std::mem::take(&mut self.h);
        let analysis = analyze_redundancy(&h.local(added), h.graph(), phase.params.t1);
        let removals = analysis.removals(|conflicts| {
            let conflict_mis = self.mis_protocol.run(conflicts);
            let rounds = conflict_mis.stats.rounds * query_answer_hops(phase);
            let stats = CommStats {
                rounds,
                ..conflict_mis.stats
            };
            self.ledger.charge(label(phase, "redundant/mis"), stats);
            conflict_mis.mis
        });
        self.ledger
            .charge_rounds(label(phase, "redundant/announce"), 1);
        removals
    }

    /// Theorem 14: processing `E_0` takes `O(1)` rounds — one to learn the
    /// closed neighbourhood (with pairwise distances), one to announce the
    /// locally computed clique-spanner edges.
    fn phase0_done(&mut self) {
        self.ledger.charge_rounds("phase0/gather-neighbourhood", 1);
        self.ledger
            .charge_rounds("phase0/announce-spanner-edges", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_graph::properties::stretch_factor;
    use tc_ubg::{generators, GreyZonePolicy, UbgBuilder};

    fn uniform_ubg(seed: u64, n: usize, side: f64, alpha: f64) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, n, 2, side);
        UbgBuilder::new(alpha).build(points).unwrap()
    }

    #[test]
    fn distributed_output_is_a_t_spanner() {
        let ubg = uniform_ubg(11, 70, 2.5, 1.0);
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let out = DistributedRelaxedGreedy::new(params).run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &out.result.spanner);
        assert!(stretch <= params.t + 1e-9, "stretch {stretch}");
        assert!(out.rounds > 0);
        assert!(out.normalized_rounds() > 0.0);
        assert_eq!(out.nodes, 70);
    }

    #[test]
    fn distributed_output_matches_guarantees_on_alpha_ubg() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let points = generators::uniform_points(&mut rng, 60, 2, 2.0);
        let ubg = UbgBuilder::new(0.7)
            .grey_zone(GreyZonePolicy::DistanceFalloff { seed: 4 })
            .build(points)
            .unwrap();
        let params = SpannerParams::for_epsilon(1.0, 0.7).unwrap();
        let out = DistributedRelaxedGreedy::new(params)
            .with_mis_protocol(MisProtocol::Luby { seed: 12 })
            .run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &out.result.spanner);
        assert!(stretch <= params.t + 1e-9, "stretch {stretch}");
    }

    #[test]
    fn ledger_contains_per_phase_breakdown() {
        let ubg = uniform_ubg(13, 50, 2.0, 1.0);
        let params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
        let out = DistributedRelaxedGreedy::new(params).run(&ubg);
        assert!(out.ledger.entries().count() > 0);
        let ledger_rounds: usize = out.ledger.entries().map(|(_, s)| s.rounds).sum();
        assert_eq!(ledger_rounds, out.rounds);
        // Every processed long phase charges a cover gather.
        let long_phases = out.result.phases.iter().filter(|p| p.bin > 0).count();
        let cover_entries = out
            .ledger
            .entries()
            .filter(|(label, _)| label.ends_with("cover/gather"))
            .count();
        assert_eq!(long_phases, cover_entries);
    }

    #[test]
    fn rank_and_luby_variants_both_terminate_and_agree_on_guarantees() {
        let ubg = uniform_ubg(19, 55, 2.0, 1.0);
        let params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
        let rank = DistributedRelaxedGreedy::new(params).run(&ubg);
        let luby = DistributedRelaxedGreedy::new(params)
            .with_mis_protocol(MisProtocol::Luby { seed: 7 })
            .run(&ubg);
        for out in [&rank, &luby] {
            let stretch = stretch_factor(ubg.graph(), &out.result.spanner);
            assert!(stretch <= params.t + 1e-9);
        }
        assert!(rank.rounds > 0 && luby.rounds > 0);
    }

    #[test]
    fn empty_input_produces_zero_rounds() {
        let empty = UbgBuilder::unit_disk().build(vec![]).unwrap();
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let out = DistributedRelaxedGreedy::new(params).run(&empty);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.result.spanner.node_count(), 0);
    }

    #[test]
    fn run_timed_reports_one_consistent_timing_per_phase() {
        let ubg = uniform_ubg(23, 120, 3.0, 0.8);
        let params = SpannerParams::for_epsilon(1.0, 0.8).unwrap();
        let construction = DistributedRelaxedGreedy::new(params);
        let (out, timings) = construction.run_timed(&ubg);
        let bins: Vec<usize> = out.result.phases.iter().map(|p| p.bin).collect();
        assert_eq!(timings.iter().map(|t| t.bin).collect::<Vec<_>>(), bins);
        assert!(timings.len() > 1);
        for t in &timings {
            let steps = t.cover_seconds
                + t.selection_seconds
                + t.h_build_seconds
                + t.query_seconds
                + t.redundant_seconds;
            assert!(
                steps <= t.seconds,
                "bin {}: steps {steps}s over the phase's {}s",
                t.bin,
                t.seconds
            );
        }
        // Timing is beside the output, never inside it.
        let plain = construction.run(&ubg);
        assert_eq!(
            plain.result.spanner.sorted_edges(),
            out.result.spanner.sorted_edges()
        );
        assert_eq!((plain.rounds, plain.messages), (out.rounds, out.messages));
    }

    #[test]
    fn default_mis_protocol_is_rank() {
        assert_eq!(MisProtocol::default(), MisProtocol::Rank);
    }

    /// The n-node J path the compact cover replaced, kept as its oracle:
    /// every node sweeps, J spans all `n` nodes and the MIS runs over all
    /// of them.
    fn mis_cover_oracle(
        spanner: &WeightedGraph,
        radius: f64,
        protocol: MisProtocol,
    ) -> (ClusterCover, mis::MisResult) {
        let n = spanner.node_count();
        let nodes: Vec<NodeId> = (0..n).collect();
        let config = BucketConfig::for_graph(spanner);
        let balls = Balls::sweep(spanner, &nodes, radius, &config, |v| Some(v as u32));
        let j_edges = nodes.iter().flat_map(|&u| {
            balls
                .row(u)
                .iter()
                .filter(move |&&(v, _)| v as NodeId > u)
                .map(move |&(v, _)| Edge::new(u, v as NodeId, 1.0))
        });
        let j_graph = WeightedGraph::from_edges(n, j_edges);
        let mis_result = protocol.run(&j_graph);
        let cover = ClusterCover::from_balls(n, &nodes, &balls, &mis_result.mis, radius);
        (cover, mis_result)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// The cover over J's non-isolated nodes is the n-node oracle's:
        /// same centres, assignments and bitwise distances, and the same
        /// MIS with the same rounds, messages and phases, for both
        /// protocols.
        #[test]
        fn the_compact_cover_matches_the_n_node_j_oracle(
            seed in 0u64..1_000,
            n in 1usize..60,
            p in 0.02f64..0.3,
            radius in 0.0f64..0.8,
        ) {
            use rand::Rng;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut g = WeightedGraph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(p) {
                        g.add_edge(u, v, rng.gen_range(0.01..1.0));
                    }
                }
            }
            let config = BucketConfig::for_graph(&g);
            for protocol in [MisProtocol::Rank, MisProtocol::Luby { seed }] {
                let (cover, got) = mis_cover(&g, radius, &config, protocol);
                let (want_cover, want) = mis_cover_oracle(&g, radius, protocol);
                proptest::prop_assert_eq!(
                    (&got.mis, got.stats, got.phases),
                    (&want.mis, want.stats, want.phases)
                );
                proptest::prop_assert_eq!(cover.centers(), want_cover.centers());
                for v in 0..n {
                    proptest::prop_assert_eq!(cover.cluster_of(v), want_cover.cluster_of(v));
                    proptest::prop_assert_eq!(
                        cover.dist_to_center(v).to_bits(),
                        want_cover.dist_to_center(v).to_bits()
                    );
                }
            }
        }
    }
}
