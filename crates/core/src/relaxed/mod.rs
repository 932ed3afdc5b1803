//! The sequential relaxed greedy algorithm (Section 2 of the paper).
//!
//! The classical `SEQ-GREEDY` needs a *total* order on the edges and an
//! up-to-date partial spanner for every query — both fatal for a
//! distributed implementation. The relaxed variant keeps correctness while
//! removing both requirements:
//!
//! 1. edges are only *binned* by weight (`E_0, E_1, …`, geometric bins
//!    `W_i = r^i·α/n`) and processed bin by bin in arbitrary order inside
//!    a bin,
//! 2. all spanner-path queries of a bin are answered on a *frozen*
//!    approximation of the partial spanner — the Das–Narasimhan cluster
//!    graph `H_{i-1}` — so the queries of a phase are independent of each
//!    other (lazy updates),
//! 3. a covered-edge filter (Czumaj–Zhao) and a one-query-edge-per-
//!    cluster-pair rule keep the number of queries, and ultimately the
//!    spanner degree, constant per node,
//! 4. mutually redundant edges added in the same phase are pruned through
//!    an MIS of their conflict graph, which the weight bound needs.
//!
//! One phase driver (`driver::run_phases`) runs this structure for every
//! construction in the crate. It owns the bin loop, phase 0 and the
//! query-edge selection, and takes steps (i), (iii), (iv) and (v) from a
//! small step interface with three implementations:
//!
//! * [`RelaxedGreedy`] uses the `hierarchy` engine. Covers are kept
//!   frozen across geometric *levels* of phases and rebuilt on the
//!   previous level's contraction, and the cluster graph is maintained
//!   incrementally as a quotient ([`tc_graph::Contraction`]). The
//!   quotient is frozen into a CSR snapshot once per level; each phase
//!   queries that snapshot plus an [`OverlayGraph`](tc_graph::OverlayGraph)
//!   delta of the quotient edges absorbed since. The per-phase cost then
//!   tracks the shrinking cluster count and the phase's own changes
//!   instead of `n` — see `docs/PERFORMANCE.md`, "Phase engine".
//! * [`run_ablation`](crate::run_ablation) recomputes a greedy cover and
//!   the cluster graph every phase, and can switch each mechanism off.
//! * [`DistributedRelaxedGreedy`](crate::DistributedRelaxedGreedy) builds
//!   its cover from an MIS and replaces each step with its
//!   message-passing counterpart, charging the rounds it costs.
//!
//! The ablation and distributed steps build `H_{i-1}` with the one builder
//! behind [`build_cluster_graph`], but only over the region the phase's
//! queries can read: the nodes within `G'` distance `t·max_w` of a query
//! endpoint. Since `d_H ≥ d_G'`, the queries and the redundancy sweeps
//! find the same distances there as on the whole `H` — see
//! `docs/PERFORMANCE.md`, "Distributed steps".

mod bins;
mod cluster_graph;
mod cover;
mod driver;
mod hierarchy;
mod query;
mod redundant;

pub use bins::BinPartition;
pub(crate) use cluster_graph::RegionClusterGraph;
pub use cluster_graph::{build_cluster_graph, ClusterGraphStats};
pub(crate) use cover::Balls;
pub use cover::ClusterCover;
pub(crate) use driver::{run_phases, Phase, PhaseSteps};
pub(crate) use query::answer_queries_on;
pub use query::{is_covered, select_query_edges, QuerySelection};
pub use redundant::{
    analyze_redundancy, analyze_redundancy_contracted, contracted_redundant_removals,
    removals_from_mis, sequential_redundant_removals, RedundancyAnalysis,
};

use crate::ablation::AblationConfig;
use crate::params::SpannerParams;
use crate::weighting::EdgeWeighting;
use hierarchy::PhaseEngine;
use serde::{Deserialize, Serialize};
use std::fmt;
use tc_geometry::PointAccess;
use tc_graph::WeightedGraph;
use tc_ubg::UnitBallGraph;

/// The `points` slice handed to a construction does not have one point per
/// graph vertex.
///
/// Returned by [`RelaxedGreedy::run_on`], the distributed counterpart and
/// [`run_ablation_on`](crate::ablation::run_ablation_on);
/// [`RelaxedGreedy::run`] cannot hit it because it derives the graph from
/// the UBG's own points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointCountMismatch {
    /// Number of points supplied.
    pub points: usize,
    /// Number of vertices in the graph.
    pub nodes: usize,
}

impl fmt::Display for PointCountMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} points supplied for a graph with {} vertices; \
             one point per graph vertex is required",
            self.points, self.nodes
        )
    }
}

impl std::error::Error for PointCountMismatch {}

/// Wall-clock duration of one construction phase.
///
/// Timing is reported *beside* [`PhaseStats`], never inside it: the stats
/// (and everything else in [`SpannerResult`]) are part of the deterministic
/// construction output, which must be bitwise identical across runs and
/// thread counts — wall-clock readings are not.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Bin index `i` the timed phase processed.
    pub bin: usize,
    /// Wall-clock seconds the whole phase took.
    pub seconds: f64,
    /// Step (i): cluster-cover preparation (0 when the engine reused the
    /// frozen level, and for phase 0).
    pub cover_seconds: f64,
    /// Step (ii): query-edge selection (0 for phase 0).
    pub selection_seconds: f64,
    /// Step (iii): taking the cluster graph for the phase's queries (0 for
    /// phase 0). The phase engine freezes its quotient into CSR once per
    /// cover level, in step (i), so there this step is O(1); the
    /// distributed and ablation steps build `H_{i-1}` here, over the
    /// region their queries can read.
    pub h_build_seconds: f64,
    /// Step (iv): answering the spanner-path queries (0 for phase 0).
    pub query_seconds: f64,
    /// Step (v): redundant-edge analysis and removal (0 for phase 0).
    pub redundant_seconds: f64,
}

impl PhaseTiming {
    /// A zeroed timing record for bin `bin`.
    pub fn for_bin(bin: usize) -> Self {
        Self {
            bin,
            ..Self::default()
        }
    }
}

/// Per-phase statistics of a relaxed-greedy run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Bin index `i` this phase processed.
    pub bin: usize,
    /// Upper weight threshold `W_i` of the bin.
    pub bin_upper: f64,
    /// Number of edges in the bin.
    pub edges_in_bin: usize,
    /// Number of clusters of the cover of `G'_{i-1}` (0 for phase 0).
    pub clusters: usize,
    /// Edges filtered out by the covered-edge test.
    pub covered_edges: usize,
    /// Edges whose endpoints share a cluster (implicitly satisfied).
    pub same_cluster_edges: usize,
    /// Candidate edges surviving the filters.
    pub candidate_edges: usize,
    /// Query edges actually asked (≤ one per cluster pair).
    pub query_edges: usize,
    /// Edges added to the spanner this phase (before redundancy removal).
    pub added_edges: usize,
    /// Edges removed again as mutually redundant.
    pub removed_redundant: usize,
}

/// The output of a relaxed-greedy construction.
#[derive(Debug, Clone)]
pub struct SpannerResult {
    /// The constructed spanner (same vertex set as the input).
    pub spanner: WeightedGraph,
    /// The parameters the construction ran with.
    pub params: SpannerParams,
    /// The weighting the construction ran under.
    pub weighting: EdgeWeighting,
    /// Per-phase statistics, in processing order (only non-empty bins
    /// appear).
    pub phases: Vec<PhaseStats>,
}

impl SpannerResult {
    /// Total number of edges added across all phases (after redundancy
    /// removal).
    pub fn edges_kept(&self) -> usize {
        self.spanner.edge_count()
    }

    /// Number of phases that actually processed edges.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }
}

/// The sequential relaxed greedy spanner construction.
///
/// # Example
///
/// ```
/// use tc_spanner::{RelaxedGreedy, SpannerParams};
/// use tc_ubg::{generators, UbgBuilder};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let points = generators::uniform_points(&mut rng, 60, 2, 3.0);
/// let ubg = UbgBuilder::unit_disk().build(points).unwrap();
/// let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
/// let result = RelaxedGreedy::new(params).run(&ubg);
/// assert!(result.spanner.edge_count() <= ubg.graph().edge_count());
/// ```
#[derive(Debug, Clone)]
pub struct RelaxedGreedy {
    params: SpannerParams,
    weighting: EdgeWeighting,
}

impl RelaxedGreedy {
    /// Creates a construction with the given (validated) parameters and the
    /// Euclidean weighting.
    pub fn new(params: SpannerParams) -> Self {
        Self {
            params,
            weighting: EdgeWeighting::Euclidean,
        }
    }

    /// Selects the edge weighting (e.g. the power metric for energy
    /// spanners).
    pub fn with_weighting(mut self, weighting: EdgeWeighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> &SpannerParams {
        &self.params
    }

    /// The configured weighting.
    pub fn weighting(&self) -> EdgeWeighting {
        self.weighting
    }

    /// Runs the construction on a realised α-UBG.
    pub fn run(&self, ubg: &UnitBallGraph) -> SpannerResult {
        self.run_timed(ubg).0
    }

    /// Runs the construction on a realised α-UBG, additionally recording
    /// per-phase wall-clock timings (for the scale harness; see
    /// [`PhaseTiming`] for why timings live outside [`SpannerResult`]).
    pub fn run_timed(&self, ubg: &UnitBallGraph) -> (SpannerResult, Vec<PhaseTiming>) {
        let graph = self.weighting.weighted_graph(ubg);
        // weighted_graph() derives the graph from ubg.points(), so the
        // counts agree by construction.
        self.run_on_timed(ubg.points(), &graph)
            // tc-lint: allow(panic-hygiene)
            .expect("the UBG's own points match its graph by construction")
    }

    /// Runs the construction on an explicit (points, weighted graph) pair.
    /// The graph's weights must be consistent with the configured
    /// weighting applied to the points; [`RelaxedGreedy::run`] guarantees
    /// this, tests may construct their own inputs.
    ///
    /// # Errors
    ///
    /// Returns [`PointCountMismatch`] if `points` does not have exactly one
    /// point per graph vertex.
    pub fn run_on<P: PointAccess + ?Sized>(
        &self,
        points: &P,
        graph: &WeightedGraph,
    ) -> Result<SpannerResult, PointCountMismatch> {
        Ok(self.run_on_timed(points, graph)?.0)
    }

    /// [`RelaxedGreedy::run_on`] with per-phase wall-clock timings.
    ///
    /// # Errors
    ///
    /// Returns [`PointCountMismatch`] if `points` does not have exactly one
    /// point per graph vertex.
    pub fn run_on_timed<P: PointAccess + ?Sized>(
        &self,
        points: &P,
        graph: &WeightedGraph,
    ) -> Result<(SpannerResult, Vec<PhaseTiming>), PointCountMismatch> {
        let mechanisms = AblationConfig::full();
        let mut engine = PhaseEngine::default();
        run_phases(
            points,
            graph,
            &self.params,
            self.weighting,
            &mechanisms,
            &mut engine,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_geometry::Point;
    use tc_graph::properties::{spanner_report, stretch_factor};
    use tc_ubg::{generators, GreyZonePolicy, UbgBuilder};

    fn uniform_ubg(seed: u64, n: usize, dim: usize, side: f64, alpha: f64) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, n, dim, side);
        UbgBuilder::new(alpha).build(points).unwrap()
    }

    #[test]
    fn produces_a_t_spanner_on_a_udg() {
        let ubg = uniform_ubg(1, 80, 2, 3.0, 1.0);
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &result.spanner);
        assert!(
            stretch <= params.t + 1e-9,
            "stretch {stretch} exceeds target {}",
            params.t
        );
        assert!(result.spanner.edge_count() <= ubg.graph().edge_count());
        assert!(result.phase_count() > 0);
    }

    #[test]
    fn produces_a_t_spanner_on_an_alpha_ubg_with_grey_zone() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let points = generators::uniform_points(&mut rng, 70, 2, 2.5);
        let ubg = UbgBuilder::new(0.6)
            .grey_zone(GreyZonePolicy::Probabilistic {
                probability: 0.5,
                seed: 3,
            })
            .build(points)
            .unwrap();
        let params = SpannerParams::for_epsilon(1.0, 0.6).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &result.spanner);
        assert!(stretch <= params.t + 1e-9, "stretch {stretch}");
    }

    #[test]
    fn produces_a_t_spanner_in_three_dimensions() {
        let ubg = uniform_ubg(9, 60, 3, 2.0, 0.8);
        let params = SpannerParams::for_epsilon(1.0, 0.8).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &result.spanner);
        assert!(stretch <= params.t + 1e-9, "stretch {stretch}");
    }

    #[test]
    fn spanner_is_sparse_and_light_relative_to_the_input() {
        let ubg = uniform_ubg(2, 150, 2, 2.5, 1.0);
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let report = spanner_report(ubg.graph(), &result.spanner);
        // Linear size: a small constant times n edges.
        assert!(
            report.spanner_edges <= 12 * report.nodes,
            "spanner has {} edges on {} nodes",
            report.spanner_edges,
            report.nodes
        );
        // Lightweight relative to the MST (the theorem's constant is much
        // larger; this is a sanity threshold for the dense-UDG workload).
        assert!(
            report.weight_ratio.is_finite() && report.weight_ratio < 30.0,
            "weight ratio {}",
            report.weight_ratio
        );
        // The dense input graph should be thinned substantially.
        assert!(report.spanner_edges < report.base_edges);
    }

    #[test]
    fn empty_and_trivial_inputs() {
        let empty = UbgBuilder::unit_disk().build(vec![]).unwrap();
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&empty);
        assert_eq!(result.spanner.node_count(), 0);
        assert_eq!(result.phase_count(), 0);

        let single = UbgBuilder::unit_disk()
            .build(vec![Point::new2(0.0, 0.0)])
            .unwrap();
        let result = RelaxedGreedy::new(params).run(&single);
        assert_eq!(result.spanner.edge_count(), 0);
    }

    #[test]
    fn disconnected_input_is_handled_per_component() {
        // Two far-apart blobs: the spanner must preserve paths within each.
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut points = generators::uniform_points(&mut rng, 30, 2, 1.5);
        points.extend(
            generators::uniform_points(&mut rng, 30, 2, 1.5)
                .into_iter()
                .map(|p| p.translated(&[10.0, 0.0])),
        );
        let ubg = UbgBuilder::unit_disk().build(points).unwrap();
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &result.spanner);
        assert!(stretch <= params.t + 1e-9);
    }

    #[test]
    fn phase_stats_are_consistent() {
        let ubg = uniform_ubg(3, 90, 2, 3.0, 1.0);
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let mut total_bin_edges = 0;
        for phase in &result.phases {
            total_bin_edges += phase.edges_in_bin;
            assert!(phase.query_edges <= phase.edges_in_bin.max(phase.candidate_edges));
            assert!(phase.added_edges <= phase.query_edges.max(phase.edges_in_bin));
            assert!(phase.removed_redundant <= phase.added_edges);
            if phase.bin > 0 {
                assert_eq!(
                    phase.covered_edges + phase.same_cluster_edges + phase.candidate_edges,
                    phase.edges_in_bin
                );
            }
        }
        assert_eq!(total_bin_edges, ubg.graph().edge_count());
        assert!(result.edges_kept() <= ubg.graph().edge_count());
    }

    #[test]
    fn power_weighting_produces_an_energy_spanner() {
        let ubg = uniform_ubg(4, 60, 2, 2.0, 1.0);
        let params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
        let weighting = EdgeWeighting::Power { c: 1.0, gamma: 2.0 };
        let result = RelaxedGreedy::new(params)
            .with_weighting(weighting)
            .run(&ubg);
        // Verify the stretch in the *energy* metric.
        let energy_base = weighting.weighted_graph(&ubg);
        let stretch = stretch_factor(&energy_base, &result.spanner);
        assert!(stretch <= params.t + 1e-9, "energy stretch {stretch}");
    }

    #[test]
    fn run_on_requires_matching_points() {
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let graph = WeightedGraph::new(3);
        let err = RelaxedGreedy::new(params)
            .run_on(&[Point::new2(0.0, 0.0)], &graph)
            .unwrap_err();
        assert_eq!(
            err,
            PointCountMismatch {
                points: 1,
                nodes: 3
            }
        );
        assert!(err.to_string().contains("one point per graph vertex"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn stretch_target_is_always_met(
            seed in 0u64..100,
            n in 10usize..60,
            eps_decile in 1usize..5,
            alpha_decile in 5usize..11,
        ) {
            let eps = eps_decile as f64 * 0.25;
            let alpha = (alpha_decile as f64 * 0.1).min(1.0);
            let ubg = uniform_ubg(seed, n, 2, 2.0, alpha);
            let params = SpannerParams::for_epsilon(eps, alpha).unwrap();
            let result = RelaxedGreedy::new(params).run(&ubg);
            let stretch = stretch_factor(ubg.graph(), &result.spanner);
            prop_assert!(stretch <= params.t + 1e-9, "stretch {} > t {}", stretch, params.t);
        }
    }
}
