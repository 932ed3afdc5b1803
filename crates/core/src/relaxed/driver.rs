//! The phase driver that every relaxed-greedy construction runs (the
//! module docs of [`relaxed`](super) list the three step
//! implementations). It owns the input check, the bin loop, phase 0, step
//! (ii), the spanner updates, the statistics and the timings; steps (i),
//! (iii), (iv) and (v) come from a [`PhaseSteps`] implementation.

use super::query::select_query_edges;
use super::{BinPartition, ClusterCover, PhaseStats, PhaseTiming, PointCountMismatch};
use super::{SpannerParams, SpannerResult};
use crate::ablation::AblationConfig;
use crate::seq_greedy::seq_greedy_on_subset;
use crate::weighting::EdgeWeighting;
use std::time::Instant;
use tc_geometry::PointAccess;
use tc_graph::{components, par, Edge, WeightedGraph};

/// The phase `i ≥ 1` a step runs in.
pub(crate) struct Phase<'a> {
    /// Bin index `i`.
    pub bin: usize,
    /// Upper weight threshold `W_{i-1}` of the previous bin.
    pub w_prev: f64,
    /// The cover radius `δ·W_{i-1}`.
    pub radius: f64,
    /// `α` in the construction's weighting (at least `f64::MIN_POSITIVE`).
    pub alpha_w: f64,
    /// The construction's parameters.
    pub params: &'a SpannerParams,
}

/// Steps (i), (iii), (iv) and (v) of a phase, called in that order.
/// `spanner` is the partial spanner `G'_{i-1}`: the driver adds the
/// phase's edges only after step (iv).
pub(crate) trait PhaseSteps {
    /// Step (i): a cluster cover of `spanner` with radius `phase.radius`.
    fn cover(&mut self, spanner: &WeightedGraph, phase: &Phase) -> &ClusterCover;

    /// Step (iii): the cluster graph `H_{i-1}` of that cover, as far as
    /// the phase's `queries` (the step-(ii) selection) can read it: the
    /// distributed and ablation steps build it only over the region their
    /// searches from the query endpoints can reach.
    fn cluster_graph(&mut self, spanner: &WeightedGraph, phase: &Phase, queries: &[Edge]);

    /// Step (iv): entry `k` is `true` when `queries[k]` has no path within
    /// `t·w` and must be added.
    fn answer(&mut self, spanner: &WeightedGraph, phase: &Phase, queries: &[Edge]) -> Vec<bool>;

    /// Step (v): indices into `added` of the mutually redundant edges to
    /// withdraw.
    fn redundant(&mut self, phase: &Phase, added: &[Edge]) -> Vec<usize>;

    /// Called after a non-empty phase 0.
    fn phase0_done(&mut self) {}
}

/// Runs the relaxed greedy construction with `steps` and the step-(ii)
/// selection rules of `mechanisms`; returns one [`PhaseTiming`] per
/// processed bin beside the result.
///
/// # Errors
///
/// Returns [`PointCountMismatch`] if `points` does not have exactly one
/// point per graph vertex.
pub(crate) fn run_phases<P: PointAccess + ?Sized>(
    points: &P,
    graph: &WeightedGraph,
    params: &SpannerParams,
    weighting: EdgeWeighting,
    mechanisms: &AblationConfig,
    steps: &mut impl PhaseSteps,
) -> Result<(SpannerResult, Vec<PhaseTiming>), PointCountMismatch> {
    let n = graph.node_count();
    if points.len() != n {
        return Err(PointCountMismatch {
            points: points.len(),
            nodes: n,
        });
    }
    let mut result = SpannerResult {
        spanner: WeightedGraph::new(n),
        params: *params,
        weighting,
        phases: Vec::new(),
    };
    let mut timings = Vec::new();
    if n == 0 || graph.is_edgeless() {
        return Ok((result, timings));
    }

    let alpha_w = weighting
        .weight_of_distance(params.alpha)
        .max(f64::MIN_POSITIVE);
    let bins = BinPartition::new(graph, alpha_w / n as f64, params.r);
    for bin in bins.non_empty_bins() {
        let phase_start = Instant::now();
        let mut timing = PhaseTiming::for_bin(bin);
        let bin_edges = bins.bin(bin);
        let spanner = &mut result.spanner;
        // Phase 0 queries every edge of its bin; a later phase overwrites
        // the selection and step counts.
        let mut stats = PhaseStats {
            bin,
            bin_upper: bins.upper(bin),
            edges_in_bin: bin_edges.len(),
            candidate_edges: bin_edges.len(),
            query_edges: bin_edges.len(),
            ..PhaseStats::default()
        };
        if bin == 0 {
            stats.added_edges = short_edge_phase(spanner, bin_edges, params.t);
            steps.phase0_done();
        } else {
            let w_prev = bins.upper(bin - 1);
            let phase = Phase {
                bin,
                w_prev,
                radius: params.delta * w_prev,
                alpha_w,
                params,
            };

            // Step (i): cluster cover of G'_{i-1}.
            let step = Instant::now();
            let cover = steps.cover(spanner, &phase);
            timing.cover_seconds = step.elapsed().as_secs_f64();
            stats.clusters = cover.cluster_count();

            // Step (ii): query-edge selection.
            let step = Instant::now();
            let selection =
                select_query_edges(points, params, mechanisms, spanner, cover, bin_edges);
            timing.selection_seconds = step.elapsed().as_secs_f64();
            stats.covered_edges = selection.covered;
            stats.same_cluster_edges = selection.same_cluster;
            stats.candidate_edges = selection.candidates;
            stats.query_edges = selection.query_edges.len();

            // Step (iii): the cluster graph H_{i-1}.
            let step = Instant::now();
            steps.cluster_graph(spanner, &phase, &selection.query_edges);
            timing.h_build_seconds = step.elapsed().as_secs_f64();

            // Step (iv): every query of the bin is asked on the same frozen
            // H (lazy updates); the missing edges join in query order.
            let step = Instant::now();
            let verdicts = steps.answer(spanner, &phase, &selection.query_edges);
            let added: Vec<Edge> = selection
                .query_edges
                .iter()
                .zip(verdicts)
                .filter(|&(_, needed)| needed)
                .map(|(&e, _)| e)
                .collect();
            for &e in &added {
                spanner.add(e);
            }
            timing.query_seconds = step.elapsed().as_secs_f64();
            stats.added_edges = added.len();

            // Step (v): withdraw mutually redundant additions.
            let step = Instant::now();
            let removals = steps.redundant(&phase, &added);
            for &idx in &removals {
                let _ = spanner.remove_edge(added[idx].u, added[idx].v);
            }
            timing.redundant_seconds = step.elapsed().as_secs_f64();
            stats.removed_redundant = removals.len();
        }
        result.phases.push(stats);
        timing.seconds = phase_start.elapsed().as_secs_f64();
        timings.push(timing);
    }
    Ok((result, timings))
}

/// Phase 0 (Section 2.1): the graph `G_0` of short edges has clique
/// components (Lemma 1); run `SEQ-GREEDY` on each component and keep the
/// union. Returns the number of edges added.
fn short_edge_phase(spanner: &mut WeightedGraph, bin_edges: &[Edge], t: f64) -> usize {
    let g0 = WeightedGraph::from_edges(spanner.node_count(), bin_edges.iter().copied());
    // The sweep is over G_0 (short edges only), whose components are
    // cliques of 1-hop neighbourhoods (Lemma 1) — global on a graph that
    // is itself local, not on the input.
    // tc-lint: allow(locality)
    let work: Vec<_> = components::connected_components(&g0)
        .into_iter()
        .filter(|component| component.len() >= 2)
        .collect();
    // The per-component SEQ-GREEDY runs are independent, so they fan out
    // over TC_THREADS workers; merging the edge lists in component order
    // keeps the spanner's insertion order — and so the output — bitwise
    // identical to a sequential loop.
    let per_component: Vec<Vec<Edge>> = par::par_map_with(
        &work,
        0,
        || (),
        |_scratch, _idx, component| seq_greedy_on_subset(&g0, component, t).edges().collect(),
    );
    let mut added = 0;
    for e in per_component.into_iter().flatten() {
        spanner.add(e);
        added += 1;
    }
    added
}
