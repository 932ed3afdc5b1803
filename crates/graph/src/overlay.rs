//! A frozen CSR base plus an append-only overlay of later edges.
//!
//! Some read-heavy loops alternate between a batch of queries on a graph
//! and a small batch of edge insertions or weight *decreases*: the spanner
//! pipeline's phase engine answers a phase's queries on its cluster
//! quotient, then folds in the few quotient edges that phase changed.
//! Re-freezing the whole graph into a [`CsrGraph`] after every batch costs
//! a collect plus a sort of all `2m` entries each time. [`OverlayGraph`]
//! freezes once and records later edges beside the frozen base.
//!
//! The overlay is a *multigraph* view: a pushed edge that duplicates a
//! base edge (or an earlier pushed one) appears as a parallel entry, and
//! the stale entries stay in place. Shortest-path searches take the
//! minimum over parallel edges, and IEEE-754 addition is monotone, so a
//! heavier parallel entry can never win a relaxation: every distance on
//! the overlay is bitwise identical to the distance on the min-merged
//! simple graph (see the determinism contract in [`crate::bucket`]).

use crate::{CsrGraph, Edge, GraphView, NodeId};

/// End-of-chain marker in the delta arena.
const NIL: u32 = u32::MAX;

/// One directed delta entry: the next entry of the same node's chain,
/// the neighbour and the edge weight.
#[derive(Debug, Clone, Copy)]
struct DeltaEntry {
    next: u32,
    neighbor: u32,
    weight: f64,
}

/// A read-only graph made of a frozen [`CsrGraph`] base plus an
/// append-only delta of edges pushed after the freeze.
///
/// The delta lives in one flat arena — a `u32` chain head per node and
/// `(next, neighbour, weight)` entries, two per pushed edge — so pushes
/// are O(1) and allocation-free in the amortised sense, with no per-node
/// `Vec`. [`GraphView::for_each_neighbor`] walks the node's base row, then
/// its delta chain.
///
/// The view is a multigraph: a pushed edge that duplicates a base edge
/// (or an earlier push) is a parallel entry, and the stale entries stay.
/// [`GraphView::edge_count`], [`GraphView::degree`] and
/// [`GraphView::for_each_edge`] count every pushed entry, and the default
/// weight metrics sum over them; [`GraphView::edge_weight`] returns the
/// minimum over the parallel entries. Shortest-path distances equal those
/// of the min-merged simple graph bit for bit.
///
/// # Example
///
/// ```
/// use tc_graph::bucket::{BucketConfig, BucketScratch};
/// use tc_graph::{CsrGraph, Edge, OverlayGraph};
///
/// let base = CsrGraph::from_edges(3, vec![Edge::new(0, 1, 4.0), Edge::new(1, 2, 1.0)]);
/// let mut config = BucketConfig::for_graph(&base);
/// let mut h = OverlayGraph::new(base);
/// // A cheaper duplicate shadows the frozen entry ...
/// h.push(Edge::new(0, 1, 2.0));
/// // ... and a heavier new edge widens the bucket ring before searches.
/// h.push(Edge::new(0, 2, 9.0));
/// config = config.covering(9.0);
/// let d = BucketScratch::new().shortest_path_within(&h, 0, 2, 10.0, &config);
/// assert_eq!(d, Some(3.0));
/// ```
#[derive(Debug, Clone)]
pub struct OverlayGraph {
    base: CsrGraph,
    /// First delta entry of each node's chain (most recent push first),
    /// `NIL` when the node has none.
    head: Vec<u32>,
    /// Delta entries; entries `2k` and `2k + 1` are the two directions of
    /// the `k`-th pushed edge.
    arena: Vec<DeltaEntry>,
}

impl OverlayGraph {
    /// Wraps a frozen base with an empty delta.
    pub fn new(base: CsrGraph) -> Self {
        let head = vec![NIL; base.node_count()];
        Self {
            base,
            head,
            arena: Vec::new(),
        }
    }

    /// Number of edges pushed since the freeze.
    pub fn delta_edge_count(&self) -> usize {
        self.arena.len() / 2
    }

    /// Appends the edge `{e.u, e.v}` to the delta.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, on a self-loop, on a
    /// negative or non-finite weight, or if the arena would outgrow `u32`
    /// indexing.
    pub fn push(&mut self, e: Edge) {
        let n = self.node_count();
        assert!(
            e.u < n && e.v < n,
            "edge endpoint out of range for a graph with {n} nodes"
        );
        assert_ne!(e.u, e.v, "self-loops are not allowed");
        assert!(
            e.weight >= 0.0 && e.weight.is_finite(),
            "edge weight must be finite and non-negative"
        );
        assert!(
            self.arena.len() + 2 < NIL as usize,
            "overlay arenas index entries with u32"
        );
        for (from, to) in [(e.u, e.v), (e.v, e.u)] {
            let slot = self.arena.len() as u32;
            self.arena.push(DeltaEntry {
                next: self.head[from],
                neighbor: to as u32,
                weight: e.weight,
            });
            self.head[from] = slot;
        }
    }

    /// Calls `visit(entry)` for every delta entry on `u`'s chain.
    #[inline]
    fn for_each_delta(&self, u: NodeId, mut visit: impl FnMut(&DeltaEntry)) {
        let mut at = self.head[u];
        while at != NIL {
            let entry = &self.arena[at as usize];
            visit(entry);
            at = entry.next;
        }
    }
}

impl GraphView for OverlayGraph {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }

    fn edge_count(&self) -> usize {
        self.base.edge_count() + self.delta_edge_count()
    }

    fn degree(&self, u: NodeId) -> usize {
        let mut degree = self.base.degree(u);
        self.for_each_delta(u, |_| degree += 1);
        degree
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let mut best = self.base.edge_weight(u, v);
        self.for_each_delta(u, |entry| {
            if entry.neighbor as usize == v {
                best = Some(best.map_or(entry.weight, |w| w.min(entry.weight)));
            }
        });
        best
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(NodeId, f64)>(&self, u: NodeId, mut visit: F) {
        self.base.for_each_neighbor(u, &mut visit);
        self.for_each_delta(u, |entry| visit(entry.neighbor as NodeId, entry.weight));
    }

    fn for_each_edge<F: FnMut(Edge)>(&self, mut visit: F) {
        self.base.for_each_edge(&mut visit);
        for pair in self.arena.chunks_exact(2) {
            // Entry 2k sits on u's chain (neighbour v), entry 2k+1 on v's.
            let (u, v) = (pair[1].neighbor as NodeId, pair[0].neighbor as NodeId);
            visit(Edge {
                u: u.min(v),
                v: u.max(v),
                weight: pair[0].weight,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{BucketConfig, BucketScratch};
    use crate::{dijkstra, WeightedGraph};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The simple graph the overlay stands for: every base edge, with each
    /// pushed edge lowering (or adding) its pair's weight.
    fn min_merged(overlay: &OverlayGraph) -> CsrGraph {
        let mut merged = WeightedGraph::new(overlay.node_count());
        overlay.for_each_edge(|e| match merged.edge_weight(e.u, e.v) {
            Some(w) if w <= e.weight => {}
            _ => {
                merged.add_edge(e.u, e.v, e.weight);
            }
        });
        CsrGraph::from(&merged)
    }

    #[test]
    fn delta_entries_join_the_base_rows() {
        let base = CsrGraph::from_edges(4, vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)]);
        let mut h = OverlayGraph::new(base);
        h.push(Edge::new(2, 3, 0.5));
        h.push(Edge::new(0, 1, 0.25));
        assert_eq!(h.delta_edge_count(), 2);
        assert_eq!(h.edge_count(), 4);
        assert_eq!(h.degree(1), 3);
        assert_eq!(h.edge_weight(1, 0), Some(0.25));
        assert_eq!(h.edge_weight(3, 2), Some(0.5));
        assert!(h.has_edge(2, 3) && !h.has_edge(0, 3));
        let mut around_1 = Vec::new();
        h.for_each_neighbor(1, |v, w| around_1.push((v, w)));
        assert_eq!(around_1, vec![(0, 1.0), (2, 2.0), (0, 0.25)]);
        let mut edges = h.collect_edges();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                Edge::new(0, 1, 0.25),
                Edge::new(2, 3, 0.5),
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 2.0),
            ]
        );
    }

    #[test]
    fn a_delta_edge_heavier_than_the_base_needs_a_widened_ring() {
        // Base weights of 1 size the ring to four slots. The pushed 50.0
        // edge puts node 2's label 50 buckets ahead: without `covering` it
        // wraps onto an earlier slot, is dropped there as stale, and node
        // 3 behind it is never reached.
        let base = CsrGraph::from_edges(4, vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)]);
        let config = BucketConfig::for_graph(&base);
        let mut h = OverlayGraph::new(base);
        h.push(Edge::new(1, 2, 50.0));
        let widened = config.covering(50.0);
        assert_eq!(widened.delta(), config.delta());
        let mut scratch = BucketScratch::new();
        let fast = scratch.distances_bounded(&h, 0, f64::INFINITY, &widened);
        assert_eq!(fast, vec![Some(0.0), Some(1.0), Some(51.0), Some(52.0)]);
        let stale = scratch.distances_bounded(&h, 0, f64::INFINITY, &config);
        assert_eq!(stale[3], None, "the unwidened ring loses the wrapped label");
        assert_eq!(config.covering(0.5), config, "no widening below the max");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_push_is_rejected() {
        let mut h = OverlayGraph::new(CsrGraph::new(2));
        h.push(Edge::new(0, 2, 1.0));
    }

    /// A random base plus a delta that mixes cheaper duplicates, heavier
    /// duplicates, new edges and edges heavier than the base's maximum.
    /// Returns the overlay and its bucket configuration, widened per push
    /// the way a caller must.
    fn random_overlay(seed: u64, n: usize, p: f64, pushes: usize) -> (OverlayGraph, BucketConfig) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut base_edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    let w = if rng.gen_bool(0.05) {
                        0.0
                    } else {
                        rng.gen_range(0.01..1.0)
                    };
                    base_edges.push(Edge::new(u, v, w));
                }
            }
        }
        let base = CsrGraph::from_edges(n, base_edges.iter().copied());
        let mut config = BucketConfig::for_graph(&base);
        let mut h = OverlayGraph::new(base);
        for _ in 0..pushes {
            let e = match rng.gen_range(0..4) {
                // Cheaper or heavier duplicate of a base edge.
                0 | 1 if !base_edges.is_empty() => {
                    let b = base_edges[rng.gen_range(0..base_edges.len())];
                    let factor = if rng.gen_bool(0.5) {
                        rng.gen_range(0.1..1.0)
                    } else {
                        rng.gen_range(1.0..3.0)
                    };
                    Edge::new(b.u, b.v, b.weight * factor)
                }
                // Far heavier than anything in the base.
                2 => {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n - 1));
                    let v = if v >= u { v + 1 } else { v };
                    Edge::new(u, v, rng.gen_range(1.0..40.0))
                }
                // A new (or duplicate) edge in the base's weight range.
                _ => {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n - 1));
                    let v = if v >= u { v + 1 } else { v };
                    Edge::new(u, v, rng.gen_range(0.01..1.0))
                }
            };
            h.push(e);
            config = config.covering(e.weight);
        }
        (h, config)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every bucket search on the overlay is bitwise identical to heap
        /// Dijkstra on the min-merged simple graph.
        #[test]
        fn overlay_searches_match_heap_dijkstra_on_the_merged_graph(
            seed in 0u64..2000,
            n in 2usize..28,
            p in 0.01f64..0.4,
            pushes in 0usize..40,
            radius in 0.0f64..120.0,
        ) {
            let (h, config) = random_overlay(seed, n, p, pushes);
            let merged = min_merged(&h);
            let mut scratch = BucketScratch::new();
            for s in 0..n {
                let fast = scratch.distances_bounded(&h, s, radius, &config);
                let oracle = dijkstra::shortest_path_distances_bounded(&merged, s, radius);
                prop_assert_eq!(
                    fast.iter().map(|d| d.map(f64::to_bits)).collect::<Vec<_>>(),
                    oracle.iter().map(|d| d.map(f64::to_bits)).collect::<Vec<_>>(),
                    "distances_bounded from {}", s
                );

                let mut visited: Vec<(usize, u64)> = Vec::new();
                scratch.for_each_within(&h, s, radius, &config, |v, d| visited.push((v, d.to_bits())));
                visited.sort_unstable();
                let expected: Vec<(usize, u64)> = oracle
                    .iter()
                    .enumerate()
                    .filter_map(|(v, d)| d.map(|d| (v, d.to_bits())))
                    .collect();
                prop_assert_eq!(visited, expected, "for_each_within from {}", s);

                for t in 0..n {
                    let fast = scratch.shortest_path_within(&h, s, t, radius, &config);
                    let oracle = dijkstra::shortest_path_within(&merged, s, t, radius);
                    prop_assert_eq!(
                        fast.map(f64::to_bits),
                        oracle.map(f64::to_bits),
                        "shortest_path_within {} -> {}", s, t
                    );
                }
            }
        }
    }
}
