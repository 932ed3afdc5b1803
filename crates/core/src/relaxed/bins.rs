//! Weight bins `E_0, E_1, …, E_m` (Section 2 of the paper).
//!
//! Let `W_i = r^i · α/n`. Bin 0 holds the edges of weight in
//! `I_0 = (0, α/n]` (plus any zero-weight edges between coincident
//! points); bin `i ≥ 1` holds the edges with weight in
//! `I_i = (W_{i-1}, W_i]`. The relaxed greedy algorithm processes one bin
//! per phase, in increasing order, and never needs an edge ordering inside
//! a bin — that relaxation is what makes the distributed version possible.

use std::ops::Range;
use tc_graph::{Edge, WeightedGraph};

/// The partition of a graph's edges into weight bins.
///
/// Only non-empty bins take space: the edges are kept in one array sorted
/// by bin and then by [`Edge`] order, plus one `(bin, range)` run per
/// non-empty bin. A dense per-bin layout would allocate one entry for
/// every bin *index* up to the heaviest edge's — `log_r(W_max/W_0)`, which
/// grows without bound as `r → 1` (tiny ε).
#[derive(Debug, Clone)]
pub struct BinPartition {
    w0: f64,
    r: f64,
    edges: Vec<Edge>,
    /// One run per non-empty bin, ascending by bin index.
    runs: Vec<(usize, Range<usize>)>,
}

impl BinPartition {
    /// Partitions the edges of `graph` into bins with bin-0 threshold `w0`
    /// (the paper's `α/n`, expressed in the active weight units) and
    /// growth factor `r > 1`.
    ///
    /// # Panics
    ///
    /// Panics if `w0 <= 0` or `r <= 1`.
    pub fn new(graph: &WeightedGraph, w0: f64, r: f64) -> Self {
        assert!(w0 > 0.0, "the bin-0 threshold must be positive");
        assert!(r > 1.0, "the bin growth factor must exceed 1");
        let mut edges = Vec::with_capacity(graph.edge_count());
        edges.extend(graph.edges());
        let mut partition = Self {
            w0,
            r,
            edges,
            runs: Vec::new(),
        };
        // `Edge` orders weight-first and the bin index is monotone in the
        // weight, so sorting the edges sorts them by bin as well, and each
        // bin's slice is in the canonical by-weight order every downstream
        // consumer (greedy processing, ablation variants) expects —
        // independent of the graph's construction history.
        partition.edges.sort_unstable();
        if !partition.collect_runs() {
            // Defensive: should rounding in `upper` ever make the bin index
            // non-monotone, a stable re-sort by bin keeps each bin's
            // contents and order exactly as the dense layout had them.
            partition
                .edges
                .sort_by_cached_key(|e| partition_bin_index(w0, r, e.weight));
            partition.collect_runs();
        }
        partition
    }

    /// Rebuilds `runs` from the sorted edge array; returns `false` (with
    /// `runs` incomplete) if the bin indices are not non-decreasing.
    fn collect_runs(&mut self) -> bool {
        self.runs.clear();
        for (i, e) in self.edges.iter().enumerate() {
            let bin = self.bin_index(e.weight);
            match self.runs.last_mut() {
                Some((last, range)) if *last == bin => range.end = i + 1,
                Some((last, _)) if *last > bin => return false,
                _ => self.runs.push((bin, i..i + 1)),
            }
        }
        true
    }

    /// The index of the bin an edge of the given weight belongs to.
    pub fn bin_index(&self, weight: f64) -> usize {
        partition_bin_index(self.w0, self.r, weight)
    }

    /// Number of bins (indices `0..num_bins()`, empty ones included); at
    /// least 1.
    pub fn num_bins(&self) -> usize {
        self.runs.last().map_or(1, |(bin, _)| bin + 1)
    }

    /// The edges of bin `i` (empty slice if the bin is empty or `i` is out
    /// of range).
    pub fn bin(&self, i: usize) -> &[Edge] {
        match self.runs.binary_search_by_key(&i, |(bin, _)| *bin) {
            Ok(k) => &self.edges[self.runs[k].1.clone()],
            Err(_) => &[],
        }
    }

    /// Upper weight threshold `W_i` of bin `i` (`W_0 = α/n`).
    pub fn upper(&self, i: usize) -> f64 {
        upper(self.w0, self.r, i)
    }

    /// Lower weight threshold of bin `i` (`0` for bin 0, `W_{i-1}` else).
    pub fn lower(&self, i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            self.upper(i - 1)
        }
    }

    /// Indices of the non-empty bins, ascending. The algorithm only spends
    /// phases on these.
    pub fn non_empty_bins(&self) -> Vec<usize> {
        self.runs.iter().map(|(bin, _)| *bin).collect()
    }

    /// Total number of edges across all bins.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// `W_i = w0 · r^i`. Indices past `i32::MAX` (reachable only as `r → 1`)
/// fall back to `powf` instead of wrapping.
fn upper(w0: f64, r: f64, i: usize) -> f64 {
    match i32::try_from(i) {
        Ok(i) => w0 * r.powi(i),
        Err(_) => w0 * r.powf(i as f64),
    }
}

/// The bin of an edge of weight `weight`: 0 up to `w0`, else the `i ≥ 1`
/// with `W_{i-1} < weight ≤ W_i`.
fn partition_bin_index(w0: f64, r: f64, weight: f64) -> usize {
    if weight <= w0 {
        return 0;
    }
    // Smallest i with r^i · w0 >= weight.
    let raw = (weight / w0).ln() / r.ln();
    let mut i = raw.ceil() as usize;
    // Guard against floating-point boundary errors in both directions.
    while i > 1 && upper(w0, r, i - 1) >= weight {
        i -= 1;
    }
    while upper(w0, r, i) < weight {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn graph_with_weights(weights: &[f64]) -> WeightedGraph {
        let mut g = WeightedGraph::new(weights.len() + 1);
        for (i, &w) in weights.iter().enumerate() {
            g.add_edge(i, i + 1, w);
        }
        g
    }

    #[test]
    fn edges_fall_into_the_right_intervals() {
        let g = graph_with_weights(&[0.005, 0.02, 0.04, 0.09, 0.5]);
        let bins = BinPartition::new(&g, 0.01, 2.0);
        // thresholds: W_0 = 0.01, W_1 = 0.02, W_2 = 0.04, W_3 = 0.08, ...
        assert_eq!(bins.bin_index(0.005), 0);
        assert_eq!(bins.bin_index(0.01), 0);
        assert_eq!(bins.bin_index(0.02), 1);
        assert_eq!(bins.bin_index(0.021), 2);
        assert_eq!(bins.bin_index(0.04), 2);
        assert_eq!(bins.bin_index(0.09), 4);
        assert_eq!(bins.bin(0).len(), 1);
        assert_eq!(bins.bin(1).len(), 1);
        assert_eq!(bins.bin(2).len(), 1);
        assert_eq!(bins.edge_count(), 5);
    }

    #[test]
    fn thresholds_grow_geometrically() {
        let g = graph_with_weights(&[0.5]);
        let bins = BinPartition::new(&g, 0.1, 1.5);
        assert!((bins.upper(0) - 0.1).abs() < 1e-12);
        assert!((bins.upper(1) - 0.15).abs() < 1e-12);
        assert!((bins.upper(3) - 0.3375).abs() < 1e-12);
        assert_eq!(bins.lower(0), 0.0);
        assert!((bins.lower(2) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn non_empty_bins_are_reported_in_order() {
        let g = graph_with_weights(&[0.005, 0.5, 0.51]);
        let bins = BinPartition::new(&g, 0.01, 2.0);
        let non_empty = bins.non_empty_bins();
        assert_eq!(non_empty[0], 0);
        assert!(non_empty.len() >= 2);
        assert!(non_empty.windows(2).all(|w| w[0] < w[1]));
        for &i in &non_empty {
            assert!(!bins.bin(i).is_empty());
        }
    }

    #[test]
    fn out_of_range_bin_is_empty() {
        let g = graph_with_weights(&[0.005]);
        let bins = BinPartition::new(&g, 0.01, 2.0);
        assert!(bins.bin(10).is_empty());
        assert_eq!(bins.num_bins(), 1);
    }

    #[test]
    fn zero_weight_edges_go_to_bin_zero() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 1, 0.0);
        let bins = BinPartition::new(&g, 0.01, 2.0);
        assert_eq!(bins.bin(0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn growth_factor_must_exceed_one() {
        let g = graph_with_weights(&[0.5]);
        let _ = BinPartition::new(&g, 0.01, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn threshold_must_be_positive() {
        let g = graph_with_weights(&[0.5]);
        let _ = BinPartition::new(&g, 0.0, 2.0);
    }

    #[test]
    fn bins_are_sparse_even_when_r_is_barely_above_one() {
        // Bin indices in the billions (past i32, so `upper` takes its
        // powf branch) cost nothing: only the two non-empty bins exist.
        let g = graph_with_weights(&[0.001, 1.0]);
        let bins = BinPartition::new(&g, 1e-4, 1.0 + 1e-9);
        let non_empty = bins.non_empty_bins();
        assert_eq!(non_empty.len(), 2);
        assert!(non_empty[1] > i32::MAX as usize, "bin {}", non_empty[1]);
        assert_eq!(bins.num_bins(), non_empty[1] + 1);
        for (&i, &w) in non_empty.iter().zip(&[0.001, 1.0]) {
            assert_eq!(bins.bin(i).len(), 1);
            assert_eq!(bins.bin(i)[0].weight, w);
            assert!(bins.lower(i) < w && w <= bins.upper(i));
        }
        assert!(bins.bin(non_empty[0] + 1).is_empty());
    }

    proptest! {
        /// The sorted-runs layout holds exactly the dense layout's bins:
        /// each edge in the bin of its own index, each bin sorted.
        #[test]
        fn runs_match_a_dense_per_bin_partition(
            weights in proptest::collection::vec(1e-4f64..1.0, 1..60),
            r in 1.0001f64..2.0,
        ) {
            let g = graph_with_weights(&weights);
            let bins = BinPartition::new(&g, 0.01, r);
            let mut dense: std::collections::BTreeMap<usize, Vec<Edge>> = Default::default();
            for e in g.edges() {
                dense.entry(bins.bin_index(e.weight)).or_default().push(e);
            }
            prop_assert_eq!(bins.non_empty_bins(), dense.keys().copied().collect::<Vec<_>>());
            for (i, mut expected) in dense {
                expected.sort();
                prop_assert_eq!(bins.bin(i), &expected[..]);
            }
        }

        #[test]
        fn every_weight_lands_in_its_interval(
            w in 1e-6f64..1.0,
            w0 in 1e-4f64..0.1,
            r in 1.001f64..3.0,
        ) {
            let mut g = WeightedGraph::new(2);
            g.add_edge(0, 1, w);
            let bins = BinPartition::new(&g, w0, r);
            let i = bins.bin_index(w);
            prop_assert!(w <= bins.upper(i) + 1e-15);
            prop_assert!(w > bins.lower(i) - 1e-15 || i == 0);
        }

        #[test]
        fn bins_partition_all_edges(weights in proptest::collection::vec(1e-4f64..1.0, 1..40)) {
            let g = graph_with_weights(&weights);
            let bins = BinPartition::new(&g, 0.01, 1.3);
            prop_assert_eq!(bins.edge_count(), weights.len());
            let mut seen = 0;
            for i in 0..bins.num_bins() {
                for e in bins.bin(i) {
                    prop_assert!(e.weight <= bins.upper(i) + 1e-12);
                    if i > 0 {
                        prop_assert!(e.weight > bins.lower(i) - 1e-12);
                    }
                    seen += 1;
                }
            }
            prop_assert_eq!(seen, weights.len());
        }
    }
}
