//! Golden communication statistics of the two MIS protocols.
//!
//! The executor behind them ([`tc_simnet::SyncNetwork`]) may be rewritten
//! for speed, but a protocol's measured cost is part of the distributed
//! construction's output (the round-complexity experiment reports it and
//! the distributed spanner's ledger charges it). These values were
//! recorded before the flat executor landed; any change to node invocation
//! order, inbox order or quiescence detection moves at least one of them.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tc_graph::WeightedGraph;
use tc_simnet::mis::{luby_mis, rank_mis, MisResult};

/// A seeded G(n, p) graph.
fn random_graph(seed: u64, n: usize, p: f64) -> WeightedGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = WeightedGraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u, v, 1.0);
            }
        }
    }
    g
}

fn path(n: usize) -> WeightedGraph {
    let mut g = WeightedGraph::new(n);
    for i in 0..n - 1 {
        g.add_edge(i, i + 1, 1.0);
    }
    g
}

fn clique(n: usize) -> WeightedGraph {
    let mut g = WeightedGraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v, 1.0);
        }
    }
    g
}

/// FNV-1a over the MIS node ids.
fn mis_hash(mis: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in mis {
        for b in (v as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(|MIS|, MIS hash, rounds, messages, max messages per node-round,
/// phases)`.
fn fingerprint(r: &MisResult) -> (usize, String, usize, usize, usize, usize) {
    (
        r.mis.len(),
        format!("{:016x}", mis_hash(&r.mis)),
        r.stats.rounds,
        r.stats.messages,
        r.stats.max_messages_per_node_round,
        r.phases,
    )
}

fn graphs() -> Vec<(&'static str, WeightedGraph)> {
    vec![
        ("random-2k", random_graph(2006, 2_000, 0.004)),
        ("path-500", path(500)),
        ("edgeless-100", WeightedGraph::new(100)),
        ("clique-40", clique(40)),
    ]
}

#[test]
fn rank_mis_matches_its_golden_stats() {
    let expected = [
        ("random-2k", (561, "0a1c477c11a950db", 10, 31_764, 19, 8)),
        ("path-500", (250, "dce9a51111240617", 502, 1_996, 2, 500)),
        ("edgeless-100", (100, "610b068d99808fe5", 2, 0, 0, 1)),
        ("clique-40", (1, "6c7ec1f5a9631742", 4, 3_120, 39, 2)),
    ];
    for ((name, g), (want_name, want)) in graphs().into_iter().zip(expected) {
        assert_eq!(name, want_name);
        let (len, hash, rounds, messages, max_per_round, phases) = fingerprint(&rank_mis(&g, None));
        assert_eq!(
            (len, hash.as_str(), rounds, messages, max_per_round, phases),
            want,
            "rank MIS on {name}"
        );
    }
}

#[test]
fn luby_mis_matches_its_golden_stats() {
    let expected = [
        ("random-2k", (547, "e0a089aa00073930", 11, 33_312, 19, 4)),
        ("path-500", (210, "3c1f86d18b2e6d8f", 10, 2_060, 2, 3)),
        ("edgeless-100", (100, "610b068d99808fe5", 1, 0, 0, 1)),
        ("clique-40", (1, "714fda022399e2bc", 4, 3_120, 39, 1)),
    ];
    for ((name, g), (want_name, want)) in graphs().into_iter().zip(expected) {
        assert_eq!(name, want_name);
        let (len, hash, rounds, messages, max_per_round, phases) = fingerprint(&luby_mis(&g, 7));
        assert_eq!(
            (len, hash.as_str(), rounds, messages, max_per_round, phases),
            want,
            "Luby MIS on {name}"
        );
    }
}

#[test]
fn rank_mis_on_a_path_is_every_other_node_from_the_top() {
    let result = rank_mis(&path(500), None);
    let expected: Vec<usize> = (0..250).map(|k| 499 - 2 * k).rev().collect();
    assert_eq!(result.mis, expected);
}
