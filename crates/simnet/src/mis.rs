//! Distributed maximal independent set protocols.
//!
//! The paper invokes the Kuhn–Moscibroda–Wattenhofer MIS algorithm, which
//! runs in `O(log* n)` rounds on unit ball graphs of constant doubling
//! dimension, as a black box (Sections 3.2.1 and 3.2.5). Reimplementing
//! KMW faithfully is outside the scope of this reproduction (DESIGN.md,
//! substitution 2); instead two standard distributed MIS protocols are
//! provided, both expressed as genuine synchronous message-passing
//! programs on [`SyncNetwork`] so their round and message costs are
//! *measured*, not assumed:
//!
//! * [`rank_mis`] — the deterministic "highest rank joins" protocol, with
//!   node identifiers as ranks (this mirrors the paper's "attach to the
//!   neighbour in the MIS with the highest identifier" tie-breaking),
//! * [`luby_mis`] — Luby's randomised protocol, re-randomising priorities
//!   every phase; terminates in `O(log n)` phases with high probability,
//! * [`rank_mis_compact`] / [`luby_mis_compact`] — the same protocols on a
//!   graph given by its non-isolated part, returning exactly the whole
//!   graph's result while simulating only that part.
//!
//! All return the measured [`CommStats`] so the round-complexity
//! experiment can report the spanner's total rounds with the MIS cost
//! either included or normalised out.

use crate::{CommStats, StepResult, SyncNetwork};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use tc_graph::{NodeId, WeightedGraph};

/// The outcome of a distributed MIS execution.
#[derive(Debug, Clone)]
pub struct MisResult {
    /// Nodes in the maximal independent set, ascending.
    pub mis: Vec<NodeId>,
    /// Measured communication statistics.
    pub stats: CommStats,
    /// Number of protocol phases (for [`luby_mis`]; equals the number of
    /// decision rounds for [`rank_mis`]).
    pub phases: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Undecided,
    InMis,
    Blocked,
}

#[derive(Debug, Clone)]
struct RankState {
    rank: (u64, NodeId),
    status: Status,
    undecided: Vec<(NodeId, (u64, NodeId))>,
    decided_round: usize,
}

#[derive(Debug, Clone)]
enum RankMsg {
    Rank((u64, NodeId)),
    Joined,
    Blocked,
}

/// Deterministic distributed MIS: in every round, each undecided node whose
/// rank is larger than the rank of every undecided neighbour joins the MIS;
/// its neighbours become blocked. Ranks are made distinct by breaking ties
/// with node identifiers.
///
/// With `ranks = None` the node identifier itself is the rank, matching the
/// paper's "highest identifier" convention.
pub fn rank_mis(graph: &WeightedGraph, ranks: Option<&[u64]>) -> MisResult {
    let n = graph.node_count();
    if let Some(r) = ranks.filter(|_| n > 0) {
        assert_eq!(r.len(), n, "one rank per node is required");
    }
    run_rank(graph, |v| (ranks.map_or(v as u64, |r| r[v]), v), 4 * n + 8)
}

/// [`rank_mis`] with identifier ranks on an `n`-node graph given by its
/// non-isolated part: `graph` is the subgraph induced on `ids`
/// (ascending), its node `k` standing for node `ids[k]`, and no node
/// outside `ids` has an edge. The protocol runs on `graph` alone, with the
/// original identifiers as ranks, and the result (MIS in original
/// identifiers, rounds, messages, phases) is exactly what `rank_mis` returns
/// on the whole `n`-node graph.
///
/// # Panics
///
/// Panics if `ids` does not have one entry per node of `graph`.
pub fn rank_mis_compact(n: usize, ids: &[NodeId], graph: &WeightedGraph) -> MisResult {
    assert_eq!(ids.len(), graph.node_count(), "one id per node is required");
    let sub = run_rank(graph, |k| (ids[k] as u64, ids[k]), 4 * n + 8);
    with_isolated(n, ids, sub, || rank_mis(&WeightedGraph::new(1), None))
}

/// The rank protocol with `rank_of(v)` as node `v`'s (distinct) rank, for at
/// most `max_rounds` rounds.
fn run_rank(
    graph: &WeightedGraph,
    rank_of: impl Fn(NodeId) -> (u64, NodeId),
    max_rounds: usize,
) -> MisResult {
    let n = graph.node_count();
    if n == 0 {
        return MisResult {
            mis: Vec::new(),
            stats: CommStats::default(),
            phases: 0,
        };
    }
    let init: Vec<RankState> = (0..n)
        .map(|v| RankState {
            rank: rank_of(v),
            status: Status::Undecided,
            undecided: Vec::new(),
            decided_round: 0,
        })
        .collect();
    let mut net = SyncNetwork::new(graph);
    let states = net.run(
        init,
        |round, _node, state: &mut RankState, inbox: &[(NodeId, RankMsg)], ctx| {
            // Absorb incoming information.
            let mut neighbour_joined = false;
            for (from, msg) in inbox {
                match msg {
                    RankMsg::Rank(r) => {
                        if !state.undecided.iter().any(|(v, _)| v == from) {
                            state.undecided.push((*from, *r));
                        }
                    }
                    RankMsg::Joined => {
                        neighbour_joined = true;
                        state.undecided.retain(|(v, _)| v != from);
                    }
                    RankMsg::Blocked => {
                        state.undecided.retain(|(v, _)| v != from);
                    }
                }
            }
            if state.status != Status::Undecided {
                return StepResult::idle().halt();
            }
            if round == 0 {
                // Advertise the rank; decisions start next round.
                return StepResult::broadcast(ctx.neighbors().to_vec(), RankMsg::Rank(state.rank));
            }
            if neighbour_joined {
                state.status = Status::Blocked;
                state.decided_round = round;
                return StepResult::broadcast(ctx.neighbors().to_vec(), RankMsg::Blocked).halt();
            }
            let dominated = state.undecided.iter().any(|&(_, r)| r > state.rank);
            if !dominated {
                state.status = Status::InMis;
                state.decided_round = round;
                StepResult::broadcast(ctx.neighbors().to_vec(), RankMsg::Joined).halt()
            } else {
                StepResult::idle()
            }
        },
        max_rounds,
    );
    let mis: Vec<NodeId> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.status == Status::InMis)
        .map(|(v, _)| v)
        .collect();
    let phases = states.iter().map(|s| s.decided_round).max().unwrap_or(0);
    MisResult {
        mis,
        stats: net.stats(),
        phases,
    }
}

#[derive(Debug, Clone)]
struct LubyState {
    status: Status,
    value: u64,
    undecided: HashSet<NodeId>,
    values_seen: Vec<(NodeId, u64)>,
    rng: ChaCha8Rng,
    phase_decided: usize,
}

#[derive(Debug, Clone)]
enum LubyMsg {
    Value(u64),
    Joined,
    Blocked,
}

/// Luby's randomised distributed MIS. Each phase takes three rounds:
/// undecided nodes draw fresh random priorities and exchange them; local
/// maxima join and announce it; their neighbours block and announce that.
/// Terminates in `O(log n)` phases with high probability.
pub fn luby_mis(graph: &WeightedGraph, seed: u64) -> MisResult {
    let n = graph.node_count();
    run_luby(graph, |v| v, seed, luby_round_limit(n))
}

/// [`luby_mis`] on an `n`-node graph given by its non-isolated part, as in
/// [`rank_mis_compact`]: the protocol runs on `graph` alone, each node
/// seeded and tie-broken by its original identifier `ids[k]`, under the
/// round limit of the whole graph, so the result is exactly what
/// `luby_mis` returns on the whole `n`-node graph.
///
/// # Panics
///
/// Panics if `ids` does not have one entry per node of `graph`.
pub fn luby_mis_compact(n: usize, ids: &[NodeId], graph: &WeightedGraph, seed: u64) -> MisResult {
    assert_eq!(ids.len(), graph.node_count(), "one id per node is required");
    let sub = run_luby(graph, |k| ids[k], seed, luby_round_limit(n));
    with_isolated(n, ids, sub, || luby_mis(&WeightedGraph::new(1), seed))
}

/// The round limit of Luby's protocol on an `n`-node graph.
fn luby_round_limit(n: usize) -> usize {
    12 * (crate::log2_ceil(n) as usize + 2) * 3 + 64
}

/// Luby's protocol with `id_of(v)` as node `v`'s identifier (its random
/// seed and tie-break), for at most `max_rounds` rounds.
fn run_luby(
    graph: &WeightedGraph,
    id_of: impl Fn(NodeId) -> NodeId,
    seed: u64,
    max_rounds: usize,
) -> MisResult {
    let n = graph.node_count();
    if n == 0 {
        return MisResult {
            mis: Vec::new(),
            stats: CommStats::default(),
            phases: 0,
        };
    }
    let init: Vec<LubyState> = (0..n)
        .map(|v| LubyState {
            status: Status::Undecided,
            value: 0,
            undecided: graph.neighbors(v).iter().map(|&(u, _)| u).collect(),
            values_seen: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(
                seed ^ (id_of(v) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            phase_decided: 0,
        })
        .collect();
    let mut net = SyncNetwork::new(graph);
    let states = net.run(
        init,
        |round, node, state: &mut LubyState, inbox: &[(NodeId, LubyMsg)], ctx| {
            // Absorb status updates and priorities whenever they arrive.
            let mut neighbour_joined = false;
            for (from, msg) in inbox {
                match msg {
                    LubyMsg::Value(v) => state.values_seen.push((*from, *v)),
                    LubyMsg::Joined => {
                        neighbour_joined = true;
                        state.undecided.remove(from);
                    }
                    LubyMsg::Blocked => {
                        state.undecided.remove(from);
                    }
                }
            }
            if state.status != Status::Undecided {
                return StepResult::idle().halt();
            }
            let phase = round / 3;
            match round % 3 {
                0 => {
                    // Draw and advertise a fresh priority. Ties are broken
                    // by node id when comparing, so exact collisions are
                    // harmless.
                    state.value = state.rng.gen();
                    state.values_seen.clear();
                    let targets: Vec<NodeId> = ctx
                        .neighbors()
                        .iter()
                        .copied()
                        .filter(|v| state.undecided.contains(v))
                        .collect();
                    if targets.is_empty() {
                        // Isolated (or fully decided neighbourhood): join.
                        state.status = Status::InMis;
                        state.phase_decided = phase + 1;
                        return StepResult::broadcast(ctx.neighbors().to_vec(), LubyMsg::Joined)
                            .halt();
                    }
                    StepResult::broadcast(targets, LubyMsg::Value(state.value))
                }
                1 => {
                    if neighbour_joined {
                        state.status = Status::Blocked;
                        state.phase_decided = phase + 1;
                        return StepResult::broadcast(ctx.neighbors().to_vec(), LubyMsg::Blocked)
                            .halt();
                    }
                    let me = (state.value, id_of(node));
                    let dominated = state
                        .values_seen
                        .iter()
                        .any(|&(from, v)| state.undecided.contains(&from) && (v, id_of(from)) > me);
                    if !dominated {
                        state.status = Status::InMis;
                        state.phase_decided = phase + 1;
                        StepResult::broadcast(ctx.neighbors().to_vec(), LubyMsg::Joined).halt()
                    } else {
                        StepResult::idle()
                    }
                }
                _ => {
                    if neighbour_joined {
                        state.status = Status::Blocked;
                        state.phase_decided = phase + 1;
                        return StepResult::broadcast(ctx.neighbors().to_vec(), LubyMsg::Blocked)
                            .halt();
                    }
                    StepResult::idle()
                }
            }
        },
        max_rounds,
    );
    let mis: Vec<NodeId> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.status == Status::InMis)
        .map(|(v, _)| v)
        .collect();
    let phases = states.iter().map(|s| s.phase_decided).max().unwrap_or(0);
    MisResult {
        mis,
        stats: net.stats(),
        phases,
    }
}

/// Completes a protocol run `sub` on the non-isolated part of an `n`-node
/// graph (see [`rank_mis_compact`]): maps its MIS back to the original
/// identifiers and adds every other node, which is isolated and so in
/// every MIS. Isolated nodes send nothing and finish in the rounds and
/// phases `floor` measures on a single isolated node; the executor stops
/// when its last node does, so rounds and phases are the larger of the two
/// runs, messages add and the per-node-round maximum is the larger one.
fn with_isolated(
    n: usize,
    ids: &[NodeId],
    sub: MisResult,
    floor: impl FnOnce() -> MisResult,
) -> MisResult {
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]) && ids.last().is_none_or(|&v| v < n),
        "the non-isolated ids must be ascending and below n"
    );
    let mut mis = Vec::with_capacity(sub.mis.len() + n - ids.len());
    let mut sub_mis = sub.mis.iter().map(|&k| ids[k]).peekable();
    let mut non_isolated = ids.iter().copied().peekable();
    for v in 0..n {
        // An isolated node joins; a non-isolated one joins if its run chose it.
        let isolated = non_isolated.next_if_eq(&v).is_none();
        if isolated || sub_mis.next_if_eq(&v).is_some() {
            mis.push(v);
        }
    }
    if ids.len() == n {
        return MisResult { mis, ..sub };
    }
    let floor = floor();
    MisResult {
        mis,
        stats: CommStats {
            rounds: sub.stats.rounds.max(floor.stats.rounds),
            messages: sub.stats.messages + floor.stats.messages,
            max_messages_per_node_round: sub
                .stats
                .max_messages_per_node_round
                .max(floor.stats.max_messages_per_node_round),
        },
        phases: sub.phases.max(floor.phases),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use tc_graph::mis::is_maximal_independent_set;

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

    #[test]
    fn rank_mis_on_a_path_is_valid() {
        let mut g = WeightedGraph::new(6);
        for i in 0..5 {
            g.add_edge(i, i + 1, 1.0);
        }
        let result = rank_mis(&g, None);
        assert!(is_maximal_independent_set(&g, &result.mis));
        assert!(result.stats.rounds > 0);
        assert!(result.stats.messages > 0);
    }

    #[test]
    fn rank_mis_with_identifier_ranks_prefers_high_ids() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let result = rank_mis(&g, None);
        // Node 2 has the highest id and must be chosen; node 0 is then free.
        assert_eq!(result.mis, vec![0, 2]);
    }

    #[test]
    fn rank_mis_with_custom_ranks() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let result = rank_mis(&g, Some(&[1, 10, 1]));
        assert_eq!(result.mis, vec![1]);
        assert!(is_maximal_independent_set(&g, &result.mis));
    }

    #[test]
    fn rank_mis_on_empty_and_edgeless_graphs() {
        let empty = WeightedGraph::new(0);
        assert!(rank_mis(&empty, None).mis.is_empty());
        let edgeless = WeightedGraph::new(4);
        let result = rank_mis(&edgeless, None);
        assert_eq!(result.mis, vec![0, 1, 2, 3]);
    }

    #[test]
    fn luby_mis_on_a_clique_picks_exactly_one() {
        let mut g = WeightedGraph::new(8);
        for u in 0..8 {
            for v in (u + 1)..8 {
                g.add_edge(u, v, 1.0);
            }
        }
        let result = luby_mis(&g, 99);
        assert_eq!(result.mis.len(), 1);
        assert!(is_maximal_independent_set(&g, &result.mis));
        assert!(result.phases >= 1);
    }

    #[test]
    fn luby_mis_on_empty_graph() {
        let g = WeightedGraph::new(0);
        let result = luby_mis(&g, 1);
        assert!(result.mis.is_empty());
        assert_eq!(result.stats.rounds, 0);
    }

    #[test]
    fn luby_phase_count_is_logarithmic_on_random_graphs() {
        let g = random_graph(5, 200, 0.05);
        let result = luby_mis(&g, 5);
        assert!(is_maximal_independent_set(&g, &result.mis));
        // log2(200) ~ 7.6; allow a generous constant.
        assert!(
            result.phases <= 40,
            "Luby used unexpectedly many phases: {}",
            result.phases
        );
    }

    #[test]
    #[should_panic(expected = "one rank per node")]
    fn rank_mis_requires_matching_rank_count() {
        let g = random_graph(1, 4, 0.5);
        let _ = rank_mis(&g, Some(&[1, 2]));
    }

    #[test]
    fn an_isolated_node_takes_two_rank_rounds_and_one_luby_round() {
        // The floor the compact runs add for their isolated nodes: a rank
        // node advertises in round 0 and joins in round 1; a Luby node
        // with no undecided neighbour joins in round 0. Neither sends a
        // message.
        for n in [1, 7] {
            let edgeless = WeightedGraph::new(n);
            let rank = rank_mis(&edgeless, None);
            assert_eq!(rank.mis, (0..n).collect::<Vec<_>>());
            assert_eq!(
                (rank.stats, rank.phases),
                (
                    CommStats {
                        rounds: 2,
                        messages: 0,
                        max_messages_per_node_round: 0
                    },
                    1
                )
            );
            let luby = luby_mis(&edgeless, 3);
            assert_eq!(luby.mis, (0..n).collect::<Vec<_>>());
            assert_eq!(
                (luby.stats, luby.phases),
                (
                    CommStats {
                        rounds: 1,
                        messages: 0,
                        max_messages_per_node_round: 0
                    },
                    1
                )
            );
        }
    }

    /// `(MIS, stats, phases)`, the whole observable result.
    fn observed(r: &MisResult) -> (Vec<NodeId>, CommStats, usize) {
        (r.mis.clone(), r.stats, r.phases)
    }

    /// A G(n, p) graph over the nodes `keep` selects; every other node is
    /// isolated.
    fn graph_on(seed: u64, n: usize, p: f64, keep: impl Fn(NodeId) -> bool) -> WeightedGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = WeightedGraph::new(n);
        for u in (0..n).filter(|&u| keep(u)) {
            for v in ((u + 1)..n).filter(|&v| keep(v)) {
                if rng.gen_bool(p) {
                    g.add_edge(u, v, 1.0);
                }
            }
        }
        g
    }

    /// Both compact protocols on the part of `g` that `ids` selects (which
    /// must hold every node with an edge) against the full n-node runs.
    fn assert_compact_matches_full(g: &WeightedGraph, ids: &[NodeId], seed: u64) {
        let n = g.node_count();
        let mut local = vec![usize::MAX; n];
        for (k, &v) in ids.iter().enumerate() {
            local[v] = k;
        }
        let sub = WeightedGraph::from_edges(
            ids.len(),
            g.edges()
                .map(|e| tc_graph::Edge::new(local[e.u], local[e.v], e.weight)),
        );
        assert_eq!(
            observed(&rank_mis_compact(n, ids, &sub)),
            observed(&rank_mis(g, None)),
            "rank MIS, n = {n}, {} non-isolated",
            ids.len()
        );
        assert_eq!(
            observed(&luby_mis_compact(n, ids, &sub, seed)),
            observed(&luby_mis(g, seed)),
            "Luby MIS, n = {n}, {} non-isolated",
            ids.len()
        );
    }

    #[test]
    fn compact_runs_cover_the_edge_cases() {
        // No node, one node, all isolated, none isolated.
        assert_compact_matches_full(&WeightedGraph::new(0), &[], 1);
        assert_compact_matches_full(&WeightedGraph::new(1), &[], 1);
        assert_compact_matches_full(&WeightedGraph::new(1), &[0], 1);
        assert_compact_matches_full(&WeightedGraph::new(9), &[], 2);
        let g = random_graph(4, 12, 0.5);
        let all: Vec<NodeId> = (0..12).collect();
        assert_compact_matches_full(&g, &all, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// MIS on the non-isolated part with the original ids, plus the
        /// isolated-node floor, is the full n-node run: same MIS, rounds,
        /// messages, per-node-round maximum and phases.
        #[test]
        fn the_compact_path_reproduces_the_full_run(
            seed in 0u64..1_000,
            n in 1usize..120,
            active_per_mille in 0u64..1_000,
            p in 0.0f64..0.4,
            with_isolated_ids in 0u8..2,
        ) {
            // Only a pseudo-random subset of the nodes may have edges, so
            // most runs mix many isolated nodes with a few components.
            let active = |v: NodeId| (v as u64 * 7919 + seed) % 1_000 < active_per_mille;
            let g = graph_on(seed, n, p, active);
            // The ids may also list isolated nodes; they then run inside
            // the compact graph instead of joining through the floor.
            let ids: Vec<NodeId> = (0..n)
                .filter(|&v| !g.neighbors(v).is_empty() || (with_isolated_ids == 1 && active(v)))
                .collect();
            assert_compact_matches_full(&g, &ids, seed);
        }

        #[test]
        fn both_protocols_always_produce_maximal_independent_sets(
            seed in 0u64..300,
            n in 1usize..40,
            p in 0.0f64..0.6,
        ) {
            let g = random_graph(seed, n, p);
            let r = rank_mis(&g, None);
            prop_assert!(is_maximal_independent_set(&g, &r.mis));
            let l = luby_mis(&g, seed);
            prop_assert!(is_maximal_independent_set(&g, &l.mis));
        }
    }
}
