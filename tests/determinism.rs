//! Determinism guarantees: rebuilding from the same RNG seed must
//! reproduce the exact same network and the exact same spanner, edge for
//! edge and byte for byte. Future parallelism or caching work inside the
//! construction must not silently introduce iteration-order dependence.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use topology_control::prelude::*;

fn deploy(seed: u64, n: usize, alpha: f64) -> UnitBallGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let side = generators::side_for_target_degree(n, 2, 10.0);
    let points = generators::uniform_points(&mut rng, n, 2, side);
    UbgBuilder::new(alpha)
        .grey_zone(GreyZonePolicy::Probabilistic {
            probability: 0.5,
            seed,
        })
        .build(points)
        .unwrap()
}

/// Serializes an edge set into a canonical byte string.
fn edge_bytes(graph: &WeightedGraph) -> Vec<u8> {
    let mut bytes = Vec::new();
    for edge in graph.sorted_edges() {
        bytes.extend_from_slice(&edge.u.to_le_bytes());
        bytes.extend_from_slice(&edge.v.to_le_bytes());
        bytes.extend_from_slice(&edge.weight.to_le_bytes());
    }
    bytes
}

#[test]
fn same_seed_gives_byte_identical_networks() {
    for seed in [0, 1, 17] {
        let a = deploy(seed, 120, 0.8);
        let b = deploy(seed, 120, 0.8);
        assert_eq!(edge_bytes(a.graph()), edge_bytes(b.graph()));
    }
}

#[test]
fn same_seed_gives_byte_identical_spanners() {
    for (seed, eps) in [(3u64, 0.5), (4, 1.0), (5, 2.0)] {
        let first = build_spanner(&deploy(seed, 150, 0.9), eps).unwrap();
        let second = build_spanner(&deploy(seed, 150, 0.9), eps).unwrap();
        assert_eq!(
            edge_bytes(&first.spanner),
            edge_bytes(&second.spanner),
            "seed {seed} eps {eps}: spanner edge sets diverged"
        );
    }
}

#[test]
fn same_seed_gives_byte_identical_distributed_spanners() {
    let seed = 11;
    let first = build_spanner_distributed(&deploy(seed, 100, 0.8), 1.0).unwrap();
    let second = build_spanner_distributed(&deploy(seed, 100, 0.8), 1.0).unwrap();
    assert_eq!(
        edge_bytes(&first.result.spanner),
        edge_bytes(&second.result.spanner),
        "distributed construction is not deterministic for a fixed seed"
    );
    assert_eq!(first.rounds, second.rounds);
}

#[test]
fn different_seeds_give_different_networks() {
    // Guards against the RNG stub degenerating into a constant stream.
    let a = deploy(1, 120, 0.8);
    let b = deploy(2, 120, 0.8);
    assert_ne!(edge_bytes(a.graph()), edge_bytes(b.graph()));
}

/// The verification sweep fans out across worker threads; its output must
/// be byte-identical whatever `TC_THREADS` says. This is the only test in
/// the whole suite that mutates the environment variable (integration
/// tests run as their own process, and this binary runs this test
/// single-threadedly with respect to the variable — every other test here
/// ignores it), so the set/remove below cannot race another reader that
/// cares.
#[test]
fn verify_spanner_is_byte_identical_across_thread_counts() {
    let ubg = deploy(42, 150, 0.9);
    let result = build_spanner(&ubg, 0.5).unwrap();
    let t = result.params.t;

    let report_bytes = || {
        let report = verify_spanner(ubg.graph(), &result.spanner, t);
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            report.stretch.to_bits(),
            report.stretch_ok,
            report.disconnected_pairs,
            report
                .violations
                .iter()
                .map(|&(u, v, s)| (u, v, s.to_bits()))
                .collect::<Vec<_>>()
        )
    };

    let max = std::thread::available_parallelism().map_or(4, usize::from);
    let mut outputs = Vec::new();
    for threads in [1, 2, max] {
        std::env::set_var("TC_THREADS", threads.to_string());
        outputs.push((threads, report_bytes()));
    }
    std::env::remove_var("TC_THREADS");
    let (_, reference) = &outputs[0];
    for (threads, out) in &outputs {
        assert_eq!(
            out, reference,
            "verification output diverged at TC_THREADS={threads}"
        );
    }
}

/// Stable FNV-1a over the canonical `(u, v, weight-bits)` edge stream, the
/// same fingerprint as `spanner_edge_hash` in `BENCH_scale.json`.
fn edge_hash(graph: &WeightedGraph) -> u64 {
    fnv(edge_bytes(graph))
}

/// Golden output: the spanner of one seeded 20k-node unit disk deployment
/// (the scale harness' shape — uniform, expected degree 8, ε = 1) is
/// pinned to its edge hash. Performance work on the phase engine must
/// leave the output bit for bit unchanged; a change that moves it on
/// purpose re-records the constant and says why.
#[test]
fn seeded_20k_spanner_matches_its_golden_edge_hash() {
    const N: usize = 20_000;
    let mut rng = ChaCha8Rng::seed_from_u64(2006);
    let side = generators::side_for_target_degree(N, 2, 8.0);
    let points = generators::uniform_points(&mut rng, N, 2, side);
    let ubg = UbgBuilder::unit_disk().build(points).unwrap();
    let result = build_spanner(&ubg, 1.0).unwrap();
    assert_eq!(
        format!("{:016x}", edge_hash(&result.spanner)),
        "bc3728e7a230abc6",
        "{} spanner edges",
        result.spanner.edge_count()
    );
}

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a run's per-phase statistics, field by field (weights by
/// their bit patterns).
fn phase_stats_hash(phases: &[topology_control::spanner::PhaseStats]) -> u64 {
    let mut bytes = Vec::new();
    for p in phases {
        for field in [
            p.bin,
            p.edges_in_bin,
            p.clusters,
            p.covered_edges,
            p.same_cluster_edges,
            p.candidate_edges,
            p.query_edges,
            p.added_edges,
            p.removed_redundant,
        ] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes.extend_from_slice(&p.bin_upper.to_bits().to_le_bytes());
    }
    fnv(bytes)
}

/// Moves the last six points to within 1e-5 of the first six, so the
/// short-edge bin is non-empty and phase 0 runs (a uniform deployment
/// almost never has an edge shorter than `α/n`).
fn with_near_twins(mut points: Vec<Point>) -> Vec<Point> {
    let n = points.len();
    for k in 0..6 {
        points[n - 1 - k] = points[k].translated(&[1e-5, 0.0]);
    }
    points
}

/// The seeded 5k-node α = 0.8 grey-zone deployment with near-twin points
/// behind the distributed goldens.
fn distributed_5k_deployment() -> UnitBallGraph {
    const N: usize = 5_000;
    let mut rng = ChaCha8Rng::seed_from_u64(2006);
    let side = generators::side_for_target_degree(N, 2, 10.0);
    let points = with_near_twins(generators::uniform_points(&mut rng, N, 2, side));
    UbgBuilder::new(0.8)
        .grey_zone(GreyZonePolicy::Probabilistic {
            probability: 0.5,
            seed: 2006,
        })
        .build(points)
        .unwrap()
}

/// A distributed run's golden fingerprint: the spanner's edge hash, the
/// total rounds and messages, the rounds per step label (summed over
/// phases) and a fingerprint of the whole ledger in charge order.
fn distributed_fingerprint(
    out: &topology_control::spanner::DistributedSpannerResult,
) -> (String, usize, usize, String, String) {
    let mut per_step: std::collections::BTreeMap<&str, usize> = Default::default();
    let mut ledger_bytes = Vec::new();
    for (label, stats) in out.ledger.entries() {
        let step = label.split_once('/').map_or(label, |(_, step)| step);
        *per_step.entry(step).or_default() += stats.rounds;
        ledger_bytes.extend_from_slice(label.as_bytes());
        for field in [
            stats.rounds,
            stats.messages,
            stats.max_messages_per_node_round,
        ] {
            ledger_bytes.extend_from_slice(&field.to_le_bytes());
        }
    }
    let per_step: Vec<String> = per_step
        .iter()
        .map(|(step, rounds)| format!("{step}={rounds}"))
        .collect();
    (
        format!("{:016x}", edge_hash(&out.result.spanner)),
        out.rounds,
        out.messages,
        per_step.join(" "),
        format!("{:016x}", fnv(ledger_bytes)),
    )
}

/// Golden output of the distributed construction (rank MIS) on the 5k
/// deployment. Refactors of the phase driver must leave all of it bit for
/// bit unchanged.
#[test]
fn seeded_5k_distributed_spanner_matches_its_golden_output() {
    let out = build_spanner_distributed(&distributed_5k_deployment(), 1.0).unwrap();
    assert_eq!(
        distributed_fingerprint(&out),
        (
            "ceaa395465a8f4b2".to_string(),
            5155,
            23872,
            "announce-spanner-edges=1 cluster-graph/gather=497 cover/attach=358 \
             cover/gather=358 cover/mis=1432 gather-neighbourhood=1 queries/answer=1074 \
             query-selection/gather=716 redundant/announce=358 redundant/mis=360"
                .to_string(),
            "581de1971a5312d1".to_string(),
        ),
    );
}

/// Golden output of the distributed construction with Luby's MIS (seed 7)
/// on the same deployment: Luby seeds each node's priorities from its
/// identifier, so this pins that the cover MIS sees the original ids.
#[test]
fn seeded_5k_distributed_luby_spanner_matches_its_golden_output() {
    use topology_control::spanner::MisProtocol;
    let params = SpannerParams::for_epsilon(1.0, 0.8).unwrap();
    let out = DistributedRelaxedGreedy::new(params)
        .with_mis_protocol(MisProtocol::Luby { seed: 7 })
        .run(&distributed_5k_deployment());
    assert_eq!(
        distributed_fingerprint(&out),
        (
            "34147b2b1e16f909".to_string(),
            5155,
            23868,
            "announce-spanner-edges=1 cluster-graph/gather=497 cover/attach=358 \
             cover/gather=358 cover/mis=1432 gather-neighbourhood=1 queries/answer=1074 \
             query-selection/gather=716 redundant/announce=358 redundant/mis=360"
                .to_string(),
            "b8a0a6682af5d8c5".to_string(),
        ),
    );
}

/// Golden output of every named ablation variant on a seeded 300-node
/// unit disk graph with near-twin points (ε = 1.5, where every variant's
/// output differs from the others): the spanner's edge hash and its per-phase statistics.
#[test]
fn seeded_ablation_variants_match_their_golden_outputs() {
    use topology_control::spanner::{run_ablation, AblationConfig};
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let side = generators::side_for_target_degree(300, 2, 30.0);
    let points = with_near_twins(generators::uniform_points(&mut rng, 300, 2, side));
    let ubg = UbgBuilder::unit_disk().build(points).unwrap();
    let params = SpannerParams::for_epsilon(1.5, 1.0).unwrap();
    let actual: Vec<(&str, String, String)> = AblationConfig::named_variants()
        .into_iter()
        .map(|(name, config)| {
            let result = run_ablation(&ubg, params, config);
            (
                name,
                format!("{:016x}", edge_hash(&result.spanner)),
                format!("{:016x}", phase_stats_hash(&result.phases)),
            )
        })
        .collect();
    let golden = [
        ("full", "78cb74a23526f335", "7fd8a5faa77b281b"),
        ("no-covered-filter", "78cb74a23526f335", "988912314bbf792b"),
        (
            "no-cluster-pair-dedup",
            "673bc0e221d86b15",
            "f606faa3f900f779",
        ),
        ("exact-queries", "802baa662da049dd", "3eab4c273dfd1b5a"),
        (
            "no-redundancy-removal",
            "a129aaddf8c3ab36",
            "23a1dea239b833ec",
        ),
    ]
    .map(|(name, edges, stats)| (name, edges.to_string(), stats.to_string()));
    assert_eq!(actual, golden);
}
