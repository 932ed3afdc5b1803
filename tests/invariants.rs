//! Property-based integration tests: the paper's guarantees must hold for
//! randomly drawn instances across the whole parameter space the model
//! allows (dimension, α, grey-zone policy, density, ε).

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use topology_control::prelude::*;

fn deploy(
    seed: u64,
    n: usize,
    dim: usize,
    alpha: f64,
    policy_idx: usize,
    target_degree: f64,
) -> UnitBallGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let side = generators::side_for_target_degree(n, dim, target_degree);
    let points = generators::uniform_points(&mut rng, n, dim, side);
    let policy = match policy_idx {
        0 => GreyZonePolicy::Always,
        1 => GreyZonePolicy::Never,
        2 => GreyZonePolicy::Probabilistic {
            probability: 0.5,
            seed,
        },
        _ => GreyZonePolicy::DistanceFalloff { seed },
    };
    UbgBuilder::new(alpha)
        .grey_zone(policy)
        .build(points)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Theorem 10, across the whole model space: the spanner never
    /// stretches an input edge beyond t = 1 + ε.
    #[test]
    fn stretch_guarantee_holds_for_random_instances(
        seed in 0u64..10_000,
        n in 20usize..90,
        dim in 2usize..4,
        alpha_pct in 3usize..11,
        policy_idx in 0usize..4,
        eps_idx in 0usize..3,
    ) {
        let alpha = (alpha_pct as f64 * 0.1).min(1.0);
        let eps = [0.25, 0.5, 1.0][eps_idx];
        let network = deploy(seed, n, dim, alpha, policy_idx, 10.0);
        prop_assume!(network.graph().edge_count() > 0);
        let result = build_spanner(&network, eps).unwrap();
        let report = verify_spanner(network.graph(), &result.spanner, result.params.t);
        prop_assert!(report.stretch_ok, "violations: {:?}", report.violations);
    }

    /// The spanner is never larger than the input and always spans the
    /// same vertex set.
    #[test]
    fn spanner_is_a_subgraph_with_linear_size(
        seed in 0u64..10_000,
        n in 20usize..80,
    ) {
        let network = deploy(seed, n, 2, 1.0, 0, 14.0);
        let result = build_spanner(&network, 0.5).unwrap();
        prop_assert!(network.graph().contains_subgraph(&result.spanner));
        prop_assert!(result.spanner.edge_count() <= network.graph().edge_count());
        // Linear-size bound with a generous constant.
        prop_assert!(result.spanner.edge_count() <= 10 * n);
    }

    /// The distributed construction obeys the same stretch bound and
    /// reports non-trivial, sub-quadratic round counts.
    #[test]
    fn distributed_guarantees_hold_for_random_instances(
        seed in 0u64..10_000,
        n in 20usize..60,
        eps_idx in 0usize..2,
    ) {
        let eps = [0.5, 1.0][eps_idx];
        let network = deploy(seed, n, 2, 1.0, 0, 12.0);
        prop_assume!(network.graph().edge_count() > 0);
        let out = build_spanner_distributed(&network, eps).unwrap();
        let report = verify_spanner(network.graph(), &out.result.spanner, 1.0 + eps);
        prop_assert!(report.stretch_ok);
        prop_assert!(out.rounds > 0);
        // The constant in front of the polylog bound is dominated by the
        // number of non-empty weight bins (~1/ln r with strict Theorem-13
        // parameters); 400 is a generous ceiling for it.
        let polylog_budget = 400.0 * out.log_n * out.log_star_n.max(1) as f64;
        prop_assert!(
            (out.rounds as f64) < polylog_budget,
            "rounds {} exceed the polylog budget {}", out.rounds, polylog_budget
        );
    }

    /// Every baseline stays inside the radio graph and preserves
    /// connectivity whenever the input is connected.
    #[test]
    fn baselines_preserve_connectivity(
        seed in 0u64..10_000,
        n in 30usize..90,
    ) {
        let network = deploy(seed, n, 2, 1.0, 0, 14.0);
        prop_assume!(topology_control::graph::components::is_connected(network.graph()));
        for baseline in Baseline::all() {
            let graph = baseline.build(&network);
            prop_assert!(network.graph().contains_subgraph(&graph), "{}", baseline.name());
            prop_assert!(
                topology_control::graph::components::is_connected(&graph),
                "{} disconnected the network", baseline.name()
            );
        }
    }
}

/// Coincident points give zero-length edges. A zero-length spanner edge
/// `{u, z}` must not serve as a Czumaj–Zhao witness for covering `{u, v}`:
/// `z` sits on `u`, so the witness edge `{v, z}` is as long as `{u, v}`
/// itself and lands in the same bin, where it can be filtered by the
/// mirrored witness in turn — and then neither edge gets a spanner path.
/// Every construction must keep the stretch guarantee on such inputs.
#[test]
fn coincident_points_keep_the_stretch_guarantee() {
    use topology_control::spanner::{run_ablation, AblationConfig};
    let eps = 0.5;
    for seed in 0..6u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let side = generators::side_for_target_degree(200, 2, 10.0);
        let mut points = generators::uniform_points(&mut rng, 200, 2, side);
        // The last 20 points land exactly on the first 20.
        for k in 0..20 {
            points[180 + k] = points[k].clone();
        }
        let network = UbgBuilder::unit_disk().build(points).unwrap();
        let params = SpannerParams::for_epsilon(eps, 1.0).unwrap();
        let spanners = [
            ("relaxed", build_spanner(&network, eps).unwrap().spanner),
            (
                "distributed",
                build_spanner_distributed(&network, eps)
                    .unwrap()
                    .result
                    .spanner,
            ),
            (
                "ablation-full",
                run_ablation(&network, params, AblationConfig::full()).spanner,
            ),
        ];
        for (name, spanner) in spanners {
            let report = verify_spanner(network.graph(), &spanner, params.t);
            assert!(
                report.stretch_ok && report.disconnected_pairs == 0,
                "seed {seed}, {name}: stretch {} with {} disconnected pairs",
                report.stretch,
                report.disconnected_pairs
            );
        }
    }
}

/// Distinct points closer than `f64::EPSILON` (representable only near
/// the origin) make `angle_at_indices` degenerate: it returns 0 for a
/// non-zero but sub-epsilon witness `{u, z}`, so without a guard such a
/// witness "covers" any edge at `u` whatever its direction — the same
/// circular filtering as for coincident points. The deployment is centred
/// on the origin and 20 of its points form a clump of distinct sub-epsilon
/// points there.
#[test]
fn sub_epsilon_clump_keeps_the_stretch_guarantee() {
    use topology_control::spanner::{run_ablation, AblationConfig};
    let eps = 0.5;
    for seed in 0..6u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let side = generators::side_for_target_degree(200, 2, 10.0);
        let mut points: Vec<Point> = generators::uniform_points(&mut rng, 200, 2, side)
            .into_iter()
            .map(|p| Point::new2(p.coord(0) - side / 2.0, p.coord(1) - side / 2.0))
            .collect();
        for k in 0..20 {
            let r = (k + 1) as f64 * 1e-17;
            let a = k as f64;
            points[180 + k] = Point::new2(r * a.cos(), r * a.sin());
        }
        let network = UbgBuilder::unit_disk().build(points).unwrap();
        let params = SpannerParams::for_epsilon(eps, 1.0).unwrap();
        let spanners = [
            ("relaxed", build_spanner(&network, eps).unwrap().spanner),
            (
                "distributed",
                build_spanner_distributed(&network, eps)
                    .unwrap()
                    .result
                    .spanner,
            ),
            (
                "ablation-full",
                run_ablation(&network, params, AblationConfig::full()).spanner,
            ),
        ];
        for (name, spanner) in spanners {
            let report = verify_spanner(network.graph(), &spanner, params.t);
            assert!(
                report.stretch_ok && report.disconnected_pairs == 0,
                "seed {seed}, {name}: stretch {} with {} disconnected pairs",
                report.stretch,
                report.disconnected_pairs
            );
        }
    }
}
