//! The benchmark's workloads and their seeded deployments.
//!
//! Points are generated here, from the benchmark seed, with a private
//! generator: the library under test receives only the finished
//! [`PointStore`], so a change to the library's own generators cannot move
//! the inputs.

use tc_geometry::PointStore;
use tc_spanner::SpannerParams;
use tc_ubg::{GreyZonePolicy, UbgBuilder};

/// How the nodes are placed.
#[derive(Debug, Clone, Copy)]
pub enum Deployment {
    /// Uniform in a cube sized for the given expected unit-radius degree.
    Uniform { target_degree: f64 },
    /// Gaussian blobs of `per_cluster` nodes each (standard deviation
    /// `spread`) around centres uniform in the same cube, clamped to it.
    Clustered {
        target_degree: f64,
        per_cluster: usize,
        spread: f64,
    },
}

/// Which construction the pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// `RelaxedGreedy` (sequential, hierarchical phase engine).
    Relaxed,
    /// `DistributedRelaxedGreedy` with the default rank MIS.
    Distributed,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    pub dim: usize,
    pub alpha: f64,
    /// Connection probability of grey-zone pairs; `None` for α = 1.
    pub grey_zone_p: Option<f64>,
    pub epsilon: f64,
    pub deployment: Deployment,
    pub algorithm: Algorithm,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "uniform-2d-200k",
        n: 200_000,
        dim: 2,
        alpha: 1.0,
        grey_zone_p: None,
        epsilon: 1.0,
        deployment: Deployment::Uniform { target_degree: 8.0 },
        algorithm: Algorithm::Relaxed,
    },
    Workload {
        name: "quasi-3d-clustered-50k",
        n: 50_000,
        dim: 3,
        alpha: 0.5,
        grey_zone_p: Some(0.5),
        epsilon: 0.5,
        deployment: Deployment::Clustered {
            target_degree: 12.0,
            per_cluster: 60,
            spread: 0.45,
        },
        algorithm: Algorithm::Relaxed,
    },
    Workload {
        name: "distributed-2d-40k",
        n: 40_000,
        dim: 2,
        alpha: 0.8,
        grey_zone_p: Some(0.5),
        epsilon: 1.0,
        deployment: Deployment::Uniform {
            target_degree: 12.0,
        },
        algorithm: Algorithm::Distributed,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The seeded deployment.
    pub fn points(&self, seed: u64) -> PointStore {
        let mut rng = SplitMix64::new(seed);
        let mut store = PointStore::with_capacity(self.dim, self.n);
        let mut coords = vec![0.0; self.dim];
        match self.deployment {
            Deployment::Uniform { target_degree } => {
                let side = side_for_degree(self.n, self.dim, target_degree);
                for _ in 0..self.n {
                    for c in coords.iter_mut() {
                        *c = rng.unit() * side;
                    }
                    store.push(&coords);
                }
            }
            Deployment::Clustered {
                target_degree,
                per_cluster,
                spread,
            } => {
                let side = side_for_degree(self.n, self.dim, target_degree);
                let clusters = (self.n / per_cluster).max(1);
                let centres: Vec<f64> = (0..clusters * self.dim)
                    .map(|_| rng.unit() * side)
                    .collect();
                for i in 0..self.n {
                    let centre = &centres[(i % clusters) * self.dim..][..self.dim];
                    for (c, &m) in coords.iter_mut().zip(centre) {
                        *c = (m + rng.gaussian() * spread).clamp(0.0, side);
                    }
                    store.push(&coords);
                }
            }
        }
        store
    }

    pub fn builder(&self, seed: u64) -> UbgBuilder {
        let policy = match self.grey_zone_p {
            Some(probability) => GreyZonePolicy::Probabilistic {
                probability,
                seed: seed ^ 0x6772_6579_7a6f_6e65,
            },
            None => GreyZonePolicy::Always,
        };
        UbgBuilder::new(self.alpha).grey_zone(policy)
    }

    pub fn params(&self) -> SpannerParams {
        SpannerParams::for_epsilon(self.epsilon, self.alpha)
            .expect("every workload uses valid parameters")
    }
}

/// Side of the cube in which `n` uniform nodes have `degree` expected
/// neighbours within distance 1.
fn side_for_degree(n: usize, dim: usize, degree: f64) -> f64 {
    let unit_ball = match dim {
        2 => std::f64::consts::PI,
        3 => 4.0 * std::f64::consts::PI / 3.0,
        _ => unreachable!("workloads are two- or three-dimensional"),
    };
    ((n.saturating_sub(1)) as f64 * unit_ball / degree).powf(1.0 / dim as f64)
}

/// SplitMix64: tiny, fast and stable across toolchains.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller, one value per call).
    fn gaussian(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}
