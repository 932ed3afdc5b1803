//! One pass of the pipeline — points → UBG → spanner → full verification —
//! timed around public library calls only, plus the in-memory span
//! recorder the traced run uses.

use std::time::Instant;
use tc_geometry::PointStore;
use tc_graph::WeightedGraph;
use tc_simnet::RoundLedger;
use tc_spanner::relaxed::PhaseTiming;
use tc_spanner::verify::{verify_spanner, VerificationReport};
use tc_spanner::{DistributedRelaxedGreedy, PhaseStats, RelaxedGreedy};
use tc_ubg::UnitBallGraph;

use crate::workload::{Algorithm, Workload};

/// One recorded span: a layer call made by the benchmark.
pub struct Span {
    pub name: &'static str,
    /// The pipeline pass (or probe group) the span belongs to.
    pub sample: usize,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Keeps spans in memory; written out once the run ends. A disabled
/// tracer records nothing, so untraced passes pay only the stage clocks
/// they need for the end-to-end metrics anyway.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    /// `(stage, resident MiB)` sampled at stage boundaries.
    pub rss: Vec<(&'static str, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            rss: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span; returns its id (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, sample: usize, parent: Option<usize>) -> usize {
        if self.enabled {
            let now = self.origin.elapsed().as_secs_f64();
            self.spans.push(Span {
                name,
                sample,
                parent,
                start_s: now,
                end_s: now,
            });
        }
        self.spans.len().wrapping_sub(1)
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Records the resident set at a stage boundary.
    pub fn sample_rss(&mut self, stage: &'static str) {
        if self.enabled {
            if let Some(kb) = proc_status_kb("VmRSS:") {
                self.rss.push((stage, kb as f64 / 1024.0));
            }
        }
    }
}

/// A field of `/proc/self/status` in kB (`VmRSS:`, `VmHWM:`).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`.
/// The benchmark shares its host; the steal share of a run shows how much
/// of its wall clock went to other guests.
pub fn machine_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Percentage of machine CPU time stolen since `start`.
pub fn steal_pct(start: Option<(u64, u64)>) -> f64 {
    match (start, machine_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

/// Everything one pipeline pass produced.
pub struct Pass {
    pub ubg: UnitBallGraph,
    pub spanner: WeightedGraph,
    pub report: VerificationReport,
    pub phases: Vec<PhaseStats>,
    /// Per-phase timings (traced relaxed passes only).
    pub timings: Vec<PhaseTiming>,
    /// Round ledger (distributed workload only).
    pub ledger: Option<RoundLedger>,
    pub ubg_s: f64,
    pub construct_s: f64,
    pub verify_s: f64,
    /// Points → spanner.
    pub build_s: f64,
    /// Points → verified spanner.
    pub pipeline_s: f64,
}

/// Runs one pass on `points`. When the tracer is enabled the pass records
/// one span per layer call and uses `RelaxedGreedy::run_timed` so the phase
/// steps can be broken down.
pub fn run(w: &Workload, seed: u64, points: PointStore, sample: usize, tr: &mut Tracer) -> Pass {
    let params = w.params();
    let builder = w.builder(seed);
    let root = tr.open("pipeline", sample, None);

    let t0 = Instant::now();
    let span = tr.open("ubg.build", sample, Some(root));
    let ubg = builder.build_store(points);
    tr.close(span);
    let t1 = Instant::now();
    tr.sample_rss("ubg");

    let (spanner, phases, timings, ledger) = match w.algorithm {
        Algorithm::Relaxed => {
            let span = tr.open("relaxed.run", sample, Some(root));
            let construction = RelaxedGreedy::new(params);
            let (result, timings) = if tr.enabled() {
                construction.run_timed(&ubg)
            } else {
                (construction.run(&ubg), Vec::new())
            };
            tr.close(span);
            (result.spanner, result.phases, timings, None)
        }
        Algorithm::Distributed => {
            let span = tr.open("distributed.run", sample, Some(root));
            let out = DistributedRelaxedGreedy::new(params).run(&ubg);
            tr.close(span);
            let result = out.result;
            (result.spanner, result.phases, Vec::new(), Some(out.ledger))
        }
    };
    let t2 = Instant::now();
    tr.sample_rss("construct");

    let span = tr.open("verify.run", sample, Some(root));
    let report = verify_spanner(ubg.graph(), &spanner, params.t);
    tr.close(span);
    let t3 = Instant::now();
    tr.close(root);
    tr.sample_rss("verify");

    Pass {
        ubg,
        spanner,
        report,
        phases,
        timings,
        ledger,
        ubg_s: (t1 - t0).as_secs_f64(),
        construct_s: (t2 - t1).as_secs_f64(),
        verify_s: (t3 - t2).as_secs_f64(),
        build_s: (t2 - t0).as_secs_f64(),
        pipeline_s: (t3 - t0).as_secs_f64(),
    }
}

/// The deterministic outputs of a pass: these must repeat exactly across
/// passes of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub spanner_edges: usize,
    pub max_degree: usize,
    pub weight_ratio: f64,
    pub max_stretch: f64,
    pub rounds: usize,
    pub messages: usize,
    pub edge_hash: u64,
}

/// The correctness verdict on one pass.
pub struct Checked {
    pub outcome: Outcome,
    /// Base edges checked (one operation each).
    pub attempted: usize,
    /// Finite stretch violations plus disconnected pairs.
    pub failed: usize,
    /// Every property the pass must have, other than per-edge stretch.
    pub sound: bool,
}

pub fn check(w: &Workload, pass: &Pass) -> Checked {
    let report = &pass.report;
    let (rounds, messages) = pass.ledger.as_ref().map_or((0, 0), |l| {
        let total = l.total();
        (total.rounds, total.messages)
    });
    let outcome = Outcome {
        spanner_edges: report.spanner_edges,
        max_degree: report.max_degree,
        weight_ratio: report.weight_ratio,
        max_stretch: report.stretch,
        rounds,
        messages,
        edge_hash: edge_hash(&pass.spanner),
    };
    let failed = report.violations.len() + report.disconnected_pairs;
    let sound = report.base_edges > 0
        && report.spanner_edges > 0
        && report.stretch <= report.t + 1e-9
        && report.weight_ratio.is_finite()
        && pass.ubg.graph().contains_subgraph(&pass.spanner)
        && (w.algorithm == Algorithm::Relaxed || rounds > 0);
    Checked {
        outcome,
        attempted: report.base_edges,
        failed,
        sound,
    }
}

/// FNV-1a fingerprint of the sorted `(u, v, weight bits)` edge stream —
/// the same fingerprint the scale harness records.
pub fn edge_hash(graph: &WeightedGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in graph.sorted_edges() {
        mix(&e.u.to_le_bytes());
        mix(&e.v.to_le_bytes());
        mix(&e.weight.to_bits().to_le_bytes());
    }
    h
}
