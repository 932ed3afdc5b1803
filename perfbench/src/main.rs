//! Pipeline benchmark: a workload's seeded points through the whole
//! pipeline — `UbgBuilder::build_store` → `RelaxedGreedy::run` or
//! `DistributedRelaxedGreedy::run` → full `verify::verify_spanner` — timed
//! around public calls only.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats untraced passes for `--seconds` and reports the
//! end-to-end metrics as medians; `--trace 1` runs traced passes, kernel
//! probes and a thread-scaling pass and reports the per-layer metrics,
//! writing the recorded spans to `perfbench/results/trace-<workload>-<seed>.json`
//! (run from the checkout root).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! See `README.md` beside this crate for the workloads and metrics.

mod pipeline;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use pipeline::{Checked, Outcome, Tracer};
use tc_geometry::PointStore;
use workload::Workload;

/// Deployments generated before each pass; `setup_s` is the median over
/// all of a run's generations. On a shared host a few-millisecond
/// generation swings by up to 1.6x from one moment to the next; spreading
/// the generations over the run keeps one slow moment from setting it.
const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        workload::by_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn to_json(&self) -> String {
        // A non-finite value cannot be written as JSON; it also means a
        // measurement went wrong, so the run is not correct.
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The verdict over every pass of a run.
pub struct Verdict {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub outcome: Outcome,
    /// Distinct spanner edge hashes across the passes, minus 1.
    pub edge_hash_changes: usize,
}

pub fn verdict(checks: &[Checked]) -> Verdict {
    let outcome = checks[0].outcome;
    let mut hashes: Vec<u64> = checks.iter().map(|c| c.outcome.edge_hash).collect();
    hashes.sort_unstable();
    hashes.dedup();
    let attempted = checks.iter().map(|c| c.attempted).sum();
    let failed = checks.iter().map(|c| c.failed).sum();
    Verdict {
        correct: failed == 0 && checks.iter().all(|c| c.sound && c.outcome == outcome),
        attempted,
        failed,
        outcome,
        edge_hash_changes: hashes.len() - 1,
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Generates the deployment [`SETUP_REPS`] times and appends each
/// generation time to `times`; returns one of the stores. Every store stays
/// alive until all are made, so each repetition allocates fresh memory the
/// same way instead of depending on what the allocator kept from the
/// previous one.
pub fn setup(w: &Workload, seed: u64, times: &mut Vec<f64>) -> PointStore {
    let mut stores = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        stores.push(std::hint::black_box(w.points(seed)));
        times.push(t.elapsed().as_secs_f64());
    }
    stores.pop().expect("SETUP_REPS is positive")
}

fn fmt_times(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    parts.join(",")
}

/// The untraced run: whole passes for the time budget, end-to-end metrics.
fn measure(a: &Args) -> Report {
    let w = &a.workload;
    let mut setup_times = Vec::new();
    let mut tracer = Tracer::new(false);
    let (mut build, mut pipe, mut checks) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mb = f64::NAN;
    let ticks = pipeline::machine_ticks();
    let start = Instant::now();
    loop {
        let store = setup(w, a.seed, &mut setup_times);
        let pass = pipeline::run(w, a.seed, store, checks.len(), &mut tracer);
        build.push(pass.build_s);
        pipe.push(pass.pipeline_s);
        checks.push(pipeline::check(w, &pass));
        drop(pass);
        if checks.len() == 1 {
            // The high-water mark of setup plus one pass: later passes
            // only add allocator fragmentation, which varies run to run.
            peak_rss_mb =
                pipeline::proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0);
        }
        // Start another pass only if one more fits in the budget.
        let elapsed = start.elapsed();
        if elapsed + elapsed / checks.len() as u32 > a.budget() {
            break;
        }
    }
    let v = verdict(&checks);
    let o = v.outcome;
    println!(
        "info: workload={} seed={} threads={} passes={} build_s=[{}] pipeline_s=[{}] \
         steal_pct={:.1} spanner_edge_hash={:016x} edge_hash_changes={} rounds={} messages={}",
        w.name,
        a.seed,
        tc_graph::par::thread_count(0),
        checks.len(),
        fmt_times(&build),
        fmt_times(&pipe),
        pipeline::steal_pct(ticks),
        o.edge_hash,
        v.edge_hash_changes,
        o.rounds,
        o.messages
    );
    let mut r = Report {
        correct: v.correct,
        attempted: v.attempted,
        failed: v.failed,
        metrics: Vec::new(),
    };
    r.push("setup_s", median(&setup_times), "s");
    r.push("build_s", median(&build), "s");
    r.push("pipeline_s", median(&pipe), "s");
    r.push("peak_rss_mb", peak_rss_mb, "MiB");
    r.push("spanner_edges", o.spanner_edges as f64, "count");
    r.push("max_degree", o.max_degree as f64, "count");
    r.push("weight_ratio", o.weight_ratio, "ratio");
    r.push("max_stretch", o.max_stretch, "ratio");
    r
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("workloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        trace::run(&args)
    } else {
        measure(&args)
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
