//! The traced run: per-layer metrics.
//!
//! Untraced and traced pipeline passes alternate for the time budget (the
//! difference of their medians is the tracing overhead); the last traced
//! pass supplies the layer times, phase-step timers and work counters.
//! Kernel probes then time single layer calls on the workload's own
//! points and output, and a final pass at `TC_THREADS=1` gives the
//! thread-scaling ratios.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use tc_geometry::{GridIndex, GridScratch, PointAccess};
use tc_graph::bucket::{BucketConfig, BucketScratch};
use tc_graph::{par, properties, Contraction, CsrGraph};

use crate::pipeline::{self, Pass, Tracer};
use crate::workload::Algorithm;
use crate::{median, verdict, Args, Report};

/// Ledger steps reported as `distributed.rounds.<step>`: the label after
/// `phase<i>/`, with `/` mapped to `-`. Rounds under any other label are
/// reported as `distributed.rounds.other`.
const LEDGER_STEPS: [&str; 10] = [
    "gather-neighbourhood",
    "announce-spanner-edges",
    "cover-gather",
    "cover-mis",
    "cover-attach",
    "query-selection-gather",
    "cluster-graph-gather",
    "queries-answer",
    "redundant-mis",
    "redundant-announce",
];

/// Where the spans are written, relative to the checkout root.
const TRACE_DIR: &str = "perfbench/results";

/// Stage boundaries at which the resident set is sampled.
const RSS_STAGES: [&str; 5] = ["setup", "ubg", "construct", "verify", "probes"];

/// Base edges probed with budgeted bucket queries.
const QUERY_SAMPLE: usize = 2000;
/// Nodes probed with grid neighbour queries.
const GRID_SAMPLE: usize = 20_000;
/// Repetitions of the short kernel probes (median reported).
const PROBE_REPS: usize = 5;

pub fn run(a: &Args) -> Report {
    let w = &a.workload;
    let mut tr = Tracer::new(true);
    let span = tr.open("setup", 0, None);
    let store = crate::setup(w, a.seed, &mut Vec::new());
    tr.close(span);
    tr.sample_rss("setup");

    let threads = par::thread_count(0);
    // Layer times of the untraced passes: [ubg, construct, verify, pipeline].
    let (mut untraced, mut traced, mut checks) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<Pass> = None;
    let ticks = pipeline::machine_ticks();
    let start = Instant::now();
    let mut sample = 1;
    loop {
        // Only the newest traced pass is kept, so the stage RSS samples
        // see one pass's data at a time.
        drop(last.take());
        tr.set_enabled(false);
        let pass = pipeline::run(w, a.seed, store.clone(), sample, &mut tr);
        checks.push(pipeline::check(w, &pass));
        untraced.push(layer_times(&pass));
        drop(pass);
        tr.set_enabled(true);
        let pass = pipeline::run(w, a.seed, store.clone(), sample + 1, &mut tr);
        checks.push(pipeline::check(w, &pass));
        traced.push(pass.pipeline_s);
        last = Some(pass);
        sample += 2;
        // Start another pair only if one more fits in the budget.
        let elapsed = start.elapsed();
        if elapsed + elapsed / traced.len() as u32 > a.budget() {
            break;
        }
    }
    let p = last.expect("at least one traced pass ran");
    let at_n: Vec<f64> = (0..4)
        .map(|layer| median(&untraced.iter().map(|t| t[layer]).collect::<Vec<_>>()))
        .collect();

    let mut r = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    layer_metrics(&mut r, w.algorithm, &p);
    probes(&mut r, &mut tr, &p, sample);
    tr.sample_rss("probes");
    drop(p);

    // Thread scaling: one more untraced pass with a single worker.
    let previous = std::env::var_os(par::THREADS_ENV);
    std::env::set_var(par::THREADS_ENV, "1");
    tr.set_enabled(false);
    let one = pipeline::run(w, a.seed, store.clone(), sample + 1, &mut tr);
    match previous {
        Some(v) => std::env::set_var(par::THREADS_ENV, v),
        None => std::env::remove_var(par::THREADS_ENV),
    }
    checks.push(pipeline::check(w, &one));
    let at_1 = layer_times(&one);
    drop(one);
    r.push("par.threads", threads as f64, "count");
    for (layer, (t1, tn)) in ["ubg", "construct", "verify", "pipeline"]
        .iter()
        .zip(at_1.iter().zip(&at_n))
    {
        r.push(format!("par.speedup.{layer}"), t1 / tn, "ratio");
    }

    let steal = pipeline::steal_pct(ticks);
    let untraced_s = at_n[3];
    r.push(
        "trace.overhead_pct",
        100.0 * (median(&traced) - untraced_s) / untraced_s,
        "%",
    );
    r.push("trace.passes", traced.len() as f64, "count");

    // Memory at the stage boundaries of the last traced pass.
    for stage in RSS_STAGES {
        let mb = tr
            .rss
            .iter()
            .rev()
            .find(|(s, _)| *s == stage)
            .map_or(f64::NAN, |&(_, mb)| mb);
        r.push(format!("mem.rss_{stage}_mb"), mb, "MiB");
    }

    let v = verdict(&checks);
    r.correct = v.correct;
    r.attempted = v.attempted;
    r.failed = v.failed;
    r.push(
        "check.stretch_fail_frac",
        v.failed as f64 / v.attempted as f64,
        "ratio",
    );
    r.push(
        "check.edge_hash_changes",
        v.edge_hash_changes as f64,
        "count",
    );
    r.push("distributed.rounds", v.outcome.rounds as f64, "count");
    r.push("distributed.messages", v.outcome.messages as f64, "count");

    println!(
        "info: workload={} seed={} threads={threads} traced_passes={} steal_pct={:.1} \
         spanner_edge_hash={:016x} edge_hash_changes={}",
        w.name,
        a.seed,
        traced.len(),
        steal,
        v.outcome.edge_hash,
        v.edge_hash_changes
    );
    if let Err(e) = write_spans(a, &tr) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    r
}

fn layer_times(p: &Pass) -> [f64; 4] {
    [p.ubg_s, p.construct_s, p.verify_s, p.pipeline_s]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layer times of the traced pass, the relaxed phase-step breakdown, the
/// phase counters and the distributed round ledger. Timers of a layer the
/// workload's algorithm does not enter read 0.
fn layer_metrics(r: &mut Report, algorithm: Algorithm, p: &Pass) {
    r.push("ubg.build_s", p.ubg_s, "s");
    r.push(
        "ubg.edges_per_s",
        p.ubg.graph().edge_count() as f64 / p.ubg_s,
        "1/s",
    );
    r.push("ubg.edges", p.ubg.graph().edge_count() as f64, "count");

    let relaxed = algorithm == Algorithm::Relaxed;
    let t = &p.timings;
    let sum = |f: fn(&tc_spanner::relaxed::PhaseTiming) -> f64| t.iter().map(f).sum::<f64>();
    let run_s = if relaxed { p.construct_s } else { 0.0 };
    r.push("relaxed.run_s", run_s, "s");
    r.push("relaxed.phases", p.phases.len() as f64, "count");
    r.push(
        "relaxed.phase0_s",
        t.iter().filter(|x| x.bin == 0).map(|x| x.seconds).sum(),
        "s",
    );
    r.push(
        "relaxed.other_s",
        if relaxed {
            run_s - sum(|x| x.seconds)
        } else {
            0.0
        },
        "s",
    );
    r.push("relaxed.cover_s", sum(|x| x.cover_seconds), "s");
    r.push("relaxed.selection_s", sum(|x| x.selection_seconds), "s");
    r.push("relaxed.h_build_s", sum(|x| x.h_build_seconds), "s");
    r.push("relaxed.query_s", sum(|x| x.query_seconds), "s");
    r.push("relaxed.redundant_s", sum(|x| x.redundant_seconds), "s");
    let mut per_phase: Vec<f64> = t.iter().map(|x| x.seconds * 1e3).collect();
    per_phase.sort_by(f64::total_cmp);
    let (tail_pct, tail_ms) = tail(&per_phase);
    r.push("relaxed.phase_p50_ms", nearest_rank(&per_phase, 50.0), "ms");
    r.push("relaxed.phase_tail_ms", tail_ms, "ms");
    r.push("relaxed.phase_tail_pct", tail_pct, "%");

    let all = &p.phases;
    let long: Vec<_> = all.iter().filter(|s| s.bin >= 1).collect();
    let total = |f: fn(&tc_spanner::PhaseStats) -> usize| all.iter().map(f).sum::<usize>() as f64;
    let long_total =
        |f: fn(&tc_spanner::PhaseStats) -> usize| long.iter().map(|s| f(s)).sum::<usize>() as f64;
    r.push("relaxed.clusters", total(|s| s.clusters), "count");
    r.push("relaxed.query_edges", total(|s| s.query_edges), "count");
    r.push("relaxed.added_edges", total(|s| s.added_edges), "count");
    r.push(
        "relaxed.removed_redundant",
        total(|s| s.removed_redundant),
        "count",
    );
    r.push(
        "relaxed.filter_ratio",
        ratio(
            long_total(|s| s.covered_edges + s.same_cluster_edges),
            long_total(|s| s.edges_in_bin),
        ),
        "ratio",
    );
    r.push(
        "relaxed.query_yield",
        ratio(long_total(|s| s.added_edges), long_total(|s| s.query_edges)),
        "ratio",
    );
    r.push(
        "relaxed.redundant_waste",
        ratio(
            long_total(|s| s.removed_redundant),
            long_total(|s| s.added_edges),
        ),
        "ratio",
    );

    let distributed_s = if relaxed { 0.0 } else { p.construct_s };
    r.push("distributed.run_s", distributed_s, "s");
    let mut rounds: HashMap<String, usize> = HashMap::new();
    if let Some(ledger) = &p.ledger {
        for (label, stats) in ledger.entries() {
            let step = label.split_once('/').map_or(label, |(_, s)| s);
            let step = step.replace('/', "-");
            let key = if LEDGER_STEPS.contains(&step.as_str()) {
                step
            } else {
                "other".to_string()
            };
            *rounds.entry(key).or_default() += stats.rounds;
        }
    }
    for step in LEDGER_STEPS.iter().chain(["other"].iter()) {
        let n = rounds.get(*step).copied().unwrap_or(0);
        r.push(format!("distributed.rounds.{step}"), n as f64, "count");
    }

    r.push("verify.run_s", p.verify_s, "s");
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual percentiles with at least ten values beyond
/// it, and its value: `(percentile, value)`. `(0, 0)` with fewer than 11
/// values.
fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&pct| {
            let rank = ((pct / 100.0) * n).ceil();
            rank >= 1.0 && n - rank >= 10.0
        })
        .map_or((0.0, 0.0), |pct| (pct, nearest_rank(sorted, pct)))
}

/// Times single layer calls on the workload's points and output.
fn probes(r: &mut Report, tr: &mut Tracer, p: &Pass, sample: usize) {
    let root = tr.open("probes", sample, None);
    let points = p.ubg.points();
    let n = points.len();

    // tc-geometry: the grid index the UBG sweep uses.
    let span = tr.open("probe.grid_index", sample, Some(root));
    let mut builds = Vec::new();
    let mut grid = None;
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        grid = Some(black_box(GridIndex::build(points, 1.0)));
        builds.push(t.elapsed().as_secs_f64());
    }
    tr.close(span);
    r.push("ubg.grid_index_s", median(&builds), "s");
    let grid = grid.expect("PROBE_REPS is positive");
    let span = tr.open("probe.grid_query", sample, Some(root));
    let stride = (n / GRID_SAMPLE).max(1);
    let mut scratch = GridScratch::new();
    let mut found = 0usize;
    let mut queries = 0usize;
    let t = Instant::now();
    for u in (0..n).step_by(stride) {
        found += grid
            .neighbors_within_with(points, u, 1.0, &mut scratch)
            .len();
        queries += 1;
    }
    let elapsed = t.elapsed().as_secs_f64();
    black_box(found);
    tr.close(span);
    r.push("ubg.grid_query_ns", 1e9 * elapsed / queries as f64, "ns");

    // tc-graph: CSR freeze, budgeted bucket queries, contraction absorb.
    let span = tr.open("probe.csr_freeze", sample, Some(root));
    let mut freezes = Vec::new();
    let mut csr = None;
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        csr = Some(black_box(CsrGraph::from(&p.spanner)));
        freezes.push(t.elapsed().as_secs_f64());
    }
    tr.close(span);
    r.push("graph.csr_freeze_s", median(&freezes), "s");
    let csr = csr.expect("PROBE_REPS is positive");

    let span = tr.open("probe.bucket_query", sample, Some(root));
    let base = p.ubg.graph().sorted_edges();
    let config = BucketConfig::for_graph(&csr);
    let mut bucket = BucketScratch::new();
    let stride = (base.len() / QUERY_SAMPLE).max(1);
    let t_stretch = p.report.t;
    let mut reps = Vec::new();
    for _ in 0..PROBE_REPS {
        let (mut count, mut reached) = (0usize, 0usize);
        let t = Instant::now();
        for e in base.iter().step_by(stride) {
            let d = bucket.shortest_path_within(&csr, e.u, e.v, t_stretch * e.weight, &config);
            reached += usize::from(d.is_some());
            count += 1;
        }
        reps.push(1e6 * t.elapsed().as_secs_f64() / count as f64);
        black_box(reached);
    }
    tr.close(span);
    r.push("graph.bucket_query_us", median(&reps), "us");

    let span = tr.open("probe.absorb", sample, Some(root));
    let edges: Vec<_> = p.spanner.edges().collect();
    let (supernode_of, offset, supernodes) = cell_contraction(points, 2.0);
    let mut reps = Vec::new();
    for _ in 0..PROBE_REPS {
        let mut c = Contraction::new(supernode_of.clone(), offset.clone(), supernodes);
        let t = Instant::now();
        let mut changed = 0usize;
        for &e in &edges {
            changed += usize::from(c.absorb(e));
        }
        reps.push(1e9 * t.elapsed().as_secs_f64() / edges.len().max(1) as f64);
        black_box((changed, c.quotient().edge_count()));
    }
    tr.close(span);
    r.push("graph.absorb_ns", median(&reps), "ns");

    // tc-spanner::verify: the stretch sweep and the weight ratio alone.
    let span = tr.open("probe.verify_stretch", sample, Some(root));
    let base_csr = CsrGraph::from(p.ubg.graph());
    let t = Instant::now();
    black_box(properties::edge_stretches(&base_csr, &csr));
    r.push("verify.stretch_s", t.elapsed().as_secs_f64(), "s");
    tr.close(span);
    let span = tr.open("probe.verify_weight", sample, Some(root));
    let t = Instant::now();
    black_box(properties::weight_ratio(&base_csr, &csr));
    r.push("verify.weight_s", t.elapsed().as_secs_f64(), "s");
    tr.close(span);
    tr.close(root);
}

/// A contraction of the nodes onto grid cells of side `cell`: each cell's
/// first node is its representative, every node's offset is its distance
/// to that representative.
fn cell_contraction<P: PointAccess + ?Sized>(points: &P, cell: f64) -> (Vec<u32>, Vec<f64>, usize) {
    let mut ids: HashMap<Vec<i64>, (u32, usize)> = HashMap::new();
    let mut supernode_of = Vec::with_capacity(points.len());
    let mut offset = Vec::with_capacity(points.len());
    for v in 0..points.len() {
        let key: Vec<i64> = (0..points.dim())
            .map(|axis| (points.coord(v, axis) / cell).floor() as i64)
            .collect();
        let next = ids.len() as u32;
        let &mut (id, rep) = ids.entry(key).or_insert((next, v));
        supernode_of.push(id);
        offset.push(points.distance(v, rep));
    }
    let supernodes = ids.len();
    (supernode_of, offset, supernodes)
}

/// Writes the recorded spans as a JSON array.
fn write_spans(a: &Args, tr: &Tracer) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (id, s) in tr.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {{\"id\": {id}, \"name\": \"{}\", \"sample\": {}, \"parent\": {parent}, \
             \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}{}",
            s.name,
            s.sample,
            s.start_s,
            s.end_s,
            self_time(tr, id),
            if id + 1 < tr.spans.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    let dir = std::path::Path::new(TRACE_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}-{}.json", a.workload.name, a.seed));
    std::fs::write(&path, out)?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

/// A span's duration minus the time its direct children cover.
fn self_time(tr: &Tracer, id: usize) -> f64 {
    let children: f64 = tr
        .spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.seconds())
        .sum();
    tr.spans[id].seconds() - children
}
