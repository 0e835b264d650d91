//! The repository benchmark: closed-loop workloads against the keyed
//! store (`ell_store`) through its public API.
//!
//! ```text
//! ell-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! A run repeats *reps* of its workload until `--seconds` of wall time
//! have passed (at least [`MIN_REPS`]). Each rep builds its inputs from
//! the seed (timed as set-up), runs the timed closed loop on a fresh
//! store, then checks the outputs. End-to-end figures are medians over
//! reps (query percentiles are taken per rep; query and checkpoint
//! latencies are read from the thread CPU clock of [`clock`]). With
//! `--trace 1` reps alternate untraced and traced; the traced reps
//! record spans around every library call the loop makes, and isolated
//! replays time the layers inside those calls. The last line of stdout
//! is the result object; the process exits 1 when any output check
//! failed.

mod clock;
mod common;
mod gen;
mod ingest;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;
mod window;

use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["ingest_zipf", "serve_tiered", "window_sliding"];

/// Reps below this count run even past the time budget.
pub const MIN_REPS: usize = 3;

/// Traced runs make at least this many traced and untraced reps each.
pub const MIN_TRACED_REPS: usize = 2;

/// Final estimates must lie within this many predicted RMSEs of the
/// exact count.
pub const RMSE_MULTIPLE: f64 = 6.0;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("checkpoint_ms", "ms"),
    ("bytes_per_key", "bytes"),
    ("rel_err_rms", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A metric that does
/// not apply to a workload reads 0 and is listed in the run's
/// `not_applicable` label.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("ell_hash.key_hash_ns", "ns"),
    ("ell_hash.map_hash_ns", "ns"),
    ("session.insert_ns", "ns"),
    ("session.flush_ms_p50", "ms"),
    ("session.flush_ms_p99", "ms"),
    ("session.flushes", "count"),
    ("session.events_per_delta", "count"),
    ("sketch.adaptive_insert_ns", "ns"),
    ("sketch.atomic_insert_ns", "ns"),
    ("sketch.dense_promotions", "count"),
    ("sketch.merge_us", "us"),
    ("ml.coefficients_us", "us"),
    ("ml.solve_us", "us"),
    ("atomic.snapshot_us", "us"),
    ("kernels.merge_ns_per_word", "ns"),
    ("store.estimate_us_hot", "us"),
    ("store.estimate_us_warm", "us"),
    ("store.estimate_us_cold", "us"),
    ("store.demote_sweep_ms", "ms"),
    ("tiers.promotions", "count"),
    ("tiers.demotions_warm", "count"),
    ("tiers.demotions_cold", "count"),
    ("tiers.spilled_bytes", "bytes"),
    ("tiers.hot_keys", "count"),
    ("tiers.warm_keys", "count"),
    ("tiers.cold_keys", "count"),
    ("codec.compress_us", "us"),
    ("codec.decompress_us", "us"),
    ("codec.bytes_per_key", "bytes"),
    ("window.advance_ms", "ms"),
    ("window.query_us_k1", "us"),
    ("window.query_us_k2", "us"),
    ("window.query_us_k3", "us"),
    ("window.query_us_k4", "us"),
    ("window.query_us_k5", "us"),
    ("window.query_us_k6", "us"),
    ("window.query_us_k7", "us"),
    ("window.query_us_k8", "us"),
    ("window.suffix_hit_ratio", "ratio"),
    ("window.entries_built", "count"),
    ("window.dirty_invalidations", "count"),
    ("wire.snapshot_bytes", "bytes"),
    ("wire.restore_ms", "ms"),
    ("self.session_insert_share", "ratio"),
    ("self.session_flush_share", "ratio"),
    ("self.store_demote_share", "ratio"),
    ("self.store_estimate_share", "ratio"),
    ("self.store_snapshot_share", "ratio"),
    ("self.window_advance_share", "ratio"),
    ("self.window_query_share", "ratio"),
    ("self.unattributed_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The metric names a run emits: every end-to-end metric untraced,
/// every per-layer metric traced, whatever the workload.
#[must_use]
pub fn metric_names(traced: bool) -> Vec<&'static str> {
    let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    list.iter().map(|&(n, _)| n).collect()
}

/// The unit of a declared metric.
#[must_use]
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|&&(n, _)| n == name)
        .map_or_else(|| panic!("undeclared metric {name}"), |&(_, u)| u)
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds expects a number")?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        work_dir,
    })
}

/// Runs reps until the time budget is spent: `f(rep, traced)`. With
/// tracing on, reps alternate untraced (even) and traced (odd), and at
/// least [`MIN_TRACED_REPS`] of each run.
pub fn for_reps(args: &Args, mut f: impl FnMut(usize, bool)) {
    let budget = Duration::from_secs_f64(args.seconds);
    let min = if args.trace {
        2 * MIN_TRACED_REPS
    } else {
        MIN_REPS
    };
    let t0 = Instant::now();
    let mut rep = 0;
    while rep < min || t0.elapsed() < budget {
        f(rep, args.trace && rep % 2 == 1);
        rep += 1;
    }
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Labels shared by every run: the active scan kernel, the machine's
/// parallelism and the run's arguments.
fn common_labels(args: &Args, report: &mut Report) {
    report.label("workload", &args.workload);
    report.label("seed", args.seed);
    report.label("trace", u8::from(args.trace));
    report.label("scan_kernel", exaloglog::kernels::active().name());
    report.label("call_clock", clock::NAME);
    report.label(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
    );
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let mut report = Report::default();
    common_labels(&args, &mut report);
    let mut spans = Tracer::new(args.trace);
    match args.workload.as_str() {
        "ingest_zipf" => ingest::run(&args, &mut report, &mut spans),
        "serve_tiered" => serve::run(&args, &mut report, &mut spans),
        _ => window::run(&args, &mut report, &mut spans),
    }

    // Every declared metric of this mode must be present; per-layer
    // metrics that do not apply to the workload read 0.
    let emitted: Vec<String> = report
        .metric_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut missing = Vec::new();
    for name in metric_names(args.trace) {
        if !emitted.iter().any(|e| e == name) {
            missing.push(name);
        }
    }
    if args.trace {
        for &name in &missing {
            report.metric(name, 0.0, unit_of(name));
        }
        report.label("not_applicable", missing.join(","));
    } else {
        report.check(missing.is_empty(), || {
            format!("metrics not measured: {missing:?}")
        });
    }
    report.check(
        emitted
            .iter()
            .all(|e| metric_names(args.trace).contains(&e.as_str())),
        || format!("metrics emitted outside this mode: {emitted:?}"),
    );

    if args.trace {
        let path = args
            .work_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let header = format!("{{\"labels\": {}}}\n", report.labels_json());
        if let Err(e) = std::fs::write(&path, header + &spans.to_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        } else {
            println!("spans written to {}", path.display());
        }
    }
    println!("labels {}", report.labels_json());
    print!("{}", report.table());
    println!(
        "error_rate {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.result_json());
    if report.failed > 0 {
        std::process::exit(1);
    }
}
