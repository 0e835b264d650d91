//! Table 2: cross-algorithm comparison of mergeable approximate
//! distinct-counting algorithms at ≈2 % target error, n = 10^6.
//!
//! For every algorithm the empirical RMSE (over `--runs` independent
//! random streams), the average in-memory and serialized sizes, and the
//! resulting memory-variance products
//! MVP = (size in bits) × RMSE² are printed, sorted by in-memory MVP as
//! in the paper. The paper's 1 million runs shrink the RMSE confidence
//! band below 0.1 %; the default 50 runs here give ~10 % relative
//! precision — enough to confirm the ordering (use `--full` or
//! `ELL_REPRO_RUNS` for more).
//!
//! Substitutions (a compared sketch whose source is unavailable offline
//! is replaced by one with the properties the paper attributes to it):
//! the CPC row is PCSA with ideal entropy-coded serialization; the
//! SpikeSketch row is a documented lookalike. Expected shape:
//! ELL(2,20,p=8) and ELL(2,24,p=8) at the bottom (best), HLL 8-bit at
//! the top, CPC with the smallest serialized MVP, conjectured lower
//! bound 1.98.

use ell_baselines::table2_lineup;
use ell_hash::{mix64, SplitMix64};
use ell_repro::{fmt_f, RunParams, Table};
use ell_sim::ErrorAccumulator;

const N: u64 = 1_000_000;

struct AlgoStats {
    name: String,
    err: ErrorAccumulator,
    memory_sum: f64,
    serialized_sum: f64,
    samples: u64,
    constant_time: bool,
}

fn main() {
    let params = RunParams::parse(50, 1_000_000);
    println!(
        "Table 2: algorithm comparison at n = 10^6, {} runs (paper: 1e6 runs)\n",
        params.runs
    );
    let threads = if params.threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        params.threads
    };
    let algo_count = table2_lineup().len();
    let mut partials: Vec<Vec<AlgoStats>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let runs = params.runs;
                let seed = params.seed;
                scope.spawn(move || {
                    let mut stats: Vec<AlgoStats> = table2_lineup()
                        .iter()
                        .map(|a| AlgoStats {
                            name: a.name(),
                            err: ErrorAccumulator::new(),
                            memory_sum: 0.0,
                            serialized_sum: 0.0,
                            samples: 0,
                            constant_time: a.constant_time_insert(),
                        })
                        .collect();
                    let mut run = tid;
                    while run < runs {
                        let mut sketches = table2_lineup();
                        let mut rng = SplitMix64::new(mix64(seed ^ mix64(run as u64)));
                        // Shared hash blocks fed to every sketch through
                        // the batched trait hot path.
                        let mut n = 0u64;
                        ell_sim::fill_all_to(&mut sketches, &mut rng, &mut n, N);
                        for (s, stat) in sketches.iter().zip(&mut stats) {
                            stat.err.record(s.estimate(), N as f64);
                            stat.memory_sum += s.memory_bytes() as f64;
                            stat.serialized_sum += s.serialized_bytes() as f64;
                            stat.samples += 1;
                        }
                        run += threads;
                    }
                    stats
                })
            })
            .collect();
        for h in handles {
            partials.push(h.join().expect("worker panicked"));
        }
    });

    // Reduce across threads.
    let mut totals: Vec<AlgoStats> = partials.pop().expect("at least one thread");
    for part in &partials {
        for (t, p) in totals.iter_mut().zip(part) {
            t.err.merge(&p.err);
            t.memory_sum += p.memory_sum;
            t.serialized_sum += p.serialized_sum;
            t.samples += p.samples;
        }
    }
    assert_eq!(totals.len(), algo_count);

    // Sort by in-memory MVP, descending, like the paper's table.
    let mut rows: Vec<(String, f64, f64, f64, f64, f64, bool)> = totals
        .iter()
        .map(|s| {
            let rmse = s.err.rmse();
            let mem = s.memory_sum / s.samples as f64;
            let ser = s.serialized_sum / s.samples as f64;
            (
                s.name.clone(),
                rmse,
                mem,
                ser,
                mem * 8.0 * rmse * rmse,
                ser * 8.0 * rmse * rmse,
                s.constant_time,
            )
        })
        .collect();
    rows.sort_by(|a, b| b.4.total_cmp(&a.4));

    let mut table = Table::new(&[
        "algorithm",
        "RMSE %",
        "memory B",
        "serialized B",
        "MVP(mem)",
        "MVP(ser)",
        "O(1) insert",
    ]);
    for (name, rmse, mem, ser, mvp_m, mvp_s, ct) in rows {
        table.row(vec![
            name,
            fmt_f(rmse * 100.0, 2),
            fmt_f(mem, 0),
            fmt_f(ser, 0),
            fmt_f(mvp_m, 2),
            fmt_f(mvp_s, 2),
            if ct { "yes".into() } else { "no".into() },
        ]);
    }
    table.row(vec![
        "conjectured lower bound".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "1.98".into(),
        "1.98".into(),
        "unknown".into(),
    ]);
    table.emit(&params, "table2_comparison");
}
