//! Machine-readable register-engine benchmark: measures the three fast
//! paths of the width-specialized register engine against their reference
//! implementations *in the same run*, and verifies bit-identical results
//! while doing so. Written as `BENCH_registers.json` so the repository
//! accumulates a performance trajectory across commits.
//!
//! ```text
//! bench_registers [--quick] [--out FILE] [--hashes N] [--reps N] [--p P]
//!                 [--kernel scalar|swar|avx2]
//! ```
//!
//! Four comparisons per configuration:
//!
//! * **insert** — `insert_hashes` on width-specialized register storage
//!   versus the same sketch pinned to the generic shifted-window path
//!   (`force_generic_storage`).
//! * **merge** — the word-level run-skipping `merge_from` on specialized
//!   storage versus the per-register reference merge on generic storage,
//!   across four union shapes (sparse-into-dense, mostly-overlapping
//!   fold, disjoint dense, self-merge).
//! * **estimate** — repeated single-insert-then-estimate four ways:
//!   through the incrementally cached ML coefficients
//!   (`cached_ns_per_op`), through a fresh streaming coefficient scan
//!   (`scan_ns_per_op`), through the atomic sketch's in-place word scan
//!   (`atomic_ns_per_op`), and through Algorithm 3's per-bit reference
//!   loop (`reference_scan_ns_per_op`). The JSON records
//!   `scan_speedup_min`, the worst reference-over-scan ratio, which CI
//!   gates at ≥ 2.
//! * **kernels** — the steady-state word-run merge scan under each scan
//!   kernel the hardware supports (SWAR and AVX2) versus the scalar
//!   reference kernel, on the scan-dominated shapes (sparse incoming,
//!   mostly-overlapping fold, self-merge). The JSON records
//!   `kernel_equivalence` and the minimum SWAR speedup over the gated
//!   shapes so CI can require both.
//!
//! Every comparison asserts that all its paths produce bit-identical
//! serialized state / estimates; the JSON records the verdict under
//! `"equivalence"` and the process exits non-zero on any mismatch, which
//! is what lets CI gate on it.

use ell_bench::hashes;
use exaloglog::atomic::AtomicExaLogLog;
use exaloglog::kernels::{self, Kernel};
use exaloglog::theory::bias_correction_c;
use exaloglog::{ml, EllConfig, ExaLogLog};
use std::time::Instant;

struct Args {
    quick: bool,
    out: String,
    hashes: usize,
    reps: usize,
    p: u8,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: "BENCH_registers.json".to_string(),
        hashes: 0,
        reps: 0,
        p: 8,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let need = |argv: &[String], i: usize, flag: &str| -> String {
        argv.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("bench_registers: missing value for {flag}");
                std::process::exit(2);
            })
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => {
                args.quick = true;
                i += 1;
            }
            "--out" => {
                args.out = need(&argv, i, "--out");
                i += 2;
            }
            "--hashes" => {
                args.hashes = need(&argv, i, "--hashes").parse().unwrap_or_else(|_| {
                    eprintln!("bench_registers: --hashes expects an integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--reps" => {
                args.reps = need(&argv, i, "--reps").parse().unwrap_or_else(|_| {
                    eprintln!("bench_registers: --reps expects an integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--p" => {
                args.p = need(&argv, i, "--p").parse().unwrap_or_else(|_| {
                    eprintln!("bench_registers: --p expects a small integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--kernel" => {
                ell_bench::force_kernel_or_exit("bench_registers", &need(&argv, i, "--kernel"));
                i += 2;
            }
            other => {
                eprintln!("bench_registers: unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    if args.hashes == 0 {
        args.hashes = if args.quick { 400_000 } else { 4_000_000 };
    }
    if args.reps == 0 {
        args.reps = if args.quick { 3 } else { 7 };
    }
    args
}

/// Median wall time of `reps` runs of `f`, in seconds.
fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// Minimum wall time of `reps` runs of `f`, in seconds.
fn min_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// A from-scratch estimate (the pre-cache behavior): the coefficients
/// of `s` rebuilt by `coefficients`, then the Newton solve and bias
/// correction.
fn estimate_from(s: &ExaLogLog, coefficients: impl Fn(&ExaLogLog) -> ml::MlCoefficients) -> f64 {
    let cfg = s.config();
    let m = cfg.m() as f64;
    let raw = ml::ml_estimate_from_coefficients(&coefficients(s), m);
    raw / (1.0 + bias_correction_c(cfg.t(), cfg.d()) / m)
}

/// The one-pass streaming scan (`ml::compute_coefficients`).
fn estimate_by_scan(s: &ExaLogLog) -> f64 {
    estimate_from(s, ExaLogLog::coefficients_scan)
}

/// Algorithm 3's per-indicator-bit loop (`ml::coefficients_reference`).
fn estimate_by_reference(s: &ExaLogLog) -> f64 {
    estimate_from(s, |s| ml::coefficients_reference(s.config(), s.registers()))
}

/// One merge-shape measurement: time `acc.clone + merge(b)` for the
/// word-level path on specialized storage against the per-register
/// reference on generic storage, checking both produce identical bytes.
fn bench_merge_shape(
    label: &str,
    base: &ExaLogLog,
    incoming: &ExaLogLog,
    reps: usize,
    iters: usize,
    ok: &mut bool,
) -> String {
    let mut base_generic = base.clone();
    base_generic.force_generic_storage();
    let mut incoming_generic = incoming.clone();
    incoming_generic.force_generic_storage();

    // Equivalence first: all four path/storage combinations must agree.
    let mut word_spec = base.clone();
    word_spec.merge_from(incoming).unwrap();
    let mut per_reg_gen = base_generic.clone();
    per_reg_gen
        .merge_from_per_register(&incoming_generic)
        .unwrap();
    let mut word_gen = base_generic.clone();
    word_gen.merge_from(&incoming_generic).unwrap();
    let mut per_reg_spec = base.clone();
    per_reg_spec.merge_from_per_register(incoming).unwrap();
    if word_spec.to_bytes() != per_reg_gen.to_bytes()
        || word_gen.to_bytes() != per_reg_gen.to_bytes()
        || per_reg_spec.to_bytes() != per_reg_gen.to_bytes()
        || word_spec.estimate().to_bits() != per_reg_gen.estimate().to_bits()
    {
        eprintln!("bench_registers: merge equivalence MISMATCH in shape {label}");
        *ok = false;
    }

    let per_op = 1e9 / iters as f64;
    let mut scratch = base.clone();
    let word_ns = median_secs(reps, || {
        for _ in 0..iters {
            scratch.clone_from(base);
            scratch.merge_from(incoming).unwrap();
            std::hint::black_box(&scratch);
        }
    }) * per_op;
    let mut scratch_gen = base_generic.clone();
    let per_register_ns = median_secs(reps, || {
        for _ in 0..iters {
            scratch_gen.clone_from(&base_generic);
            scratch_gen
                .merge_from_per_register(&incoming_generic)
                .unwrap();
            std::hint::black_box(&scratch_gen);
        }
    }) * per_op;
    let speedup = per_register_ns / word_ns;
    println!(
        "    merge/{label:<18} word {word_ns:10.1} ns   per-register {per_register_ns:10.1} ns   speedup {speedup:5.2}x"
    );
    format!(
        "        \"{label}\": {{\"word_ns\": {word_ns:.1}, \"per_register_generic_ns\": {per_register_ns:.1}, \"speedup\": {speedup:.3}}}"
    )
}

/// One kernel-comparison measurement: the *steady-state* word-run merge
/// (`base ∪ incoming` already folded in, so repeated merges are pure
/// scan-and-skip work — exactly the cost the kernels vectorize) under
/// each supported kernel versus the scalar reference kernel. Verifies
/// that every kernel produces bytes identical to the scalar merge, and
/// returns the JSON row plus the SWAR speedup.
fn bench_kernel_shape(
    label: &str,
    base: &ExaLogLog,
    incoming: &ExaLogLog,
    reps: usize,
    iters: usize,
    kernel_ok: &mut bool,
) -> (String, f64) {
    // Equivalence: each kernel's merge of the *original* shape must match
    // the scalar kernel's, bit for bit.
    let mut scalar_merged = base.clone();
    scalar_merged
        .merge_from_with_kernel(incoming, Kernel::Scalar)
        .unwrap();
    for kernel in kernels::available() {
        let mut merged = base.clone();
        merged.merge_from_with_kernel(incoming, kernel).unwrap();
        if merged.to_bytes() != scalar_merged.to_bytes() {
            eprintln!(
                "bench_registers: kernel equivalence MISMATCH in shape {label} (kernel {})",
                kernel.name()
            );
            *kernel_ok = false;
        }
    }

    // Steady state: each kernel's accumulator already contains the
    // union, so every merge is scan-only. The kernels are interleaved:
    // each rep times every kernel once, rotating the order from rep to
    // rep, so load drift on a shared machine lands on all kernels alike.
    // Each kernel keeps its minimum over reps, the least
    // noise-contaminated estimate, since the speedup gate needs
    // run-to-run stability.
    let available = kernels::available();
    let mut accs: Vec<ExaLogLog> = available.iter().map(|_| scalar_merged.clone()).collect();
    let mut best_secs = vec![f64::INFINITY; available.len()];
    for rep in 0..reps.max(5) {
        for i in 0..available.len() {
            let k = (rep + i) % available.len();
            let t0 = Instant::now();
            for _ in 0..iters {
                accs[k]
                    .merge_from_with_kernel(incoming, available[k])
                    .unwrap();
                std::hint::black_box(&accs[k]);
            }
            best_secs[k] = best_secs[k].min(t0.elapsed().as_secs_f64());
        }
    }

    let per_op = 1e9 / iters as f64;
    let mut fields = Vec::new();
    let mut swar_speedup = f64::NAN;
    let mut scalar_ns = f64::NAN;
    for (&kernel, secs) in available.iter().zip(best_secs) {
        let ns = secs * per_op;
        let name = kernel.name();
        fields.push(format!("\"{name}_ns\": {ns:.1}"));
        match kernel {
            Kernel::Scalar => scalar_ns = ns,
            Kernel::Swar => {
                swar_speedup = scalar_ns / ns;
                fields.push(format!("\"swar_speedup\": {swar_speedup:.3}"));
            }
            Kernel::Avx2 => {
                fields.push(format!("\"avx2_speedup\": {:.3}", scalar_ns / ns));
            }
        }
        println!("    kernel/{label:<18} {name:<6} {ns:10.1} ns");
    }
    (
        format!("        \"{label}\": {{{}}}", fields.join(", ")),
        swar_speedup,
    )
}

fn main() {
    let args = parse_args();
    let stream = hashes(args.hashes, 0x5EED_CAFE);
    let mut ok = true;
    let mut kernel_ok = true;
    // Minimum SWAR speedup over the gated scan-dominated shapes.
    let mut swar_min = f64::INFINITY;
    // Minimum streaming-scan speedup over the per-bit reference.
    let mut scan_min = f64::INFINITY;

    let configs: Vec<(&str, EllConfig)> = vec![
        ("ull8", EllConfig::ull(args.p).unwrap()),
        ("aligned16", EllConfig::aligned16(args.p).unwrap()),
        (
            "martingale24",
            EllConfig::martingale_optimal(args.p).unwrap(),
        ),
        ("aligned32", EllConfig::aligned32(args.p).unwrap()),
        ("optimal28", EllConfig::optimal(args.p).unwrap()),
    ];

    let mut blocks = Vec::new();
    for (name, cfg) in &configs {
        let cfg = *cfg;
        let backend = ExaLogLog::new(cfg).storage_backend();
        println!("{name} ({cfg}, backend {backend})");

        // ---- insert: specialized vs generic storage ------------------
        let per_op = 1e9 / args.hashes as f64;
        let spec_ns = median_secs(args.reps, || {
            let mut s = ExaLogLog::new(cfg);
            s.insert_hashes(&stream);
            std::hint::black_box(&s);
        }) * per_op;
        let gen_ns = median_secs(args.reps, || {
            let mut s = ExaLogLog::new(cfg);
            s.force_generic_storage();
            s.insert_hashes(&stream);
            std::hint::black_box(&s);
        }) * per_op;
        let insert_speedup = gen_ns / spec_ns;
        println!(
            "    insert               specialized {spec_ns:6.2} ns/op   generic {gen_ns:6.2} ns/op   speedup {insert_speedup:5.2}x"
        );
        {
            let mut a = ExaLogLog::new(cfg);
            a.insert_hashes(&stream);
            let mut b = ExaLogLog::new(cfg);
            b.force_generic_storage();
            b.insert_hashes(&stream);
            if a.to_bytes() != b.to_bytes() {
                eprintln!("bench_registers: insert equivalence MISMATCH for {name}");
                ok = false;
            }
        }

        // ---- merge shapes -------------------------------------------
        let dense = {
            let mut s = ExaLogLog::new(cfg);
            s.insert_hashes(&stream);
            s
        };
        let sparse = {
            let mut s = ExaLogLog::new(cfg);
            s.insert_hashes(&hashes(24, 0xB0A7));
            s
        };
        let overlap = {
            // The incoming side of a periodic shard fold: everything the
            // accumulator has, plus a 1 % fresh tail.
            let mut s = dense.clone();
            s.insert_hashes(&hashes(args.hashes / 100, 0xF01D));
            s
        };
        let disjoint = {
            let mut s = ExaLogLog::new(cfg);
            s.insert_hashes(&hashes(args.hashes, 0xD15C));
            s
        };
        let merge_iters = if args.quick { 400 } else { 2000 };
        let merge_rows = [
            bench_merge_shape(
                "sparse_into_dense",
                &dense,
                &sparse,
                args.reps,
                merge_iters,
                &mut ok,
            ),
            bench_merge_shape(
                "overlap_fold",
                &dense,
                &overlap,
                args.reps,
                merge_iters,
                &mut ok,
            ),
            bench_merge_shape(
                "disjoint",
                &dense,
                &disjoint,
                args.reps,
                merge_iters,
                &mut ok,
            ),
            bench_merge_shape(
                "self_merge",
                &dense,
                &dense.clone(),
                args.reps,
                merge_iters,
                &mut ok,
            ),
        ];

        // ---- scan kernels: swar/avx2 vs the scalar reference ---------
        // The kernel rows measure *scan* cost, so they use a register
        // array large enough (>= 2^12 registers) for the word scan to
        // dominate the handful of boundary register merges; at tiny m
        // the fixed per-merge overhead drowns the signal.
        let kernel_cfg = EllConfig::new(cfg.t(), cfg.d(), cfg.p().max(13)).unwrap();
        let kdense = {
            let mut s = ExaLogLog::new(kernel_cfg);
            s.insert_hashes(&stream);
            s
        };
        // Sparse incoming: a handful of isolated nonzero registers, so
        // the steady-state merge is dominated by the word scan (zero and
        // equal runs) rather than by per-register boundary merges, which
        // cost the same under every kernel.
        let ksparse = {
            let mut s = ExaLogLog::new(kernel_cfg);
            s.insert_hashes(&hashes(8, 0xB0A7));
            s
        };
        let koverlap = {
            let mut s = kdense.clone();
            s.insert_hashes(&hashes(args.hashes / 100, 0xF01D));
            s
        };
        let kernel_iters = if args.quick { 600 } else { 3000 };
        let (row_sparse, su_sparse) = bench_kernel_shape(
            "sparse_into_dense",
            &kdense,
            &ksparse,
            args.reps,
            kernel_iters,
            &mut kernel_ok,
        );
        let (row_overlap, su_overlap) = bench_kernel_shape(
            "overlap_fold",
            &kdense,
            &koverlap,
            args.reps,
            kernel_iters,
            &mut kernel_ok,
        );
        let (row_self, _) = bench_kernel_shape(
            "self_merge",
            &kdense,
            &kdense.clone(),
            args.reps,
            kernel_iters,
            &mut kernel_ok,
        );
        swar_min = swar_min.min(su_sparse).min(su_overlap);
        let kernel_rows = [row_sparse, row_overlap, row_self];

        // ---- estimate: cache, streaming scan, atomic word scan and the
        // per-bit reference, each after one fresh insert ---------------
        let est_iters = if args.quick { 2000 } else { 10_000 };
        let est_stream = hashes(est_iters, 0xE57);
        let per_est = 1e9 / est_iters as f64;
        // Minimum over reps, as for the kernel rows: the scan-speedup
        // gate compares two sub-10 µs paths and needs the least
        // noise-contaminated figure of each.
        let time_estimates = |estimate: &dyn Fn(&mut ExaLogLog, u64) -> f64| {
            let mut warm = dense.clone();
            let ns = min_secs(args.reps.max(5), || {
                let mut acc = 0.0;
                for &h in &est_stream {
                    acc += estimate(&mut warm, h);
                }
                std::hint::black_box(acc);
            }) * per_est;
            (ns, warm)
        };
        let (cached_ns, warm) = time_estimates(&|s, h| {
            s.insert_hash(h);
            s.estimate()
        });
        let (scan_ns, _) = time_estimates(&|s, h| {
            s.insert_hash(h);
            estimate_by_scan(s)
        });
        let (reference_ns, _) = time_estimates(&|s, h| {
            s.insert_hash(h);
            estimate_by_reference(s)
        });
        let atomic = AtomicExaLogLog::from_sketch(&dense);
        let atomic_ns = min_secs(args.reps.max(5), || {
            let mut acc = 0.0;
            for &h in &est_stream {
                atomic.insert_hash(h);
                acc += atomic.estimate();
            }
            std::hint::black_box(acc);
        }) * per_est;
        let est_speedup = scan_ns / cached_ns;
        let scan_speedup = reference_ns / scan_ns;
        scan_min = scan_min.min(scan_speedup);
        println!(
            "    estimate             cached {cached_ns:9.1} ns/op   scan {scan_ns:9.1} ns/op   \
             atomic {atomic_ns:9.1} ns/op   reference {reference_ns:9.1} ns/op   \
             scan speedup {scan_speedup:5.2}x"
        );
        {
            // Every path consumed the same stream; all four estimates and
            // all three coefficient sets must agree to the bit.
            let reference = ml::coefficients_reference(&cfg, warm.registers());
            let want = estimate_by_reference(&warm).to_bits();
            if warm.coefficients_scan() != reference
                || atomic.coefficients() != reference
                || atomic.snapshot() != warm
                || warm.estimate().to_bits() != want
                || estimate_by_scan(&warm).to_bits() != want
                || atomic.estimate().to_bits() != want
            {
                eprintln!("bench_registers: estimate equivalence MISMATCH for {name}");
                ok = false;
            }
        }

        blocks.push(format!(
            "    {{\n      \"config\": \"{cfg}\", \"name\": \"{name}\", \"backend\": \"{backend}\", \
             \"register_width\": {},\n      \"insert\": {{\"specialized_ns_per_op\": {spec_ns:.3}, \
             \"generic_ns_per_op\": {gen_ns:.3}, \"speedup\": {insert_speedup:.3}}},\n      \
             \"merge\": {{\n{}\n      }},\n      \
             \"kernels\": {{\n{}\n      }},\n      \
             \"estimate\": {{\"cached_ns_per_op\": {cached_ns:.1}, \"scan_ns_per_op\": {scan_ns:.1}, \
             \"atomic_ns_per_op\": {atomic_ns:.1}, \"reference_scan_ns_per_op\": {reference_ns:.1}, \
             \"speedup\": {est_speedup:.3}, \"scan_speedup\": {scan_speedup:.3}}}\n    }}",
            cfg.register_width(),
            merge_rows.join(",\n"),
            kernel_rows.join(",\n")
        ));
    }

    let kernels_available: Vec<String> = kernels::available()
        .iter()
        .map(|k| format!("\"{}\"", k.name()))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"registers\",\n  \"mode\": \"{}\",\n  \"precision_p\": {},\n  \
         \"hashes_per_run\": {},\n  \"reps\": {},\n  \"unit\": \"ns_per_op\",\n  \
         \"kernel\": \"{}\",\n  \"kernels_available\": [{}],\n  \"kernel_precision_p\": {},\n  \
         \"equivalence\": \"{}\",\n  \"kernel_equivalence\": \"{}\",\n  \
         \"swar_merge_speedup_min\": {:.3},\n  \"scan_speedup_min\": {:.3},\n  \
         \"configs\": [\n{}\n  ]\n}}\n",
        if args.quick { "quick" } else { "full" },
        args.p,
        args.hashes,
        args.reps,
        ell_bench::active_kernel_name(),
        kernels_available.join(", "),
        args.p.max(13),
        if ok { "ok" } else { "mismatch" },
        if kernel_ok { "ok" } else { "mismatch" },
        swar_min,
        scan_min,
        blocks.join(",\n")
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("bench_registers: cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("wrote {}", args.out);
    if !ok {
        eprintln!("bench_registers: specialized-vs-generic equivalence self-check FAILED");
        std::process::exit(1);
    }
    if !kernel_ok {
        eprintln!("bench_registers: kernel-vs-scalar equivalence self-check FAILED");
        std::process::exit(1);
    }
}
