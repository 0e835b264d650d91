//! Ablation benchmarks for the paper's main design choices:
//!
//! * **Register alignment** — §2.4 argues ELL(2,24)'s 32-bit registers
//!   allow "very fast register access" versus the space-optimal 28-bit
//!   ELL(2,20): measure insert throughput across register widths.
//! * **Martingale bookkeeping** — Algorithm 4 adds a per-change O(d)
//!   probability update: measure its insert-path overhead.
//! * **Newton solver** — Appendix A claims 5–7 iterations on average;
//!   measure ML estimation cost versus precision p (the number of terms
//!   is bounded by 64−p−t, so cost should be dominated by the O(m·d)
//!   coefficient pass).
//! * **Hash functions** — the substrate choice: WyHash vs XXH64 vs
//!   Murmur3 on the 16-byte keys the paper benches with.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ell_bench::{elements, hashes};
use ell_hash::{Hasher64, Murmur3_128, WyHash, Xxh64};
use exaloglog::{EllConfig, ExaLogLog, MartingaleExaLogLog};
use std::hint::black_box;

const N: usize = 100_000;

fn register_width_ablation(c: &mut Criterion) {
    let input = hashes(N, 7);
    let mut group = c.benchmark_group("ablation/register_width");
    group.throughput(Throughput::Elements(N as u64));
    for (label, t, d) in [
        ("16-bit ELL(1,9)", 1u8, 9u8),
        ("24-bit ELL(2,16)", 2, 16),
        ("28-bit ELL(2,20)", 2, 20),
        ("32-bit ELL(2,24)", 2, 24),
        ("8-bit ULL(0,2)", 0, 2),
        ("6-bit HLL(0,0)", 0, 0),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut s = ExaLogLog::with_params(t, d, 8).expect("valid");
                for &h in &input {
                    s.insert_hash(h);
                }
                black_box(s)
            });
        });
    }
    group.finish();
}

fn martingale_overhead(c: &mut Criterion) {
    let input = hashes(N, 8);
    let mut group = c.benchmark_group("ablation/martingale_overhead");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("plain insert", |b| {
        b.iter(|| {
            let mut s = ExaLogLog::new(EllConfig::optimal(8).expect("valid"));
            for &h in &input {
                s.insert_hash(h);
            }
            black_box(s)
        });
    });
    group.bench_function("martingale insert", |b| {
        b.iter(|| {
            let mut s = MartingaleExaLogLog::new(EllConfig::optimal(8).expect("valid"));
            for &h in &input {
                s.insert_hash(h);
            }
            black_box(s)
        });
    });
    group.finish();
}

fn ml_estimation_cost(c: &mut Criterion) {
    let input = hashes(N, 9);
    let mut group = c.benchmark_group("ablation/ml_estimate_by_precision");
    for p in [4u8, 6, 8, 10, 12] {
        let mut s = ExaLogLog::with_params(2, 20, p).expect("valid");
        for &h in &input {
            s.insert_hash(h);
        }
        group.bench_function(format!("p={p}"), |b| {
            b.iter(|| black_box(s.estimate()));
        });
    }
    group.finish();
}

fn hash_functions(c: &mut Criterion) {
    let input = elements(N, 10);
    let mut group = c.benchmark_group("ablation/hash_16byte_keys");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("wyhash", |b| {
        let h = WyHash::new(0);
        b.iter(|| {
            let mut acc = 0u64;
            for e in &input {
                acc ^= h.hash_bytes(e);
            }
            black_box(acc)
        });
    });
    group.bench_function("xxh64", |b| {
        let h = Xxh64::new(0);
        b.iter(|| {
            let mut acc = 0u64;
            for e in &input {
                acc ^= h.hash_bytes(e);
            }
            black_box(acc)
        });
    });
    group.bench_function("murmur3_128", |b| {
        let h = Murmur3_128::new(0);
        b.iter(|| {
            let mut acc = 0u64;
            for e in &input {
                acc ^= h.hash_bytes(e);
            }
            black_box(acc)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = register_width_ablation, martingale_overhead, ml_estimation_cost, hash_functions
}
criterion_main!(benches);
