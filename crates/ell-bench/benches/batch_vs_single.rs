//! Batched vs single-hash insertion through the `ell-core` trait layer.
//!
//! Measures the payoff of `DistinctCounter::insert_hashes` — the unrolled
//! decompose-then-update hot path — against one-hash-at-a-time insertion,
//! for the dense sketch and for a baseline that only has the default
//! batch loop (the trait-contract control).
//! The machine-readable companion is the `bench_insert` binary, which
//! writes `BENCH_insert.json`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ell_baselines::Ull;
use ell_bench::hashes;
use ell_core::DistinctCounter;
use exaloglog::{EllConfig, ExaLogLog};

const N: usize = 100_000;

fn bench_type<S, New>(c: &mut Criterion, label: &str, new: New)
where
    S: DistinctCounter,
    New: Fn() -> S,
{
    let stream = hashes(N, 7);
    let mut group = c.benchmark_group(format!("insert/{label}"));
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("single", |b| {
        b.iter_batched(
            &new,
            |mut s| {
                for &h in &stream {
                    s.insert_hash(h);
                }
                s
            },
            BatchSize::LargeInput,
        );
    });
    group.bench_function("batch", |b| {
        b.iter_batched(
            &new,
            |mut s| {
                s.insert_hashes(&stream);
                s
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn batch_vs_single(c: &mut Criterion) {
    bench_type(c, "ELL(2,20,p=12)", || {
        ExaLogLog::new(EllConfig::optimal(12).expect("valid"))
    });
    // Control: a type with only the default batch loop — batch and single
    // should time identically, proving the harness measures the path,
    // not the call shape.
    bench_type(c, "ULL(p=12,default-batch)", || Ull::new(12));
}

criterion_group!(benches, batch_vs_single);
criterion_main!(benches);
