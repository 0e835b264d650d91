//! Isolated layer replays for the traced run: the same per-key events
//! a workload drives through the store, replayed directly through one
//! lower layer at a time so a store call's cost splits into hashing,
//! sketch insert, merge, ML scan/solve and codec.

use crate::report::Report;
use crate::stats::median;
use ell_hash::{Hasher64, WyHash};
use exaloglog::adaptive::AdaptiveExaLogLog;
use exaloglog::atomic::AtomicExaLogLog;
use exaloglog::compress::{compress, decompress};
use exaloglog::ml::{compute_coefficients, solve_ml_equation};
use exaloglog::{EllConfig, ExaLogLog};
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::hint::black_box;
use std::time::Instant;

/// Each timed replay repeats this many times; the median is reported.
const REPEATS: usize = 5;

/// At most this many dense sketches feed the merge, ML and codec rows.
const DENSE_CAP: usize = 256;

fn per_op_ns(ops: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// The shard hash (WyHash, as the store routes keys) and the session
/// map's hash (std `RandomState`) over `keys`, in event order.
pub fn hashing(keys: &[&str], report: &mut Report) {
    let wy = WyHash::new(0xE115_70E5);
    let key_ns = per_op_ns(keys.len(), || {
        for k in keys {
            black_box(wy.hash_bytes(black_box(k.as_bytes())));
        }
    });
    let map = std::collections::hash_map::RandomState::new();
    let map_ns = per_op_ns(keys.len(), || {
        for k in keys {
            black_box(map.hash_one(black_box(*k)));
        }
    });
    report.metric("ell_hash.key_hash_ns", key_ns, "ns");
    report.metric("ell_hash.map_hash_ns", map_ns, "ns");
}

/// Replays per-key hash groups into fresh adaptive sketches (the
/// session delta's insert) and, for the keys that end dense, into
/// atomic sketches (the hot slot's CAS insert). Reports the sketch,
/// merge, ML and codec rows.
pub fn sketches(cfg: EllConfig, groups: &[Vec<u64>], report: &mut Report) {
    let total: usize = groups.iter().map(Vec::len).sum();
    let mut finals: Vec<AdaptiveExaLogLog> = Vec::new();
    let adaptive_ns = per_op_ns(total, || {
        finals = groups
            .iter()
            .map(|g| {
                let mut s = AdaptiveExaLogLog::new(cfg).expect("valid config");
                for &h in g {
                    s.insert_hash(h);
                }
                s
            })
            .collect();
    });
    let dense_groups: Vec<&Vec<u64>> = groups
        .iter()
        .zip(&finals)
        .filter(|(_, s)| !s.is_sparse())
        .map(|(g, _)| g)
        .collect();
    let dense_total: usize = dense_groups.iter().map(|g| g.len()).sum();
    let atomic_ns = per_op_ns(dense_total, || {
        for g in &dense_groups {
            let a = AtomicExaLogLog::new(cfg);
            for &h in g.iter() {
                a.insert_hash(h);
            }
            black_box(&a);
        }
    });
    report.metric("sketch.adaptive_insert_ns", adaptive_ns, "ns");
    if dense_total > 0 {
        report.metric("sketch.atomic_insert_ns", atomic_ns, "ns");
    }
    report.metric(
        "sketch.dense_promotions",
        dense_groups.len() as f64,
        "count",
    );
    let dense: Vec<ExaLogLog> = finals
        .iter()
        .filter_map(|s| s.as_dense().cloned())
        .take(DENSE_CAP)
        .collect();
    dense_rows(&dense, report);
}

/// Merge, ML, atomic-snapshot and codec rows over dense sketches.
pub fn dense_rows(dense: &[ExaLogLog], report: &mut Report) {
    if dense.len() < 2 {
        return;
    }
    let cfg = *dense[0].config();
    // Each merge folds one sketch into a fresh copy of its neighbour;
    // the copies are made outside the timed loop.
    let mut acc: Vec<ExaLogLog> = dense.to_vec();
    let merges: Vec<f64> = (0..REPEATS)
        .map(|_| {
            for i in 1..dense.len() {
                acc[i - 1].clone_from(&dense[i - 1]);
            }
            let t = Instant::now();
            for i in 1..dense.len() {
                acc[i - 1].merge_from(&dense[i]).expect("same config");
            }
            t.elapsed().as_nanos() as f64 / (dense.len() - 1) as f64
        })
        .collect();
    let merge_ns = median(&merges);
    let words = dense[0].register_bytes().len().div_ceil(8);
    report.metric("sketch.merge_us", merge_ns / 1e3, "us");
    report.metric("kernels.merge_ns_per_word", merge_ns / words as f64, "ns");

    let mut coeffs = Vec::new();
    let coeff_ns = per_op_ns(dense.len(), || {
        coeffs = dense
            .iter()
            .map(|s| compute_coefficients(&cfg, s.registers()))
            .collect();
    });
    let m = cfg.m() as f64;
    let solve_ns = per_op_ns(dense.len(), || {
        for c in &coeffs {
            black_box(solve_ml_equation(c.alpha(), &c.beta, m));
        }
    });
    let atomics: Vec<AtomicExaLogLog> = dense.iter().map(AtomicExaLogLog::from_sketch).collect();
    let snap_ns = per_op_ns(atomics.len(), || {
        for a in &atomics {
            black_box(a.snapshot());
        }
    });
    report.metric("ml.coefficients_us", coeff_ns / 1e3, "us");
    report.metric("ml.solve_us", solve_ns / 1e3, "us");
    report.metric("atomic.snapshot_us", snap_ns / 1e3, "us");

    let mut packed: Vec<Vec<u8>> = Vec::new();
    let compress_ns = per_op_ns(dense.len(), || {
        packed = dense.iter().map(compress).collect();
    });
    let decompress_ns = per_op_ns(packed.len(), || {
        for b in &packed {
            black_box(decompress(b).expect("own bytes decode"));
        }
    });
    let mean_bytes = packed.iter().map(Vec::len).sum::<usize>() as f64 / packed.len() as f64;
    report.metric("codec.compress_us", compress_ns / 1e3, "us");
    report.metric("codec.decompress_us", decompress_ns / 1e3, "us");
    report.metric("codec.bytes_per_key", mean_bytes, "bytes");
}

/// Groups `(key, hash)` events by key, keeping first-seen key order.
#[must_use]
pub fn group_by_key(events: impl IntoIterator<Item = (u32, u64)>) -> Vec<Vec<u64>> {
    let mut index: HashMap<u32, usize> = HashMap::new();
    let mut groups: Vec<Vec<u64>> = Vec::new();
    for (k, h) in events {
        let i = *index.entry(k).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[i].push(h);
    }
    groups
}

/// Events absorbed per delta merged, for sessions that flush every
/// `flush_every` events: the number of events over the number of
/// distinct delta ids (key, or key and epoch) in each flush window.
#[must_use]
pub fn events_per_delta(keys: &[u64], flush_every: usize) -> f64 {
    let mut deltas = 0usize;
    let mut seen = std::collections::HashSet::new();
    for window in keys.chunks(flush_every.max(1)) {
        seen.clear();
        seen.extend(window.iter().copied());
        deltas += seen.len();
    }
    keys.len() as f64 / deltas.max(1) as f64
}
