//! Cross-implementation laws of the `ell-core` trait layer.
//!
//! Two guarantees the whole workspace builds on, checked for **every**
//! `DistinctCounter` implementation:
//!
//! 1. **Batch equivalence** — `insert_hashes` leaves the sketch in a
//!    state bit-for-bit identical (observed through `to_bytes`) to
//!    sequential `insert_hash` calls in the same order, for any batch
//!    partitioning. This is what lets every consumer batch freely.
//! 2. **Merge laws** — at the trait level, `merge_from` is commutative
//!    and idempotent in the serialized state, for every merge-capable
//!    implementation (the martingale wrapper intentionally refuses).
//!
//! Implementations are enumerated through the `ell-baselines` registry so
//! a newly registered sketch type is covered automatically.

use ell::ell_baselines::{
    build_sketch, Ehll, HllEstimator, HyperLogLog, HyperLogLog4, HyperLogLogLog, HyperMinHash,
    Pcsa, SparseHyperLogLog, SpikeLike, Ull, ALGORITHMS,
};
use ell::ell_core::{DistinctCounter, SketchError};
use ell::ell_hash::SplitMix64;
use ell::exaloglog::atomic::AtomicExaLogLog;
use ell::exaloglog::{
    AdaptiveExaLogLog, EllConfig, ExaLogLog, MartingaleExaLogLog, SparseExaLogLog, TokenSet,
};
use proptest::prelude::*;

fn hash_stream(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Batch ≡ sequential for one sized implementation, over a given batch
/// partition size.
fn batch_equivalence<S, New>(new: New, hashes: &[u64], chunk: usize) -> Result<(), TestCaseError>
where
    S: DistinctCounter,
    New: Fn() -> S,
{
    let mut seq = new();
    for &h in hashes {
        seq.insert_hash(h);
    }
    let mut bat = new();
    for block in hashes.chunks(chunk.max(1)) {
        bat.insert_hashes(block);
    }
    prop_assert_eq!(
        seq.to_bytes(),
        bat.to_bytes(),
        "batch/sequential state divergence (chunk={})",
        chunk
    );
    Ok(())
}

/// Commutativity and idempotence of `merge_from` in serialized state.
fn merge_laws<S, New>(new: New, ha: &[u64], hb: &[u64]) -> Result<(), TestCaseError>
where
    S: DistinctCounter,
    New: Fn() -> S,
{
    let build = |hashes: &[u64]| {
        let mut s = new();
        s.insert_hashes(hashes);
        s
    };
    let a = build(ha);
    let b = build(hb);
    let mut ab = build(ha);
    ab.merge_from(&b).expect("compatible merge");
    let mut ba = build(hb);
    ba.merge_from(&a).expect("compatible merge");
    prop_assert_eq!(ab.to_bytes(), ba.to_bytes(), "merge not commutative");
    let before = ab.to_bytes();
    ab.merge_from(&b).expect("compatible merge");
    prop_assert_eq!(ab.to_bytes(), before, "re-merge not idempotent");
    // Serialization round-trips the merged state for every type.
    let back = S::from_bytes(&before).expect("roundtrip");
    prop_assert_eq!(back.to_bytes(), before, "roundtrip not canonical");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Law 1 for every registered algorithm, through the object-safe
    /// facade (one virtual boundary, all 19 types).
    #[test]
    fn registry_batch_equals_sequential(
        seed in any::<u64>(),
        n in 0usize..3000,
        chunk in 1usize..700,
    ) {
        let hashes = hash_stream(seed, n);
        for &algo in ALGORITHMS {
            let mut seq = build_sketch(algo, 8).expect(algo);
            for &h in &hashes {
                seq.insert_hash(h);
            }
            let mut bat = build_sketch(algo, 8).expect(algo);
            for block in hashes.chunks(chunk) {
                bat.insert_hashes(block);
            }
            prop_assert_eq!(
                seq.to_bytes(),
                bat.to_bytes(),
                "{}: batch/sequential divergence (n={}, chunk={})",
                algo, n, chunk
            );
        }
    }

    /// Law 1 again for the sized types whose batch paths are handwritten
    /// (the unrolled hot paths), at the configurations the paper
    /// highlights — plus the densification-straddling sparse sketch.
    #[test]
    fn handwritten_batch_paths_are_equivalent(
        seed in any::<u64>(),
        n in 0usize..6000,
        chunk in 1usize..1500,
        p in 4u8..11,
    ) {
        let hashes = hash_stream(seed, n);
        // The four §2.4 register widths: 28 bits (generic backend) and
        // the u32, u24 and u16 storage backends.
        batch_equivalence(|| ExaLogLog::new(EllConfig::optimal(p).unwrap()), &hashes, chunk)?;
        batch_equivalence(|| ExaLogLog::new(EllConfig::aligned32(p).unwrap()), &hashes, chunk)?;
        batch_equivalence(
            || ExaLogLog::new(EllConfig::martingale_optimal(p).unwrap()),
            &hashes,
            chunk,
        )?;
        batch_equivalence(|| ExaLogLog::new(EllConfig::aligned16(p).unwrap()), &hashes, chunk)?;
        batch_equivalence(
            || SparseExaLogLog::new(EllConfig::optimal(p).unwrap()).unwrap(),
            &hashes,
            chunk,
        )?;
        batch_equivalence(
            || AdaptiveExaLogLog::new(EllConfig::optimal(p).unwrap()).unwrap(),
            &hashes,
            chunk,
        )?;
    }

    /// Law 2 for every merge-capable implementation.
    #[test]
    fn merge_is_commutative_and_idempotent_everywhere(
        seed in any::<u64>(),
        na in 0usize..2500,
        nb in 0usize..2500,
        p in 4u8..10,
    ) {
        let ha = hash_stream(seed, na);
        let hb = hash_stream(seed ^ 0x9E3779B97F4A7C15, nb);
        // ExaLogLog family.
        merge_laws(|| ExaLogLog::new(EllConfig::optimal(p).unwrap()), &ha, &hb)?;
        merge_laws(
            || SparseExaLogLog::new(EllConfig::optimal(p).unwrap()).unwrap(),
            &ha,
            &hb,
        )?;
        merge_laws(
            || AdaptiveExaLogLog::new(EllConfig::optimal(p).unwrap()).unwrap(),
            &ha,
            &hb,
        )?;
        merge_laws(
            || AtomicExaLogLog::new(EllConfig::aligned32(p).unwrap()),
            &ha,
            &hb,
        )?;
        merge_laws(|| ExaLogLog::new(EllConfig::aligned32(p).unwrap()), &ha, &hb)?;
        merge_laws(|| ExaLogLog::new(EllConfig::martingale_optimal(p).unwrap()), &ha, &hb)?;
        merge_laws(|| ExaLogLog::new(EllConfig::aligned16(p).unwrap()), &ha, &hb)?;
        merge_laws(|| TokenSet::new(26).unwrap(), &ha, &hb)?;
        // Baselines.
        merge_laws(|| HyperLogLog::new(p, 6, HllEstimator::Improved), &ha, &hb)?;
        merge_laws(|| HyperLogLog::new(p, 8, HllEstimator::MaximumLikelihood), &ha, &hb)?;
        merge_laws(|| HyperLogLog4::new(p), &ha, &hb)?;
        // HLLL is merge-capable but its re-base sweeps make the *encoded*
        // offset/exception split path-dependent, so byte-level
        // commutativity does not hold; its logical merge semantics are
        // covered below via the reconstructed register values.
        merge_laws(|| Ehll::new(p), &ha, &hb)?;
        merge_laws(|| Ull::new(p), &ha, &hb)?;
        merge_laws(|| Pcsa::new(p), &ha, &hb)?;
        merge_laws(|| HyperMinHash::new(p, 2), &ha, &hb)?;
        merge_laws(|| SparseHyperLogLog::new(p, 6, HllEstimator::Improved), &ha, &hb)?;
        merge_laws(|| SpikeLike::new(128), &ha, &hb)?;
    }

    /// HLLL merge laws at the logical level: the offset/exception
    /// *encoding* after a merge depends on the merge order (re-base
    /// sweeps), but the reconstructed register values must not.
    #[test]
    fn hlll_merge_laws_on_reconstructed_values(
        seed in any::<u64>(),
        na in 0usize..2500,
        nb in 0usize..2500,
        p in 4u8..10,
    ) {
        let ha = hash_stream(seed, na);
        let hb = hash_stream(seed ^ 0x9E3779B97F4A7C15, nb);
        let build = |hashes: &[u64]| {
            let mut s = HyperLogLogLog::new(p);
            s.insert_hashes(hashes);
            s
        };
        let a = build(&ha);
        let b = build(&hb);
        let mut ab = build(&ha);
        ab.merge_from(&b);
        let mut ba = build(&hb);
        ba.merge_from(&a);
        let values = |s: &HyperLogLogLog| (0..s.m()).map(|i| s.value(i)).collect::<Vec<_>>();
        prop_assert_eq!(values(&ab), values(&ba), "HLLL merge not commutative in values");
        let before = values(&ab);
        ab.merge_from(&b);
        prop_assert_eq!(values(&ab), before, "HLLL re-merge not idempotent in values");
    }

    /// The one intentional exception: the martingale wrapper refuses to
    /// merge (its stream assumption would break), but still batches
    /// equivalently through the default loop.
    #[test]
    fn martingale_batches_but_refuses_merge(seed in any::<u64>(), n in 0usize..3000) {
        let hashes = hash_stream(seed, n);
        batch_equivalence(
            || MartingaleExaLogLog::new(EllConfig::martingale_optimal(8).unwrap()),
            &hashes,
            97,
        )?;
        let mut a = MartingaleExaLogLog::new(EllConfig::martingale_optimal(8).unwrap());
        let b = a.clone();
        let refused = matches!(a.merge_from(&b), Err(SketchError::Unsupported { .. }));
        prop_assert!(refused, "martingale merge must be refused");
    }
}
