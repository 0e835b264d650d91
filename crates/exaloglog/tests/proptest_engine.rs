//! Property tests for the fast-path register engine: the incremental ML
//! coefficient cache, the word-level merge scan, and the width-specialized
//! register storage must all be *pure optimizations* — bit-identical
//! serialized state and bit-identical estimates versus the reference
//! paths (sequential inserts, per-register merges, the Algorithm 3 scan,
//! generic shifted-window storage) for arbitrary operation sequences.
//!
//! The per-config coverage here is complemented by the debug assertion
//! inside `ExaLogLog::estimate`/`coefficients`, which re-checks
//! cache-vs-scan equality on every estimate throughout the whole test
//! suite (including the registry-driven `tests/trait_laws.rs` laws).

use ell_hash::SplitMix64;
use exaloglog::atomic::AtomicExaLogLog;
use exaloglog::ml;
use exaloglog::{EllConfig, ExaLogLog};
use proptest::prelude::*;

fn hashes(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Every named configuration of the ELL family (the shapes the sketch
/// registry exposes) plus odd widths that exercise the generic storage
/// backend and the 64-bit extreme.
fn configs() -> Vec<EllConfig> {
    vec![
        EllConfig::hll(5).unwrap(),                // width 6, generic
        EllConfig::ehll(4).unwrap(),               // width 7, generic
        EllConfig::ull(6).unwrap(),                // width 8, u8 backend
        EllConfig::aligned16(5).unwrap(),          // width 16, u16 backend
        EllConfig::martingale_optimal(4).unwrap(), // width 24, u24 backend
        EllConfig::optimal(6).unwrap(),            // width 28, generic
        EllConfig::aligned32(4).unwrap(),          // width 32, u32 backend
        EllConfig::new(0, 7, 4).unwrap(),          // width 13, generic
        EllConfig::new(3, 13, 5).unwrap(),         // width 22, generic
        EllConfig::new(2, 56, 3).unwrap(),         // width 64, u64 backend
    ]
}

/// Shapes for the coefficient-scan oracles: every scan path (value
/// tally for ≤ 8-bit registers, aligned lanes for t ≤ 3, per-level walk
/// for t ≥ 4) and atomic layouts whose last word is only partly used
/// (10, 9, 7, 5 and 3 registers per word against m a power of two).
fn scan_configs() -> Vec<EllConfig> {
    vec![
        EllConfig::hll(5).unwrap(),        // width 6, 10 per word, tallied
        EllConfig::ehll(4).unwrap(),       // width 7, 9 per word, tallied
        EllConfig::ull(6).unwrap(),        // width 8, tallied
        EllConfig::new(0, 3, 5).unwrap(),  // width 9, 7 per word
        EllConfig::new(1, 5, 4).unwrap(),  // width 12, 5 per word
        EllConfig::new(2, 12, 5).unwrap(), // width 20, 3 per word
        EllConfig::optimal(6).unwrap(),    // width 28
        EllConfig::new(3, 13, 5).unwrap(), // width 22, t = 3
        EllConfig::new(2, 56, 3).unwrap(), // width 64, widest aligned
        EllConfig::new(4, 20, 3).unwrap(), // t = 4: per-level walk
        EllConfig::new(5, 9, 4).unwrap(),  // t = 5
        EllConfig::new(6, 52, 2).unwrap(), // t = 6, width 64
    ]
}

/// A sketch driven by `n` direct register updates whose values cover the
/// whole range: low values (registers with u ≤ d carry the sentinel
/// bit), the top 2^t values (φ capped at 64 − p) and uniform ones.
fn random_state(cfg: EllConfig, seed: u64, n: usize) -> ExaLogLog {
    let mut rng = SplitMix64::new(seed);
    let mut s = ExaLogLog::new(cfg);
    let max = cfg.max_update_value();
    let low = u64::from(cfg.d()) + 2;
    let top = 1u64 << cfg.t();
    for _ in 0..n {
        let i = (rng.next_u64() as usize) & (cfg.m() - 1);
        let x = rng.next_u64();
        let k = match x % 3 {
            0 => 1 + (x >> 2) % low.min(max),
            1 => max - (x >> 2) % top.min(max),
            _ => 1 + (x >> 2) % max,
        };
        s.apply_update(i, k);
    }
    s
}

#[derive(Debug, Clone)]
enum Op {
    /// Batch-insert a pseudo-random stream.
    Insert { seed: u64, n: usize },
    /// Merge a freshly built sketch (word-level on the subject,
    /// per-register on the reference).
    Merge { seed: u64, n: usize },
    /// Reset to empty.
    Clear,
    /// Serialize and deserialize the subject in place.
    Roundtrip,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u64>(), 0usize..600).prop_map(|(seed, n)| Op::Insert { seed, n }),
        (any::<u64>(), 0usize..600).prop_map(|(seed, n)| Op::Merge { seed, n }),
        Just(Op::Clear),
        Just(Op::Roundtrip),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After any sequence of batched inserts, word-level merges, clears
    /// and serialization round-trips, the incrementally maintained
    /// coefficients equal a fresh Algorithm 3 scan, the ML estimate is
    /// bit-identical to the scan-based one, and the serialized state
    /// equals a reference sketch driven through the sequential insert /
    /// per-register merge paths.
    #[test]
    fn incremental_coefficients_match_scan(
        cfg_idx in 0usize..10,
        ops in prop::collection::vec(op_strategy(), 1..10)
    ) {
        let cfg = configs()[cfg_idx];
        let mut fast = ExaLogLog::new(cfg);
        let mut reference = ExaLogLog::new(cfg);
        for op in ops {
            match op {
                Op::Insert { seed, n } => {
                    let hs = hashes(seed, n);
                    fast.insert_hashes(&hs);
                    for &h in &hs {
                        reference.insert_hash(h);
                    }
                }
                Op::Merge { seed, n } => {
                    let mut other = ExaLogLog::new(cfg);
                    other.insert_hashes(&hashes(seed, n));
                    fast.merge_from(&other).unwrap();
                    reference.merge_from_per_register(&other).unwrap();
                }
                Op::Clear => {
                    fast.clear();
                    reference.clear();
                }
                Op::Roundtrip => {
                    fast = ExaLogLog::from_bytes(&fast.to_bytes()).unwrap();
                    // Deserialization rebuilds the cache eagerly: the
                    // restored sketch must estimate through the
                    // incremental path and still match the reference.
                    prop_assert!(fast.has_cached_coefficients());
                    prop_assert_eq!(fast.estimate().to_bits(), reference.estimate().to_bits());
                }
            }
            prop_assert!(fast.has_cached_coefficients());
            prop_assert_eq!(fast.coefficients(), fast.coefficients_scan());
            let scan_estimate =
                ml::ml_estimate_from_coefficients(&fast.coefficients_scan(), cfg.m() as f64);
            prop_assert_eq!(fast.estimate_ml_raw().to_bits(), scan_estimate.to_bits());
            prop_assert_eq!(fast.to_bytes(), reference.to_bytes());
            prop_assert_eq!(fast.estimate().to_bits(), reference.estimate().to_bits());
        }
    }

    /// The word-level merge must be bit-identical to both the
    /// per-register reference merge and direct recording of the combined
    /// stream, across all configurations (covering every storage backend
    /// and the straddling-register geometry of non-aligned widths).
    #[test]
    fn word_merge_equals_reference_merge(
        cfg_idx in 0usize..10,
        seed in any::<u64>(),
        na in 0usize..3000,
        nb in 0usize..3000,
    ) {
        let cfg = configs()[cfg_idx];
        let sa = hashes(seed, na);
        let sb = hashes(seed ^ 0x00C0_FFEE, nb);
        let mut a = ExaLogLog::new(cfg);
        let mut b = ExaLogLog::new(cfg);
        let mut direct = ExaLogLog::new(cfg);
        a.insert_hashes(&sa);
        b.insert_hashes(&sb);
        for &h in sa.iter().chain(sb.iter()) {
            direct.insert_hash(h);
        }
        let mut word_merged = a.clone();
        word_merged.merge_from(&b).unwrap();
        let mut per_register = a.clone();
        per_register.merge_from_per_register(&b).unwrap();
        prop_assert_eq!(word_merged.to_bytes(), per_register.to_bytes());
        prop_assert_eq!(word_merged.to_bytes(), direct.to_bytes());
        // Self-merge and empty-merge hit the all-equal / all-zero run
        // fast paths and must be no-ops.
        let mut self_merged = word_merged.clone();
        self_merged.merge_from(&word_merged.clone()).unwrap();
        prop_assert_eq!(&self_merged, &word_merged);
        self_merged.merge_from(&ExaLogLog::new(cfg)).unwrap();
        prop_assert_eq!(&self_merged, &word_merged);
        prop_assert_eq!(
            word_merged.estimate().to_bits(),
            per_register.estimate().to_bits()
        );
    }

    /// Pinning the register storage to the generic shifted-window path
    /// must not change a single bit of behavior: same insert results,
    /// same serialized state, same estimates.
    #[test]
    fn generic_storage_is_bit_identical(
        cfg_idx in 0usize..10,
        seed in any::<u64>(),
        n in 0usize..3000,
        nb in 0usize..1500,
    ) {
        let cfg = configs()[cfg_idx];
        let mut spec = ExaLogLog::new(cfg);
        let mut gen = ExaLogLog::new(cfg);
        gen.force_generic_storage();
        prop_assert_eq!(gen.storage_backend(), "generic");
        spec.insert_hashes(&hashes(seed, n));
        gen.insert_hashes(&hashes(seed, n));
        prop_assert_eq!(spec.to_bytes(), gen.to_bytes());
        let mut other = ExaLogLog::new(cfg);
        other.insert_hashes(&hashes(seed ^ 0xBEEF, nb));
        let mut other_gen = other.clone();
        other_gen.force_generic_storage();
        spec.merge_from(&other).unwrap();
        gen.merge_from(&other_gen).unwrap();
        prop_assert_eq!(spec.to_bytes(), gen.to_bytes());
        prop_assert_eq!(spec.estimate().to_bits(), gen.estimate().to_bits());
    }

    /// `extend_hashes` buffers through the unrolled batch path in 1024-hash
    /// blocks; it must stay bit-for-bit equivalent to sequential inserts,
    /// including around the block boundaries.
    #[test]
    fn extend_hashes_matches_sequential(
        cfg_idx in 0usize..10,
        seed in any::<u64>(),
        n in prop_oneof![0usize..64, 1000usize..1100, 2040usize..2060],
    ) {
        let cfg = configs()[cfg_idx];
        let hs = hashes(seed, n);
        let mut by_extend = ExaLogLog::new(cfg);
        by_extend.extend_hashes(hs.iter().copied());
        let mut by_loop = ExaLogLog::new(cfg);
        for &h in &hs {
            by_loop.insert_hash(h);
        }
        prop_assert_eq!(by_extend.to_bytes(), by_loop.to_bytes());
        prop_assert!(by_extend.has_cached_coefficients());
        prop_assert_eq!(by_extend.coefficients(), by_extend.coefficients_scan());
    }
}

proptest! {
    // Cheap cases (m ≤ 64): enough of them to hit every register shape
    // of every scan path, including φ-capped maxima and sentinels.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The streaming scan equals Algorithm 3's per-bit loop on random
    /// states, both over a live sketch and over one whose cache was
    /// rebuilt from bytes. (Feeding only nonempty registers is covered
    /// by the atomic word scan below.)
    #[test]
    fn streaming_scan_equals_reference(
        cfg_idx in 0usize..12,
        seed in any::<u64>(),
        n in 0usize..400,
    ) {
        let cfg = scan_configs()[cfg_idx];
        let s = random_state(cfg, seed, n);
        let reference = ml::coefficients_reference(&cfg, s.registers());
        prop_assert_eq!(ml::compute_coefficients(&cfg, s.registers()), reference.clone());
        prop_assert_eq!(s.coefficients_scan(), reference.clone());
        let restored = ExaLogLog::from_bytes(&s.to_bytes()).unwrap();
        prop_assert_eq!(restored.coefficients(), reference);
    }

    /// The incremental path — `add_register`, `remove_register` and the
    /// cache `apply_register_change` keeps through updates and merges —
    /// equals the per-bit reference on random states, including merges
    /// that move register maxima in both directions.
    #[test]
    fn incremental_path_equals_reference(
        cfg_idx in 0usize..12,
        seed in any::<u64>(),
        na in 0usize..300,
        nb in 0usize..300,
    ) {
        let cfg = scan_configs()[cfg_idx];
        let mut a = random_state(cfg, seed, na);
        let b = random_state(cfg, seed ^ 0x5EED, nb);
        prop_assert!(a.has_cached_coefficients());
        prop_assert_eq!(a.coefficients(), ml::coefficients_reference(&cfg, a.registers()));
        a.merge_from(&b).unwrap();
        let reference = ml::coefficients_reference(&cfg, a.registers());
        prop_assert_eq!(a.coefficients(), reference.clone());
        let mut folded = ml::empty_coefficients(0);
        for r in a.registers() {
            ml::add_register(&mut folded, &cfg, r);
        }
        prop_assert_eq!(folded.clone(), reference);
        for r in a.registers() {
            ml::remove_register(&mut folded, &cfg, r);
        }
        prop_assert_eq!(folded, ml::empty_coefficients(0));
    }

    /// The atomic word scan reads the packed words in place and agrees
    /// with a snapshot to the bit: same coefficients as the reference,
    /// same estimate as `snapshot().estimate()` and the sequential
    /// sketch.
    #[test]
    fn atomic_word_scan_equals_snapshot(
        cfg_idx in 0usize..12,
        seed in any::<u64>(),
        n in 0usize..400,
    ) {
        let cfg = scan_configs()[cfg_idx];
        let s = random_state(cfg, seed, n);
        let atomic = AtomicExaLogLog::from_sketch(&s);
        prop_assert_eq!(atomic.coefficients(), ml::coefficients_reference(&cfg, s.registers()));
        let estimate = atomic.estimate().to_bits();
        prop_assert_eq!(estimate, atomic.snapshot().estimate().to_bits());
        prop_assert_eq!(estimate, s.estimate().to_bits());
    }
}
