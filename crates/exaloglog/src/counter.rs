//! [`DistinctCounter`] implementations for every sketch type in this
//! crate, plugging the ExaLogLog family into the workspace-wide trait
//! layer (`ell-core`).
//!
//! The generic [`ExaLogLog`], the martingale-tracked sketch, the sparse
//! variant, and [`TokenSet`] route `insert_hashes` to their unrolled
//! batch hot paths; the others inherit the trait's default loop. All
//! implementations keep
//! the batch-equivalence guarantee documented in `ell-core` — the
//! cross-implementation property tests at the workspace root
//! (`tests/trait_laws.rs`) compare serialized states to enforce it.

use crate::adaptive::AdaptiveExaLogLog;
use crate::atomic::AtomicExaLogLog;
use crate::martingale::{MartingaleEstimator, MartingaleExaLogLog};
use crate::sketch::ExaLogLog;
use crate::sparse::SparseExaLogLog;
use crate::token::TokenSet;
use ell_core::{DistinctCounter, SketchError};

/// Serialization magic for the martingale-tracked wire format.
const MARTINGALE_MAGIC: &[u8; 4] = b"ELLM";

impl DistinctCounter for ExaLogLog {
    fn name(&self) -> String {
        let c = self.config();
        format!("ELL(t={},d={},p={},ML)", c.t(), c.d(), c.p())
    }
    fn insert_hash(&mut self, h: u64) {
        ExaLogLog::insert_hash(self, h);
    }
    fn insert_hashes(&mut self, hashes: &[u64]) {
        ExaLogLog::insert_hashes(self, hashes);
    }
    fn estimate(&self) -> f64 {
        ExaLogLog::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        ExaLogLog::merge_from(self, other).map_err(Into::into)
    }
    fn to_bytes(&self) -> Vec<u8> {
        ExaLogLog::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        ExaLogLog::from_bytes(bytes).map_err(Into::into)
    }
    fn memory_bits(&self) -> usize {
        ExaLogLog::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        self.register_bytes().len()
    }
    fn constant_time_insert(&self) -> bool {
        true
    }
}

impl DistinctCounter for MartingaleExaLogLog {
    fn name(&self) -> String {
        let c = self.sketch().config();
        format!("ELL(t={},d={},p={},marting.)", c.t(), c.d(), c.p())
    }
    fn insert_hash(&mut self, h: u64) {
        MartingaleExaLogLog::insert_hash(self, h);
    }
    fn insert_hashes(&mut self, hashes: &[u64]) {
        MartingaleExaLogLog::insert_hashes(self, hashes);
    }
    fn estimate(&self) -> f64 {
        MartingaleExaLogLog::estimate(self)
    }
    fn merge_from(&mut self, _other: &Self) -> Result<(), SketchError> {
        Err(SketchError::Unsupported {
            reason: "martingale estimation assumes one unbroken insert stream (paper §3.3); \
                     merge the underlying sketches via into_sketch() instead"
                .into(),
        })
    }
    fn to_bytes(&self) -> Vec<u8> {
        let payload = self.sketch().to_bytes();
        let mut out = Vec::with_capacity(20 + payload.len());
        out.extend_from_slice(MARTINGALE_MAGIC);
        out.extend_from_slice(&self.estimate().to_le_bytes());
        out.extend_from_slice(&self.state_change_probability().to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        if bytes.len() < 20 || &bytes[..4] != MARTINGALE_MAGIC {
            return Err(SketchError::Corrupt {
                reason: "bad martingale header".into(),
            });
        }
        let estimate = f64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
        let mu = f64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        if !estimate.is_finite() || estimate < 0.0 || !(0.0..=1.0).contains(&mu) {
            return Err(SketchError::Corrupt {
                reason: format!("implausible estimator state ({estimate}, {mu})"),
            });
        }
        let sketch = ExaLogLog::from_bytes(&bytes[20..]).map_err(SketchError::from)?;
        Ok(MartingaleExaLogLog::from_parts(
            sketch,
            MartingaleEstimator::from_state(estimate, mu),
        ))
    }
    fn memory_bits(&self) -> usize {
        MartingaleExaLogLog::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        // Register payload + the 16-byte (estimate, μ) pair.
        self.sketch().register_bytes().len() + 16
    }
    fn constant_time_insert(&self) -> bool {
        true
    }
}

impl DistinctCounter for SparseExaLogLog {
    fn name(&self) -> String {
        let c = self.config();
        format!("ELL(t={},d={},p={},sparse)", c.t(), c.d(), c.p())
    }
    fn insert_hash(&mut self, h: u64) {
        SparseExaLogLog::insert_hash(self, h);
    }
    fn insert_hashes(&mut self, hashes: &[u64]) {
        SparseExaLogLog::insert_hashes(self, hashes);
    }
    fn estimate(&self) -> f64 {
        SparseExaLogLog::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        SparseExaLogLog::merge_from(self, other).map_err(Into::into)
    }
    fn to_bytes(&self) -> Vec<u8> {
        SparseExaLogLog::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        SparseExaLogLog::from_bytes(bytes).map_err(Into::into)
    }
    fn memory_bits(&self) -> usize {
        SparseExaLogLog::memory_bytes(self) * 8
    }
    fn constant_time_insert(&self) -> bool {
        // The sparse phase pays O(log n) per token insert.
        false
    }
}

impl DistinctCounter for AdaptiveExaLogLog {
    fn name(&self) -> String {
        let c = self.config();
        format!("ELL(t={},d={},p={},adaptive)", c.t(), c.d(), c.p())
    }
    fn insert_hash(&mut self, h: u64) {
        AdaptiveExaLogLog::insert_hash(self, h);
    }
    fn insert_hashes(&mut self, hashes: &[u64]) {
        AdaptiveExaLogLog::insert_hashes(self, hashes);
    }
    fn estimate(&self) -> f64 {
        AdaptiveExaLogLog::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        AdaptiveExaLogLog::merge_from(self, other).map_err(Into::into)
    }
    fn to_bytes(&self) -> Vec<u8> {
        AdaptiveExaLogLog::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        AdaptiveExaLogLog::from_bytes(bytes).map_err(Into::into)
    }
    fn memory_bits(&self) -> usize {
        AdaptiveExaLogLog::memory_bytes(self) * 8
    }
    fn constant_time_insert(&self) -> bool {
        // The sparse phase pays O(log n) per token insert.
        false
    }
}

impl DistinctCounter for AtomicExaLogLog {
    fn name(&self) -> String {
        let c = self.config();
        format!("ELL(t={},d={},p={},atomic)", c.t(), c.d(), c.p())
    }
    fn insert_hash(&mut self, h: u64) {
        AtomicExaLogLog::insert_hash(self, h);
    }
    fn estimate(&self) -> f64 {
        AtomicExaLogLog::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        AtomicExaLogLog::merge_from(self, &other.snapshot()).map_err(Into::into)
    }
    fn to_bytes(&self) -> Vec<u8> {
        self.snapshot().to_bytes()
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        let dense = ExaLogLog::from_bytes(bytes).map_err(SketchError::from)?;
        Ok(AtomicExaLogLog::from_sketch(&dense))
    }
    fn memory_bits(&self) -> usize {
        AtomicExaLogLog::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        self.config().register_array_bytes()
    }
    fn constant_time_insert(&self) -> bool {
        true
    }
}

impl DistinctCounter for TokenSet {
    fn name(&self) -> String {
        format!("TokenSet(v={})", self.v())
    }
    fn insert_hash(&mut self, h: u64) {
        TokenSet::insert_hash(self, h);
    }
    fn estimate(&self) -> f64 {
        TokenSet::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        TokenSet::merge_from(self, other).map_err(Into::into)
    }
    fn to_bytes(&self) -> Vec<u8> {
        TokenSet::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        TokenSet::from_bytes(bytes).map_err(Into::into)
    }
    fn memory_bits(&self) -> usize {
        (core::mem::size_of::<Self>() + self.len() * core::mem::size_of::<u64>()) * 8
    }
    fn serialized_bytes(&self) -> usize {
        // The tight (v+6)-bit encoding plus the 13-byte header.
        13 + self.storage_bits().div_ceil(8)
    }
    fn constant_time_insert(&self) -> bool {
        // Sorted-vector insertion costs O(n) in the worst case.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EllConfig;
    use ell_core::Sketch;
    use ell_hash::SplitMix64;

    fn stream(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// Every implementation in this crate, as a trait object with a
    /// fresh-state constructor — shared by the tests below.
    fn lineup() -> Vec<Box<dyn Sketch>> {
        let cfg = EllConfig::optimal(8).unwrap();
        vec![
            Box::new(ExaLogLog::new(cfg)),
            Box::new(MartingaleExaLogLog::new(cfg)),
            Box::new(SparseExaLogLog::new(cfg).unwrap()),
            Box::new(AdaptiveExaLogLog::new(cfg).unwrap()),
            Box::new(AtomicExaLogLog::new(cfg)),
            Box::new(TokenSet::new(26).unwrap()),
        ]
    }

    #[test]
    fn every_impl_counts_through_the_facade() {
        let hashes = stream(71, 20_000);
        for mut s in lineup() {
            s.insert_hashes(&hashes);
            let est = s.estimate();
            let rel = est / 20_000.0 - 1.0;
            assert!(rel.abs() < 0.15, "{}: {est} off by {rel:+.3}", s.name());
            assert!(s.memory_bits() > 0);
            assert!(s.serialized_bytes() > 0);
            assert!(!s.to_bytes().is_empty());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<String> = lineup().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), lineup().len());
    }

    #[test]
    fn martingale_roundtrip_preserves_estimator_state() {
        let mut s = MartingaleExaLogLog::with_params(2, 16, 6).unwrap();
        for &h in &stream(5, 5000) {
            s.insert_hash(h);
        }
        let bytes = DistinctCounter::to_bytes(&s);
        let back = <MartingaleExaLogLog as DistinctCounter>::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.estimate(), s.estimate());
        // Corruption is rejected.
        assert!(<MartingaleExaLogLog as DistinctCounter>::from_bytes(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(<MartingaleExaLogLog as DistinctCounter>::from_bytes(&bad).is_err());
        let mut bad = bytes;
        bad[12..20].copy_from_slice(&2.5f64.to_le_bytes()); // μ > 1
        assert!(<MartingaleExaLogLog as DistinctCounter>::from_bytes(&bad).is_err());
    }

    #[test]
    fn martingale_merge_is_refused() {
        let mut a = MartingaleExaLogLog::with_params(2, 16, 6).unwrap();
        let b = a.clone();
        assert!(matches!(
            DistinctCounter::merge_from(&mut a, &b),
            Err(SketchError::Unsupported { .. })
        ));
    }

    #[test]
    fn atomic_roundtrips_through_dense_wire_format() {
        let cfg = EllConfig::aligned32(6).unwrap();
        let mut a = AtomicExaLogLog::new(cfg);
        for &h in &stream(6, 3000) {
            DistinctCounter::insert_hash(&mut a, h);
        }
        let bytes = DistinctCounter::to_bytes(&a);
        let back = <AtomicExaLogLog as DistinctCounter>::from_bytes(&bytes).unwrap();
        assert_eq!(back.snapshot(), a.snapshot());
        // Wide configurations (36-bit registers) round-trip too now that
        // the atomic path packs registers into u64 words.
        let wide = ExaLogLog::with_params(2, 28, 4).unwrap();
        let wide_back = <AtomicExaLogLog as DistinctCounter>::from_bytes(&wide.to_bytes()).unwrap();
        assert_eq!(wide_back.snapshot(), wide);
    }
}
