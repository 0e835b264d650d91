//! [`DistinctCounter`] implementations for every baseline sketch,
//! plugging them into the workspace-wide trait layer (`ell-core`), plus
//! the Table 2 line-up builder.
//!
//! The trait itself lives in [`ell_core`] (re-exported here for
//! convenience); the implementations for the ExaLogLog family live in
//! `exaloglog::counter`. All implementations here inherit the default
//! `insert_hashes` loop — the batched fast paths belong to the ELL types,
//! and the cross-implementation property tests at the workspace root
//! verify the batch-equivalence guarantee for every type either way.

use crate::ehll::Ehll;
use crate::hll::{HllEstimator, HyperLogLog};
use crate::hll4::HyperLogLog4;
use crate::hlll::HyperLogLogLog;
use crate::pcsa::Pcsa;
use crate::sparse_hll::SparseHyperLogLog;
use crate::spike::SpikeLike;
use crate::ull::Ull;
pub use ell_core::{DistinctCounter, Sketch, SketchError};
use exaloglog::{EllConfig, ExaLogLog};

/// Maps the module-level `Result<_, String>` deserializers onto the trait
/// error.
fn corrupt(reason: String) -> SketchError {
    SketchError::Corrupt { reason }
}

impl DistinctCounter for HyperLogLog {
    fn name(&self) -> String {
        let est = match self.estimator() {
            HllEstimator::Original => "orig",
            HllEstimator::Improved => "impr",
            HllEstimator::MaximumLikelihood => "ML",
        };
        format!("HLL({}-bit,p={},{est})", self.width(), self.p())
    }
    fn insert_hash(&mut self, h: u64) {
        HyperLogLog::insert_hash(self, h);
    }
    fn estimate(&self) -> f64 {
        HyperLogLog::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.p() != other.p() || self.width() != other.width() {
            return Err(SketchError::Incompatible {
                reason: format!(
                    "HLL(p={}, w={}) vs HLL(p={}, w={})",
                    self.p(),
                    self.width(),
                    other.p(),
                    other.width()
                ),
            });
        }
        HyperLogLog::merge_from(self, other);
        Ok(())
    }
    fn to_bytes(&self) -> Vec<u8> {
        HyperLogLog::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        HyperLogLog::from_bytes(bytes).map_err(corrupt)
    }
    fn memory_bits(&self) -> usize {
        HyperLogLog::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        HyperLogLog::serialized_bytes(self)
    }
    fn constant_time_insert(&self) -> bool {
        true
    }
}

impl DistinctCounter for HyperLogLog4 {
    fn name(&self) -> String {
        "HLL(4-bit)".to_string()
    }
    fn insert_hash(&mut self, h: u64) {
        HyperLogLog4::insert_hash(self, h);
    }
    fn estimate(&self) -> f64 {
        HyperLogLog4::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.m() != other.m() {
            return Err(SketchError::Incompatible {
                reason: format!("HLL4 with m={} vs m={}", self.m(), other.m()),
            });
        }
        HyperLogLog4::merge_from(self, other);
        Ok(())
    }
    fn to_bytes(&self) -> Vec<u8> {
        HyperLogLog4::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        HyperLogLog4::from_bytes(bytes).map_err(corrupt)
    }
    fn memory_bits(&self) -> usize {
        HyperLogLog4::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        HyperLogLog4::serialized_bytes(self)
    }
    fn constant_time_insert(&self) -> bool {
        false // offset advances rebuild all registers
    }
}

impl DistinctCounter for Ull {
    fn name(&self) -> String {
        format!("ULL(p={},ML)", self.p())
    }
    fn insert_hash(&mut self, h: u64) {
        Ull::insert_hash(self, h);
    }
    fn estimate(&self) -> f64 {
        Ull::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.p() != other.p() {
            return Err(SketchError::Incompatible {
                reason: format!("ULL(p={}) vs ULL(p={})", self.p(), other.p()),
            });
        }
        Ull::merge_from(self, other);
        Ok(())
    }
    fn to_bytes(&self) -> Vec<u8> {
        Ull::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        Ull::from_bytes(bytes).map_err(corrupt)
    }
    fn memory_bits(&self) -> usize {
        Ull::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        Ull::serialized_bytes(self)
    }
    fn constant_time_insert(&self) -> bool {
        true
    }
}

impl DistinctCounter for Ehll {
    fn name(&self) -> String {
        format!("EHLL(p={},ML)", self.p())
    }
    fn insert_hash(&mut self, h: u64) {
        Ehll::insert_hash(self, h);
    }
    fn estimate(&self) -> f64 {
        Ehll::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.p() != other.p() {
            return Err(SketchError::Incompatible {
                reason: format!("EHLL(p={}) vs EHLL(p={})", self.p(), other.p()),
            });
        }
        Ehll::merge_from(self, other);
        Ok(())
    }
    fn to_bytes(&self) -> Vec<u8> {
        Ehll::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        Ehll::from_bytes(bytes).map_err(corrupt)
    }
    fn memory_bits(&self) -> usize {
        Ehll::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        Ehll::serialized_bytes(self)
    }
    fn constant_time_insert(&self) -> bool {
        true
    }
}

impl DistinctCounter for Pcsa {
    fn name(&self) -> String {
        "PCSA/CPC-proxy".to_string()
    }
    fn insert_hash(&mut self, h: u64) {
        Pcsa::insert_hash(self, h);
    }
    fn estimate(&self) -> f64 {
        Pcsa::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.p() != other.p() {
            return Err(SketchError::Incompatible {
                reason: format!("PCSA(p={}) vs PCSA(p={})", self.p(), other.p()),
            });
        }
        Pcsa::merge_from(self, other);
        Ok(())
    }
    fn to_bytes(&self) -> Vec<u8> {
        Pcsa::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        Pcsa::from_bytes(bytes).map_err(corrupt)
    }
    fn memory_bits(&self) -> usize {
        Pcsa::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        // The CPC-style range-coded serialization (see the `cpc` module)
        // — actually encoded, not the analytic entropy.
        crate::cpc::compressed_size(self)
    }
    fn constant_time_insert(&self) -> bool {
        // The in-memory representation inserts in constant time; the
        // compression happens at serialization (like CPC).
        false
    }
}

impl DistinctCounter for SparseHyperLogLog {
    fn name(&self) -> String {
        format!("HLL({}-bit,p={},sparse)", self.width(), self.p())
    }
    fn insert_hash(&mut self, h: u64) {
        SparseHyperLogLog::insert_hash(self, h);
    }
    fn estimate(&self) -> f64 {
        SparseHyperLogLog::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.p() != other.p() || self.width() != other.width() {
            return Err(SketchError::Incompatible {
                reason: format!(
                    "sparse HLL(p={}, w={}) vs (p={}, w={})",
                    self.p(),
                    self.width(),
                    other.p(),
                    other.width()
                ),
            });
        }
        SparseHyperLogLog::merge_from(self, other);
        Ok(())
    }
    fn to_bytes(&self) -> Vec<u8> {
        SparseHyperLogLog::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        SparseHyperLogLog::from_bytes(bytes).map_err(corrupt)
    }
    fn memory_bits(&self) -> usize {
        SparseHyperLogLog::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        SparseHyperLogLog::serialized_bytes(self)
    }
    fn constant_time_insert(&self) -> bool {
        // Sorted coupon insertion costs O(list length) until break-even.
        false
    }
}

impl DistinctCounter for HyperLogLogLog {
    fn name(&self) -> String {
        "HLLL".to_string()
    }
    fn insert_hash(&mut self, h: u64) {
        HyperLogLogLog::insert_hash(self, h);
    }
    fn estimate(&self) -> f64 {
        HyperLogLogLog::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.m() != other.m() {
            return Err(SketchError::Incompatible {
                reason: format!("HLLL with m={} vs m={}", self.m(), other.m()),
            });
        }
        HyperLogLogLog::merge_from(self, other);
        Ok(())
    }
    fn to_bytes(&self) -> Vec<u8> {
        HyperLogLogLog::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        HyperLogLogLog::from_bytes(bytes).map_err(corrupt)
    }
    fn memory_bits(&self) -> usize {
        HyperLogLogLog::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        HyperLogLogLog::serialized_bytes(self)
    }
    fn constant_time_insert(&self) -> bool {
        false
    }
}

impl DistinctCounter for SpikeLike {
    fn name(&self) -> String {
        "SpikeSketch-like (substitute)".to_string()
    }
    fn insert_hash(&mut self, h: u64) {
        SpikeLike::insert_hash(self, h);
    }
    fn estimate(&self) -> f64 {
        SpikeLike::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.cell_count() != other.cell_count() {
            return Err(SketchError::Incompatible {
                reason: format!(
                    "spike sketch with {} cells vs {}",
                    self.cell_count(),
                    other.cell_count()
                ),
            });
        }
        SpikeLike::merge_from(self, other);
        Ok(())
    }
    fn to_bytes(&self) -> Vec<u8> {
        SpikeLike::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        SpikeLike::from_bytes(bytes).map_err(corrupt)
    }
    fn memory_bits(&self) -> usize {
        SpikeLike::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        SpikeLike::serialized_bytes(self)
    }
    fn constant_time_insert(&self) -> bool {
        true
    }
}

impl DistinctCounter for crate::hyperminhash::HyperMinHash {
    fn name(&self) -> String {
        format!("HyperMinHash(p={},t={})", self.p(), self.t())
    }
    fn insert_hash(&mut self, h: u64) {
        crate::hyperminhash::HyperMinHash::insert_hash(self, h);
    }
    fn estimate(&self) -> f64 {
        crate::hyperminhash::HyperMinHash::estimate(self)
    }
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.p() != other.p() || self.t() != other.t() {
            return Err(SketchError::Incompatible {
                reason: format!(
                    "HyperMinHash(p={}, t={}) vs (p={}, t={})",
                    self.p(),
                    self.t(),
                    other.p(),
                    other.t()
                ),
            });
        }
        crate::hyperminhash::HyperMinHash::merge_from(self, other);
        Ok(())
    }
    fn to_bytes(&self) -> Vec<u8> {
        crate::hyperminhash::HyperMinHash::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        crate::hyperminhash::HyperMinHash::from_bytes(bytes).map_err(corrupt)
    }
    fn memory_bits(&self) -> usize {
        crate::hyperminhash::HyperMinHash::memory_bytes(self) * 8
    }
    fn serialized_bytes(&self) -> usize {
        crate::hyperminhash::HyperMinHash::serialized_bytes(self)
    }
    fn constant_time_insert(&self) -> bool {
        true
    }
}

/// The Table 2 line-up: every algorithm configured for roughly 2 % RMSE,
/// as in the paper. Returns freshly constructed empty sketches behind the
/// object-safe facade.
#[must_use]
pub fn table2_lineup() -> Vec<Box<dyn Sketch>> {
    vec![
        Box::new(HyperLogLog::new(11, 8, HllEstimator::Improved)),
        Box::new(HyperLogLog::new(11, 6, HllEstimator::Improved)),
        Box::new(HyperLogLog::new(11, 6, HllEstimator::MaximumLikelihood)),
        Box::new(HyperLogLog4::new(11)),
        Box::new(Pcsa::new(10)),
        Box::new(Ull::new(10)),
        Box::new(HyperLogLogLog::new(11)),
        Box::new(SpikeLike::new(128)),
        Box::new(ExaLogLog::new(EllConfig::aligned32(8).expect("valid"))),
        Box::new(ExaLogLog::new(EllConfig::optimal(8).expect("valid"))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;

    #[test]
    fn lineup_is_complete_and_functional() {
        let mut sketches = table2_lineup();
        assert_eq!(sketches.len(), 10);
        let mut rng = SplitMix64::new(51);
        let hashes: Vec<u64> = (0..20_000).map(|_| rng.next_u64()).collect();
        for sketch in &mut sketches {
            sketch.insert_hashes(&hashes);
            let est = sketch.estimate();
            let rel = est / 20_000.0 - 1.0;
            assert!(
                rel.abs() < 0.15,
                "{}: estimate {est} off by {rel:+.3}",
                sketch.name()
            );
            assert!(sketch.memory_bytes() > 0);
            assert!(sketch.memory_bits() >= sketch.memory_bytes());
            assert!(sketch.serialized_bytes() > 0);
        }
    }

    #[test]
    fn names_are_distinct() {
        let sketches = table2_lineup();
        let names: std::collections::HashSet<String> = sketches.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), sketches.len());
    }

    #[test]
    fn serialization_roundtrips_for_all_baselines() {
        let mut rng = SplitMix64::new(77);
        let hashes: Vec<u64> = (0..30_000).map(|_| rng.next_u64()).collect();

        fn roundtrip<S: DistinctCounter + PartialEq + core::fmt::Debug>(
            mut sketch: S,
            hashes: &[u64],
        ) {
            for &h in hashes {
                sketch.insert_hash(h);
            }
            let bytes = sketch.to_bytes();
            let back = S::from_bytes(&bytes).expect("roundtrip");
            assert_eq!(back, sketch);
            assert_eq!(back.to_bytes(), bytes, "canonical re-serialization");
            // A flipped magic byte must be rejected.
            let mut bad = bytes;
            bad[0] ^= 0xff;
            assert!(S::from_bytes(&bad).is_err());
            assert!(S::from_bytes(&[]).is_err());
        }

        roundtrip(HyperLogLog::new(9, 6, HllEstimator::Improved), &hashes);
        roundtrip(
            HyperLogLog::new(9, 8, HllEstimator::MaximumLikelihood),
            &hashes,
        );
        roundtrip(HyperLogLog4::new(9), &hashes);
        roundtrip(HyperLogLogLog::new(9), &hashes);
        roundtrip(Ehll::new(9), &hashes);
        roundtrip(Ull::new(9), &hashes);
        roundtrip(Pcsa::new(8), &hashes);
        roundtrip(crate::hyperminhash::HyperMinHash::new(9, 2), &hashes);
        roundtrip(SpikeLike::new(128), &hashes);
        // Both phases of the sparse HLL.
        roundtrip(
            SparseHyperLogLog::new(10, 6, HllEstimator::Improved),
            &hashes[..100],
        );
        roundtrip(
            SparseHyperLogLog::new(10, 6, HllEstimator::Improved),
            &hashes,
        );
    }

    #[test]
    fn trait_merge_rejects_mismatched_parameters() {
        fn refuse<S: DistinctCounter>(mut a: S, b: S) {
            assert!(matches!(
                a.merge_from(&b),
                Err(SketchError::Incompatible { .. })
            ));
        }
        refuse(
            HyperLogLog::new(9, 6, HllEstimator::Improved),
            HyperLogLog::new(10, 6, HllEstimator::Improved),
        );
        refuse(
            HyperLogLog::new(9, 6, HllEstimator::Improved),
            HyperLogLog::new(9, 8, HllEstimator::Improved),
        );
        refuse(HyperLogLog4::new(9), HyperLogLog4::new(10));
        refuse(HyperLogLogLog::new(9), HyperLogLogLog::new(10));
        refuse(Ehll::new(9), Ehll::new(10));
        refuse(Ull::new(9), Ull::new(10));
        refuse(Pcsa::new(8), Pcsa::new(9));
        refuse(
            crate::hyperminhash::HyperMinHash::new(9, 2),
            crate::hyperminhash::HyperMinHash::new(9, 3),
        );
        refuse(SpikeLike::new(128), SpikeLike::new(256));
        refuse(
            SparseHyperLogLog::new(9, 6, HllEstimator::Improved),
            SparseHyperLogLog::new(10, 6, HllEstimator::Improved),
        );
    }
}
