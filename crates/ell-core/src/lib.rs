//! Common abstraction over every distinct-count sketch in the workspace.
//!
//! The paper's experiments (§5) evaluate a whole family of estimators —
//! ExaLogLog and its sparse/martingale/concurrent variants plus eight
//! baselines — under one methodology. This crate is the seam that makes
//! that possible without per-type driver loops: every sketch implements
//! [`DistinctCounter`], and dynamic consumers (the `ell` CLI, the Table 2
//! line-up) go through the object-safe [`Sketch`] facade.
//!
//! # The batch-equivalence guarantee
//!
//! [`DistinctCounter::insert_hashes`] is the batched ingest hot path.
//! Implementations are free to reorder *internal* work (hash
//! decomposition, register reads) for instruction-level parallelism, but
//! the contract is strict: for every implementation, inserting a slice of
//! hashes through `insert_hashes` must leave the sketch in a state
//! **bit-for-bit identical** (as observed through
//! [`DistinctCounter::to_bytes`]) to inserting the same hashes one by one
//! through [`DistinctCounter::insert_hash`], in the same order. The
//! workspace enforces this with a cross-implementation property test
//! (`tests/trait_laws.rs` at the workspace root) that covers every
//! implementation; downstream code may therefore batch freely for speed
//! without ever changing results.
//!
//! Mergeable implementations additionally guarantee, at the trait level,
//! that [`DistinctCounter::merge_from`] is commutative and idempotent in
//! the serialized state — the property that makes distributed
//! shard-and-merge aggregation exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Errors surfaced by the generic sketch interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// Two sketches cannot be combined (different type, parameters, …).
    Incompatible {
        /// Human-readable explanation of the mismatch.
        reason: String,
    },
    /// Serialized bytes do not describe a valid sketch state.
    Corrupt {
        /// Human-readable explanation of the defect.
        reason: String,
    },
    /// The operation is not defined for this sketch type (e.g. merging a
    /// martingale estimator, whose stream assumption merging would break).
    Unsupported {
        /// Human-readable explanation.
        reason: String,
    },
    /// A parameter is outside the implementation's valid range.
    InvalidParameter {
        /// Human-readable explanation.
        reason: String,
    },
    /// No sketch type is registered under the requested name.
    UnknownAlgorithm {
        /// The name that failed to resolve.
        name: String,
        /// The names that would have resolved.
        known: Vec<String>,
    },
}

impl core::fmt::Display for SketchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SketchError::Incompatible { reason } => write!(f, "incompatible sketches: {reason}"),
            SketchError::Corrupt { reason } => write!(f, "corrupt serialization: {reason}"),
            SketchError::Unsupported { reason } => write!(f, "unsupported operation: {reason}"),
            SketchError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            SketchError::UnknownAlgorithm { name, known } => {
                write!(f, "unknown algorithm {name:?}; known: {}", known.join(", "))
            }
        }
    }
}

impl std::error::Error for SketchError {}

/// The interface every distinct-count sketch in the workspace implements.
///
/// The trait family covers the full lifecycle — ingest (single and
/// batched), estimation, merging, serialization, and space accounting —
/// so the simulation harness, the reproduction binaries, the CLI, and the
/// benchmarks can all drive any sketch through one code path. Statically
/// dispatched consumers bound `S: DistinctCounter`; dynamic consumers use
/// the object-safe [`Sketch`] facade, which every implementation gets for
/// free through a blanket impl.
///
/// The full lifecycle on the reference implementation (`exaloglog`):
///
/// ```
/// use ell_core::DistinctCounter;
/// use exaloglog::{EllConfig, ExaLogLog};
///
/// let mut a = ExaLogLog::new(EllConfig::optimal(10).unwrap());
/// let mut b = a.clone();
/// // Batched ingest is bit-for-bit equivalent to one-by-one inserts.
/// a.insert_hashes(&[1, 2, 3, 2]);
/// for h in [1u64, 2, 3, 2] {
///     b.insert_hash(h);
/// }
/// assert_eq!(a.to_bytes(), b.to_bytes());
/// assert_eq!(a.estimate().round() as u64, 3);
///
/// // Merge is the set union; serialization round-trips exactly.
/// b.insert_hash(99);
/// a.merge_from(&b).unwrap();
/// let restored = ExaLogLog::from_bytes(&a.to_bytes()).unwrap();
/// assert_eq!(restored.to_bytes(), a.to_bytes());
/// assert!(a.memory_bits() > 0);
/// ```
pub trait DistinctCounter {
    /// Display name used in experiment output tables and the CLI.
    fn name(&self) -> String;

    /// Inserts an element by its 64-bit hash.
    fn insert_hash(&mut self, h: u64);

    /// Inserts a whole slice of pre-hashed elements — the batched ingest
    /// hot path.
    ///
    /// Guaranteed bit-for-bit equivalent to calling
    /// [`DistinctCounter::insert_hash`] for each element in order (see
    /// the crate docs for the exact contract); implementations override
    /// the default loop only to go *faster*, never to change the result.
    fn insert_hashes(&mut self, hashes: &[u64]) {
        for &h in hashes {
            self.insert_hash(h);
        }
    }

    /// Current distinct-count estimate.
    fn estimate(&self) -> f64;

    /// In-place merge: afterwards `self` represents the union of both
    /// element multisets.
    ///
    /// # Errors
    ///
    /// Fails when the sketches are incompatible (mismatched parameters)
    /// or the type does not support merging at all.
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError>
    where
        Self: Sized;

    /// Serializes the complete sketch state. Deterministic: equal states
    /// produce equal bytes (the property tests compare states through
    /// this method).
    fn to_bytes(&self) -> Vec<u8>;

    /// Reconstructs a sketch from [`DistinctCounter::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Fails when the bytes do not describe a valid state of this type.
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError>
    where
        Self: Sized;

    /// In-memory footprint in bits (struct plus heap allocations) — the
    /// "memory" axis of the paper's MVP comparisons.
    fn memory_bits(&self) -> usize;

    /// In-memory footprint rounded up to whole bytes.
    fn memory_bytes(&self) -> usize {
        self.memory_bits().div_ceil(8)
    }

    /// Serialized size in bytes. Defaults to the length of
    /// [`DistinctCounter::to_bytes`]; types with a separate wire format
    /// (e.g. entropy-coded CPC-style serialization) override this.
    fn serialized_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// Whether the insert path runs in constant time regardless of the
    /// sketch size (the last column of Table 2).
    fn constant_time_insert(&self) -> bool;
}

/// Object-safe facade over [`DistinctCounter`], for heterogeneous
/// line-ups (`Vec<Box<dyn Sketch>>`) and name-based dispatch in the CLI.
///
/// Every [`DistinctCounter`] implementation is a `Sketch` automatically;
/// the facade exposes the subset of the trait family that does not
/// mention `Self` (merging and deserialization stay on the sized trait).
///
/// ```
/// use ell_core::Sketch;
/// use exaloglog::{AdaptiveExaLogLog, EllConfig, ExaLogLog};
///
/// // Heterogeneous line-up behind one virtual interface.
/// let cfg = EllConfig::optimal(10).unwrap();
/// let mut lineup: Vec<Box<dyn Sketch>> = vec![
///     Box::new(ExaLogLog::new(cfg)),
///     Box::new(AdaptiveExaLogLog::new(cfg).unwrap()),
/// ];
/// for sketch in &mut lineup {
///     sketch.insert_hashes(&[7, 8, 9]);
///     assert_eq!(sketch.estimate().round() as u64, 3);
///     assert!(!sketch.name().is_empty());
/// }
/// ```
pub trait Sketch {
    /// Display name used in experiment output tables and the CLI.
    fn name(&self) -> String;
    /// Inserts an element by its 64-bit hash.
    fn insert_hash(&mut self, h: u64);
    /// Inserts a slice of pre-hashed elements (batched hot path; same
    /// equivalence guarantee as [`DistinctCounter::insert_hashes`]).
    fn insert_hashes(&mut self, hashes: &[u64]);
    /// Current distinct-count estimate.
    fn estimate(&self) -> f64;
    /// Serializes the complete sketch state.
    fn to_bytes(&self) -> Vec<u8>;
    /// In-memory footprint in bits.
    fn memory_bits(&self) -> usize;
    /// In-memory footprint rounded up to whole bytes.
    fn memory_bytes(&self) -> usize;
    /// Serialized size in bytes.
    fn serialized_bytes(&self) -> usize;
    /// Whether inserts run in constant time regardless of sketch size.
    fn constant_time_insert(&self) -> bool;
}

impl<T: DistinctCounter> Sketch for T {
    fn name(&self) -> String {
        DistinctCounter::name(self)
    }
    fn insert_hash(&mut self, h: u64) {
        DistinctCounter::insert_hash(self, h);
    }
    fn insert_hashes(&mut self, hashes: &[u64]) {
        DistinctCounter::insert_hashes(self, hashes);
    }
    fn estimate(&self) -> f64 {
        DistinctCounter::estimate(self)
    }
    fn to_bytes(&self) -> Vec<u8> {
        DistinctCounter::to_bytes(self)
    }
    fn memory_bits(&self) -> usize {
        DistinctCounter::memory_bits(self)
    }
    fn memory_bytes(&self) -> usize {
        DistinctCounter::memory_bytes(self)
    }
    fn serialized_bytes(&self) -> usize {
        DistinctCounter::serialized_bytes(self)
    }
    fn constant_time_insert(&self) -> bool {
        DistinctCounter::constant_time_insert(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately trivial implementation: an exact u64 set. Exercises
    /// the default methods and proves the traits are implementable and
    /// object-safe without any sketch machinery.
    #[derive(Default, Clone, PartialEq, Debug)]
    struct ExactSet(std::collections::BTreeSet<u64>);

    impl DistinctCounter for ExactSet {
        fn name(&self) -> String {
            "exact-set".into()
        }
        fn insert_hash(&mut self, h: u64) {
            self.0.insert(h);
        }
        fn estimate(&self) -> f64 {
            self.0.len() as f64
        }
        fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
            self.0.extend(other.0.iter().copied());
            Ok(())
        }
        fn to_bytes(&self) -> Vec<u8> {
            self.0.iter().flat_map(|h| h.to_le_bytes()).collect()
        }
        fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
            if !bytes.len().is_multiple_of(8) {
                return Err(SketchError::Corrupt {
                    reason: format!("{} bytes is not a multiple of 8", bytes.len()),
                });
            }
            Ok(ExactSet(
                bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect(),
            ))
        }
        fn memory_bits(&self) -> usize {
            (core::mem::size_of::<Self>() + self.0.len() * 8) * 8
        }
        fn constant_time_insert(&self) -> bool {
            false
        }
    }

    #[test]
    fn default_batch_insert_matches_sequential() {
        let hashes: Vec<u64> = (0..100).map(|i| i * 7919).collect();
        let mut seq = ExactSet::default();
        for &h in &hashes {
            DistinctCounter::insert_hash(&mut seq, h);
        }
        let mut bat = ExactSet::default();
        DistinctCounter::insert_hashes(&mut bat, &hashes);
        assert_eq!(
            DistinctCounter::to_bytes(&seq),
            DistinctCounter::to_bytes(&bat)
        );
        assert_eq!(DistinctCounter::estimate(&seq), 100.0);
    }

    #[test]
    fn facade_is_object_safe_and_forwards() {
        let mut s: Box<dyn Sketch> = Box::new(ExactSet::default());
        s.insert_hashes(&[1, 2, 3, 2]);
        assert_eq!(s.estimate(), 3.0);
        assert_eq!(s.name(), "exact-set");
        assert_eq!(s.serialized_bytes(), s.to_bytes().len());
        assert_eq!(s.memory_bytes(), s.memory_bits().div_ceil(8));
        assert!(!s.constant_time_insert());
    }

    #[test]
    fn roundtrip_and_merge_through_sized_trait() {
        let mut a = ExactSet::default();
        DistinctCounter::insert_hashes(&mut a, &[1, 2, 3]);
        let mut b = ExactSet::default();
        DistinctCounter::insert_hashes(&mut b, &[3, 4]);
        a.merge_from(&b).unwrap();
        assert_eq!(DistinctCounter::estimate(&a), 4.0);
        let back = ExactSet::from_bytes(&DistinctCounter::to_bytes(&a)).unwrap();
        assert_eq!(back, a);
        assert!(ExactSet::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn errors_render() {
        for e in [
            SketchError::Incompatible { reason: "x".into() },
            SketchError::Corrupt { reason: "x".into() },
            SketchError::Unsupported { reason: "x".into() },
            SketchError::InvalidParameter { reason: "x".into() },
            SketchError::UnknownAlgorithm {
                name: "nope".into(),
                known: vec!["ell".into()],
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
