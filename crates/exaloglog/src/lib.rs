//! # ExaLogLog — approximate distinct counting up to the exa-scale
//!
//! A from-scratch Rust implementation of **ExaLogLog (ELL)**, the
//! distinct-count sketch of
//! *O. Ertl, "ExaLogLog: Space-Efficient and Practical Approximate
//! Distinct Counting up to the Exa-Scale", EDBT 2025*
//! (arXiv:2402.13726).
//!
//! ExaLogLog keeps every practical property that made HyperLogLog the
//! industry standard — constant-time allocation-free inserts, idempotency,
//! mergeability, reproducibility, reducibility, a fixed byte-array state —
//! while needing **43 % less space** for the same estimation error at its
//! optimal configuration ELL(2, 20).
//!
//! ## Quick start
//!
//! ```
//! use exaloglog::{EllConfig, ExaLogLog};
//! use ell_hash::{Hasher64, WyHash};
//!
//! let hasher = WyHash::new(0);
//! let mut counter = ExaLogLog::new(EllConfig::optimal(12).unwrap());
//! for line in ["alice", "bob", "alice", "carol"] {
//!     counter.insert(&hasher, line.as_bytes());
//! }
//! assert_eq!(counter.estimate().round() as u64, 3);
//! ```
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`config`] | §2.3/§2.4 | the (t, d, p) parameter triple, named presets |
//! | [`sketch`] | §2.3, §4.1, §4.2 | insert (Alg. 2), merge (Alg. 5), reduce (Alg. 6), serialization |
//! | [`pmf`] | §2.2 | the approximated update-value distribution (8)/(10), φ, ω |
//! | [`ml`] | §3.2, App. A | ML coefficients (Alg. 3) and the Newton solver (Alg. 8) |
//! | [`martingale`] | §3.3 | online HIP estimation (Alg. 4) |
//! | [`token`] | §4.3 | hash tokens and direct token-set estimation (Alg. 7) |
//! | [`sparse`] | §4.3 | sparse-to-dense auto-upgrading sketch |
//! | [`adaptive`] | §4.3 | adaptive lifecycle enum that unwraps to dense at promotion |
//! | [`theory`] | §2.1, §2.4 | MVP formulas (3)(5)(6)(7), bias correction (4) |
//! | [`compress`] | §6 (future work) | entropy-coded serialization approaching the Figure 6 optimum |
//! | [`atomic`] | §2.4 | lock-free concurrent sketch, any register width packed into `AtomicU64` words (CAS updates) |
//! | [`counter`] | §5 methodology | `ell-core` trait implementations for every sketch type in this crate |
//!
//! ## Relationship to other sketches (paper §2.5)
//!
//! ELL generalizes a family of known data structures:
//! HyperLogLog = ELL(0, 0) ([`EllConfig::hll`]),
//! ExtendedHyperLogLog = ELL(0, 1), UltraLogLog = ELL(0, 2),
//! HyperMinHash ≈ ELL(t, 0), and PCSA stores the same information as
//! ELL(0, ∞). The baselines crate `ell-baselines` implements the
//! independent reference versions used in the paper's comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod atomic;
pub mod compress;
pub mod config;
pub mod counter;
pub mod martingale;
pub mod ml;
pub mod pmf;
pub mod registers;
pub mod sketch;
pub mod sparse;
#[doc(hidden)]
pub mod sync;
pub mod theory;
pub mod token;

pub use adaptive::AdaptiveExaLogLog;
pub use config::{EllConfig, EllError};
pub use ell_bitpack::kernels;
pub use ell_core::{DistinctCounter, Sketch, SketchError};
pub use martingale::{MartingaleEstimator, MartingaleExaLogLog};
pub use sketch::{ExaLogLog, RegisterChange};
pub use sparse::SparseExaLogLog;
pub use token::TokenSet;

#[cfg(test)]
mod lib_tests {
    use super::*;
    use ell_hash::WyHash;

    #[test]
    fn readme_style_end_to_end() {
        let hasher = WyHash::new(7);
        let mut node_a = ExaLogLog::new(EllConfig::optimal(10).unwrap());
        let mut node_b = node_a.clone();
        for i in 0..30_000u32 {
            node_a.insert(&hasher, format!("a{i}").as_bytes());
        }
        for i in 0..30_000u32 {
            // 10k overlap with node_a's universe
            node_b.insert(&hasher, format!("a{}", i + 20_000).as_bytes());
        }
        node_a.merge_from(&node_b).unwrap();
        let est = node_a.estimate();
        assert!(
            (est / 50_000.0 - 1.0).abs() < 0.08,
            "union estimate {est} too far from 50000"
        );
    }
}
