//! Baseline distinct-count sketches for the ExaLogLog comparison.
//!
//! The paper's Table 2 and Figures 10/11 compare ExaLogLog against the
//! state of the art. This crate implements every comparison algorithm
//! from scratch:
//!
//! | Type | Paper row | Notes |
//! |---|---|---|
//! | [`HyperLogLog`] (6/8-bit) | DataSketches / hash4j HLL | Algorithm 1; FFGM, Ertl-improved and ML estimators |
//! | [`HyperLogLog4`] | DataSketches HLL 4-bit | global offset + exception map; non-constant insert |
//! | [`Ull`] | hash4j ULL | UltraLogLog, one byte per register; §2.5 equivalence to ELL(0,2) tested |
//! | [`Ehll`] | related work §1.1 | ExtendedHyperLogLog, 7-bit registers; §2.5 equivalence to ELL(0,1) tested |
//! | [`Pcsa`] | CPC | FM85 bitmaps; ML estimation via the ELL solver; [`cpc`] range-codes the state for the serialized column |
//! | [`SparseHyperLogLog`] | DataSketches sparse mode | coupon-list HLL reproducing Figure 10's small-n memory curve |
//! | [`HyperMinHash`] | related work §2.5 | min-hash ordering of ELL(t,0); adds Jaccard/intersection estimation |
//! | [`HyperLogLogLog`] | HLLL | 3-bit registers + offset + exception list; re-base sweeps |
//! | [`SpikeLike`] | SpikeSketch | documented substitute — the reference paper is unavailable offline |
//!
//! Every type implements the workspace-wide [`DistinctCounter`] trait
//! (defined in `ell-core`, re-exported here), [`table2_lineup`] builds
//! the exact Table 2 line-up (all algorithms at ≈2 % target error), and
//! [`build_sketch`] resolves any of the registered algorithm names —
//! ELL variants included — to a boxed [`Sketch`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod cpc;
pub mod ehll;
pub mod estimators;
pub mod hll;
pub mod hll4;
pub mod hlll;
pub mod hyperminhash;
pub mod pcsa;
pub mod registry;
pub mod sparse_hll;
pub mod spike;
pub mod ull;

pub use counter::{table2_lineup, DistinctCounter, Sketch, SketchError};
pub use ehll::Ehll;
pub use hll::{HllEstimator, HyperLogLog};
pub use hll4::HyperLogLog4;
pub use hlll::HyperLogLogLog;
pub use hyperminhash::HyperMinHash;
pub use pcsa::Pcsa;
pub use registry::{build_sketch, ALGORITHMS};
pub use sparse_hll::SparseHyperLogLog;
pub use spike::SpikeLike;
pub use ull::Ull;
