//! Probabilistic Counting with Stochastic Averaging (PCSA / FM-sketch,
//! Flajolet & Martin 1985) — the structure underlying the CPC sketch.
//!
//! Each of the m = 2^p registers is a bitmap: inserting an element sets
//! bit k−1 of one register, where k is NLZ-based exactly like HLL's update
//! value. PCSA stores strictly more information than HLL (the full set of
//! observed values, not just the maximum) — it is informationally
//! equivalent to ELL(0, ∞) (paper §2.5).
//!
//! Three estimators are provided:
//!
//! * the classic FM85 estimator (mean lowest-unset-bit index);
//! * full ML estimation reusing the ExaLogLog Newton solver, as the
//!   paper's §6 suggests ("our proposed ML estimation approach … should
//!   also work for them");
//! * [`Pcsa::ideal_compressed_bits`] measures the ideal entropy-coded
//!   size of the state under its own fitted model. This is the stand-in
//!   for the Apache DataSketches CPC sketch of Table 2, whose serialized
//!   form is (in essence) an entropy-coded PCSA, so PCSA plus an
//!   entropy coder measures what CPC measures.

use ell_bitpack::mask;
use exaloglog::ml::{solve_ml_equation, MAX_EXPONENT};

/// The FM85 magic constant φ (E\[2^R\] ≈ φ·n/m).
const FM_PHI: f64 = 0.775_351_988_66;

/// Serialization magic of the uncompressed PCSA format (the CPC-style
/// range-coded format of the [`crate::cpc`] module has its own magic).
const MAGIC: &[u8; 4] = b"BPC1";

/// A PCSA / FM-sketch with 2^p bitmap registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcsa {
    bitmaps: Vec<u64>,
    p: u8,
}

impl Pcsa {
    /// Creates an empty PCSA with 2^p registers.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ p ≤ 26`.
    #[must_use]
    pub fn new(p: u8) -> Self {
        assert!((2..=26).contains(&p), "precision {p} outside 2..=26");
        Pcsa {
            bitmaps: vec![0u64; 1usize << p],
            p,
        }
    }

    /// Number of registers m = 2^p.
    #[must_use]
    pub fn m(&self) -> usize {
        self.bitmaps.len()
    }

    /// The precision parameter p.
    #[must_use]
    pub fn p(&self) -> u8 {
        self.p
    }

    /// Number of levels per bitmap (update values 1..=levels).
    #[must_use]
    pub fn levels(&self) -> u32 {
        65 - u32::from(self.p)
    }

    /// Inserts an element by its 64-bit hash. Returns whether the state
    /// changed.
    #[inline]
    pub fn insert_hash(&mut self, h: u64) -> bool {
        let p = u32::from(self.p);
        let i = (h >> (64 - p)) as usize;
        let a = h & mask(64 - p);
        let k = a.leading_zeros() - p + 1; // ∈ [1, 65−p]
        let bit = 1u64 << (k - 1);
        let old = self.bitmaps[i];
        self.bitmaps[i] = old | bit;
        old & bit == 0
    }

    /// The bitmap of register `i` (bit k−1 ⇔ update value k observed).
    #[must_use]
    pub fn bitmap(&self, i: usize) -> u64 {
        self.bitmaps[i]
    }

    /// Overwrites the bitmap of register `i` — used by the CPC-style
    /// decompressor, which reconstructs bitmaps it has itself encoded.
    pub(crate) fn set_bitmap(&mut self, i: usize, bitmap: u64) {
        self.bitmaps[i] = bitmap;
    }

    /// Merges another PCSA with equal precision (bitwise OR).
    ///
    /// # Panics
    ///
    /// Panics if the precisions differ.
    pub fn merge_from(&mut self, other: &Pcsa) {
        assert_eq!(self.p, other.p, "precision mismatch");
        for (a, b) in self.bitmaps.iter_mut().zip(&other.bitmaps) {
            *a |= b;
        }
    }

    /// The classic FM85 estimate: n̂ = (m/φ)·2^(mean R) where R is each
    /// register's lowest unset bit index.
    #[must_use]
    pub fn estimate_classic(&self) -> f64 {
        let mean_r: f64 = self
            .bitmaps
            .iter()
            .map(|&b| f64::from((!b).trailing_zeros()))
            .sum::<f64>()
            / self.m() as f64;
        self.m() as f64 / FM_PHI * (2f64.powf(mean_r) - 1.0)
    }

    /// ML estimate via the ExaLogLog Newton solver. Each bit (i, k) is an
    /// independent Poisson event with probability 2^(−min(k, 64−p)), so
    /// the log-likelihood has exactly the shape of the paper's
    /// equation (15).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        let (alpha, beta) = self.coefficients();
        solve_ml_equation(alpha, &beta, self.m() as f64)
    }

    /// Log-likelihood coefficients (α, β) of the PCSA state.
    #[must_use]
    pub fn coefficients(&self) -> (f64, [u64; MAX_EXPONENT + 1]) {
        let levels = self.levels();
        let cap = 64 - u32::from(self.p);
        let mut beta = [0u64; MAX_EXPONENT + 1];
        // α·2^cap accumulated exactly.
        let mut alpha_num: u128 = 0;
        for &b in &self.bitmaps {
            for k in 1..=levels {
                let e = k.min(cap);
                if b & (1u64 << (k - 1)) != 0 {
                    beta[e as usize] += 1;
                } else {
                    alpha_num += 1u128 << (cap - e);
                }
            }
        }
        (alpha_num as f64 / 2f64.powi(cap as i32), beta)
    }

    /// Ideal entropy-coded size of the state in bits: the Shannon code
    /// length −Σ log2 P(bit | n̂) under the sketch's own fitted Poisson
    /// model. An arithmetic coder achieves this within a few bits; the
    /// DataSketches CPC serialization is the practical realization of this
    /// number (Lang 2017).
    #[must_use]
    pub fn ideal_compressed_bits(&self) -> f64 {
        let n = self.estimate();
        if n <= 0.0 {
            return 1.0;
        }
        let mf = self.m() as f64;
        let cap = 64 - u32::from(self.p);
        let mut bits = 0.0;
        for &b in &self.bitmaps {
            for k in 1..=self.levels() {
                let rho = 2f64.powi(-(k.min(cap) as i32));
                let p_set = -(-n * rho / mf).exp_m1(); // 1 − e^(−nρ/m)
                let p = if b & (1u64 << (k - 1)) != 0 {
                    p_set
                } else {
                    1.0 - p_set
                };
                if p > 0.0 {
                    bits -= p.log2();
                }
            }
        }
        bits
    }

    /// Serializes the sketch: magic `"BPC1"`, p, then the m bitmap words
    /// little-endian.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + self.bitmaps.len() * 8);
        out.extend_from_slice(MAGIC);
        out.push(self.p);
        for &w in &self.bitmaps {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes a sketch produced by [`Pcsa::to_bytes`], validating
    /// the header, the payload length, and that no bitmap sets a level
    /// beyond the 65 − p reachable ones.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 5 {
            return Err(format!("{} bytes is shorter than the header", bytes.len()));
        }
        if &bytes[..4] != MAGIC {
            return Err("bad magic".into());
        }
        let p = bytes[4];
        if !(2..=26).contains(&p) {
            return Err(format!("precision {p} outside 2..=26"));
        }
        let m = 1usize << p;
        let payload = &bytes[5..];
        if payload.len() != m * 8 {
            return Err(format!(
                "expected {} bitmap bytes, got {}",
                m * 8,
                payload.len()
            ));
        }
        let levels = 65 - u32::from(p);
        let unreachable = if levels >= 64 { 0 } else { !0u64 << levels };
        let bitmaps: Vec<u64> = payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        for (i, &w) in bitmaps.iter().enumerate() {
            if w & unreachable != 0 {
                return Err(format!("bitmap {i} sets unreachable levels ({w:#x})"));
            }
        }
        Ok(Pcsa { bitmaps, p })
    }

    /// Serialized (uncompressed) size: ⌈m·(65−p)/8⌉ bytes of bitmap
    /// payload.
    #[must_use]
    pub fn serialized_bytes(&self) -> usize {
        (self.m() * self.levels() as usize).div_ceil(8)
    }

    /// In-memory footprint: struct plus the u64-per-register bitmap array
    /// (kept word-aligned for constant-time inserts, like the in-memory
    /// CPC representation that is "more than twice as large" than its
    /// serialized form — paper §1.1).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>() + self.bitmaps.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;

    fn fill(p: u8, n: usize, seed: u64) -> Pcsa {
        let mut s = Pcsa::new(p);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..n {
            s.insert_hash(rng.next_u64());
        }
        s
    }

    #[test]
    fn ml_estimator_tracks_truth() {
        // PCSA ML error constant ≈ √(ln 2 / ζ(2,1)) ≈ 0.65/√m →
        // p = 8: σ ≈ 4 %.
        for n in [50usize, 1_000, 50_000] {
            let s = fill(8, n, 21);
            let est = s.estimate();
            let rel = est / n as f64 - 1.0;
            assert!(rel.abs() < 0.17, "n={n}: {est} ({rel:+.3})");
        }
    }

    #[test]
    fn classic_estimator_in_its_comfort_zone() {
        // FM85's estimator is asymptotically unbiased for n/m ≫ 1.
        let s = fill(6, 100_000, 22);
        let est = s.estimate_classic();
        let rel = est / 100_000.0 - 1.0;
        assert!(rel.abs() < 0.25, "classic estimate {est} ({rel:+.3})");
    }

    #[test]
    fn merge_is_bitwise_or() {
        let mut a = fill(5, 2000, 23);
        let b = fill(5, 2000, 24);
        let expect: Vec<u64> = (0..a.m()).map(|i| a.bitmap(i) | b.bitmap(i)).collect();
        a.merge_from(&b);
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(a.bitmap(i), e);
        }
    }

    #[test]
    fn idempotent_and_monotone() {
        let mut s = Pcsa::new(6);
        let mut rng = SplitMix64::new(25);
        let hashes: Vec<u64> = (0..500).map(|_| rng.next_u64()).collect();
        for &h in &hashes {
            s.insert_hash(h);
        }
        let snap = s.clone();
        for &h in &hashes {
            assert!(!s.insert_hash(h));
        }
        assert_eq!(s, snap);
    }

    #[test]
    fn compressed_size_beats_raw_at_moderate_counts() {
        // The entropy of the bitmaps is far below their raw size: this is
        // the whole point of CPC. At n = 10^5 with p = 10 the ideal code
        // is ~2.5× smaller than the raw serialization.
        let s = fill(10, 100_000, 26);
        let raw_bits = s.serialized_bytes() as f64 * 8.0;
        let compressed = s.ideal_compressed_bits();
        assert!(
            compressed < 0.6 * raw_bits,
            "compressed {compressed:.0} bits vs raw {raw_bits:.0} bits"
        );
    }

    #[test]
    fn compressed_mvp_near_cpc_claim() {
        // Table 2 reports CPC's serialized MVP ≈ 2.46; the theoretical
        // FISH number for PCSA-information sketches is ≈ 1.98. Our ideal
        // entropy coding should land in that neighbourhood: MVP ≈
        // compressed_bits × relvar with relvar ≈ ln2/ζ(2,1)/m.
        let p = 10u8;
        let m = 1usize << p;
        let s = fill(p, 200_000, 27);
        let relvar = core::f64::consts::LN_2
            / (core::f64::consts::PI * core::f64::consts::PI / 6.0)
            / m as f64;
        let mvp = s.ideal_compressed_bits() * relvar;
        assert!(
            (1.7..2.6).contains(&mvp),
            "entropy-coded PCSA MVP {mvp:.2} outside the CPC neighbourhood"
        );
    }

    #[test]
    fn empty_estimates_zero() {
        let s = Pcsa::new(8);
        assert_eq!(s.estimate(), 0.0);
        assert!(s.estimate_classic().abs() < 1e-9);
    }

    #[test]
    fn saturating_value_level() {
        // The all-zero hash sets the top level bit (k = 65−p).
        let mut s = Pcsa::new(4);
        s.insert_hash(0);
        let top: u32 = (0..s.m())
            .map(|i| 64 - s.bitmap(i).leading_zeros())
            .max()
            .unwrap();
        assert_eq!(top, 61); // k = 61 → bit index 60 → bit length 61
    }
}
