//! Maximum-likelihood estimation (paper §3.2 and Appendix A).
//!
//! Because every update-value probability is a power of two, the
//! log-likelihood of an ExaLogLog state collapses to the two-parameter
//! family of equation (15):
//!
//! ln L(n) = −(n/m)·α + Σ_u β_u · ln(1 − e^(−n/(m·2^u)))
//!
//! [`compute_coefficients`] extracts (α, β) from the registers with pure
//! integer arithmetic; [`solve_ml_equation`] finds the ML root with the
//! monotone, concave-safe Newton iteration of Algorithm 8, which
//! converges in a handful of iterations from the Lemma B.3 starting
//! point and never overshoots.
//!
//! # One contribution per register
//!
//! Algorithm 3 visits every indicator bit of every register: an unset
//! bit for update value k adds ρ(k) = 2^(−φ(k)) to α, a set bit adds one
//! to β\[φ(k)\]. This module computes the same numbers without visiting
//! unset bits. For a register with maximum u ≥ 1 and window start
//! k₀ = max(u − d, 1), the α terms of the maximum and of a window in
//! which *no* bit is set telescope through the tail sums ω:
//!
//! ω(u) + Σ_{k=k₀}^{u−1} ρ(k) = ω(k₀ − 1) − ρ(u)
//!
//! because ω(k₀ − 1) = Σ_{k ≥ k₀} ρ(k) (the truncated distribution sums
//! to one, so ω(0) = 1 and registers with u ≤ d get α term 1 − ρ(u)). Every
//! bit that *is* set then moves its ρ(k) from α to β\[φ(k)\]. Treating
//! the maximum itself as one more set bit (at position d, value u), a
//! register contributes
//!
//! α += ω(k₀ − 1) − Σ_{k ∈ S} 2^(−φ(k)),   β\[φ(k)\] += 1 for k ∈ S,
//!
//! where S holds u and the update values of the set window bits. A
//! register with u = 0 contributes α += 1. Registers with 1 ≤ u ≤ d carry
//! a sentinel bit at d − u (update value 0, outside the window); it is
//! masked off before S is read.
//!
//! Consecutive update values share a level φ in runs of 2^t, and every
//! value at or above the 64 − p cap shares the last level. The
//! incremental path below therefore reads S one populated level at a
//! time (a `trailing_zeros` + `count_ones` pair), never one step per
//! bit. The streaming `CoefficientScan` goes further: it shifts S so
//! each level fills one aligned lane of 2^t bits, counts all lanes at
//! once with a SWAR popcount, and adds every lane to its level's counter
//! without a branch. The ω term depends on u alone, so the scan only
//! tallies maxima and weighs each distinct u once at the end; registers
//! of at most 8 bits are tallied by whole value instead.
//!
//! # Exactness
//!
//! α is kept as the integer α·2^64 in a `u128`. Every ω(x) and every
//! 2^(−φ(k)) is a dyadic rational whose denominator divides 2^(64−p)
//! (φ is capped at 64 − p), so each term is an exact integer at that
//! scale, and m ≤ 2^26 registers of value at most 1 cannot overflow.
//! `CoefficientScan` keeps u64 counts of S per level and u32 tallies
//! of maxima; the sums Σ_u tally_u·ω(k₀(u) − 1) and
//! Σ_j count_j·2^(64−j) are formed once, in
//! `CoefficientScan::finish`. Integer addition is associative, so the
//! result is bit-identical to Algorithm 3 in any register order and
//! under any grouping — [`coefficients_reference`] keeps the per-bit
//! loop as the oracle the tests compare against.
//!
//! Because each register's contribution is independent of every other
//! register, the coefficients can also be maintained *incrementally*:
//! [`add_register`]/[`remove_register`] fold one register's contribution
//! in or out, and [`apply_register_change`] updates a coefficient set in
//! O(levels touched) for the common indicator-bit-only register change.
//! `ExaLogLog` keeps a cached coefficient set up to date through it and
//! asserts the equivalence with [`coefficients_reference`] in debug
//! builds.
//!
//! The same machinery estimates from *hash-token* sets (Algorithm 7 uses
//! m = 1) and from PCSA states, since those likelihoods share shape (15).

use crate::config::EllConfig;
use crate::pmf::{exp2_neg, omega_exact, phi};

/// Exponent range of the β coefficients: β\[u\] multiplies
/// ln(1 − e^(−n/(m·2^u))); valid u never exceeds 64.
pub const MAX_EXPONENT: usize = 64;

/// Coefficients (α, β) of the log-likelihood function (15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlCoefficients {
    /// The linear coefficient α ≥ 0, stored exactly as α·2^64 to keep
    /// Algorithm 3's accumulation in integer arithmetic.
    pub alpha_times_2_64: u128,
    /// β\[u\] counts log terms with probability 2^(−u), u ∈ \[0, 64\].
    pub beta: [u64; MAX_EXPONENT + 1],
}

impl MlCoefficients {
    /// α as a float (exact to f64 precision).
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha_times_2_64 as f64 / 2f64.powi(64)
    }

    /// Total number of recorded update events Σ_u β_u.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.beta.iter().sum()
    }
}

/// The coefficient set of an *empty* sketch with `m` registers:
/// α = m (every register contributes its full tail probability ω(0) = 1)
/// and no recorded events.
#[must_use]
pub fn empty_coefficients(m: usize) -> MlCoefficients {
    MlCoefficients {
        alpha_times_2_64: (m as u128) << 64,
        beta: [0u64; MAX_EXPONENT + 1],
    }
}

/// The α·2^64 term of a register with maximum `u` before any observed
/// value is subtracted: ω(k₀ − 1) with k₀ = max(u − d, 1), which is
/// ω(0) = 1 for every u ≤ d + 1 (the empty register included).
#[inline]
fn base_alpha(cfg: &EllConfig, u: u64) -> u128 {
    let (num, e) = omega_exact(cfg, u.saturating_sub(u64::from(cfg.d()) + 1));
    u128::from(num) << (64 - e)
}

/// The set S of a register with maximum `u` as a bit mask: bit b stands
/// for update value u − d + b. Bit d is the maximum; window bits for
/// update values below 1 (the sentinel of a register with u ≤ d and the
/// clear bits beneath it) are masked off, which leaves nothing at all
/// for u = 0. Branch-free: d ≤ 58, so every shift is in range.
#[inline(always)]
fn observed_bits(r: u64, d: u32, u: u64) -> u64 {
    let below_window = (u64::from(d) + 1).saturating_sub(u);
    ((r & ((1u64 << d) - 1)) | (1u64 << d)) & (u64::MAX << below_window)
}

/// Calls `f(j, count)` for every level j = φ(k) among the update values
/// k marked in `bits` (bit b ↔ k = u − d + b), with the number of marked
/// values at that level. One `trailing_zeros` + `count_ones` per
/// populated level: values k with equal ⌊(k−1)/2^t⌋ share a level, as do
/// all values at or above the 64 − p cap.
#[inline]
fn for_each_level(cfg: &EllConfig, u: u64, mut bits: u64, mut f: impl FnMut(usize, u64)) {
    let t = cfg.t();
    let d = u64::from(cfg.d());
    let cap = 64 - u64::from(cfg.p());
    while bits != 0 {
        let b = u64::from(bits.trailing_zeros());
        let k = u + b - d;
        let run = (k - 1) >> t;
        let level = u64::from(t) + 1 + run;
        let group = if level >= cap {
            bits
        } else {
            // Values k ..= (run + 1)·2^t share this level; bits below b
            // are already clear.
            let end = b + ((run + 1) << t) + 1 - k;
            bits & ell_bitpack::mask(end as u32)
        };
        f(level.min(cap) as usize, u64::from(group.count_ones()));
        bits &= !group;
    }
}

/// Low-half lane masks of the SWAR lane popcount: after step s, every
/// lane of 2^(s+1) bits holds the number of set bits it covers.
const LANE_LOW: [u64; 3] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
];

/// Slots of [`CoefficientScan`]'s per-level counts. A level j lands in
/// slot j − t − 1 + ⌈(d + 1)/2^t⌉, which stays below
/// (65 − p − t) + 2·⌈(d + 1)/2^t⌉ < 192 for every valid (t, d, p).
const SLOTS: usize = 192;

/// Register maxima tallied by [`CoefficientScan`] when t ≤ 3: u never
/// exceeds (65 − p − t)·2^t ≤ 480 there.
const MAXIMA: usize = 512;

/// Registers at most this wide (HLL, EHLL, ULL: ≤ 256 values) are
/// tallied by value and folded once per distinct value. Their windows
/// hold at most two bits, so the aligned lanes save little over
/// Algorithm 3 there: fed one by one through the lanes, `ull8` in
/// quick-mode `bench_registers` (2-vCPU x86-64 VM) estimates only about
/// 1.6× faster than the per-bit reference; with the tally, 2.2–2.9×.
const NARROW_WIDTH: u32 = 8;

/// Streaming coefficient accumulator: feed it register values in any
/// order through [`Extend`], then [`finish`](CoefficientScan::finish).
/// Registers never fed count as empty, so callers that skip zero words
/// need not feed them. See the [module docs](self) for the derivation.
///
/// For t ≤ 3 (every named configuration) a register's observed bits are
/// shifted so that each level occupies one aligned lane of 2^t bits
/// (d + 2^t < 64 always holds there); a SWAR popcount counts every lane
/// at once, each lane is added to its level's slot without a branch,
/// and the register's α term is deferred to a tally of maxima that
/// [`finish`](CoefficientScan::finish) weighs once per distinct u.
/// Registers of at most 8 bits are tallied by value instead, so each
/// distinct value is decoded once. Larger t walks the populated levels
/// of each register one at a time.
#[derive(Debug, Clone)]
pub(crate) struct CoefficientScan {
    cfg: EllConfig,
    alpha_times_2_64: u128,
    /// Observed update values per level, indexed by slot (see [`SLOTS`]).
    observed: [u64; SLOTS],
    /// Nonempty registers per maximum u (t ≤ 3).
    maxima: [u32; MAXIMA],
    /// Registers per value (register width ≤ [`NARROW_WIDTH`]).
    values: [u32; 1 << NARROW_WIDTH],
    nonempty: usize,
    /// ⌈(d + 1)/2^t⌉: the slot of level t + 1.
    lift: u64,
    /// lift·2^t − d − 1: added to u, it gives the slot-aligned position
    /// of observed bit 0 (update value u − d).
    bias: u64,
    /// Lanes of 2^t bits covering d + 2^t bits (aligned path).
    lanes: usize,
}

impl CoefficientScan {
    /// An accumulator for sketches of configuration `cfg` with no
    /// register fed yet.
    #[inline]
    #[must_use]
    pub(crate) fn new(cfg: &EllConfig) -> Self {
        let t = cfg.t();
        let d = u64::from(cfg.d());
        let lift = (d + 1).div_ceil(1 << t);
        CoefficientScan {
            cfg: *cfg,
            alpha_times_2_64: 0,
            observed: [0; SLOTS],
            maxima: [0; MAXIMA],
            values: [0; 1 << NARROW_WIDTH],
            nonempty: 0,
            lift,
            bias: (lift << t) - d - 1,
            lanes: ((d + (1 << t) - 1) >> t) as usize + 1,
        }
    }

    /// Adds a run of register values wider than [`NARROW_WIDTH`] (zeros
    /// included). Dispatches on the configuration once per call, so the
    /// per-register loop runs with every shape constant known.
    fn push_all(&mut self, registers: &[u64]) {
        match self.cfg.t() {
            0 => self.count_aligned_all::<0>(registers),
            1 => self.count_aligned_all::<1>(registers),
            2 => self.count_aligned_all::<2>(registers),
            3 => self.count_aligned_all::<3>(registers),
            _ => {
                for &r in registers {
                    self.count_by_level(r);
                }
            }
        }
    }

    fn count_aligned_all<const T: u32>(&mut self, registers: &[u64]) {
        let shape = self.shape();
        for &r in registers {
            shape.count::<T>(&mut self.observed, &mut self.maxima, r, 1);
        }
    }

    fn shape(&self) -> LaneShape {
        LaneShape {
            d: u32::from(self.cfg.d()),
            bias: self.bias,
            lanes: self.lanes,
        }
    }

    /// One register for any t: one step per populated level.
    fn count_by_level(&mut self, r: u64) {
        let d = u32::from(self.cfg.d());
        let u = r >> d;
        if u == 0 {
            return;
        }
        self.nonempty += 1;
        self.alpha_times_2_64 += base_alpha(&self.cfg, u);
        let (lift, t) = (self.lift as usize, usize::from(self.cfg.t()));
        let observed = &mut self.observed;
        for_each_level(&self.cfg, u, observed_bits(r, d, u), |j, c| {
            // j ≥ t + 1, so the slot lands at or above `lift`.
            observed[j + lift - t - 1] += c;
        });
    }

    /// The coefficients of the registers fed so far, with every
    /// register not fed counted as empty.
    #[inline]
    #[must_use]
    pub(crate) fn finish(mut self) -> MlCoefficients {
        let width = self.cfg.register_width();
        if width <= NARROW_WIDTH {
            let shape = self.shape();
            for r in 0..1usize << width {
                let copies = self.values[r];
                if copies > 0 {
                    let (observed, maxima) = (&mut self.observed, &mut self.maxima);
                    match self.cfg.t() {
                        0 => shape.count::<0>(observed, maxima, r as u64, copies),
                        1 => shape.count::<1>(observed, maxima, r as u64, copies),
                        _ => shape.count::<2>(observed, maxima, r as u64, copies),
                    }
                }
            }
        }
        let max_u = self.cfg.max_update_value() as usize;
        for (u, &copies) in self.maxima.iter().enumerate().take(max_u + 1).skip(1) {
            if copies > 0 {
                self.nonempty += copies as usize;
                self.alpha_times_2_64 += u128::from(copies) * base_alpha(&self.cfg, u as u64);
            }
        }
        let m = self.cfg.m();
        debug_assert!(
            self.nonempty <= m,
            "{} nonempty registers, m = {m}",
            self.nonempty
        );
        let cap = 64 - u64::from(self.cfg.p());
        let level_of_slot0 = u64::from(self.cfg.t()) + 1;
        let mut coeffs = empty_coefficients(m - self.nonempty);
        coeffs.alpha_times_2_64 += self.alpha_times_2_64;
        // The highest slot any register can reach: its maximum at bit d.
        let top_slot = (max_u as u64 + u64::from(self.cfg.d()) + self.bias) >> self.cfg.t();
        for (slot, &c) in self.observed.iter().enumerate().take(top_slot as usize + 1) {
            if c > 0 {
                // Slots below `lift` would hold update values k < 1.
                debug_assert!(slot as u64 >= self.lift, "count in slot {slot}");
                let j = (slot as u64 + level_of_slot0 - self.lift).min(cap) as usize;
                coeffs.beta[j] += c;
                coeffs.alpha_times_2_64 -= u128::from(c) << (64 - j);
            }
        }
        coeffs
    }
}

impl Extend<u64> for CoefficientScan {
    /// Adds every register value `registers` yields (zeros included) in
    /// one internal-iteration pass: ≤ 8-bit registers go straight into
    /// the value tally; wider ones are compacted, without a branch, into
    /// short runs of nonempty values (empty registers are what
    /// [`finish`](CoefficientScan::finish) assumes for every register
    /// never fed).
    fn extend<I: IntoIterator<Item = u64>>(&mut self, registers: I) {
        if self.cfg.register_width() <= NARROW_WIDTH {
            let values = &mut self.values;
            registers.into_iter().for_each(|r| values[r as usize] += 1);
            return;
        }
        let mut buf = [0u64; 64];
        let mut filled = 0usize;
        registers.into_iter().for_each(|r| {
            buf[filled] = r;
            filled += usize::from(r != 0);
            if filled == buf.len() {
                self.push_all(&buf);
                filled = 0;
            }
        });
        self.push_all(&buf[..filled]);
    }
}

/// The per-configuration constants of [`CoefficientScan`]'s aligned
/// path, copied out of the accumulator so the per-register loop keeps
/// them in registers.
#[derive(Debug, Clone, Copy)]
struct LaneShape {
    d: u32,
    bias: u64,
    lanes: usize,
}

impl LaneShape {
    /// Counts `copies` registers of value `r` for t = `T` ≤ 3 without a
    /// data-dependent branch: an empty register tallies maximum 0 (which
    /// [`CoefficientScan::finish`] skips) and has no observed bits.
    #[inline(always)]
    fn count<const T: u32>(
        self,
        observed: &mut [u64; SLOTS],
        maxima: &mut [u32; MAXIMA],
        r: u64,
        copies: u32,
    ) {
        let u = r >> self.d;
        maxima[u as usize] += copies;
        let bits = observed_bits(r, self.d, u);
        // Bit b stands for update value k = u − d + b, at level
        // t + 1 + ⌊(k − 1)/2^t⌋; shifting by the low t bits of
        // k − 1 + lift·2^t puts every level in its own lane.
        let pos = u + self.bias;
        let mut counts = bits << (pos & ((1u64 << T) - 1));
        for (s, &low) in LANE_LOW.iter().enumerate().take(T as usize) {
            counts = (counts & low) + ((counts >> (1u32 << s)) & low);
        }
        let lane = (1u64 << (1u32 << T)) - 1;
        for slot in &mut observed[(pos >> T) as usize..][..self.lanes] {
            *slot += u64::from(copies) * (counts & lane);
            counts >>= 1u32 << T;
        }
    }
}

/// Extracts the log-likelihood coefficients from register values —
/// Algorithm 3's result, computed one register at a time by
/// the crate's streaming coefficient scan.
///
/// `registers` must yield exactly the m = 2^p register values of a sketch
/// with configuration `cfg`. All contributions to α are integer multiples
/// of 2^(p−64), so the sum is exact.
#[must_use]
pub fn compute_coefficients(
    cfg: &EllConfig,
    registers: impl Iterator<Item = u64>,
) -> MlCoefficients {
    let mut scan = CoefficientScan::new(cfg);
    let mut count = 0usize;
    scan.extend(registers.inspect(|_| {
        if cfg!(debug_assertions) {
            count += 1;
        }
    }));
    debug_assert_eq!(count, cfg.m(), "register count must equal m");
    scan.finish()
}

/// Algorithm 3 as the paper states it: one step per indicator bit, with
/// a `u128` add for every unset bit. Bit-identical to
/// [`compute_coefficients`] and kept only as the oracle that tests,
/// benchmarks and the debug-build cache checks compare against.
#[must_use]
pub fn coefficients_reference(
    cfg: &EllConfig,
    registers: impl Iterator<Item = u64>,
) -> MlCoefficients {
    let mut coeffs = empty_coefficients(0);
    let mut count = 0usize;
    for r in registers {
        count += 1;
        add_register_reference(&mut coeffs, cfg, r);
    }
    debug_assert_eq!(count, cfg.m(), "register count must equal m");
    coeffs
}

/// One loop iteration of Algorithm 3 (see [`coefficients_reference`]).
fn add_register_reference(coeffs: &mut MlCoefficients, cfg: &EllConfig, r: u64) {
    let d = cfg.d();
    let u = r >> d;
    let (num, e) = omega_exact(cfg, u);
    coeffs.alpha_times_2_64 += u128::from(num) << (64 - e);
    if u >= 1 {
        coeffs.beta[phi(cfg, u) as usize] += 1;
    }
    let k_lo = if u > u64::from(d) {
        u - u64::from(d)
    } else {
        1
    };
    for k in k_lo..u {
        let j = phi(cfg, k);
        if r & (1u64 << (u64::from(d) - (u - k))) == 0 {
            coeffs.alpha_times_2_64 += 1u128 << (64 - j);
        } else {
            coeffs.beta[j as usize] += 1;
        }
    }
}

/// Adds one register's contribution to a coefficient set. Exact integer
/// arithmetic: folding the same registers in any order yields
/// bit-identical coefficients.
pub fn add_register(coeffs: &mut MlCoefficients, cfg: &EllConfig, r: u64) {
    let d = u32::from(cfg.d());
    let u = r >> d;
    coeffs.alpha_times_2_64 += base_alpha(cfg, u);
    for_each_level(cfg, u, observed_bits(r, d, u), |j, c| {
        coeffs.alpha_times_2_64 -= u128::from(c) << (64 - j);
        coeffs.beta[j] += c;
    });
}

/// Removes one register's contribution from a coefficient set — the exact
/// inverse of [`add_register`].
///
/// # Panics
///
/// Panics (debug) if the coefficients never contained this register's
/// contribution (β underflow).
pub fn remove_register(coeffs: &mut MlCoefficients, cfg: &EllConfig, r: u64) {
    let d = u32::from(cfg.d());
    let u = r >> d;
    for_each_level(cfg, u, observed_bits(r, d, u), |j, c| {
        debug_assert!(coeffs.beta[j] >= c, "β[{j}] underflow");
        coeffs.beta[j] -= c;
        coeffs.alpha_times_2_64 += u128::from(c) << (64 - j);
    });
    coeffs.alpha_times_2_64 -= base_alpha(cfg, u);
}

/// Replaces one register's contribution: the coefficients transition from
/// describing a state with register value `old` to one with value `new`.
///
/// The dominant change shape — the maximum is unchanged and one or more
/// indicator bits were added (`registers::update` with a value inside the
/// window, or a same-maximum merge) — folds in only the added bits, one
/// step per bit (an insert adds exactly one): each freshly seen value
/// moves its probability mass 2^(−φ(k)) from the unseen side (α) to the
/// observed side (β). Any change of the register maximum falls back to
/// [`remove_register`] + [`add_register`].
pub fn apply_register_change(coeffs: &mut MlCoefficients, cfg: &EllConfig, old: u64, new: u64) {
    let d = cfg.d();
    let u = new >> d;
    if old >> d == u {
        // Indicator-only change: `new` has a superset of `old`'s bits.
        debug_assert_eq!(old & !new, 0, "register bits may only be added");
        let mut added = new ^ old;
        while added != 0 {
            let b = u64::from(added.trailing_zeros());
            let j = phi(cfg, u - (u64::from(d) - b));
            coeffs.alpha_times_2_64 -= 1u128 << (64 - j);
            coeffs.beta[j as usize] += 1;
            added &= added - 1;
        }
    } else {
        remove_register(coeffs, cfg, old);
        add_register(coeffs, cfg, new);
    }
}

/// Solves the ML equation f(x) = α·2^(u_max)·x − φ(x) = 0 and returns the
/// distinct-count estimate n̂ = m·2^(u_max)·ln(1 + x̂)
/// (Algorithm 8 of the paper, including the numerically robust recursions
/// (20)–(22) and (30) and both stop conditions).
///
/// Returns 0 when all β_u are zero (pristine sketch) and `f64::INFINITY`
/// when α = 0 (fully saturated sketch — unreachable for realistic counts).
#[must_use]
pub fn solve_ml_equation(alpha: f64, beta: &[u64; MAX_EXPONENT + 1], m: f64) -> f64 {
    // Locate the support [u_min, u_max] of β and the Lemma B.3 sums.
    let mut u_min = usize::MAX;
    let mut u_max = 0usize;
    let mut sigma0 = 0.0f64;
    let mut sigma1 = 0.0f64; // Σ β_j 2^(−j), scaled by 2^(u_max) below
    for (j, &b) in beta.iter().enumerate() {
        if b > 0 {
            if u_min == usize::MAX {
                u_min = j;
            }
            u_max = j;
            sigma0 += b as f64;
            sigma1 += b as f64 * exp2_neg(j as u32);
        }
    }
    if u_min == usize::MAX {
        return 0.0;
    }
    if alpha <= 0.0 {
        return f64::INFINITY;
    }
    let pow = 2f64.powi(u_max as i32);
    sigma1 *= pow; // now Σ β_j 2^(u_max − j) ≥ σ0
    let a2u = alpha * pow;
    let mut x = sigma1 / a2u; // upper bound of Lemma B.3
    if u_min < u_max {
        // Lower-bound starting point: exp(ln(1 + σ1/(α 2^u))·σ0/σ1) − 1.
        x = (x.ln_1p() * (sigma0 / sigma1)).exp_m1();
        // Newton iterations (29); the sequence increases towards the root.
        for _ in 0..64 {
            // One simultaneous evaluation of φ (17) and ψ (28) via the
            // shared recursions (20)–(22), (30).
            let mut lambda = 1.0f64;
            let mut eta = 0.0f64;
            let mut y = x;
            let mut u = u_max;
            let mut phi_x = beta[u] as f64;
            let mut psi = 0.0f64;
            loop {
                u -= 1;
                let z = 2.0 / (2.0 + y); // z ∈ (0, 1]
                lambda *= z;
                eta = eta * (2.0 - z) + (1.0 - z);
                let b = beta[u] as f64;
                phi_x += b * lambda;
                psi += b * lambda * eta;
                if u <= u_min {
                    break;
                }
                y *= y + 2.0; // y_{l+1} = y_l (2 + y_l), see (21)
            }
            let xp = a2u * x;
            if phi_x <= xp {
                // f(x) ≥ 0: reached (or numerically passed) the root.
                break;
            }
            let x_new = x * (1.0 + (phi_x - xp) / (psi + xp));
            // Negated form deliberately also stops on NaN.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(x_new > x) {
                // Numerical convergence: the increasing sequence stalled.
                break;
            }
            x = x_new;
        }
    }
    m * pow * x.ln_1p()
}

/// Convenience wrapper: coefficients → estimate for a register-based
/// sketch (without bias correction).
#[must_use]
pub fn ml_estimate_from_coefficients(coeffs: &MlCoefficients, m: f64) -> f64 {
    solve_ml_equation(coeffs.alpha(), &coeffs.beta, m)
}

/// Evaluates the log-likelihood (15) at `n` given coefficients — used by
/// tests to verify that the solver really lands on the maximizer.
#[must_use]
pub fn log_likelihood(coeffs: &MlCoefficients, m: f64, n: f64) -> f64 {
    let mut ll = -n / m * coeffs.alpha();
    for (u, &b) in coeffs.beta.iter().enumerate() {
        if b > 0 {
            let rate = n / (m * 2f64.powi(u as i32));
            // ln(1 − e^(−rate)), stable for small rates via ln(−expm1).
            ll += b as f64 * (-(-rate).exp_m1()).ln();
        }
    }
    ll
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(t: u8, d: u8, p: u8) -> EllConfig {
        EllConfig::new(t, d, p).unwrap()
    }

    /// Every configuration shape the identity tests sweep: t ∈ 0..=6
    /// (t ≤ 3 takes the scan's aligned-lane path, larger t its per-level
    /// walk), d ∈ {0, 1, 2, 9, 20, 24} plus the widest d for t, and a
    /// small and a large p (the large one caps φ at 64 − p well inside
    /// the update-value range).
    fn sweep() -> impl Iterator<Item = EllConfig> {
        (0..=6u8).flat_map(|t| {
            [0u8, 1, 2, 9, 20, 24, 58 - t]
                .into_iter()
                .flat_map(move |d| [2u8, 11, 26].into_iter().map(move |p| cfg(t, d, p)))
        })
    }

    #[test]
    fn telescoped_alpha_equals_per_bit_sum_for_every_u() {
        // ω(u) + Σ_{k=k₀}^{u−1} 2^(−φ(k)) = ω(k₀ − 1) − 2^(−φ(u)), exactly,
        // with k₀ = max(u − d, 1); u = 0 contributes ω(0) = 1.
        for c in sweep() {
            let d = u64::from(c.d());
            assert_eq!(base_alpha(&c, 1), 1u128 << 64, "{c}: ω(0) = 1");
            for u in 1..=c.max_update_value() {
                let (num, e) = omega_exact(&c, u);
                let k0 = if u > d { u - d } else { 1 };
                let per_bit = (u128::from(num) << (64 - e))
                    + (k0..u).map(|k| 1u128 << (64 - phi(&c, k))).sum::<u128>();
                let telescoped = base_alpha(&c, u) - (1u128 << (64 - phi(&c, u)));
                assert_eq!(per_bit, telescoped, "{c}, u = {u}");
            }
        }
    }

    #[test]
    fn register_contribution_equals_algorithm_3_for_every_u() {
        // For each u: the all-unset window, the all-set window and a
        // pseudo-random window (the sentinel forced on and the bits
        // below it cleared when u ≤ d, as `registers` guarantees).
        let mut rng = ell_hash::SplitMix64::new(0x7E1E);
        for c in sweep() {
            let d = c.d();
            let low = ell_bitpack::mask(u32::from(d));
            for u in 0..=c.max_update_value() {
                let valid = |bits: u64| {
                    if u == 0 {
                        0
                    } else if u <= u64::from(d) {
                        let sentinel = u64::from(d) - u;
                        (u << d)
                            | ((bits | (1 << sentinel)) & low & !ell_bitpack::mask(sentinel as u32))
                    } else {
                        (u << d) | (bits & low)
                    }
                };
                for r in [valid(0), valid(u64::MAX), valid(rng.next_u64())] {
                    assert!(crate::registers::is_valid(&c, r), "{c}: {r:#x}");
                    let mut want = empty_coefficients(0);
                    add_register_reference(&mut want, &c, r);
                    let mut got = empty_coefficients(0);
                    add_register(&mut got, &c, r);
                    assert_eq!(got, want, "{c}: add_register({r:#x})");
                    let mut scan = CoefficientScan::new(&c);
                    scan.extend([r]);
                    let mut streamed = scan.finish();
                    streamed.alpha_times_2_64 -= ((c.m() - 1) as u128) << 64;
                    assert_eq!(streamed, want, "{c}: scan of {r:#x}");
                    remove_register(&mut got, &c, r);
                    assert_eq!(got, empty_coefficients(0), "{c}: remove_register({r:#x})");
                }
            }
        }
    }

    #[test]
    fn scan_skips_empty_registers_in_any_order() {
        // Feeding only the nonempty registers, in reverse, gives Algorithm
        // 3's coefficients over all m: the registers never fed count as
        // empty, and the sums do not depend on order.
        let mut rng = ell_hash::SplitMix64::new(0x5CA7);
        for c in [cfg(0, 2, 6), cfg(2, 20, 6), cfg(3, 13, 5), cfg(5, 9, 4)] {
            for n in [0usize, 10, 1000] {
                let mut regs = vec![0u64; c.m()];
                for step in 0..n {
                    let i = rng.next_u64() as usize & (c.m() - 1);
                    // Alternate low values (sentinel registers) with
                    // values anywhere up to the φ cap.
                    let range = if step % 2 == 0 {
                        u64::from(c.d()) + 2
                    } else {
                        c.max_update_value()
                    };
                    let k = 1 + rng.next_u64() % range.min(c.max_update_value());
                    regs[i] = crate::registers::update(regs[i], k, c.d());
                }
                let mut scan = CoefficientScan::new(&c);
                scan.extend(regs.iter().rev().copied().filter(|&r| r != 0));
                let want = coefficients_reference(&c, regs.iter().copied());
                assert_eq!(scan.finish(), want, "{c}, n = {n}");
            }
        }
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let c = cfg(2, 20, 4);
        let coeffs = compute_coefficients(&c, std::iter::repeat_n(0, c.m()));
        assert_eq!(coeffs.total_events(), 0);
        // α = Σ_i ω(0) = m exactly (so ln L = −(n/m)·α = −n: the Poisson
        // probability that all m registers stayed empty is e^(−n)).
        assert_eq!(coeffs.alpha_times_2_64, (c.m() as u128) << 64);
        assert_eq!(ml_estimate_from_coefficients(&coeffs, c.m() as f64), 0.0);
    }

    #[test]
    fn alpha_plus_beta_mass_conserved() {
        // Every probability unit is either in α (unseen) or in β (seen):
        // α·2^64 + Σ_u β contributions... more precisely, for each register
        // α-contribution + Σ seen ρ = contribution bookkeeping. We check a
        // weaker exact invariant: α ∈ (0, 1] and decreases as events are
        // recorded.
        let c = cfg(0, 2, 2);
        let empty = compute_coefficients(&c, std::iter::repeat_n(0, 4));
        assert_eq!(empty.alpha(), 4.0); // = m
                                        // One register with max value 3 and full indicators.
        let r = crate::registers::update(
            crate::registers::update(crate::registers::update(0, 3, 2), 2, 2),
            1,
            2,
        );
        let some = compute_coefficients(&c, [r, 0, 0, 0].into_iter());
        assert!(some.alpha() < 4.0);
        assert!(some.alpha() > 0.0);
        assert_eq!(some.total_events(), 3);
    }

    #[test]
    fn solver_single_level_is_closed_form() {
        // When only one β level is populated the root is exactly
        // x = β/(α·2^u), n̂ = m·2^u·ln(1+x).
        let mut beta = [0u64; 65];
        beta[5] = 7;
        let alpha = 0.4;
        let m = 16.0;
        let got = solve_ml_equation(alpha, &beta, m);
        let x = 7.0 / (alpha * 32.0);
        let want = m * 32.0 * x.ln_1p();
        assert!((got - want).abs() < 1e-12 * want, "{got} vs {want}");
    }

    #[test]
    fn solver_lands_on_likelihood_maximum() {
        // Multi-level coefficients: verify the returned n̂ maximizes (15)
        // against a fine grid scan.
        let mut beta = [0u64; 65];
        beta[3] = 10;
        beta[4] = 7;
        beta[6] = 3;
        beta[9] = 1;
        let coeffs = MlCoefficients {
            alpha_times_2_64: (0.37 * 2f64.powi(64)) as u128,
            beta,
        };
        let m = 64.0;
        let n_hat = ml_estimate_from_coefficients(&coeffs, m);
        let ll_hat = log_likelihood(&coeffs, m, n_hat);
        for delta in [-0.1, -0.01, 0.01, 0.1] {
            let n = n_hat * (1.0 + delta);
            let ll = log_likelihood(&coeffs, m, n);
            assert!(
                ll <= ll_hat + 1e-9 * ll_hat.abs(),
                "LL({n}) = {ll} exceeds LL(n̂={n_hat}) = {ll_hat}"
            );
        }
    }

    #[test]
    fn saturated_sketch_estimates_infinity() {
        let mut beta = [0u64; 65];
        beta[2] = 4;
        assert_eq!(solve_ml_equation(0.0, &beta, 4.0), f64::INFINITY);
    }

    #[test]
    fn solver_bracket_of_lemma_b3_contains_root() {
        let mut beta = [0u64; 65];
        beta[2] = 9;
        beta[5] = 4;
        beta[7] = 2;
        let alpha = 0.21;
        let m = 32.0;
        let n_hat = solve_ml_equation(alpha, &beta, m);
        // Upper bound: x ≤ σ0/(α 2^umax) → n ≤ m 2^umax ln(1+σ0/(α 2^umax)).
        let pow = 128.0;
        let upper = m * pow * (15.0 / (alpha * pow)).ln_1p();
        assert!(n_hat <= upper * (1.0 + 1e-12), "{n_hat} > {upper}");
        assert!(n_hat > 0.0);
    }

    #[test]
    fn coefficients_for_simple_known_state() {
        // ELL(0,0) (= HLL semantics) with p = 2: registers are plain maxima.
        // Registers [3, 0, 1, 0]: α must count the tails ω(3), ω(0), ω(1),
        // ω(0); β gets one event at φ(3) = 3 and one at φ(1) = 1.
        let c = cfg(0, 0, 2);
        let coeffs = compute_coefficients(&c, [3u64, 0, 1, 0].into_iter());
        assert_eq!(coeffs.beta[3], 1);
        assert_eq!(coeffs.beta[1], 1);
        assert_eq!(coeffs.total_events(), 2);
        // ω(3) = 2^−3, ω(1) = 2^−1, ω(0) = 1 → α = 1/8 + 1 + 1/2 + 1.
        let want = 0.125 + 1.0 + 0.5 + 1.0;
        assert!((coeffs.alpha() - want).abs() < 1e-15);
    }

    #[test]
    fn estimate_scales_linearly_with_m() {
        // Duplicating every register (doubling m) must double the estimate.
        let c4 = cfg(1, 9, 2);
        let c8 = cfg(1, 9, 3);
        let regs4: Vec<u64> = vec![
            crate::registers::update(0, 4, 9),
            crate::registers::update(0, 2, 9),
            0,
            crate::registers::update(0, 7, 9),
        ];
        let mut regs8 = regs4.clone();
        regs8.extend_from_slice(&regs4);
        let co4 = compute_coefficients(&c4, regs4.into_iter());
        let co8 = compute_coefficients(&c8, regs8.into_iter());
        let e4 = ml_estimate_from_coefficients(&co4, 4.0);
        let e8 = ml_estimate_from_coefficients(&co8, 8.0);
        // p enters φ only through the 64−p cap, untouched at these values.
        assert!((e8 - 2.0 * e4).abs() < 1e-9 * e8, "{e4} vs {e8}");
    }

    #[test]
    fn newton_converges_quickly() {
        // The paper reports ≤ 10 iterations; our cap is 64. Spot-check
        // convergence by ensuring the result is a fixed point (residual ~0).
        let mut beta = [0u64; 65];
        for (u, b) in [(3usize, 50u64), (4, 80), (5, 60), (6, 30), (7, 10), (10, 1)] {
            beta[u] = b;
        }
        let alpha = 0.05;
        let m = 256.0;
        let n_hat = solve_ml_equation(alpha, &beta, m);
        let coeffs = MlCoefficients {
            alpha_times_2_64: (alpha * 2f64.powi(64)) as u128,
            beta,
        };
        // Derivative of ln L at n̂ should be ≈ 0: compare symmetric LLs.
        let eps = n_hat * 1e-6;
        let l_minus = log_likelihood(&coeffs, m, n_hat - eps);
        let l_plus = log_likelihood(&coeffs, m, n_hat + eps);
        let l_mid = log_likelihood(&coeffs, m, n_hat);
        assert!(l_mid >= l_minus && l_mid >= l_plus - 1e-10 * l_mid.abs());
    }
}
