//! Densely packed arrays of fixed-width bit fields.
//!
//! Probabilistic sketches such as HyperLogLog and ExaLogLog store their state
//! in `m` registers of `w` bits each, packed back-to-back into a single byte
//! array so that the whole state can be serialized with a `memcpy` and merged
//! in place without allocations. This crate provides that storage substrate:
//!
//! * [`PackedArray`] — an array of `len` fields, each `width` bits wide
//!   (1 ≤ `width` ≤ 64), packed little-endian into a contiguous byte buffer
//!   of exactly `ceil(len * width / 8)` bytes.
//!
//! The bit layout is *little-endian within the buffer*: field `i` occupies
//! bits `[i*width, (i+1)*width)` of the buffer, where bit `b` of the buffer
//! is bit `b % 8` of byte `b / 8`. This layout means byte-aligned widths
//! (8, 16, 24, 32, …) degenerate to plain byte slices, and the serialized
//! form is identical on all platforms.
//!
//! # Width-specialized backends
//!
//! Because byte-aligned fields are plain byte slices under this layout,
//! [`PackedArray`] picks a storage *backend* at construction time: widths
//! 8, 16, 24, 32 and 64 read and write fields with direct one/two/three/
//! four/eight-byte little-endian loads and stores, while every other
//! width falls back to the generic shifted-window path. The backend is an
//! access strategy only — the byte buffer, and therefore the serialized
//! form, is bit-identical across backends (enforced by property tests),
//! and equality/hashing ignore it. [`PackedArray::new_generic`] forces
//! the fallback path so benchmarks and tests can compare both.
//!
//! # Bulk word accessors and kernels
//!
//! [`PackedArray::words`] exposes the buffer as a borrowed view of
//! zero-padded 64-bit little-endian words ([`kernels::WordView`]).
//! Sketch hot paths use it to skip whole runs of empty or identical
//! registers per comparison instead of per field — see
//! [`PackedArray::for_each_nonzero`]. The run classification itself is
//! performed by the runtime-dispatched scan kernels in [`kernels`]
//! (scalar reference, portable SWAR, AVX2), all property-tested
//! bit-identical.
//!
//! # Example
//!
//! ```
//! use ell_bitpack::PackedArray;
//!
//! // 4 registers of 28 bits each (the optimal ExaLogLog(2,20) width):
//! // two registers pack into exactly 7 bytes.
//! let mut regs = PackedArray::new(28, 4);
//! assert_eq!(regs.as_bytes().len(), 14);
//! regs.set(2, 0x0abc_def1);
//! assert_eq!(regs.get(2), 0x0abc_def1);
//! assert_eq!(regs.get(1), 0);
//! ```

// `deny` rather than `forbid`: the AVX2 intrinsics in `kernels::avx2`
// carry a scoped `#![allow(unsafe_code)]`; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

pub mod kernels;

use kernels::{Kernel, WordView, ZeroRuns};

/// Maximum supported field width in bits.
pub const MAX_WIDTH: u32 = 64;

/// An array of `len` fields of `width` bits each, packed into a byte buffer.
///
/// See the [crate-level documentation](crate) for the bit layout and the
/// width-specialized access backends.
pub struct PackedArray {
    bits: Vec<u8>,
    width: u32,
    len: usize,
    backend: Backend,
}

impl Clone for PackedArray {
    fn clone(&self) -> Self {
        PackedArray {
            bits: self.bits.clone(),
            width: self.width,
            len: self.len,
            backend: self.backend,
        }
    }

    /// Overwrites `self` in place, reusing its buffer allocation when the
    /// capacity suffices — the hot shape for scratch arrays that are
    /// repeatedly reset to a template state.
    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
        self.width = source.width;
        self.len = source.len;
        self.backend = source.backend;
    }
}

/// Two arrays are equal iff they hold the same fields at the same width;
/// the access backend (a pure performance choice) does not participate.
impl PartialEq for PackedArray {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.len == other.len && self.bits == other.bits
    }
}

impl Eq for PackedArray {}

impl core::hash::Hash for PackedArray {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.len.hash(state);
        self.bits.hash(state);
    }
}

/// Field-access strategy, chosen once at construction from the width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// Arbitrary widths: shifted 128-bit window reads/writes.
    Generic,
    /// width = 8: each field is one byte.
    W8,
    /// width = 16: two-byte little-endian fields.
    W16,
    /// width = 24: three-byte little-endian fields.
    W24,
    /// width = 32: four-byte little-endian fields.
    W32,
    /// width = 64: eight-byte little-endian fields.
    W64,
}

impl Backend {
    #[inline]
    fn for_width(width: u32) -> Backend {
        match width {
            8 => Backend::W8,
            16 => Backend::W16,
            24 => Backend::W24,
            32 => Backend::W32,
            64 => Backend::W64,
            _ => Backend::Generic,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Backend::Generic => "generic",
            Backend::W8 => "u8",
            Backend::W16 => "u16",
            Backend::W24 => "u24",
            Backend::W32 => "u32",
            Backend::W64 => "u64",
        }
    }
}

/// Errors returned when constructing a [`PackedArray`] from raw parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedArrayError {
    /// The requested width was 0 or exceeded [`MAX_WIDTH`].
    InvalidWidth {
        /// The offending width.
        width: u32,
    },
    /// The byte buffer length does not match `ceil(len * width / 8)`.
    LengthMismatch {
        /// Bytes expected from `(width, len)`.
        expected: usize,
        /// Bytes actually provided.
        actual: usize,
    },
    /// Unused trailing bits in the last byte were not zero.
    NonZeroPadding,
}

impl fmt::Display for PackedArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackedArrayError::InvalidWidth { width } => {
                write!(f, "field width {width} out of range 1..={MAX_WIDTH}")
            }
            PackedArrayError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer holds {actual} bytes but layout requires {expected}"
                )
            }
            PackedArrayError::NonZeroPadding => {
                write!(f, "unused trailing bits of the last byte must be zero")
            }
        }
    }
}

impl std::error::Error for PackedArrayError {}

/// Number of bytes needed for `len` fields of `width` bits.
#[inline]
pub const fn bytes_for(width: u32, len: usize) -> usize {
    (len * width as usize).div_ceil(8)
}

impl PackedArray {
    /// Creates a zero-initialized array of `len` fields of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than [`MAX_WIDTH`].
    #[must_use]
    pub fn new(width: u32, len: usize) -> Self {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "field width {width} out of range 1..={MAX_WIDTH}"
        );
        PackedArray {
            bits: vec![0u8; bytes_for(width, len)],
            width,
            len,
            backend: Backend::for_width(width),
        }
    }

    /// Creates a zero-initialized array that is pinned to the generic
    /// shifted-window access path even when the width is byte-aligned.
    ///
    /// The stored bytes — and therefore serialization, equality and
    /// hashing — are identical to [`PackedArray::new`]; only the access
    /// strategy differs. This exists so benchmarks can measure the
    /// specialized backends against the generic path and so property
    /// tests can prove the two bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than [`MAX_WIDTH`].
    #[must_use]
    pub fn new_generic(width: u32, len: usize) -> Self {
        let mut a = Self::new(width, len);
        a.backend = Backend::Generic;
        a
    }

    /// Pins this array to the generic access path (see
    /// [`PackedArray::new_generic`]). The contents are unchanged.
    pub fn force_generic(&mut self) {
        self.backend = Backend::Generic;
    }

    /// The name of the active access backend (`"u8"`, `"u16"`, `"u24"`,
    /// `"u32"`, `"u64"`, or `"generic"`), for diagnostics and benchmark
    /// reports.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Reconstructs an array from its serialized byte form.
    ///
    /// The buffer must be exactly `ceil(len * width / 8)` bytes and any
    /// unused high bits of the final byte must be zero (as produced by
    /// [`PackedArray::as_bytes`]); otherwise an error is returned. This
    /// strictness turns many accidental corruptions into hard errors.
    pub fn from_bytes(width: u32, len: usize, bytes: &[u8]) -> Result<Self, PackedArrayError> {
        if width == 0 || width > MAX_WIDTH {
            return Err(PackedArrayError::InvalidWidth { width });
        }
        // Checked layout computation: an attacker-controlled `len` (e.g. a
        // corrupted length field in a serialized sketch) must surface as a
        // LengthMismatch, not an arithmetic overflow.
        let expected = match len.checked_mul(width as usize).map(|bits| bits.div_ceil(8)) {
            Some(expected) => expected,
            None => {
                return Err(PackedArrayError::LengthMismatch {
                    expected: usize::MAX,
                    actual: bytes.len(),
                })
            }
        };
        if bytes.len() != expected {
            return Err(PackedArrayError::LengthMismatch {
                expected,
                actual: bytes.len(),
            });
        }
        let used_bits = len * width as usize;
        let trailing = expected * 8 - used_bits;
        if trailing > 0 {
            let last = bytes[expected - 1];
            if last >> (8 - trailing) != 0 {
                return Err(PackedArrayError::NonZeroPadding);
            }
        }
        Ok(PackedArray {
            bits: bytes.to_vec(),
            width,
            len,
            backend: Backend::for_width(width),
        })
    }

    /// Field width in bits.
    #[inline]
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of fields.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array holds zero fields.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing byte buffer; also the canonical serialized form.
    #[inline]
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Mask with the low `width` bits set.
    #[inline]
    #[must_use]
    pub fn value_mask(&self) -> u64 {
        mask(self.width)
    }

    /// Reads field `i` through the width-specialized backend (direct
    /// byte-aligned loads for widths 8/16/24/32/64, the generic shifted
    /// window otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match self.backend {
            Backend::W8 => u64::from(self.bits[i]),
            Backend::W16 => le_field::<2>(&self.bits[2 * i..]),
            Backend::W24 => le_field::<3>(&self.bits[3 * i..]),
            Backend::W32 => le_field::<4>(&self.bits[4 * i..]),
            Backend::W64 => le_field::<8>(&self.bits[8 * i..]),
            Backend::Generic => self.get_generic(i),
        }
    }

    #[inline]
    fn get_generic(&self, i: usize) -> u64 {
        let bit = i * self.width as usize;
        let byte = bit >> 3;
        let shift = (bit & 7) as u32;
        // Fields of at most 57 bits fit one 8-byte load at any bit
        // offset within the first byte.
        if self.width <= 57 {
            if let Some(chunk) = self.bits.get(byte..byte + 8) {
                let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                return (word >> shift) & mask(self.width);
            }
        }
        // A field of up to 64 bits starting at an arbitrary bit offset spans
        // at most 9 bytes; a 16-byte little-endian window covers it. The
        // window is clipped at the buffer end (missing bytes read as zero,
        // which is correct because those bits are past the last field).
        let window = self.window16(byte);
        ((window >> shift) as u64) & mask(self.width)
    }

    /// Writes field `i` through the width-specialized backend.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` or if `value` does not fit in `width` bits.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        assert!(
            value <= mask(self.width),
            "value {value:#x} does not fit in {} bits",
            self.width
        );
        match self.backend {
            Backend::W8 => self.bits[i] = value as u8,
            Backend::W16 => {
                self.bits[2 * i..2 * i + 2].copy_from_slice(&(value as u16).to_le_bytes());
            }
            Backend::W24 => {
                self.bits[3 * i..3 * i + 3].copy_from_slice(&(value as u32).to_le_bytes()[..3]);
            }
            Backend::W32 => {
                self.bits[4 * i..4 * i + 4].copy_from_slice(&(value as u32).to_le_bytes());
            }
            Backend::W64 => {
                self.bits[8 * i..8 * i + 8].copy_from_slice(&value.to_le_bytes());
            }
            Backend::Generic => self.set_generic(i, value),
        }
    }

    #[inline]
    fn set_generic(&mut self, i: usize, value: u64) {
        let bit = i * self.width as usize;
        let byte = bit >> 3;
        let shift = (bit & 7) as u32;
        let end = (self.bits.len()).min(byte + 16);
        let span = end - byte;
        let mut window = [0u8; 16];
        window[..span].copy_from_slice(&self.bits[byte..end]);
        let mut w = u128::from_le_bytes(window);
        w &= !((mask(self.width) as u128) << shift);
        w |= (value as u128) << shift;
        let out = w.to_le_bytes();
        self.bits[byte..end].copy_from_slice(&out[..span]);
    }

    /// Iterates over all field values in index order.
    ///
    /// The returned iterator dispatches on the backend once: byte-aligned
    /// widths stream the buffer in fixed-size chunks instead of paying a
    /// bounds check and window read per field.
    pub fn iter(&self) -> PackedIter<'_> {
        PackedIter(match self.backend {
            Backend::W8 => PackedIterInner::W8(self.bits.iter()),
            Backend::W16 => PackedIterInner::W16(self.bits.chunks_exact(2)),
            Backend::W24 => PackedIterInner::W24(self.bits.chunks_exact(3)),
            Backend::W32 => PackedIterInner::W32(self.bits.chunks_exact(4)),
            Backend::W64 => PackedIterInner::W64(self.bits.chunks_exact(8)),
            Backend::Generic => PackedIterInner::Generic { arr: self, next: 0 },
        })
    }

    /// Resets every field to zero without reallocating.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Returns true if every field is zero, scanning 32 bytes per step
    /// through the active word kernel (see [`kernels::active`]).
    #[must_use]
    pub fn is_all_zero(&self) -> bool {
        kernels::is_all_zero(&self.bits, kernels::active())
    }

    /// Number of 64-bit words covering the buffer (the last word is
    /// zero-padded). This is the granularity of the bulk scans below.
    #[inline]
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.bits.len().div_ceil(8)
    }

    /// Borrowed view of the buffer as zero-padded 64-bit little-endian
    /// words — the input shape of the scan kernels in [`kernels`]. Each
    /// access is one bounds check plus an unaligned load, replacing the
    /// historical per-call byte-copy of [`PackedArray::word`].
    #[inline]
    #[must_use]
    pub fn words(&self) -> WordView<'_> {
        WordView::new(&self.bits)
    }

    /// Reads the `w`-th 64-bit little-endian word of the buffer. Bytes
    /// past the end of the buffer read as zero, so the final word of a
    /// non-multiple-of-8 buffer is zero-padded — two arrays with equal
    /// contents always compare word-equal.
    ///
    /// # Panics
    ///
    /// Panics if `w >= word_count()`.
    #[inline]
    #[must_use]
    pub fn word(&self, w: usize) -> u64 {
        self.words().word(w)
    }

    /// Calls `visit(i, value)` for every nonzero field, in index order,
    /// using the active scan kernel (see [`kernels::active`]).
    pub fn for_each_nonzero(&self, visit: impl FnMut(usize, u64)) {
        self.for_each_nonzero_with(kernels::active(), visit);
    }

    /// [`PackedArray::for_each_nonzero`] under an explicit [`Kernel`], so
    /// benchmarks and property tests can compare kernels in one process.
    ///
    /// Widths dividing 64 never straddle a word boundary, so nonzero
    /// words decode by mask-and-`trailing_zeros` lane extraction and runs
    /// of empty fields cost one block comparison. Other widths classify
    /// zero/nonzero word runs through the kernel and decode fields
    /// straddling a run boundary individually (their other word may carry
    /// bits), so the visit set is exact for every width.
    pub fn for_each_nonzero_with(&self, kernel: Kernel, mut visit: impl FnMut(usize, u64)) {
        let width = self.width as usize;
        let view = self.words();
        if self.width <= 32 && 64 % width == 0 {
            // Lane-extraction path: fields are word-aligned lanes.
            let lanes_per_word = 64 / width;
            for run in ZeroRuns::new(view, kernel) {
                if run.zero {
                    continue;
                }
                for w in run.start..run.end {
                    let base = w * lanes_per_word;
                    kernels::for_each_nonzero_lane(view.word(w), self.width, |lane, v| {
                        debug_assert!(base + lane < self.len, "nonzero padding lane");
                        visit(base + lane, v);
                    });
                }
            }
            return;
        }
        if self.width == 64 {
            for run in ZeroRuns::new(view, kernel) {
                if run.zero {
                    continue;
                }
                for w in run.start..run.end {
                    let v = view.word(w);
                    if v != 0 {
                        visit(w, v);
                    }
                }
            }
            return;
        }
        // Generic path: fields may straddle word boundaries. `next` is
        // the first field index not yet classified by the run scan.
        let mut next = 0usize;
        for run in ZeroRuns::new(view, kernel) {
            let start_bit = run.start * 64;
            let end_bit = run.end * 64;
            if run.zero {
                // Skip fields lying fully inside [start_bit, end_bit);
                // fields straddling into the run from the left are decoded
                // here, ones straddling out of it by the next run.
                let lo = start_bit.div_ceil(width).min(self.len);
                for i in next..lo {
                    let v = self.get(i);
                    if v != 0 {
                        visit(i, v);
                    }
                }
                next = next.max(lo).max((end_bit / width).min(self.len));
            } else {
                // Decode every field starting before end_bit.
                let hi = end_bit.div_ceil(width).min(self.len);
                for i in next..hi {
                    let v = self.get(i);
                    if v != 0 {
                        visit(i, v);
                    }
                }
                next = next.max(hi);
            }
        }
        for i in next..self.len {
            let v = self.get(i);
            if v != 0 {
                visit(i, v);
            }
        }
    }

    #[inline]
    fn window16(&self, byte: usize) -> u128 {
        let end = self.bits.len().min(byte + 16);
        let span = end - byte;
        if span == 16 {
            // Common case: full window available.
            let mut window = [0u8; 16];
            window.copy_from_slice(&self.bits[byte..end]);
            u128::from_le_bytes(window)
        } else {
            let mut window = [0u8; 16];
            window[..span].copy_from_slice(&self.bits[byte..end]);
            u128::from_le_bytes(window)
        }
    }
}

impl fmt::Debug for PackedArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedArray(width={}, len={}, [", self.width, self.len)?;
        for (i, v) in self.iter().enumerate().take(16) {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:#x}")?;
        }
        if self.len > 16 {
            write!(f, ", …")?;
        }
        write!(f, "])")
    }
}

/// Iterator over the field values of a [`PackedArray`]
/// (see [`PackedArray::iter`]).
///
/// Internally one variant per storage backend, chosen once when the
/// iterator is created, so byte-aligned widths decode fields from plain
/// slice chunks with no per-item dispatch beyond a predictable match.
/// The representation is deliberately opaque: the backend set is an
/// implementation detail, not API surface.
#[derive(Debug, Clone)]
pub struct PackedIter<'a>(PackedIterInner<'a>);

#[derive(Debug, Clone)]
enum PackedIterInner<'a> {
    /// 8-bit fields: one byte each.
    W8(core::slice::Iter<'a, u8>),
    /// 16-bit fields: two-byte little-endian chunks.
    W16(core::slice::ChunksExact<'a, u8>),
    /// 24-bit fields: three-byte little-endian chunks.
    W24(core::slice::ChunksExact<'a, u8>),
    /// 32-bit fields: four-byte little-endian chunks.
    W32(core::slice::ChunksExact<'a, u8>),
    /// 64-bit fields: eight-byte little-endian chunks.
    W64(core::slice::ChunksExact<'a, u8>),
    /// Any other width: indexed reads through the generic window path.
    Generic { arr: &'a PackedArray, next: usize },
}

/// Decodes the `N`-byte little-endian field at the start of `bytes`
/// (the byte-aligned backends: `N` ∈ {2, 3, 4, 8}).
#[inline(always)]
fn le_field<const N: usize>(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..N].copy_from_slice(&bytes[..N]);
    u64::from_le_bytes(buf)
}

impl Iterator for PackedIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        match &mut self.0 {
            PackedIterInner::W8(it) => it.next().map(|&b| u64::from(b)),
            PackedIterInner::W16(it) => it.next().map(le_field::<2>),
            PackedIterInner::W24(it) => it.next().map(le_field::<3>),
            PackedIterInner::W32(it) => it.next().map(le_field::<4>),
            PackedIterInner::W64(it) => it.next().map(le_field::<8>),
            PackedIterInner::Generic { arr, next } => {
                if *next < arr.len {
                    let v = arr.get_generic(*next);
                    *next += 1;
                    Some(v)
                } else {
                    None
                }
            }
        }
    }

    /// Internal iteration (`for_each`, `sum`, …) decides the backend
    /// once and then runs one tight loop, instead of re-dispatching on
    /// every `next`.
    #[inline]
    fn fold<B, F: FnMut(B, u64) -> B>(self, init: B, f: F) -> B {
        match self.0 {
            PackedIterInner::W8(it) => it.map(|&b| u64::from(b)).fold(init, f),
            PackedIterInner::W16(it) => it.map(le_field::<2>).fold(init, f),
            PackedIterInner::W24(it) => it.map(le_field::<3>).fold(init, f),
            PackedIterInner::W32(it) => it.map(le_field::<4>).fold(init, f),
            PackedIterInner::W64(it) => it.map(le_field::<8>).fold(init, f),
            PackedIterInner::Generic { arr, next } => {
                (next..arr.len).map(|i| arr.get_generic(i)).fold(init, f)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            PackedIterInner::W8(it) => it.len(),
            PackedIterInner::W16(it)
            | PackedIterInner::W24(it)
            | PackedIterInner::W32(it)
            | PackedIterInner::W64(it) => it.len(),
            PackedIterInner::Generic { arr, next } => arr.len - next,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for PackedIter<'_> {}

/// Mask with the low `width` bits set (`width` ≤ 64).
#[inline]
#[must_use]
pub const fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let a = PackedArray::new(6, 100);
        assert_eq!(a.len(), 100);
        assert_eq!(a.width(), 6);
        assert_eq!(a.as_bytes().len(), 75); // 600 bits
        assert!(a.iter().all(|v| v == 0));
        assert!(a.is_all_zero());
    }

    #[test]
    fn bytes_for_matches_manual() {
        assert_eq!(bytes_for(6, 4), 3);
        assert_eq!(bytes_for(28, 2), 7);
        assert_eq!(bytes_for(28, 4), 14);
        assert_eq!(bytes_for(1, 9), 2);
        assert_eq!(bytes_for(64, 3), 24);
        assert_eq!(bytes_for(8, 0), 0);
    }

    #[test]
    fn set_get_roundtrip_all_widths() {
        for width in 1..=64u32 {
            let len = 37;
            let mut a = PackedArray::new(width, len);
            let m = mask(width);
            // A pattern that differs per index and exercises high bits.
            for i in 0..len {
                let v = (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)) & m;
                a.set(i, v);
            }
            for i in 0..len {
                let v = (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)) & m;
                assert_eq!(a.get(i), v, "width={width} i={i}");
            }
        }
    }

    #[test]
    fn neighbours_unaffected() {
        for width in [3u32, 5, 7, 11, 13, 28, 31, 33, 63] {
            let mut a = PackedArray::new(width, 9);
            let m = mask(width);
            for i in 0..9 {
                a.set(i, m); // all ones
            }
            a.set(4, 0);
            for i in 0..9 {
                let expect = if i == 4 { 0 } else { m };
                assert_eq!(a.get(i), expect, "width={width} i={i}");
            }
        }
    }

    #[test]
    fn last_field_at_buffer_end() {
        // Width chosen so the final field ends exactly at the buffer edge
        // and also so it does not (padding case).
        let mut a = PackedArray::new(28, 2); // exactly 7 bytes
        a.set(1, mask(28));
        assert_eq!(a.get(1), mask(28));
        let mut b = PackedArray::new(28, 3); // 84 bits -> 11 bytes, 4 bits padding
        b.set(2, mask(28));
        assert_eq!(b.get(2), mask(28));
        assert_eq!(b.as_bytes().len(), 11);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let a = PackedArray::new(6, 4);
        let _ = a.get(4);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn set_too_large_panics() {
        let mut a = PackedArray::new(6, 4);
        a.set(0, 64);
    }

    #[test]
    fn from_bytes_roundtrip() {
        let mut a = PackedArray::new(14, 5);
        for i in 0..5 {
            a.set(i, (i as u64 * 1234) & mask(14));
        }
        let b = PackedArray::from_bytes(14, 5, a.as_bytes()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_bytes_rejects_bad_length() {
        let err = PackedArray::from_bytes(14, 5, &[0u8; 8]).unwrap_err();
        assert_eq!(
            err,
            PackedArrayError::LengthMismatch {
                expected: 9,
                actual: 8
            }
        );
    }

    #[test]
    fn from_bytes_rejects_nonzero_padding() {
        // 5 fields of 14 bits = 70 bits = 9 bytes with 2 padding bits.
        let mut bytes = [0u8; 9];
        bytes[8] = 0b1100_0000; // high padding bits set
        let err = PackedArray::from_bytes(14, 5, &bytes).unwrap_err();
        assert_eq!(err, PackedArrayError::NonZeroPadding);
        bytes[8] = 0b0011_1111; // all value bits set, padding clear
        assert!(PackedArray::from_bytes(14, 5, &bytes).is_ok());
    }

    #[test]
    fn from_bytes_rejects_bad_width() {
        assert_eq!(
            PackedArray::from_bytes(0, 5, &[]).unwrap_err(),
            PackedArrayError::InvalidWidth { width: 0 }
        );
        assert_eq!(
            PackedArray::from_bytes(65, 5, &[]).unwrap_err(),
            PackedArrayError::InvalidWidth { width: 65 }
        );
    }

    #[test]
    fn clear_resets() {
        let mut a = PackedArray::new(9, 20);
        for i in 0..20 {
            a.set(i, 0x1ff);
        }
        a.clear();
        assert!(a.is_all_zero());
        assert!(a.iter().all(|v| v == 0));
    }

    #[test]
    fn little_endian_layout_is_stable() {
        // Pin the serialized layout: field 0 occupies the lowest bits of
        // byte 0. This is the on-disk format; changing it breaks
        // serialization compatibility.
        let mut a = PackedArray::new(6, 4);
        a.set(0, 0b101011);
        a.set(1, 0b000001);
        // bits: [101011][000001] -> byte0 = 01_101011, byte1 = 0000_0000...
        assert_eq!(a.as_bytes()[0], 0b0110_1011);
        assert_eq!(a.as_bytes()[1], 0b0000_0000);
        a.set(2, 0b111111);
        // field 2 occupies bits 12..18: byte1 bits 4..8 and byte2 bits 0..2
        assert_eq!(a.as_bytes()[1], 0b1111_0000);
        assert_eq!(a.as_bytes()[2], 0b0000_0011);
    }

    #[test]
    fn width_64_full_range() {
        let mut a = PackedArray::new(64, 3);
        a.set(0, u64::MAX);
        a.set(1, 0x0123_4567_89ab_cdef);
        a.set(2, 1);
        assert_eq!(a.get(0), u64::MAX);
        assert_eq!(a.get(1), 0x0123_4567_89ab_cdef);
        assert_eq!(a.get(2), 1);
    }

    #[test]
    fn empty_array() {
        let a = PackedArray::new(17, 0);
        assert!(a.is_empty());
        assert_eq!(a.as_bytes().len(), 0);
        assert_eq!(a.iter().count(), 0);
        let b = PackedArray::from_bytes(17, 0, &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn backend_selection() {
        assert_eq!(PackedArray::new(8, 4).backend_name(), "u8");
        assert_eq!(PackedArray::new(16, 4).backend_name(), "u16");
        assert_eq!(PackedArray::new(24, 4).backend_name(), "u24");
        assert_eq!(PackedArray::new(32, 4).backend_name(), "u32");
        assert_eq!(PackedArray::new(64, 4).backend_name(), "u64");
        assert_eq!(PackedArray::new(28, 4).backend_name(), "generic");
        assert_eq!(PackedArray::new_generic(32, 4).backend_name(), "generic");
        let mut a = PackedArray::new(16, 4);
        a.force_generic();
        assert_eq!(a.backend_name(), "generic");
    }

    #[test]
    fn specialized_and_generic_agree() {
        for width in [8u32, 16, 24, 32, 64] {
            let len = 23;
            let mut spec = PackedArray::new(width, len);
            let mut gen = PackedArray::new_generic(width, len);
            let m = mask(width);
            for i in 0..len {
                let v = (0x9e37_79b9_7f4a_7c15u64).wrapping_mul(i as u64 + 3) & m;
                spec.set(i, v);
                gen.set(i, v);
            }
            assert_eq!(spec, gen, "width {width}");
            assert_eq!(spec.as_bytes(), gen.as_bytes(), "width {width}");
            for i in 0..len {
                assert_eq!(spec.get(i), gen.get(i), "width {width} i={i}");
            }
            let via_spec: Vec<u64> = spec.iter().collect();
            let via_gen: Vec<u64> = gen.iter().collect();
            assert_eq!(via_spec, via_gen, "width {width}");
        }
    }

    #[test]
    fn equality_ignores_backend() {
        let mut spec = PackedArray::new(32, 5);
        let mut gen = PackedArray::new_generic(32, 5);
        spec.set(3, 0xdead_beef);
        gen.set(3, 0xdead_beef);
        assert_eq!(spec, gen);
        use core::hash::{Hash, Hasher};
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        spec.hash(&mut h1);
        gen.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn word_accessors_cover_buffer() {
        let mut a = PackedArray::new(28, 5); // 140 bits -> 18 bytes -> 3 words
        assert_eq!(a.word_count(), 3);
        a.set(0, mask(28));
        assert_eq!(
            a.word(0) & u64::from(u32::MAX) >> 4,
            u64::from(u32::MAX) >> 4
        );
        // Padded final word matches the raw bytes.
        let mut buf = [0u8; 8];
        buf[..2].copy_from_slice(&a.as_bytes()[16..18]);
        assert_eq!(a.word(2), u64::from_le_bytes(buf));
    }

    #[test]
    fn for_each_nonzero_is_exact() {
        for width in [3u32, 8, 13, 16, 24, 28, 32, 57, 64] {
            let len = 50;
            let mut a = PackedArray::new(width, len);
            let m = mask(width);
            // Sparse pattern with values straddling word boundaries.
            for &i in &[0usize, 7, 8, 21, 22, 49] {
                a.set(i, (0x5bd1_e995u64.wrapping_mul(i as u64 + 1)) & m);
            }
            let mut seen = Vec::new();
            a.for_each_nonzero(|i, v| seen.push((i, v)));
            let want: Vec<(usize, u64)> = (0..len)
                .map(|i| (i, a.get(i)))
                .filter(|&(_, v)| v != 0)
                .collect();
            assert_eq!(seen, want, "width {width}");
        }
        // All-zero array visits nothing.
        let z = PackedArray::new(28, 100);
        z.for_each_nonzero(|_, _| panic!("no fields should be visited"));
    }
}
