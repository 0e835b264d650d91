//! Little-endian, length-prefixed framing shared by the `ELLK` and
//! `ELLW` snapshot formats: one writer for the common header prefix and
//! the `u32` length fields, one bounds-checked reader, and the checks
//! both readers run on every entry.

use exaloglog::{EllConfig, EllError};
use std::ops::RangeInclusive;

pub(crate) fn corrupt(reason: String) -> EllError {
    EllError::CorruptSerialization { reason }
}

/// Starts a snapshot: magic, version, then the `(t, d, p)` triple.
pub(crate) fn put_header(out: &mut Vec<u8>, magic: &[u8; 4], version: u8, cfg: &EllConfig) {
    out.extend_from_slice(magic);
    out.push(version);
    out.extend_from_slice(&[cfg.t(), cfg.d(), cfg.p()]);
}

/// Writes a length or count as a `u32` wire field.
pub(crate) fn put_u32(out: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("length exceeds the u32 wire field");
    out.extend_from_slice(&n.to_le_bytes());
}

/// Writes `bytes` behind its `u32` length prefix.
pub(crate) fn put_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Rejects a payload whose configuration differs from the header's;
/// `what` names the payload in the error.
pub(crate) fn same_config(
    got: &EllConfig,
    header: &EllConfig,
    what: impl FnOnce() -> String,
) -> Result<(), EllError> {
    if got == header {
        Ok(())
    } else {
        Err(corrupt(format!(
            "{}: configuration {got} does not match header {header}",
            what()
        )))
    }
}

/// Rejects a second entry for a key; `placed` is the placement's "the
/// key was new" answer.
pub(crate) fn placed_once(placed: bool, key: &str) -> Result<(), EllError> {
    if placed {
        Ok(())
    } else {
        Err(corrupt(format!("duplicate key {key:?}")))
    }
}

/// A bounds-checked cursor over snapshot bytes.
pub(crate) struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    /// Checks the fixed-size header's length, magic and version, and
    /// returns the version, the `(t, d, p)` configuration, and a reader
    /// positioned after them.
    pub(crate) fn open(
        bytes: &'b [u8],
        magic: &[u8; 4],
        header_len: usize,
        versions: RangeInclusive<u8>,
    ) -> Result<(u8, EllConfig, Self), EllError> {
        if bytes.len() < header_len {
            return Err(corrupt(format!(
                "{} bytes is shorter than the {} header",
                bytes.len(),
                String::from_utf8_lossy(magic)
            )));
        }
        if &bytes[..4] != magic {
            return Err(corrupt("bad magic".into()));
        }
        let version = bytes[4];
        if !versions.contains(&version) {
            return Err(corrupt(format!("unsupported snapshot version {version}")));
        }
        let cfg = EllConfig::new(bytes[5], bytes[6], bytes[7])?;
        Ok((version, cfg, Reader { bytes, pos: 8 }))
    }

    pub(crate) fn take(&mut self, len: usize) -> Result<&'b [u8], EllError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| corrupt("entry length overflows the snapshot".into()))?;
        if end > self.bytes.len() {
            return Err(corrupt(format!(
                "entry at offset {} runs past the end ({len} bytes needed)",
                self.pos
            )));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// A `u32` length or count field.
    pub(crate) fn u32(&mut self) -> Result<usize, EllError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")) as usize)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, EllError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A `u32` length prefix and the bytes behind it.
    pub(crate) fn prefixed(&mut self) -> Result<&'b [u8], EllError> {
        let len = self.u32()?;
        self.take(len)
    }

    /// Entry `i`'s length-prefixed UTF-8 key.
    pub(crate) fn key(&mut self, i: u64) -> Result<String, EllError> {
        core::str::from_utf8(self.prefixed()?)
            .map(str::to_string)
            .map_err(|e| corrupt(format!("entry {i}: key is not UTF-8: {e}")))
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails unless every byte has been read.
    pub(crate) fn finish(self) -> Result<(), EllError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} trailing bytes after the last entry"))),
        }
    }
}
