//! The `ELLK` whole-store snapshot format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "ELLK"            magic (4 bytes)
//! version           u8, currently 1
//! t, d, p           u8 × 3 — the per-key sketch configuration
//! v                 u8 — token parameter for new keys
//! shards            u32 — shard count (power of two)
//! entry count       u64
//! entries, sorted by key:
//!   key length      u32, then the UTF-8 key bytes
//!   sketch length   u32, then the sketch payload — the existing
//!                   per-sketch wire formats (`ELLS` sparse / `ELL1`
//!                   dense / `ELLZ` range-coded), self-describing and
//!                   config-validated
//! ```
//!
//! Entries are written in key order; resident slots serialize in their
//! canonical form, while warm/cold slots embed their compressed `ELLZ`
//! payload verbatim (no dense round trip — and restore places those
//! entries back as warm slots, so re-snapshotting a tiered store
//! reuses the identical bytes). Payloads are self-describing by magic,
//! so no version bump is needed for the compressed form.

use crate::frame::{corrupt, placed_once, put_header, put_prefixed, put_u32, same_config, Reader};
use crate::store::EllStore;
use exaloglog::adaptive::AdaptiveExaLogLog;
use exaloglog::compress::decompress;
use exaloglog::EllError;

const MAGIC: &[u8; 4] = b"ELLK";
const VERSION: u8 = 1;
/// magic + version + (t, d, p) + v + shards + entry count.
const HEADER_LEN: usize = 4 + 1 + 3 + 1 + 4 + 8;
/// Plausibility bound on the header-declared shard count: restore
/// allocates the shard table before reading payloads, so a crafted
/// header must not force a huge allocation out of a tiny snapshot.
const MAX_WIRE_SHARDS: usize = 1 << 16;

impl EllStore {
    /// Serializes the whole store in the `ELLK` container format.
    ///
    /// The snapshot is a point-in-time copy taken shard by shard; for a
    /// transactionally consistent image, quiesce ingest first (entries
    /// ingested concurrently may or may not be included).
    #[must_use]
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let entries = self.snapshot_payloads();
        let mut out = Vec::with_capacity(HEADER_LEN + entries.len() * 64);
        put_header(&mut out, MAGIC, VERSION, self.config());
        out.push(self.token_parameter() as u8); // cast: v ≤ 58 by construction (checked in with_token_parameter)
        put_u32(&mut out, self.shard_count());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (key, payload) in &entries {
            put_prefixed(&mut out, key.as_bytes());
            put_prefixed(&mut out, payload);
        }
        out
    }

    /// Restores a store from [`EllStore::snapshot_bytes`] output,
    /// validating the header, every entry payload, and the consistency
    /// of each sketch's configuration with the header.
    ///
    /// Hot-path eligibility is re-derived from the restored states, so a
    /// restored store serves (and re-snapshots) exactly like the
    /// original.
    ///
    /// # Errors
    ///
    /// Fails on any structural defect of the snapshot bytes.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, EllError> {
        let (_, cfg, mut r) = Reader::open(bytes, MAGIC, HEADER_LEN, VERSION..=VERSION)?;
        let v = u32::from(r.take(1)?[0]);
        let shards = r.u32()?;
        let entry_count = r.u64()?;
        if shards > MAX_WIRE_SHARDS {
            return Err(corrupt(format!(
                "implausible shard count {shards} (limit {MAX_WIRE_SHARDS})"
            )));
        }
        let store = EllStore::with_token_parameter(shards, cfg, v)?;
        for i in 0..entry_count {
            let key = r.key(i)?;
            let payload = r.prefixed()?;
            let what = || format!("entry {i} ({key:?})");
            let placed = if payload.starts_with(b"ELLZ") {
                // A warm entry: validate it decompresses to the header
                // configuration, then keep the compressed payload as a
                // warm slot — a re-snapshot reuses it verbatim.
                let dense = decompress(payload).map_err(|e| corrupt(format!("{}: {e}", what())))?;
                same_config(dense.config(), &cfg, what)?;
                store.place_warm(key.clone(), payload.to_vec())
            } else {
                let sketch = AdaptiveExaLogLog::from_bytes(payload)
                    .map_err(|e| corrupt(format!("{}: {e}", what())))?;
                same_config(sketch.config(), &cfg, what)?;
                store.place(key.clone(), sketch)
            };
            placed_once(placed, &key)?;
        }
        r.finish()?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;
    use exaloglog::EllConfig;

    fn populated() -> EllStore {
        let store = EllStore::new(4, EllConfig::new(2, 16, 6).unwrap()).unwrap();
        let mut rng = SplitMix64::new(11);
        for i in 0..40u64 {
            let key = format!("key-{}", i % 5);
            store.insert(&key, rng.next_u64());
        }
        // One hot key past break-even.
        let batch: Vec<(&str, u64)> = (0..40_000).map(|_| ("hot", rng.next_u64())).collect();
        store.ingest(&batch);
        store
    }

    #[test]
    fn roundtrip_reproduces_every_estimate_bitwise() {
        let store = populated();
        let bytes = store.snapshot_bytes();
        let restored = EllStore::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.key_count(), store.key_count());
        assert_eq!(restored.shard_count(), store.shard_count());
        assert_eq!(restored.token_parameter(), store.token_parameter());
        for ((ka, ea), (kb, eb)) in store.estimates().iter().zip(restored.estimates().iter()) {
            assert_eq!(ka, kb);
            assert_eq!(
                ea.to_bits(),
                eb.to_bits(),
                "{ka}: estimate not bit-identical"
            );
        }
        // Re-snapshot is byte-identical (canonical form).
        assert_eq!(restored.snapshot_bytes(), bytes);
        // Hot-path eligibility is re-derived.
        assert_eq!(restored.is_hot("hot"), Some(true));
    }

    #[test]
    fn snapshot_while_warm_restores_warm_and_resnapshots_identically() {
        let mut store = EllStore::new(4, EllConfig::new(2, 16, 6).unwrap()).unwrap();
        store.set_tier_config(crate::TierConfig::new().warm_after(1));
        let mut rng = SplitMix64::new(12);
        let batch: Vec<(&str, u64)> = (0..30_000).map(|_| ("idle", rng.next_u64())).collect();
        store.ingest(&batch);
        store.insert("busy", 77);
        store.tick();
        store.insert("busy", 78);
        store.demote_idle();
        assert_eq!(store.key_tier("idle"), Some(crate::Tier::Warm));

        let bytes = store.snapshot_bytes();
        // Snapshotting reused the compressed payload without promoting.
        assert_eq!(store.key_tier("idle"), Some(crate::Tier::Warm));
        let restored = EllStore::from_snapshot_bytes(&bytes).unwrap();
        // The compressed entry came back as a warm slot…
        assert_eq!(restored.key_tier("idle"), Some(crate::Tier::Warm));
        // …so the re-snapshot is byte-identical without any re-encode.
        assert_eq!(restored.snapshot_bytes(), bytes);
        // And the estimates still match a fully promoted twin bitwise.
        assert_eq!(
            restored.estimate("idle").unwrap().to_bits(),
            store.estimate("idle").unwrap().to_bits()
        );
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = EllStore::new(16, EllConfig::optimal(8).unwrap()).unwrap();
        let restored = EllStore::from_snapshot_bytes(&store.snapshot_bytes()).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.config(), store.config());
        assert_eq!(restored.shard_count(), 16);
    }

    #[test]
    fn corruption_is_rejected() {
        let store = populated();
        let bytes = store.snapshot_bytes();
        assert!(EllStore::from_snapshot_bytes(&bytes[..3]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xff; // magic
        assert!(EllStore::from_snapshot_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] = 9; // version
        assert!(EllStore::from_snapshot_bytes(&bad).is_err());
        // Truncated mid-entry.
        assert!(EllStore::from_snapshot_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.extend_from_slice(&[0, 1, 2]);
        assert!(EllStore::from_snapshot_bytes(&bad).is_err());
        // An implausible shard count must be rejected before the shard
        // table is allocated.
        let mut bad = bytes;
        bad[9..13].copy_from_slice(&0x8000_0000u32.to_le_bytes());
        assert!(EllStore::from_snapshot_bytes(&bad).is_err());
    }
}
