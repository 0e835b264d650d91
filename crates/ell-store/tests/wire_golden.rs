//! Golden-bytes pins for the `ELLK` and `ELLW` snapshot formats.
//!
//! Each test builds a tiny store deterministically, snapshots it, and
//! compares the bytes against hex captured from the format as shipped.
//! A refactor of the snapshot writers (or the stores underneath them)
//! must leave every byte of both formats unchanged; the restore leg
//! checks the readers accept the pinned bytes and re-emit them
//! verbatim.

use ell_store::{EllStore, Tier, TierConfig, WindowedStore};
use exaloglog::EllConfig;

fn tiny_cfg() -> EllConfig {
    EllConfig::new(2, 16, 2).expect("valid config")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A flat store with a sparse key, a dense key, and a warm key (whose
/// `ELLZ` payload travels verbatim).
fn golden_flat_store() -> EllStore {
    let mut store = EllStore::new(2, tiny_cfg()).expect("store");
    store.set_tier_config(TierConfig::new().warm_after(1));
    store.insert("idle", 0x0123_4567_89AB_CDEF);
    for i in 0..40u64 {
        store.insert("idle", ell_hash::mix64(i));
    }
    store.tick();
    store.demote_idle();
    store.insert("sparse", 0xDEAD_BEEF_CAFE_F00D);
    for i in 100..140u64 {
        store.insert("dense", ell_hash::mix64(i));
    }
    store
}

/// A windowed store with one live key and one warm key.
fn golden_window_store() -> WindowedStore {
    let mut store = WindowedStore::new(2, tiny_cfg(), 2).expect("store");
    store.set_warm_after(Some(1));
    store.ingest(
        0,
        &[("idle", ell_hash::mix64(1)), ("idle", ell_hash::mix64(2))],
    );
    store.ingest(1, &[("idle", ell_hash::mix64(3))]);
    store.ingest(2, &[("busy", ell_hash::mix64(4))]);
    store.demote_idle();
    store
}

const ELLK_GOLDEN: &str = concat!(
    "454c4c4b010210021a0200000003000000000000000500000064656e73651300",
    "0000454c4c31021002642a0e80001c8a4b0f1d48100400000069646c65210000",
    "00454c4c5a02100200fead450b54454640000000000000000099e024ac8f63f2",
    "fb7b060000007370617273651a000000454c4c530210021a00454c4c541a0100",
    "0000000000004003bcbf",
);

const ELLW_GOLDEN: &str = concat!(
    "454c4c5702021002020000000200000002000000000000000200000000000000",
    "0400000062757379000000000013000000454c4c310210020000000080010000",
    "00000000000000000400000069646c650116000000454c4c5a0210020018d430",
    "f93263004000834406cc4401000000010000000000000016000000454c4c5a02",
    "100200358b58590508f03f000783087945",
);

#[test]
fn ellk_snapshot_bytes_are_pinned() {
    let store = golden_flat_store();
    assert_eq!(store.key_tier("idle"), Some(Tier::Warm));
    let bytes = store.snapshot_bytes();
    assert_eq!(hex(&bytes), ELLK_GOLDEN);
    let restored = EllStore::from_snapshot_bytes(&bytes).expect("golden ELLK restores");
    assert_eq!(restored.key_tier("idle"), Some(Tier::Warm));
    assert_eq!(restored.snapshot_bytes(), bytes);
}

#[test]
fn ellw_snapshot_bytes_are_pinned() {
    let store = golden_window_store();
    let stats = store.tier_stats();
    assert_eq!((stats.hot_keys, stats.warm_keys), (1, 1));
    let bytes = store.snapshot_bytes();
    assert_eq!(hex(&bytes), ELLW_GOLDEN);
    let restored = WindowedStore::from_snapshot_bytes(&bytes).expect("golden ELLW restores");
    assert_eq!(restored.tier_stats().warm_keys, 1);
    assert_eq!(restored.snapshot_bytes(), bytes);
}
