//! Buffered-delta ingest sessions.
//!
//! A session gives each ingesting thread a private buffer of *delta
//! sketches* — one [`AdaptiveExaLogLog`] per key (per epoch, for the
//! windowed store) — so the hot insert loop touches no shared state at
//! all. Small deltas stay in the sparse token phase; heavy keys promote
//! to dense registers inside the buffer. When the buffered hash count
//! crosses the session's threshold, or at an explicit
//! [`IngestSession::flush`] (and on drop), the deltas merge into the
//! store through the word-level merge fast path.
//!
//! # Buffer reuse
//!
//! Flushing does not tear the buffer down: on the uncontended path each
//! delta merges into its slot *by reference* and is then reset in
//! place, so the key strings, token vectors, and register arrays reach
//! their working-set size once and are reused for every subsequent
//! flush. Only when a shard's write lock is contended during an
//! auto-flush does the session clone the delta onto the store's handoff
//! queue (keeping the buffer either way). Oversubscribed ingest — more
//! sessions than cores — therefore degrades gracefully instead of
//! churning the allocator on every flush.
//!
//! # Exactness
//!
//! Register updates are monotone and register merge is idempotent,
//! commutative and associative, so folding a delta into a slot produces
//! *bit-for-bit* the state direct insertion of the buffered hashes would
//! have — regardless of how many threads buffered what, when each delta
//! was flushed, or which thread drained the queue. The
//! `proptest_session` suite pins this equivalence against sequential
//! [`EllStore::ingest`] for random flush points and schedules.
//!
//! Flushing into a key that has been demoted to the warm or cold tier
//! does **not** promote it: the store parks the delta on the slot and
//! folds it in at the next promotion (see the
//! [`tiers`](crate::TierConfig) lifecycle), keeping the flush path free
//! of decompression work.
//!
//! ```
//! use ell_store::EllStore;
//! use exaloglog::EllConfig;
//!
//! let store = EllStore::new(4, EllConfig::optimal(10).unwrap()).unwrap();
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let store = &store;
//!         s.spawn(move || {
//!             let mut session = store.session();
//!             for i in 0..10_000u64 {
//!                 session.insert("events", ell_hash::mix64(t * 10_000 + i));
//!             }
//!             // Dropping the session flushes and drains everything.
//!         });
//!     }
//! });
//! assert!((store.estimate("events").unwrap() / 40_000.0 - 1.0).abs() < 0.1);
//! ```

use crate::shard::{ShardSlot, Sharded};
use crate::store::EllStore;
use crate::window::WindowedStore;
use exaloglog::adaptive::AdaptiveExaLogLog;
use std::collections::HashMap;

/// Default number of buffered hashes that triggers an automatic flush.
/// Large enough to amortize the handoff, small enough to bound the
/// session's memory (deltas below break-even are a few tokens each).
pub(crate) const DEFAULT_AUTO_FLUSH: usize = 32 * 1024;

/// What a session needs from its store: the sharded core its deltas
/// route through, fresh delta sketches, and the merge context.
pub(crate) trait SessionStore {
    type Slot: ShardSlot;

    fn core(&self) -> &Sharded<Self::Slot>;

    /// An empty delta sketch compatible with the store's slots.
    fn new_delta(&self) -> AdaptiveExaLogLog;

    /// Runs `f` with the context deltas merge under (the window store
    /// pins its epoch for the duration).
    fn pinned<R>(&self, f: impl FnOnce(&<Self::Slot as ShardSlot>::Ctx<'_>) -> R) -> R;
}

type Tag<S> = <<S as SessionStore>::Slot as ShardSlot>::Tag;

/// One key's buffered deltas: a single sketch for the flat store, one
/// sketch per epoch for the window store.
pub(crate) trait DeltaEntry<T>: Sized {
    /// A new key's entry, holding its first delta.
    fn first(tag: T, delta: AdaptiveExaLogLog) -> Self;

    /// Buffers one hash under `tag`, taking a delta from `fresh` if the
    /// entry has none for that tag.
    fn insert(&mut self, tag: T, hash: u64, fresh: impl FnOnce() -> AdaptiveExaLogLog);

    /// The deltas holding data, with their tags.
    fn nonempty(&mut self) -> impl Iterator<Item = (T, &mut AdaptiveExaLogLog)>;

    /// After a flush, returns the flushed (now empty) sketches of every
    /// entry to `spare`.
    fn recycle(deltas: &mut HashMap<String, (usize, Self)>, spare: &mut Vec<AdaptiveExaLogLog>);
}

impl DeltaEntry<()> for AdaptiveExaLogLog {
    fn first((): (), delta: AdaptiveExaLogLog) -> Self {
        delta
    }

    fn insert(&mut self, (): (), hash: u64, _: impl FnOnce() -> AdaptiveExaLogLog) {
        self.insert_hash(hash);
    }

    fn nonempty(&mut self) -> impl Iterator<Item = ((), &mut AdaptiveExaLogLog)> {
        (!self.is_empty()).then_some(((), self)).into_iter()
    }

    /// The store reset each delta in place; it stays with its key.
    fn recycle(_: &mut HashMap<String, (usize, Self)>, _: &mut Vec<AdaptiveExaLogLog>) {}
}

/// A session rarely touches more than a couple of epochs per key, so a
/// small vec beats a nested map.
impl DeltaEntry<u64> for Vec<(u64, AdaptiveExaLogLog)> {
    fn first(epoch: u64, delta: AdaptiveExaLogLog) -> Self {
        vec![(epoch, delta)]
    }

    fn insert(&mut self, epoch: u64, hash: u64, fresh: impl FnOnce() -> AdaptiveExaLogLog) {
        match self.iter_mut().find(|(e, _)| *e == epoch) {
            Some((_, delta)) => {
                delta.insert_hash(hash);
            }
            None => {
                let mut delta = fresh();
                delta.insert_hash(hash);
                self.push((epoch, delta));
            }
        }
    }

    fn nonempty(&mut self) -> impl Iterator<Item = (u64, &mut AdaptiveExaLogLog)> {
        self.iter_mut()
            .filter(|(_, delta)| !delta.is_empty())
            .map(|(epoch, delta)| (*epoch, delta))
    }

    /// Every per-epoch sketch goes back to the pool (the store reset the
    /// flushed ones; stragglers are already empty); the key survives.
    fn recycle(deltas: &mut HashMap<String, (usize, Self)>, spare: &mut Vec<AdaptiveExaLogLog>) {
        for (_, entry) in deltas.values_mut() {
            for (_, mut delta) in entry.drain(..) {
                delta.reset();
                spare.push(delta);
            }
        }
    }
}

/// The buffer-and-flush machinery both session types share.
#[derive(Debug)]
struct Buffer<'a, S: SessionStore, E: DeltaEntry<Tag<S>>> {
    store: &'a S,
    /// Per-key deltas with the key's shard index cached. Entries stay
    /// allocated (reset, not dropped) across flushes; the buffer's
    /// footprint is bounded by the session's distinct-key working set.
    deltas: HashMap<String, (usize, E)>,
    /// Reset delta sketches recycled across flushes: the next tag a key
    /// touches pops one instead of allocating.
    spare: Vec<AdaptiveExaLogLog>,
    buffered: usize,
    auto_flush: usize,
}

impl<'a, S: SessionStore, E: DeltaEntry<Tag<S>>> Buffer<'a, S, E> {
    fn new(store: &'a S) -> Self {
        Buffer {
            store,
            deltas: HashMap::new(),
            spare: Vec::new(),
            buffered: 0,
            auto_flush: DEFAULT_AUTO_FLUSH,
        }
    }

    fn set_auto_flush(&mut self, hashes: usize) {
        self.auto_flush = hashes.max(1);
    }

    /// Buffers one observation: one map lookup for a known key.
    fn insert(&mut self, key: &str, tag: Tag<S>, hash: u64) {
        let store = self.store;
        let spare = &mut self.spare;
        let mut fresh = || spare.pop().unwrap_or_else(|| store.new_delta());
        match self.deltas.get_mut(key) {
            Some((_, entry)) => entry.insert(tag, hash, fresh),
            None => {
                let mut delta = fresh();
                delta.insert_hash(hash);
                let si = store.core().shard_of(key);
                self.deltas
                    .insert(key.to_owned(), (si, E::first(tag, delta)));
            }
        }
        self.buffered += 1;
        if self.buffered >= self.auto_flush {
            self.flush(false);
        }
    }

    /// Flushes every nonempty delta, grouped by shard, by reference; a
    /// barrier flush then drains every handoff queue, so on return
    /// everything this session ever buffered is visible to queries.
    fn flush(&mut self, barrier: bool) {
        self.buffered = 0;
        let core = self.store.core();
        let mut groups: Vec<Vec<(&String, Tag<S>, &mut AdaptiveExaLogLog)>> = Vec::new();
        groups.resize_with(core.shard_count(), Vec::new);
        // Deltas reset by earlier flushes and not touched since stay
        // empty — skip them instead of paying a no-op merge.
        for (key, (si, entry)) in self.deltas.iter_mut() {
            for (tag, delta) in entry.nonempty() {
                groups[*si].push((key, tag, delta));
            }
        }
        self.store.pinned(|ctx| {
            for (si, mut group) in groups.into_iter().enumerate() {
                if !group.is_empty() {
                    core.flush_group_ref(si, &mut group, barrier, ctx);
                }
            }
            if barrier {
                core.drain_all_pending(ctx);
            }
        });
        E::recycle(&mut self.deltas, &mut self.spare);
    }
}

impl<S: SessionStore, E: DeltaEntry<Tag<S>>> Drop for Buffer<'_, S, E> {
    fn drop(&mut self) {
        self.flush(true);
    }
}

/// A buffered ingest session for [`EllStore`] (see the module docs).
///
/// Not `Sync` — a session belongs to one ingesting thread; the *store*
/// is the shared object. Unflushed data is invisible to queries until
/// [`IngestSession::flush`] or drop.
#[derive(Debug)]
pub struct IngestSession<'a> {
    buf: Buffer<'a, EllStore, AdaptiveExaLogLog>,
}

impl<'a> IngestSession<'a> {
    pub(crate) fn new(store: &'a EllStore) -> Self {
        IngestSession {
            buf: Buffer::new(store),
        }
    }

    /// Sets the buffered-hash count that triggers an automatic flush
    /// (clamped to ≥ 1). Smaller thresholds bound memory tighter and
    /// surface data to readers sooner; larger ones amortize the handoff
    /// better. The final state is identical either way.
    #[must_use]
    pub fn with_auto_flush(mut self, hashes: usize) -> Self {
        self.buf.set_auto_flush(hashes);
        self
    }

    /// The number of hashes buffered since the last flush.
    #[must_use]
    pub fn buffered_hashes(&self) -> usize {
        self.buf.buffered
    }

    /// Buffers one `(key, element-hash)` observation.
    pub fn insert(&mut self, key: &str, hash: u64) {
        self.buf.insert(key, (), hash);
    }

    /// Buffers a batch of observations.
    pub fn ingest(&mut self, batch: &[(&str, u64)]) {
        for &(key, hash) in batch {
            self.buf.insert(key, (), hash);
        }
    }

    /// Flushes all buffered deltas and drains the store's handoff
    /// queues (a barrier): on return, everything this session ever
    /// buffered is merged into the slots and visible to queries.
    pub fn flush(&mut self) {
        self.buf.flush(true);
    }
}

/// A buffered ingest session for [`WindowedStore`]: like
/// [`IngestSession`], but deltas are keyed by `(key, epoch)` and the
/// flush resolves each delta against the *current* window position —
/// live epochs merge into their ring slot, epochs that have rotated out
/// fold into the key's retired union. Monotone merge makes the final
/// state identical either way, so flush timing relative to rotation
/// cannot change the serialized bytes.
///
/// Buffering an observation for an epoch newer than the window
/// auto-advances the store immediately (matching
/// [`WindowedStore::ingest`]); rotation is *not* deferred to the flush.
///
/// A flushed delta that lands in a *sealed* live epoch (older than the
/// current one) dirties that key's precomputed suffix-union chain, just
/// like direct late `ingest` writes into an older epoch: the next query
/// lazily rebuilds the stale entries, and the invalidation is counted
/// in [`WindowStats::dirty_invalidations`](crate::WindowStats). Session
/// flushes therefore never affect query *correctness* — only whether
/// the next query hits the suffix cache or rebuilds it.
#[derive(Debug)]
pub struct WindowIngestSession<'a> {
    buf: Buffer<'a, WindowedStore, Vec<(u64, AdaptiveExaLogLog)>>,
    /// Highest epoch this session has advanced the store to; gates the
    /// (write-locking) `advance` call so the hot path takes no lock.
    advanced_to: u64,
}

impl<'a> WindowIngestSession<'a> {
    pub(crate) fn new(store: &'a WindowedStore) -> Self {
        WindowIngestSession {
            buf: Buffer::new(store),
            advanced_to: store.current_epoch(),
        }
    }

    /// Sets the buffered-hash count that triggers an automatic flush
    /// (clamped to ≥ 1); see [`IngestSession::with_auto_flush`].
    #[must_use]
    pub fn with_auto_flush(mut self, hashes: usize) -> Self {
        self.buf.set_auto_flush(hashes);
        self
    }

    /// The number of hashes buffered since the last flush.
    #[must_use]
    pub fn buffered_hashes(&self) -> usize {
        self.buf.buffered
    }

    /// Advances the store to `epoch` if this session has not yet.
    fn advance_to(&mut self, epoch: u64) {
        if epoch > self.advanced_to {
            self.buf.store.advance(epoch);
            self.advanced_to = epoch;
        }
    }

    /// Buffers one `(key, element-hash)` observation for `epoch`,
    /// advancing the window first when `epoch` is newer than anything
    /// the store has seen.
    pub fn insert(&mut self, key: &str, epoch: u64, hash: u64) {
        self.advance_to(epoch);
        self.buf.insert(key, epoch, hash);
    }

    /// Buffers a batch of observations belonging to `epoch`. An empty
    /// batch still advances the window (mirroring
    /// [`WindowedStore::ingest`]).
    pub fn ingest(&mut self, epoch: u64, batch: &[(&str, u64)]) {
        self.advance_to(epoch);
        for &(key, hash) in batch {
            self.buf.insert(key, epoch, hash);
        }
    }

    /// Flushes all buffered deltas and drains the store's handoff
    /// queues (a barrier); see [`IngestSession::flush`].
    pub fn flush(&mut self) {
        self.buf.flush(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::SplitMix64;
    use exaloglog::EllConfig;

    fn cfg() -> EllConfig {
        EllConfig::new(2, 16, 6).unwrap()
    }

    #[test]
    fn session_matches_direct_ingest_bit_for_bit() {
        let direct = EllStore::new(4, cfg()).unwrap();
        let buffered = EllStore::new(4, cfg()).unwrap();
        let mut rng = SplitMix64::new(9);
        let events: Vec<(String, u64)> = (0..30_000)
            .map(|i| (format!("k{}", i % 17), rng.next_u64() % 4_000))
            .collect();
        let refs: Vec<(&str, u64)> = events.iter().map(|(k, h)| (k.as_str(), *h)).collect();
        direct.ingest(&refs);
        {
            // A tiny threshold forces many auto-flushes mid-stream.
            let mut session = buffered.session().with_auto_flush(97);
            session.ingest(&refs);
        }
        assert_eq!(buffered.snapshot_bytes(), direct.snapshot_bytes());
    }

    #[test]
    fn unflushed_data_is_invisible_then_appears_at_flush() {
        let store = EllStore::new(2, cfg()).unwrap();
        let mut session = store.session();
        session.insert("k", 7);
        assert_eq!(session.buffered_hashes(), 1);
        assert!(store.estimate("k").is_none());
        session.flush();
        assert_eq!(session.buffered_hashes(), 0);
        assert_eq!(store.estimate("k").map(|e| e.round() as u64), Some(1));
    }

    #[test]
    fn session_flush_parks_on_warm_keys_without_promoting() {
        let mut store = EllStore::new(2, cfg()).unwrap();
        store.set_tier_config(crate::TierConfig::new().warm_after(1));
        let twin = EllStore::new(2, cfg()).unwrap();
        let mut rng = SplitMix64::new(13);
        let first: Vec<u64> = (0..5_000).map(|_| rng.next_u64()).collect();
        let second: Vec<u64> = (0..5_000).map(|_| rng.next_u64()).collect();
        for h in &first {
            store.insert("k", *h);
            twin.insert("k", *h);
        }
        store.tick();
        store.demote_idle();
        assert_eq!(store.key_tier("k"), Some(crate::Tier::Warm));
        {
            let mut session = store.session();
            for h in &second {
                session.insert("k", *h);
            }
        }
        for h in &second {
            twin.insert("k", *h);
        }
        // The flush parked its delta: the key is still warm…
        assert_eq!(store.key_tier("k"), Some(crate::Tier::Warm));
        assert!(store.tier_stats().parked_deltas > 0);
        // …and the next query folds it in, bit-identical to the twin.
        assert_eq!(
            store.estimate("k").unwrap().to_bits(),
            twin.estimate("k").unwrap().to_bits()
        );
        assert_ne!(store.key_tier("k"), Some(crate::Tier::Warm));
    }

    #[test]
    fn flat_session_reuses_buffers_across_flushes() {
        let store = EllStore::new(2, cfg()).unwrap();
        let mut session = store.session().with_auto_flush(64);
        let mut rng = SplitMix64::new(14);
        for _ in 0..10 {
            for _ in 0..100 {
                session.insert("steady", rng.next_u64());
            }
        }
        // One key, many flushes: exactly one delta entry, kept across
        // flushes and reset in place.
        assert_eq!(session.buf.deltas.len(), 1);
        session.flush();
        let (_, delta) = session.buf.deltas.get("steady").unwrap();
        assert!(delta.is_empty());
    }

    #[test]
    fn window_session_matches_direct_ingest_bit_for_bit() {
        let direct = WindowedStore::new(4, cfg(), 3).unwrap();
        let buffered = WindowedStore::new(4, cfg(), 3).unwrap();
        let mut rng = SplitMix64::new(10);
        for epoch in 0..8u64 {
            let events: Vec<(String, u64)> = (0..2_000)
                .map(|i| (format!("k{}", i % 5), rng.next_u64() % 3_000))
                .collect();
            let refs: Vec<(&str, u64)> = events.iter().map(|(k, h)| (k.as_str(), *h)).collect();
            direct.ingest(epoch, &refs);
            let mut session = buffered.session().with_auto_flush(61);
            session.ingest(epoch, &refs);
        }
        // A late delta for a long-gone epoch folds into retired.
        direct.ingest(0, &[("k0", 42)]);
        {
            let mut session = buffered.session();
            session.insert("k0", 0, 42);
        }
        assert_eq!(buffered.snapshot_bytes(), direct.snapshot_bytes());
        assert_eq!(buffered.current_epoch(), 7);
    }

    #[test]
    fn window_session_recycles_delta_buffers() {
        let store = WindowedStore::new(2, cfg(), 4).unwrap();
        let mut session = store.session().with_auto_flush(32);
        let mut rng = SplitMix64::new(15);
        for epoch in 0..6u64 {
            for _ in 0..50 {
                session.insert("k", epoch, rng.next_u64());
            }
        }
        session.flush();
        // All per-epoch sketches were recycled rather than dropped.
        assert!(!session.buf.spare.is_empty());
        let (_, entries) = session.buf.deltas.get("k").unwrap();
        assert!(entries.is_empty());
    }
}
