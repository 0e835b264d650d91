//! The sharded core under both keyed stores: key router, power-of-two
//! shard maps, per-shard handoff queues, the session flush/drain
//! protocol, key listing, and the map and queue part of the memory
//! walk. A store plugs in through [`ShardSlot`]: how a delta merges into
//! a slot under a tag (`()` for the flat store, the epoch for the window
//! store), and how many heap bytes a slot owns.
//!
//! The protocol relies on register merge being commutative, idempotent
//! and monotone: a parked delta can merge later, on any thread, in any
//! order, with a bit-identical result (`CONCURRENCY.md` § "Session
//! handoff").

use crate::sync::{Mutex, RwLock, TryLockError};
use ell_hash::{Hasher64, WyHash};
use exaloglog::adaptive::AdaptiveExaLogLog;
use exaloglog::EllError;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

/// Seed of the key-partitioning hash. Fixed so that shard assignment —
/// and therefore snapshot layout — is stable across processes.
const KEY_HASH_SEED: u64 = 0xE115_70E5;

/// Soft bound on a shard's handoff queue: once this many deltas are
/// queued, the enqueueing session drains the shard itself (blocking on
/// the write lock) instead of deferring to a later drain.
const HANDOFF_SOFT_CAPACITY: usize = 64;

/// A keyed slot the sharded core routes buffered session deltas into.
pub(crate) trait ShardSlot: Sized {
    /// What a delta is filed under besides its key: `()` for the flat
    /// store, the epoch for the window store.
    type Tag: Copy;
    /// The store state a merge reads: the flat store itself, or the
    /// window store with its epoch pinned for the whole drain.
    type Ctx<'c>;

    /// Merges one delta for `(key, tag)` into `map` under the held shard
    /// write lock, creating the key if it is new. Owned inputs (drained
    /// queue entries) move into a new slot; borrowed ones (a session's
    /// reused buffers) are copied only then.
    fn merge_delta(
        ctx: &Self::Ctx<'_>,
        map: &mut HashMap<String, Self>,
        key: Cow<'_, str>,
        tag: Self::Tag,
        delta: Cow<'_, AdaptiveExaLogLog>,
    );

    /// Heap bytes owned by the slot beyond its inline size (the inline
    /// size is accounted through the shard map's capacity).
    fn heap_bytes(&self) -> usize;
}

/// A delta parked on a handoff queue.
type Parked<T> = (String, T, AdaptiveExaLogLog);

/// Key router, shard maps and handoff queues of one store.
#[derive(Debug)]
pub(crate) struct Sharded<S: ShardSlot> {
    hasher: WyHash,
    maps: Vec<RwLock<HashMap<String, S>>>,
    /// Per-shard handoff queues, kept strictly parallel to `maps`:
    /// sessions park deltas here when a shard's write lock is contended,
    /// and the queue drains into the slots under that lock.
    queues: Vec<Mutex<Vec<Parked<S::Tag>>>>,
}

impl<S: ShardSlot> Sharded<S> {
    /// Empty maps and queues for `shards` shards.
    ///
    /// # Errors
    ///
    /// Rejects a shard count that is zero or not a power of two.
    pub(crate) fn new(shards: usize) -> Result<Self, EllError> {
        if shards == 0 || !shards.is_power_of_two() {
            return Err(EllError::InvalidParameter {
                reason: format!("shard count {shards} must be a nonzero power of two"),
            });
        }
        Ok(Sharded {
            hasher: WyHash::new(KEY_HASH_SEED),
            maps: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            queues: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.maps.len()
    }

    /// The shard `key` lives on.
    pub(crate) fn shard_of(&self, key: &str) -> usize {
        (self.hasher.hash_bytes(key.as_bytes()) as usize) & (self.maps.len() - 1)
    }

    /// Buckets a batch by shard, keeping batch order within a bucket.
    pub(crate) fn route<'k>(&self, batch: &[(&'k str, u64)]) -> Vec<Vec<(&'k str, u64)>> {
        let mut buckets = vec![Vec::new(); self.maps.len()];
        for &(key, hash) in batch {
            buckets[self.shard_of(key)].push((key, hash));
        }
        buckets
    }

    pub(crate) fn read(&self, si: usize) -> impl Deref<Target = HashMap<String, S>> + '_ {
        self.maps[si].read().expect("shard lock poisoned")
    }

    pub(crate) fn write(&self, si: usize) -> impl DerefMut<Target = HashMap<String, S>> + '_ {
        self.maps[si].write().expect("shard lock poisoned")
    }

    /// Read-locks the shards one after another (one lock held at a time).
    pub(crate) fn read_each(
        &self,
    ) -> impl Iterator<Item = impl Deref<Target = HashMap<String, S>> + '_> + '_ {
        (0..self.maps.len()).map(|si| self.read(si))
    }

    /// Write-locks the shards one after another (one lock held at a time).
    pub(crate) fn write_each(
        &self,
    ) -> impl Iterator<Item = impl DerefMut<Target = HashMap<String, S>> + '_> + '_ {
        (0..self.maps.len()).map(|si| self.write(si))
    }

    /// Places `slot` under `key`, replacing any slot there; returns
    /// whether the key was new.
    pub(crate) fn place(&self, key: String, slot: S) -> bool {
        let si = self.shard_of(&key);
        self.write(si).insert(key, slot).is_none()
    }

    /// Flushes one shard's group of session deltas *by reference*: on an
    /// uncontended (or barrier) lock the deltas merge straight from the
    /// session's buffers into the slots and are reset in place, so the
    /// session reuses its allocations across flushes. A contended
    /// auto-flush parks clones on the handoff queue instead, and drains
    /// the queue itself once it crosses [`HANDOFF_SOFT_CAPACITY`].
    pub(crate) fn flush_group_ref(
        &self,
        si: usize,
        group: &mut [(&String, S::Tag, &mut AdaptiveExaLogLog)],
        barrier: bool,
        ctx: &S::Ctx<'_>,
    ) {
        let guard = if barrier {
            Some(self.maps[si].write().expect("shard lock poisoned"))
        } else {
            match self.maps[si].try_write() {
                Err(TryLockError::WouldBlock) => None,
                // Poison propagates like the blocking path's expect.
                other => Some(other.expect("shard lock poisoned")),
            }
        };
        match guard {
            Some(mut map) => {
                // Drain the handoff queue first so queued deltas never
                // linger behind a direct merge.
                self.drain_queue_into(si, &mut map, ctx);
                for (key, tag, delta) in group.iter_mut() {
                    let by_ref = Cow::Borrowed(&**delta);
                    S::merge_delta(ctx, &mut map, Cow::Borrowed(*key), *tag, by_ref);
                    delta.reset();
                }
            }
            None => {
                let depth = {
                    let mut queue = self.queues[si].lock().expect("handoff queue poisoned");
                    for (key, tag, delta) in group.iter_mut() {
                        queue.push(((*key).clone(), *tag, delta.clone()));
                        delta.reset();
                    }
                    queue.len()
                };
                if depth >= HANDOFF_SOFT_CAPACITY {
                    self.drain_shard(si, ctx);
                }
            }
        }
    }

    /// Drains every nonempty handoff queue (blocking). The final step of
    /// a barrier flush: guarantees read-your-writes for the flushing
    /// session even when its earlier auto-flushes left deltas parked on
    /// contended shards.
    pub(crate) fn drain_all_pending(&self, ctx: &S::Ctx<'_>) {
        for si in 0..self.queues.len() {
            let parked = !self.queues[si]
                .lock()
                .expect("handoff queue poisoned")
                .is_empty();
            if parked {
                self.drain_shard(si, ctx);
            }
        }
    }

    /// Drains shard `si`'s handoff queue into its slots. Takes the shard
    /// write lock *first* and only then pops queued items, looping until
    /// the queue is observed empty — so when a drainer returns, every
    /// item enqueued before its last observation has been merged under a
    /// write lock that happens-before the next acquisition.
    fn drain_shard(&self, si: usize, ctx: &S::Ctx<'_>) {
        let mut map = self.write(si);
        self.drain_queue_into(si, &mut map, ctx);
    }

    /// Pops shard `si`'s queue until observed empty, merging under the
    /// already-held write lock.
    fn drain_queue_into(&self, si: usize, map: &mut HashMap<String, S>, ctx: &S::Ctx<'_>) {
        loop {
            let batch =
                std::mem::take(&mut *self.queues[si].lock().expect("handoff queue poisoned"));
            if batch.is_empty() {
                return;
            }
            for (key, tag, delta) in batch {
                S::merge_delta(ctx, map, Cow::Owned(key), tag, Cow::Owned(delta));
            }
        }
    }

    pub(crate) fn key_count(&self) -> usize {
        self.read_each().map(|map| map.len()).sum()
    }

    /// All keys, sorted (a point-in-time copy).
    pub(crate) fn keys(&self) -> Vec<String> {
        let keyed = self.collect_sorted(|_| ());
        keyed.into_iter().map(|(key, ())| key).collect()
    }

    /// `(key, f(slot))` for every key, sorted by key.
    pub(crate) fn collect_sorted<T>(&self, mut f: impl FnMut(&S) -> T) -> Vec<(String, T)> {
        let mut out = Vec::new();
        for map in self.read_each() {
            out.extend(map.iter().map(|(key, slot)| (key.clone(), f(slot))));
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The map and queue part of a store's deep footprint: the lock
    /// tables, each shard table's bucket capacity (a hashbrown table
    /// pays one control byte plus one `(key, slot)` pair per bucket),
    /// key strings, slot heaps, and every parked delta.
    pub(crate) fn memory_bytes(&self) -> usize {
        use core::mem::size_of;
        let mut total = self.maps.capacity() * size_of::<RwLock<HashMap<String, S>>>()
            + self.queues.capacity() * size_of::<Mutex<Vec<Parked<S::Tag>>>>();
        for map in self.read_each() {
            total += map.capacity() * (size_of::<(String, S)>() + 1);
            for (key, slot) in map.iter() {
                total += key.len() + slot.heap_bytes();
            }
        }
        for queue in &self.queues {
            let queue = queue.lock().expect("handoff queue poisoned");
            total += queue.capacity() * size_of::<Parked<S::Tag>>();
            for (key, _, delta) in queue.iter() {
                total += key.len() + delta.memory_bytes();
            }
        }
        total
    }
}
