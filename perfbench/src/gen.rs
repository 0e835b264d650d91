//! Seeded input generation. Every workload input — event streams,
//! query plans, late-event reassignment and exact ground truth — is
//! produced here, during set-up, from the `--seed` argument alone.

use ell_hash::{mix64, SplitMix64};
use ell_sim::workload::{key_label, KeyedStream, WindowedStream, ZipfStream};
use std::collections::HashSet;

/// Element ids are drawn uniformly from this many values.
pub const VALUE_UNIVERSE: u64 = 1 << 30;

/// Derives an independent sub-seed for one purpose from the run seed.
#[must_use]
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    mix64(seed ^ mix64(purpose.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// The seed of rep `rep` of a run: every rep draws a fresh input set,
/// so a run's statistical figures average several independent inputs.
#[must_use]
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    sub_seed(seed, 0x5EED_0000 + rep as u64)
}

/// One keyed observation: a key index into the label table and the
/// element's 64-bit hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    pub key: u32,
    pub hash: u64,
}

/// One timestamped keyed observation for the windowed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpochEvent {
    pub epoch: u32,
    pub key: u32,
    pub hash: u64,
}

/// The display labels `key-000000 …` for `n` key ranks.
#[must_use]
pub fn labels(n: usize) -> Vec<String> {
    (0..n as u64).map(key_label).collect()
}

/// `n` events of a Zipf(`s`)-keyed stream over `keys` keys with element
/// ids uniform over [`VALUE_UNIVERSE`].
#[must_use]
pub fn keyed_events(keys: usize, s: f64, n: usize, seed: u64) -> Vec<Event> {
    KeyedStream::new(keys, s, VALUE_UNIVERSE, seed)
        .take(n)
        .map(|e| Event {
            key: e.key as u32,
            hash: e.hash,
        })
        .collect()
}

/// `n` Zipf(`s`)-drawn key indices over `keys` keys (query plans).
#[must_use]
pub fn zipf_keys(keys: usize, s: f64, n: usize, seed: u64) -> Vec<u32> {
    ZipfStream::new(keys, s, seed)
        .take(n)
        .map(|k| k as u32)
        .collect()
}

/// `n` uniform values in `1..=hi`.
#[must_use]
pub fn uniform_in(hi: u64, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| 1 + rng.next_u64() % hi).collect()
}

/// A drifting windowed stream: `epochs × per_epoch` events over `keys`
/// keys, Zipf(`s`) popularity drifting by `drift` identities per epoch.
#[must_use]
pub fn windowed_events(
    keys: usize,
    s: f64,
    per_epoch: usize,
    drift: u64,
    epochs: usize,
    seed: u64,
) -> Vec<EpochEvent> {
    WindowedStream::new(keys, s, VALUE_UNIVERSE, per_epoch, drift, seed)
        .take(epochs * per_epoch)
        .map(|e| EpochEvent {
            epoch: e.epoch as u32,
            key: e.key as u32,
            hash: e.hash,
        })
        .collect()
}

/// Late-event reassignment: moves a fixed share (`per_mille` / 1000)
/// of each epoch's events into one of the 1–3 previous epochs (fewer
/// when the stream has not advanced that far). Events stay in arrival
/// order; only their epoch tags change, so the `(key, hash)` multiset
/// is preserved. Epoch 0 has no predecessor and keeps its events.
pub fn reassign_late(events: &mut [EpochEvent], per_mille: u64, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for e in events.iter_mut() {
        let draw = rng.next_u64();
        if e.epoch == 0 || draw % 1000 >= per_mille {
            continue;
        }
        let back = 1 + (draw >> 32) % 3;
        e.epoch -= (back as u32).min(e.epoch);
    }
}

/// Exact distinct element counts of `keys` (indices) over `events`.
#[must_use]
pub fn exact_counts<'a>(
    keys: &[u32],
    events: impl IntoIterator<Item = (u32, u64)> + 'a,
    key_space: usize,
) -> Vec<u64> {
    let mut slot = vec![usize::MAX; key_space];
    for (i, &k) in keys.iter().enumerate() {
        slot[k as usize] = i;
    }
    let mut sets: Vec<HashSet<u64>> = vec![HashSet::new(); keys.len()];
    for (k, h) in events {
        let i = slot[k as usize];
        if i != usize::MAX {
            sets[i].insert(h);
        }
    }
    sets.iter().map(|s| s.len() as u64).collect()
}

/// A fixed sample of key ranks spanning the popularity range: every
/// rank below `head`, then `tail` ranks spaced geometrically up to
/// `keys − 1`.
#[must_use]
pub fn rank_sample(keys: usize, head: usize, tail: usize) -> Vec<u32> {
    let mut out: Vec<u32> = (0..head.min(keys) as u32).collect();
    let lo = head.max(1) as f64;
    let hi = (keys - 1) as f64;
    for i in 0..tail {
        let r = (lo * (hi / lo).powf(i as f64 / (tail - 1).max(1) as f64)).round() as u32;
        if out.last().is_none_or(|&l| r > l) {
            out.push(r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        assert_eq!(
            keyed_events(1000, 1.0, 5000, 7),
            keyed_events(1000, 1.0, 5000, 7)
        );
        assert_ne!(
            keyed_events(1000, 1.0, 5000, 7),
            keyed_events(1000, 1.0, 5000, 8)
        );
        assert_eq!(zipf_keys(1000, 1.0, 500, 3), zipf_keys(1000, 1.0, 500, 3));
        assert_ne!(zipf_keys(1000, 1.0, 500, 3), zipf_keys(1000, 1.0, 500, 4));
        let w = |seed| {
            let mut ev = windowed_events(100, 1.0, 1000, 3, 6, seed);
            reassign_late(&mut ev, 20, sub_seed(seed, 1));
            ev
        };
        assert_eq!(w(11), w(11));
        assert_ne!(w(11), w(12));
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(rep_seed(1, 0), rep_seed(1, 1));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
    }

    #[test]
    fn late_reassignment_keeps_the_event_multiset() {
        let original = windowed_events(200, 1.0, 2000, 3, 10, 5);
        let mut late = original.clone();
        reassign_late(&mut late, 20, 99);
        let moved: Vec<_> = original
            .iter()
            .zip(&late)
            .filter(|(a, b)| a.epoch != b.epoch)
            .collect();
        // About 2 % of the events outside epoch 0 move.
        let eligible = original.iter().filter(|e| e.epoch > 0).count();
        let share = moved.len() as f64 / eligible as f64;
        assert!((0.015..0.025).contains(&share), "moved share {share}");
        for (a, b) in &moved {
            assert!(b.epoch < a.epoch && a.epoch - b.epoch <= 3);
            assert_eq!((a.key, a.hash), (b.key, b.hash));
        }
        let mut x: Vec<(u32, u64)> = original.iter().map(|e| (e.key, e.hash)).collect();
        let mut y: Vec<(u32, u64)> = late.iter().map(|e| (e.key, e.hash)).collect();
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y);
    }

    #[test]
    fn exact_counts_and_rank_sample() {
        let ev = [(0, 1), (0, 1), (0, 2), (2, 5), (1, 9)];
        assert_eq!(exact_counts(&[0, 2], ev, 3), vec![2, 1]);
        let s = rank_sample(100_000, 64, 50);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s[..64], (0..64).collect::<Vec<u32>>()[..]);
        assert_eq!(*s.last().unwrap(), 99_999);
    }
}
