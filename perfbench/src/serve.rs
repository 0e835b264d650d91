//! `serve_tiered`: serving from a tiered store. Set-up preloads 2000
//! dense-but-unsaturated keys and sweeps them down to the cold
//! tier; each timed round on one client thread then ingests a Zipf-keyed
//! burst through one session, ticks and sweeps, and issues Zipf-drawn
//! `estimate` calls that promote the tail from warm or cold. Every
//! tenth round takes a `snapshot_bytes()` checkpoint.

use crate::clock::CallClock;
use crate::common::{self, span_median, EndToEnd, KeyedFeed, AUTO_FLUSH};
use crate::gen::{self, Event};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{replay, timed, Args};
use ell_hash::SplitMix64;
use ell_store::{AdaptiveExaLogLog, EllStore, Tier, TierConfig};
use exaloglog::{EllConfig, ExaLogLog};
use std::path::{Path, PathBuf};
use std::time::Instant;

const KEYS: usize = 2_000;
const FLOOR: usize = 3_000;
const ZIPF_S: f64 = 1.0;
const SHARDS: usize = 64;
const WARM_AFTER: u64 = 1;
const COLD_AFTER: u64 = 3;
const ROUNDS: usize = 20;
const ROUND_EVENTS: usize = 4_000;
const ROUND_QUERIES: usize = 100;
const CHECKPOINT_EVERY: usize = 10;
/// Hottest ranks sampled for the output checks, plus geometric tail.
const HEAD: usize = 100;
const TAIL: usize = 500;
/// Preloaded sketches replayed through the sketch and codec rows.
const REPLAY_KEYS: usize = 256;

fn cfg() -> EllConfig {
    EllConfig::optimal(11).expect("ELL(2,20) at p = 11")
}

fn floor_hashes(seed: u64, key: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(gen::sub_seed(seed, 0x100 + key as u64));
    (0..FLOOR).map(|_| rng.next_u64()).collect()
}

struct Inputs {
    labels: Vec<String>,
    events: Vec<Event>,
    queries: Vec<u32>,
    sample: Vec<u32>,
    exact: Vec<u64>,
    store: EllStore,
    twin: EllStore,
}

fn tiered(spill: &Path) -> EllStore {
    let mut store = EllStore::new(SHARDS, cfg()).expect("power-of-two shards");
    store.set_tier_config(
        TierConfig::new()
            .warm_after(WARM_AFTER)
            .cold_after(COLD_AFTER)
            .spill_dir(spill),
    );
    store
}

fn setup(seed: u64, spill: &Path) -> Inputs {
    let labels = gen::labels(KEYS);
    let events = gen::keyed_events(KEYS, ZIPF_S, ROUNDS * ROUND_EVENTS, gen::sub_seed(seed, 2));
    let queries = gen::zipf_keys(KEYS, ZIPF_S, ROUNDS * ROUND_QUERIES, gen::sub_seed(seed, 3));
    let sample = gen::rank_sample(KEYS, HEAD, TAIL);
    let store = tiered(spill);
    let twin = EllStore::new(SHARDS, cfg()).expect("power-of-two shards");
    for (k, label) in labels.iter().enumerate() {
        let mut dense = ExaLogLog::new(cfg());
        dense.insert_hashes(&floor_hashes(seed, k));
        let sketch = AdaptiveExaLogLog::from_dense(dense);
        store.merge_key(label, &sketch).expect("same config");
        twin.merge_key(label, &sketch).expect("same config");
    }
    let floors = sample.iter().flat_map(|&k| {
        floor_hashes(seed, k as usize)
            .into_iter()
            .map(move |h| (k, h))
    });
    let exact = gen::exact_counts(
        &sample,
        floors.chain(events.iter().map(|e| (e.key, e.hash))),
        KEYS,
    );
    // Sweep until the whole preload has settled in the cold tier.
    for _ in 0..=COLD_AFTER {
        store.tick();
        store.demote_idle();
    }
    Inputs {
        labels,
        events,
        queries,
        sample,
        exact,
        store,
        twin,
    }
}

/// Per-rep timed figures.
#[derive(Default)]
struct Rounds {
    /// Seconds spent in ingest, flush and sweep.
    ingest_s: f64,
    query_us: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    by_tier: [Vec<f64>; 3],
    last_checkpoint: Vec<u8>,
}

fn tier_index(t: Option<Tier>) -> usize {
    match t {
        Some(Tier::Warm) => 1,
        Some(Tier::Cold) => 2,
        _ => 0,
    }
}

fn serve(inp: &Inputs, tr: &mut Tracer, report: &mut Report, rep: usize) -> Rounds {
    let store = &inp.store;
    let mut out = Rounds::default();
    for r in 0..ROUNDS {
        let id = (rep * ROUNDS + r) as u64;
        let root = tr.open("round", None, id);
        let t = Instant::now();
        let mut f = KeyedFeed {
            session: store.session().with_auto_flush(AUTO_FLUSH),
            labels: &inp.labels,
        };
        let burst = &inp.events[r * ROUND_EVENTS..(r + 1) * ROUND_EVENTS];
        common::feed(&mut f, burst, tr, root, id);
        tr.span("session.flush", Some(root), id, || f.session.flush());
        drop(f);
        tr.span("store.demote_idle", Some(root), id, || {
            store.tick();
            store.demote_idle()
        });
        out.ingest_s += t.elapsed().as_secs_f64();
        let mut found = 0u64;
        for (q, &k) in inp.queries[r * ROUND_QUERIES..(r + 1) * ROUND_QUERIES]
            .iter()
            .enumerate()
        {
            let label = &inp.labels[k as usize];
            let tier = if tr.is_on() {
                tier_index(store.key_tier(label))
            } else {
                0
            };
            let t = CallClock::now();
            let est = tr.span(
                "store.estimate",
                Some(root),
                (r * ROUND_QUERIES + q) as u64,
                || store.estimate(label),
            );
            let us = t.elapsed_us();
            out.query_us.push(us);
            out.by_tier[tier].push(us);
            found += u64::from(est.is_some());
        }
        report.check(found == ROUND_QUERIES as u64, || {
            format!("round {r}: {found} of {ROUND_QUERIES} preloaded keys found")
        });
        if r % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
            let t = CallClock::now();
            out.last_checkpoint = tr.span("store.snapshot_bytes", Some(root), id, || {
                store.snapshot_bytes()
            });
            out.checkpoint_ms.push(t.elapsed_us() / 1e3);
        }
        tr.close(root);
    }
    report.ok_ops((ROUNDS * (ROUND_EVENTS + ROUND_QUERIES)) as u64);
    out
}

/// Post-phase output checks; returns the relative errors.
fn check(inp: &Inputs, rounds: &Rounds, report: &mut Report) -> Vec<f64> {
    // The untiered twin receives the same timed-phase events.
    let mut f = KeyedFeed {
        session: inp.twin.session(),
        labels: &inp.labels,
    };
    for e in &inp.events {
        common::Feed::put(&mut f, e);
    }
    drop(f);
    let restored = EllStore::from_snapshot_bytes(&inp.store.snapshot_bytes());
    report.check(restored.is_ok(), || "snapshot does not restore".into());
    let checkpoint = EllStore::from_snapshot_bytes(&rounds.last_checkpoint);
    report.check(checkpoint.is_ok(), || "checkpoint does not restore".into());
    let mut rel = Vec::new();
    for (&k, &exact) in inp.sample.iter().zip(&inp.exact) {
        let label = &inp.labels[k as usize];
        let est = inp.store.estimate(label);
        let bits = est.map(f64::to_bits);
        let twin = inp.twin.estimate(label).map(f64::to_bits);
        report.check(bits == twin, || {
            format!("{label}: tiered {est:?} vs untiered twin")
        });
        if let Ok(restored) = &restored {
            let back = restored.estimate(label).map(f64::to_bits);
            report.check(bits == back, || {
                format!("{label}: snapshot → restore changed estimate")
            });
        }
        rel.extend(common::check_estimate(report, &cfg(), label, est, exact));
    }
    rel
}

/// A fresh spill directory for one rep, removed on drop.
struct SpillDir(PathBuf);

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(args: &Args, report: &mut Report, spans: &mut Tracer) {
    report.label("store_config", cfg());
    report.label("shards", SHARDS);
    report.label(
        "tier_thresholds",
        format!("warm_after={WARM_AFTER} cold_after={COLD_AFTER}"),
    );
    report.label("clients", 1);
    report.label(
        "loop",
        "closed: one client, rounds of ingest+flush, tick+sweep, queries",
    );
    report.label("rounds_per_rep", ROUNDS);
    let mut e2e = EndToEnd::default();
    let mut traced_eps = Vec::new();
    let mut by_tier: [Vec<f64>; 3] = Default::default();
    let mut replay_done = false;
    crate::for_reps(args, |rep, traced| {
        let spill = SpillDir(
            args.work_dir
                .join(format!("spill-{}-{rep}", std::process::id())),
        );
        let _ = std::fs::remove_dir_all(&spill.0);
        let seed = gen::rep_seed(args.seed, rep);
        let (inp, setup_s) = timed(|| setup(seed, &spill.0));
        let mut tr = Tracer::new(traced);
        let rounds = serve(&inp, &mut tr, report, rep);
        let eps = (ROUNDS * ROUND_EVENTS) as f64 / rounds.ingest_s;
        let stats = inp.store.tier_stats();
        let bytes_per_key = inp.store.memory_bytes() as f64 / inp.store.key_count() as f64;
        let rel = check(&inp, &rounds, report);
        if traced {
            traced_eps.push(eps);
            for (acc, v) in by_tier.iter_mut().zip(&rounds.by_tier) {
                acc.extend(v);
            }
            report.metric(
                "store.demote_sweep_ms",
                span_median(&tr, "store.demote_idle", 1e6),
                "ms",
            );
            report.metric("tiers.promotions", stats.promotions as f64, "count");
            report.metric("tiers.demotions_warm", stats.demotions_warm as f64, "count");
            report.metric("tiers.demotions_cold", stats.demotions_cold as f64, "count");
            report.metric("tiers.spilled_bytes", stats.spilled_bytes as f64, "bytes");
            report.metric(
                "tiers.hot_keys",
                (stats.hot_keys + stats.sparse_keys) as f64,
                "count",
            );
            report.metric("tiers.warm_keys", stats.warm_keys as f64, "count");
            report.metric("tiers.cold_keys", stats.cold_keys as f64, "count");
            report.metric(
                "wire.snapshot_bytes",
                rounds.last_checkpoint.len() as f64,
                "bytes",
            );
            let (_, secs) = timed(|| EllStore::from_snapshot_bytes(&rounds.last_checkpoint));
            report.metric("wire.restore_ms", secs * 1e3, "ms");
            *spans = tr;
            if !replay_done {
                replay_rows(seed, report);
                replay_done = true;
            }
        } else {
            e2e.setup_s.push(setup_s);
            e2e.events_per_s.push(eps);
            e2e.checkpoint_ms.extend(&rounds.checkpoint_ms);
            e2e.final_state(rep, bytes_per_key, &rel);
            e2e.queries(&rounds.query_us);
        }
    });
    if !args.trace {
        e2e.emit(report);
        return;
    }
    for (name, lat) in [
        "store.estimate_us_hot",
        "store.estimate_us_warm",
        "store.estimate_us_cold",
    ]
    .into_iter()
    .zip(&by_tier)
    {
        report.metric(name, crate::stats::median(lat), "us");
    }
    common::trace_summary(
        report,
        spans,
        &traced_eps,
        &e2e.events_per_s,
        ROUNDS * ROUND_EVENTS,
    );
}

/// Sketch, ML and codec rows replayed on preloaded (then demoted)
/// sketches, and the hashing rows on the round events' keys.
fn replay_rows(seed: u64, report: &mut Report) {
    let groups: Vec<Vec<u64>> = (0..REPLAY_KEYS).map(|k| floor_hashes(seed, k)).collect();
    replay::sketches(cfg(), &groups, report);
    let labels = gen::labels(KEYS);
    let events = gen::keyed_events(KEYS, ZIPF_S, ROUNDS * ROUND_EVENTS, gen::sub_seed(seed, 2));
    let keys: Vec<&str> = events
        .iter()
        .map(|e| labels[e.key as usize].as_str())
        .collect();
    replay::hashing(&keys, report);
    let ks: Vec<u64> = events.iter().map(|e| u64::from(e.key)).collect();
    let per_delta: Vec<f64> = ks
        .chunks(ROUND_EVENTS)
        .map(|c| replay::events_per_delta(c, AUTO_FLUSH))
        .collect();
    report.metric(
        "session.events_per_delta",
        crate::stats::median(&per_delta),
        "count",
    );
}
