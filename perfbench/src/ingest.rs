//! `ingest_zipf`: the hot ingest path. Two client threads each feed one
//! `IngestSession` with a contiguous half of one pre-generated Zipf
//! keyed stream into a fresh 64-shard ELL(2,20) store; nothing is
//! queried until the timed phase ends.

use crate::clock::CallClock;
use crate::common::{self, EndToEnd, KeyedFeed, AUTO_FLUSH};
use crate::gen::{self, Event};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{replay, timed, Args};
use ell_store::EllStore;
use exaloglog::EllConfig;
use std::time::Instant;

const KEYS: usize = 100_000;
const ZIPF_S: f64 = 1.0;
const EVENTS: usize = 4_000_000;
const SHARDS: usize = 64;
const THREADS: usize = 2;
/// The hottest ranks, all sampled for the output checks.
const HEAD: usize = 512;
/// Geometrically spaced tail ranks added to the check sample.
const TAIL: usize = 256;
/// Post-ingest latency queries: this many passes over the hottest
/// [`QUERY_KEYS`] ranks (all dense, so the latency is one population).
const QUERY_PASSES: usize = 16;
const QUERY_KEYS: usize = 64;
/// Events replayed through the hashing rows.
const HASH_REPLAY: usize = 200_000;

fn cfg() -> EllConfig {
    EllConfig::optimal(11).expect("ELL(2,20) at p = 11")
}

struct Inputs {
    labels: Vec<String>,
    events: Vec<Event>,
    sample: Vec<u32>,
    exact: Vec<u64>,
}

fn setup(seed: u64) -> Inputs {
    let labels = gen::labels(KEYS);
    let events = gen::keyed_events(KEYS, ZIPF_S, EVENTS, gen::sub_seed(seed, 1));
    let sample = gen::rank_sample(KEYS, HEAD, TAIL);
    let exact = gen::exact_counts(&sample, events.iter().map(|e| (e.key, e.hash)), KEYS);
    Inputs {
        labels,
        events,
        sample,
        exact,
    }
}

/// The timed phase: returns the store and the wall seconds.
fn ingest(inp: &Inputs, tr: &mut Tracer, rep: usize) -> (EllStore, f64) {
    let store = EllStore::new(SHARDS, cfg()).expect("power-of-two shards");
    let half = inp.events.len().div_ceil(THREADS);
    let t0 = Instant::now();
    let forks: Vec<Tracer> = std::thread::scope(|s| {
        let handles: Vec<_> = inp
            .events
            .chunks(half)
            .enumerate()
            .map(|(t, part)| {
                let mut tr = tr.fork();
                let store = &store;
                let labels = &inp.labels;
                s.spawn(move || {
                    let id = (rep * THREADS + t) as u64;
                    let root = tr.open("ingest.thread", None, id);
                    let mut f = KeyedFeed {
                        session: store.session().with_auto_flush(AUTO_FLUSH),
                        labels,
                    };
                    common::feed(&mut f, part, &mut tr, root, id);
                    tr.span("session.flush", Some(root), id, || f.session.flush());
                    drop(f);
                    tr.close(root);
                    tr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest thread"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    for f in forks {
        tr.absorb(f);
    }
    (store, secs)
}

pub fn run(args: &Args, report: &mut Report, spans: &mut Tracer) {
    report.label("store_config", cfg());
    report.label("shards", SHARDS);
    report.label("tier_thresholds", "none");
    report.label("clients", THREADS);
    report.label("loop", "closed: two ingest threads, one session each");
    report.label("events_per_rep", EVENTS);
    let mut e2e = EndToEnd::default();
    let mut traced_eps = Vec::new();
    let mut last: Option<Inputs> = None;
    crate::for_reps(args, |rep, traced| {
        drop(last.take());
        let (inp, setup_s) = timed(|| setup(gen::rep_seed(args.seed, rep)));
        let mut tr = Tracer::new(traced);
        let (store, secs) = ingest(&inp, &mut tr, rep);
        let eps = EVENTS as f64 / secs;
        report.ok_ops(EVENTS as u64);

        // Output checks, then post-ingest queries on the hottest keys.
        let mut rel = Vec::new();
        for (&k, &exact) in inp.sample.iter().zip(&inp.exact) {
            let label = &inp.labels[k as usize];
            rel.extend(common::check_estimate(
                report,
                &cfg(),
                label,
                store.estimate(label),
                exact,
            ));
        }
        let mut query_us = Vec::with_capacity(QUERY_PASSES * QUERY_KEYS);
        for _ in 0..QUERY_PASSES {
            for label in &inp.labels[..QUERY_KEYS] {
                let t = CallClock::now();
                let est = store.estimate(label);
                query_us.push(t.elapsed_us());
                report.check(est.is_some(), || format!("{label}: estimate None"));
            }
        }
        if traced {
            traced_eps.push(eps);
            *spans = tr;
        } else {
            for _ in 0..common::SNAPSHOTS {
                let t = CallClock::now();
                let _bytes = store.snapshot_bytes();
                e2e.checkpoint_ms.push(t.elapsed_us() / 1e3);
            }
            e2e.setup_s.push(setup_s);
            e2e.events_per_s.push(eps);
            e2e.queries(&query_us);
            let bytes_per_key = store.memory_bytes() as f64 / store.key_count() as f64;
            e2e.final_state(rep, bytes_per_key, &rel);
        }
        if rep == 0 && args.trace {
            wire_rows(&store, report);
        }
        last = Some(inp);
    });
    if !args.trace {
        e2e.emit(report);
        return;
    }
    let inp = last.expect("at least one rep");
    let session_events = EVENTS;
    common::trace_summary(
        report,
        spans,
        &traced_eps,
        &e2e.events_per_s,
        session_events,
    );
    let keys: Vec<&str> = inp.events[..HASH_REPLAY]
        .iter()
        .map(|e| inp.labels[e.key as usize].as_str())
        .collect();
    replay::hashing(&keys, report);
    let groups = replay::group_by_key(inp.events.iter().map(|e| (e.key, e.hash)));
    replay::sketches(cfg(), &groups, report);
    let half = inp.events.len().div_ceil(THREADS);
    let keys: Vec<u64> = inp.events.iter().map(|e| u64::from(e.key)).collect();
    let per_delta: Vec<f64> = keys
        .chunks(half)
        .map(|part| replay::events_per_delta(part, AUTO_FLUSH))
        .collect();
    report.metric(
        "session.events_per_delta",
        per_delta.iter().sum::<f64>() / per_delta.len() as f64,
        "count",
    );
}

/// Snapshot size and restore time of the ingested store.
fn wire_rows(store: &EllStore, report: &mut Report) {
    let bytes = store.snapshot_bytes();
    let (restored, secs) = timed(|| EllStore::from_snapshot_bytes(&bytes));
    report.check(restored.is_ok(), || "snapshot does not restore".into());
    report.metric("wire.snapshot_bytes", bytes.len() as f64, "bytes");
    report.metric("wire.restore_ms", secs * 1e3, "ms");
}
