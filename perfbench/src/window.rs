//! `window_sliding`: trailing-window queries over a drifting stream.
//! Each epoch advances a 16-shard, 8-epoch windowed store, then twice:
//! two client threads each feed one `WindowIngestSession` with half of
//! the next half-epoch of events (2 % of them late, tagged with one of
//! the 1–3 previous epochs), and one client issues
//! `estimate_window(key, k)` calls with k uniform in 1..=8. A rep lasts
//! six full ring turns.

use crate::clock::CallClock;
use crate::common::{self, span_median, EndToEnd, WindowFeed, AUTO_FLUSH};
use crate::gen::{self, EpochEvent};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{replay, timed, Args};
use ell_store::WindowedStore;
use exaloglog::EllConfig;
use std::collections::HashSet;
use std::time::Instant;

const KEYS: usize = 1_000;
const ZIPF_S: f64 = 1.0;
const DRIFT: u64 = 3;
const PER_EPOCH: usize = 25_000;
const RING: usize = 8;
const EPOCHS: usize = 6 * RING;
const SHARDS: usize = 16;
const THREADS: usize = 2;
const QUERIES: usize = 300;
/// Each epoch alternates ingest and queries this many times, so late
/// events of the second ingest dirty suffix chains the first queries
/// built.
const SUBROUNDS: usize = 2;
const LATE_PER_MILLE: u64 = 20;
/// `(key, k)` pairs checked against an offline merge of epoch sketches.
const MERGE_CHECKS: usize = 64;
/// Keys whose ring slots feed the merge, ML and codec replay rows.
const REPLAY_KEYS: usize = 32;

fn cfg() -> EllConfig {
    EllConfig::optimal(12).expect("ELL(2,20) at p = 12")
}

struct Inputs {
    labels: Vec<String>,
    events: Vec<EpochEvent>,
    /// Per epoch: `QUERIES` `(key, k)` pairs.
    queries: Vec<(u32, usize)>,
    /// Exact distinct counts per key over the final k-epoch windows,
    /// k = 1..=8.
    exact: Vec<[u64; RING]>,
}

fn setup(seed: u64) -> Inputs {
    let labels = gen::labels(KEYS);
    let mut events = gen::windowed_events(
        KEYS,
        ZIPF_S,
        PER_EPOCH,
        DRIFT,
        EPOCHS,
        gen::sub_seed(seed, 4),
    );
    gen::reassign_late(&mut events, LATE_PER_MILLE, gen::sub_seed(seed, 5));
    // Query keys are the keys of random events of the sub-round just
    // ingested (so hot keys dominate and every queried key has been
    // observed).
    let (sub_events, sub_queries) = (PER_EPOCH / SUBROUNDS, QUERIES / SUBROUNDS);
    let picks = gen::uniform_in(sub_events as u64, EPOCHS * QUERIES, gen::sub_seed(seed, 6));
    let ks = gen::uniform_in(RING as u64, EPOCHS * QUERIES, gen::sub_seed(seed, 7));
    let queries = picks
        .iter()
        .zip(&ks)
        .enumerate()
        .map(|(i, (&p, &k))| {
            let sub_round = i / sub_queries;
            (
                events[sub_round * sub_events + p as usize - 1].key,
                k as usize,
            )
        })
        .collect();
    let last = (EPOCHS - 1) as u32;
    let mut sets: Vec<HashSet<u64>> = vec![HashSet::new(); KEYS];
    let mut exact = vec![[0u64; RING]; KEYS];
    for k in 1..=RING {
        let tag = last + 1 - k as u32;
        for e in events.iter().filter(|e| e.epoch == tag) {
            sets[e.key as usize].insert(e.hash);
        }
        for (counts, set) in exact.iter_mut().zip(&sets) {
            counts[k - 1] = set.len() as u64;
        }
    }
    Inputs {
        labels,
        events,
        queries,
        exact,
    }
}

#[derive(Default)]
struct Epochs {
    /// Seconds spent in advance and ingest.
    ingest_s: f64,
    query_us: Vec<f64>,
    by_k: [Vec<f64>; RING],
}

/// Feeds `arrivals` through one `WindowIngestSession` per thread;
/// returns the threads' span recorders.
fn ingest(
    store: &WindowedStore,
    inp: &Inputs,
    arrivals: &[EpochEvent],
    tr: &Tracer,
    id: u64,
) -> Vec<Tracer> {
    std::thread::scope(|s| {
        let handles: Vec<_> = arrivals
            .chunks(arrivals.len().div_ceil(THREADS))
            .map(|part| {
                let mut tr = tr.fork();
                let labels = &inp.labels;
                s.spawn(move || {
                    let root = tr.open("ingest.thread", None, id);
                    let mut f = WindowFeed {
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
    })
}

fn slide(
    inp: &Inputs,
    tr: &mut Tracer,
    report: &mut Report,
    rep: usize,
) -> (WindowedStore, Epochs) {
    let store = WindowedStore::new(SHARDS, cfg(), RING).expect("valid window store");
    let mut out = Epochs::default();
    let sub_events = PER_EPOCH / SUBROUNDS;
    let sub_queries = QUERIES / SUBROUNDS;
    for epoch in 0..EPOCHS {
        let id = (rep * EPOCHS + epoch) as u64;
        // Loop-thread roots cover the sequential sections; each ingest
        // thread's session lifetime is a root of its own.
        let t = Instant::now();
        let root = tr.open("epoch", None, id);
        tr.span("window.advance", Some(root), id, || {
            store.advance(epoch as u64)
        });
        tr.close(root);
        out.ingest_s += t.elapsed().as_secs_f64();
        for sub in 0..SUBROUNDS {
            let first = epoch * PER_EPOCH + sub * sub_events;
            let t = Instant::now();
            let forks = ingest(&store, inp, &inp.events[first..first + sub_events], tr, id);
            out.ingest_s += t.elapsed().as_secs_f64();
            let root = tr.open("epoch", None, id);
            let mut found = 0usize;
            let q0 = epoch * QUERIES + sub * sub_queries;
            for (q, &(key, k)) in inp.queries[q0..q0 + sub_queries].iter().enumerate() {
                let label = &inp.labels[key as usize];
                let t = CallClock::now();
                let est = tr.span(
                    "window.estimate_window",
                    Some(root),
                    (q0 + q) as u64,
                    || store.estimate_window(label, k),
                );
                let us = t.elapsed_us();
                out.query_us.push(us);
                out.by_k[k - 1].push(us);
                found += usize::from(est.is_some());
            }
            report.check(found == sub_queries, || {
                format!("epoch {epoch}: {found} of {sub_queries} observed keys answered")
            });
            tr.close(root);
            for f in forks {
                tr.absorb(f);
            }
        }
    }
    report.ok_ops((EPOCHS * (PER_EPOCH + QUERIES)) as u64);
    (store, out)
}

/// Post-phase output checks; returns the relative errors of every
/// key's final k-epoch window estimates, k = 1..=8.
fn check(inp: &Inputs, store: &WindowedStore, report: &mut Report) -> Vec<f64> {
    let cur = store.current_epoch();
    for i in 0..MERGE_CHECKS {
        let (key, k) = inp.queries[inp.queries.len() - 1 - i * 7];
        let label = &inp.labels[key as usize];
        let mut merged = exaloglog::ExaLogLog::new(cfg());
        let mut complete = true;
        for back in 0..k as u64 {
            match store.epoch_sketch(label, cur - back) {
                Some(s) => merged.merge_from(&s).expect("same config"),
                None => complete = false,
            }
        }
        let est = store.estimate_window(label, k);
        report.check(
            complete && est.map(f64::to_bits) == Some(merged.estimate().to_bits()),
            || {
                format!(
                    "{label}, k={k}: estimate_window {est:?} vs offline merge {}",
                    merged.estimate()
                )
            },
        );
    }
    let mut rel = Vec::new();
    for (key, exact) in inp.exact.iter().enumerate() {
        let label = &inp.labels[key];
        for (k, &exact) in (1..=RING).zip(exact) {
            let est = store.estimate_window(label, k);
            // A key last seen before the window is known but empty in it.
            let est = if exact == 0 {
                est.filter(|&e| e > 0.0)
            } else {
                est
            };
            rel.extend(common::check_estimate(report, &cfg(), label, est, exact));
        }
    }
    rel
}

pub fn run(args: &Args, report: &mut Report, spans: &mut Tracer) {
    report.label("store_config", cfg());
    report.label("shards", SHARDS);
    report.label("ring_epochs", RING);
    report.label("tier_thresholds", "none");
    report.label("clients", THREADS);
    report.label(
        "loop",
        "closed: per epoch advance, two ingest threads, then one query client",
    );
    report.label("epochs_per_rep", EPOCHS);
    let mut e2e = EndToEnd::default();
    let mut traced_eps = Vec::new();
    let mut by_k: [Vec<f64>; RING] = Default::default();
    let mut replay_done = false;
    crate::for_reps(args, |rep, traced| {
        let (inp, setup_s) = timed(|| setup(gen::rep_seed(args.seed, rep)));
        let mut tr = Tracer::new(traced);
        let (store, epochs) = slide(&inp, &mut tr, report, rep);
        let eps = (EPOCHS * PER_EPOCH) as f64 / epochs.ingest_s;
        let rel = check(&inp, &store, report);
        if traced {
            traced_eps.push(eps);
            for (acc, v) in by_k.iter_mut().zip(&epochs.by_k) {
                acc.extend(v);
            }
            let ws = store.window_stats();
            report.metric(
                "window.advance_ms",
                span_median(&tr, "window.advance", 1e6),
                "ms",
            );
            report.metric(
                "window.suffix_hit_ratio",
                ws.suffix_hits as f64 / (ws.suffix_hits + ws.lazy_rebuilds).max(1) as f64,
                "ratio",
            );
            report.metric(
                "window.entries_built",
                ws.suffix_entries_built as f64,
                "count",
            );
            report.metric(
                "window.dirty_invalidations",
                ws.dirty_invalidations as f64,
                "count",
            );
            *spans = tr;
            if !replay_done {
                replay_rows(&inp, &store, report);
                replay_done = true;
            }
        } else {
            for _ in 0..common::SNAPSHOTS {
                let t = CallClock::now();
                let _bytes = store.snapshot_bytes();
                e2e.checkpoint_ms.push(t.elapsed_us() / 1e3);
            }
            e2e.setup_s.push(setup_s);
            e2e.events_per_s.push(eps);
            let bytes_per_key = store.memory_bytes() as f64 / store.key_count() as f64;
            e2e.final_state(rep, bytes_per_key, &rel);
            e2e.queries(&epochs.query_us);
        }
    });
    if !args.trace {
        e2e.emit(report);
        return;
    }
    for (k, lat) in by_k.iter().enumerate() {
        report.metric(
            format!("window.query_us_k{}", k + 1),
            crate::stats::median(lat),
            "us",
        );
    }
    common::trace_summary(
        report,
        spans,
        &traced_eps,
        &e2e.events_per_s,
        EPOCHS * PER_EPOCH,
    );
}

/// Hashing and sketch-insert rows replayed on the last epoch's
/// arrivals; merge, ML and codec rows on the ring slots of the keys
/// with the largest final windows.
fn replay_rows(inp: &Inputs, store: &WindowedStore, report: &mut Report) {
    let last = &inp.events[(EPOCHS - 1) * PER_EPOCH..];
    let keys: Vec<&str> = last
        .iter()
        .map(|e| inp.labels[e.key as usize].as_str())
        .collect();
    replay::hashing(&keys, report);
    let groups = replay::group_by_key(last.iter().map(|e| (e.key, e.hash)));
    replay::sketches(cfg(), &groups, report);
    let mut by_size: Vec<usize> = (0..KEYS).collect();
    by_size.sort_by_key(|&k| std::cmp::Reverse(inp.exact[k][RING - 1]));
    let cur = store.current_epoch();
    let slots: Vec<_> = by_size[..REPLAY_KEYS]
        .iter()
        .flat_map(|&k| {
            (0..RING as u64).filter_map(move |j| store.epoch_sketch(&inp.labels[k], cur - j))
        })
        .collect();
    replay::dense_rows(&slots, report);
    // Each session sees a sub-round's share of one thread and buffers
    // one delta per (key, epoch).
    let ids: Vec<u64> = last
        .iter()
        .map(|e| u64::from(e.epoch) << 32 | u64::from(e.key))
        .collect();
    let per_delta: Vec<f64> = ids
        .chunks(PER_EPOCH / SUBROUNDS / THREADS)
        .map(|c| replay::events_per_delta(c, AUTO_FLUSH))
        .collect();
    report.metric(
        "session.events_per_delta",
        crate::stats::median(&per_delta),
        "count",
    );
}
