//! Pieces shared by the workloads: span-wrapped session feeding, the
//! end-to-end aggregates and the traced-run summary rows.

use crate::gen::{EpochEvent, Event};
use crate::report::Report;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use ell_store::{IngestSession, WindowIngestSession};
use exaloglog::theory::{predicted_rmse, Estimator};
use exaloglog::EllConfig;

/// Session auto-flush threshold, pinned explicitly (it equals the
/// library default) so the traced run knows which insert flushes.
pub const AUTO_FLUSH: usize = 32 * 1024;

/// Final-store snapshots timed per rep for `checkpoint_ms` where the
/// workload has no checkpoints of its own.
pub const SNAPSHOTS: usize = 3;

/// Events per `session.insert` span in the traced run.
pub const BATCH: usize = 4096;

/// A session the feed loop drives: one insert per event, and the
/// buffered count that tells when the next insert auto-flushes.
pub trait Feed {
    type Ev;
    fn put(&mut self, e: &Self::Ev);
    fn buffered(&self) -> usize;
}

pub struct KeyedFeed<'s, 'l> {
    pub session: IngestSession<'s>,
    pub labels: &'l [String],
}

impl Feed for KeyedFeed<'_, '_> {
    type Ev = Event;
    fn put(&mut self, e: &Event) {
        self.session.insert(&self.labels[e.key as usize], e.hash);
    }
    fn buffered(&self) -> usize {
        self.session.buffered_hashes()
    }
}

pub struct WindowFeed<'s, 'l> {
    pub session: WindowIngestSession<'s>,
    pub labels: &'l [String],
}

impl Feed for WindowFeed<'_, '_> {
    type Ev = EpochEvent;
    fn put(&mut self, e: &EpochEvent) {
        self.session
            .insert(&self.labels[e.key as usize], u64::from(e.epoch), e.hash);
    }
    fn buffered(&self) -> usize {
        self.session.buffered_hashes()
    }
}

/// Inserts `events` through `feed`. Traced, inserts run in
/// `session.insert` spans of up to [`BATCH`] events, and the single
/// insert that triggers an auto-flush runs in a `session.flush` span.
pub fn feed<F: Feed>(feed: &mut F, events: &[F::Ev], tr: &mut Tracer, root: usize, id: u64) {
    if !tr.is_on() {
        for e in events {
            feed.put(e);
        }
        return;
    }
    let mut i = 0;
    while i < events.len() {
        let until_flush = AUTO_FLUSH - feed.buffered();
        if until_flush == 1 {
            tr.span("session.flush", Some(root), id, || feed.put(&events[i]));
            i += 1;
            continue;
        }
        let n = BATCH.min(until_flush - 1).min(events.len() - i);
        tr.span("session.insert", Some(root), id, || {
            for e in &events[i..i + n] {
                feed.put(e);
            }
        });
        i += n;
    }
}

/// The largest accepted `|estimate − exact|`: [`crate::RMSE_MULTIPLE`]
/// predicted relative RMSEs of the exact count, plus two elements for
/// the granularity of tiny counts (one register collision at n = 28
/// already costs 3.5 %, more than six asymptotic RMSEs at p = 12).
#[must_use]
pub fn error_bound(cfg: &EllConfig, exact: u64) -> f64 {
    crate::RMSE_MULTIPLE * predicted_rmse(cfg, Estimator::MaximumLikelihood) * exact as f64 + 2.0
}

/// Only estimates of at least this many distinct elements enter
/// `rel_err_rms`: below it the granularity of tiny counts, not the
/// sketch's statistics, sets the relative error. Every estimate is
/// still checked.
pub const REL_ERR_MIN_COUNT: u64 = 300;

/// Checks one final estimate against its exact count and returns the
/// relative error when the count reaches [`REL_ERR_MIN_COUNT`] (an
/// exact count of 0 requires an unobserved key).
pub fn check_estimate(
    report: &mut Report,
    cfg: &EllConfig,
    key: &str,
    estimate: Option<f64>,
    exact: u64,
) -> Option<f64> {
    if exact == 0 {
        report.check(estimate.is_none_or(|e| e == 0.0), || {
            format!("{key}: estimate {estimate:?} for an empty key")
        });
        return None;
    }
    report.check(estimate.is_some(), || {
        format!("{key}: estimate None for an observed key")
    });
    let est = estimate?;
    let rel = est / exact as f64 - 1.0;
    report.check(
        (est - exact as f64).abs() <= error_bound(cfg, exact),
        || format!("{key}: estimate {est} vs exact {exact} (rel {rel:.4})"),
    );
    (exact >= REL_ERR_MIN_COUNT).then_some(rel)
}

#[must_use]
pub fn rms(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x * x).sum::<f64>() / xs.len().max(1) as f64).sqrt()
}

/// Metrics every workload reports from its untraced reps: medians of
/// the per-rep values (query percentiles are taken per rep, then the
/// median); `rel_err_rms` pools the relative errors of the counted
/// reps.
#[derive(Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub events_per_s: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    bytes_per_key: Vec<f64>,
    rel_errs: Vec<f64>,
    query_p50_us: Vec<f64>,
    query_tail_us: Vec<f64>,
    query_tail: f64,
    query_samples: usize,
}

impl EndToEnd {
    /// Adds one rep's final-state figures. Only the first
    /// [`crate::MIN_REPS`] reps, which every run makes, count, so
    /// `bytes_per_key` and `rel_err_rms` depend on the seed alone.
    pub fn final_state(&mut self, rep: usize, bytes_per_key: f64, rel_errs: &[f64]) {
        if rep < crate::MIN_REPS {
            self.bytes_per_key.push(bytes_per_key);
            self.rel_errs.extend(rel_errs);
        }
    }

    /// Adds one rep's query latencies: their median, and the tail
    /// percentile chosen for the rep's sample count (p99 from 1000
    /// samples up, else the highest lower percentile that keeps ten
    /// samples beyond it).
    pub fn queries(&mut self, lat_us: &[f64]) {
        let tail = tail_percentile(lat_us.len()).unwrap_or(50.0);
        self.query_p50_us.push(percentile(lat_us, 50.0));
        self.query_tail_us.push(percentile(lat_us, tail));
        self.query_tail = tail;
        self.query_samples += lat_us.len();
    }

    pub fn emit(&self, report: &mut Report) {
        report.metric("setup_s", median(&self.setup_s), "s");
        report.metric("events_per_s", median(&self.events_per_s), "events/s");
        report.metric("checkpoint_ms", median(&self.checkpoint_ms), "ms");
        report.metric("bytes_per_key", median(&self.bytes_per_key), "bytes");
        report.metric("rel_err_rms", rms(&self.rel_errs), "ratio");
        report.metric("query_p50_us", median(&self.query_p50_us), "us");
        report.metric("query_p99_us", median(&self.query_tail_us), "us");
        report.label("query_samples", self.query_samples);
        report.label("query_tail_percentile", self.query_tail);
        report.label("reps", self.events_per_s.len());
    }
}

/// Span name → self-share metric.
const SELF_SHARES: [(&str, &str); 8] = [
    ("session.insert", "self.session_insert_share"),
    ("session.flush", "self.session_flush_share"),
    ("store.demote_idle", "self.store_demote_share"),
    ("store.estimate", "self.store_estimate_share"),
    ("store.snapshot_bytes", "self.store_snapshot_share"),
    ("window.advance", "self.window_advance_share"),
    ("window.estimate_window", "self.window_query_share"),
    ("", "self.unattributed_share"),
];

/// Traced-run summary rows: per-layer self time as a share of the
/// timed phases, coverage, overhead and the session rows.
///
/// `trace.coverage` is the summed layer-call spans over the summed root
/// spans: the loop thread's sequential sections (a round, or an epoch's
/// advance and query sections) and each ingest thread's session
/// lifetime, so with two ingest threads the denominator counts both
/// threads' wall time.
/// `trace.overhead` is traced `events_per_s` over untraced.
pub fn trace_summary(
    report: &mut Report,
    tr: &Tracer,
    traced_eps: &[f64],
    untraced_eps: &[f64],
    session_events: usize,
) {
    let (layer_ns, root_ns) = tr.coverage_parts_ns();
    let self_ns = tr.self_times_ns();
    for (span, metric) in SELF_SHARES {
        let ns = if span.is_empty() {
            root_ns - layer_ns.min(root_ns)
        } else {
            self_ns.get(span).copied().unwrap_or(0)
        };
        report.metric(metric, ns as f64 / root_ns.max(1) as f64, "ratio");
    }
    report.metric(
        "trace.coverage",
        layer_ns as f64 / root_ns.max(1) as f64,
        "ratio",
    );
    report.metric(
        "trace.overhead",
        median(traced_eps) / median(untraced_eps).max(f64::MIN_POSITIVE),
        "ratio",
    );
    report.label("traced_reps", traced_eps.len());
    report.label("untraced_reps", untraced_eps.len());

    let inserts = tr.durations_ns("session.insert");
    if !inserts.is_empty() {
        let flush_ms: Vec<f64> = tr
            .durations_ns("session.flush")
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        // The few inserts that trigger a flush sit in flush spans.
        let insert_ns: f64 = inserts.iter().sum();
        report.metric(
            "session.insert_ns",
            insert_ns / session_events.max(1) as f64,
            "ns",
        );
        report.metric("session.flush_ms_p50", percentile(&flush_ms, 50.0), "ms");
        let tail = tail_percentile(flush_ms.len()).unwrap_or(50.0);
        report.metric("session.flush_ms_p99", percentile(&flush_ms, tail), "ms");
        report.metric("session.flushes", flush_ms.len() as f64, "count");
        report.label("session_flush_tail_percentile", tail);
    }
}

/// Median span duration of `name` in the given unit divisor (1e3 for
/// µs, 1e6 for ms).
#[must_use]
pub fn span_median(tr: &Tracer, name: &str, div: f64) -> f64 {
    let d: Vec<f64> = tr.durations_ns(name).iter().map(|ns| ns / div).collect();
    median(&d)
}
