//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the workload loop makes into the library (or
//! one round of the loop): name, start, end, parent span and a round
//! or query id. Spans stay in memory and are written out once, at
//! exit. With tracing off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, times in nanoseconds since the tracer's
/// origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Threads of one phase each [`fork`] a
/// recorder with the shared origin and are [`absorb`]ed afterwards.
///
/// [`fork`]: Tracer::fork
/// [`absorb`]: Tracer::absorb
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty recorder sharing this one's origin and switch.
    #[must_use]
    pub fn fork(&self) -> Self {
        Tracer {
            on: self.on,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`Tracer::close`] ends; returns its index
    /// (meaningless with tracing off).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        if self.on {
            let t = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: t,
                end_ns: t,
                parent,
                id,
            });
        }
        self.spans.len().wrapping_sub(1)
    }

    pub fn close(&mut self, idx: usize) {
        if self.on {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let idx = self.open(name, parent, id);
        let r = f();
        self.close(idx);
        r
    }

    /// Durations in nanoseconds of every span named `name`.
    #[must_use]
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per span name in nanoseconds: each span's duration
    /// minus the part its direct children cover.
    #[must_use]
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Total duration of spans with a parent (the layer calls) and of
    /// root spans (the timed phases they sit in).
    #[must_use]
    pub fn coverage_parts_ns(&self) -> (u64, u64) {
        let mut layer = 0;
        let mut root = 0;
        for s in &self.spans {
            if s.parent.is_some() {
                layer += s.dur_ns();
            } else {
                root += s.dur_ns();
            }
        }
        (layer, root)
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.open("round", None, 0);
        t.span("child", Some(root), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.close(root);
        let mut other = t.fork();
        let r2 = other.open("round", None, 1);
        other.span("child", Some(r2), 1, || ());
        other.close(r2);
        t.absorb(other);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 4);
        assert!(lines.lines().nth(3).unwrap().contains("\"parent\":2,"));
        let st = t.self_times_ns();
        let (layer, root_ns) = t.coverage_parts_ns();
        assert!(st["child"] >= 2_000_000);
        assert_eq!(st["round"] + st["child"], root_ns);
        assert!(layer <= root_ns);

        let mut off = Tracer::new(false);
        let idx = off.open("round", None, 0);
        assert_eq!(off.span("x", Some(idx), 0, || 5), 5);
        off.close(idx);
        assert!(off.to_jsonl().is_empty());
    }
}
