//! Metric, label and output-check bookkeeping, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    labels: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn label(&mut self, name: &str, value: impl ToString) {
        self.labels.insert(name.to_string(), value.to_string());
    }

    /// Counts one output check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    /// Counts `n` operations that completed without error.
    pub fn ok_ops(&mut self, n: u64) {
        self.attempted += n;
    }

    #[must_use]
    pub fn metric_names(&self) -> Vec<&str> {
        self.metrics.keys().map(String::as_str).collect()
    }

    #[must_use]
    pub fn labels_json(&self) -> String {
        let body: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", esc(k), esc(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result object: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    #[must_use]
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}",
                esc(name)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }

    /// Human-readable metric lines.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, (value, unit)) in &self.metrics {
            let _ = writeln!(out, "  {name:<32} {value:>16.6} {unit}");
        }
        out
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
        let rest = &text[text.find(key)? + key.len()..];
        let start = rest.find('"')? + 1;
        let len = rest[start..].find('"')?;
        Some(&rest[start..start + len])
    }

    /// `(name, unit)` of every metric declared in `BENCHMARK.json`, and
    /// the workload names, read with a plain text scan.
    fn declared() -> (Vec<(String, String)>, Vec<String>) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let mut metrics = Vec::new();
        let mut workloads = Vec::new();
        for entry in text.split('{').skip(2) {
            let name = quoted_after(entry, "\"name\":")
                .expect("entry has a name")
                .to_string();
            match quoted_after(entry, "\"unit\":") {
                Some(unit) => metrics.push((name, unit.to_string())),
                None => workloads.push(name),
            }
        }
        (metrics, workloads)
    }

    #[test]
    fn emitted_metrics_match_the_declaration() {
        let (declared, workloads) = declared();
        assert_eq!(workloads, crate::WORKLOADS);
        let mut emitted = Vec::new();
        for traced in [false, true] {
            for name in crate::metric_names(traced) {
                let entry = (name.to_string(), crate::unit_of(name).to_string());
                assert!(
                    declared.contains(&entry),
                    "trace {traced} emits undeclared metric {entry:?}"
                );
                emitted.push(entry);
            }
        }
        assert_eq!(
            emitted.len(),
            declared.len(),
            "declared metrics never emitted"
        );
    }

    #[test]
    fn layer_map_covers_every_per_layer_metric_once() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
        let text = std::fs::read_to_string(path).expect("layers.json");
        for (name, _) in crate::PER_LAYER {
            let quoted = format!("\"{name}\"");
            assert_eq!(text.matches(&quoted).count(), 1, "{name} in layers.json");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        r.check(true, String::new);
        r.check(false, || "x".into());
        let line = r.result_json();
        assert!(line
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 5e-1, \"unit\": \"s\"}"));
    }
}
