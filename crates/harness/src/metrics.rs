//! Named-metric JSON emission for the bench binaries (`BENCH_*.json`):
//! one flat `{"suite": ..., "metrics": {name: {value, unit}}}` document
//! plus the matching baseline parser, shared so the three bench binaries
//! stop hand-rolling the same serialisation.

use std::fmt::Write as _;

/// One named scalar metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (e.g. `pingpong_8b_latency_us`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string (e.g. `us`, `MB/s`, `Gflop/s`, `x`).
    pub unit: &'static str,
}

/// Collects named metrics and serialises them as a `BENCH_*.json`
/// document (serde-free, line-oriented so [`parse_baseline`] can read it
/// back without a JSON parser).
#[derive(Clone, Debug)]
pub struct MetricSink {
    suite: &'static str,
    metrics: Vec<Metric>,
}

impl MetricSink {
    /// An empty sink for `suite` (the JSON document's `"suite"` field).
    pub fn new(suite: &'static str) -> MetricSink {
        MetricSink {
            suite,
            metrics: Vec::new(),
        }
    }

    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The collected metrics, in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Looks a metric value up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Merges a prior run: every `(name, value)` pair is re-emitted as
    /// `<name>_baseline`, and names present in the current run also get
    /// a `<name>_speedup` ratio (higher-is-better; names ending in `_us`
    /// or `_s` are treated as times, where lower is better — except
    /// `_per_s`, which is a rate). Returns the speedups that were emitted.
    pub fn merge_baseline(&mut self, baseline: &[(String, f64)]) -> Vec<(String, f64)> {
        let current: Vec<(String, f64, &'static str)> = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value, m.unit))
            .collect();
        let mut speedups = Vec::new();
        for (name, value) in baseline {
            let is_time =
                (name.ends_with("_us") || name.ends_with("_s")) && !name.ends_with("_per_s");
            let now = current.iter().find(|(n, _, _)| n == name);
            let unit = match now {
                Some(&(_, _, unit)) => unit,
                None if is_time => "us",
                None => "MB/s",
            };
            self.push(format!("{name}_baseline"), *value, unit);
            if let Some(&(_, now, _)) = now {
                let speedup = if is_time { value / now } else { now / value };
                self.push(format!("{name}_speedup"), speedup, "x");
                speedups.push((name.clone(), speedup));
            }
        }
        speedups
    }

    /// Serialises the sink as one JSON document.
    pub fn to_json(&self) -> String {
        let mut json = format!("{{\n  \"suite\": \"{}\",\n  \"metrics\": {{\n", self.suite);
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            writeln!(
                json,
                "    \"{}\": {{ \"value\": {}, \"unit\": \"{}\" }}{comma}",
                m.name,
                fmt_value(m.value),
                m.unit
            )
            .unwrap();
        }
        json.push_str("  }\n}\n");
        json
    }

    /// Writes the JSON document to `path`.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.to_json()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }
}

/// Fixed-point for ordinary magnitudes, scientific for the extremes
/// (verification residuals near 1e-12 must not round to 0.0000).
fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 1e-3 && v.abs() < 1e9) {
        format!("{v:.4}")
    } else {
        format!("{v:.6e}")
    }
}

/// Extracts `"name": { "value": X` pairs from a prior `BENCH_*.json`
/// (the exact format [`MetricSink::to_json`] writes; no general JSON
/// parser needed). `_baseline` and `_speedup` entries from an earlier
/// merge are skipped so baselines don't compound.
pub fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(idx) = rest.find("\"value\":") else {
            continue;
        };
        let tail = rest[idx + 8..].trim_start();
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            if !name.ends_with("_baseline") && !name.ends_with("_speedup") {
                out.push((name.to_string(), v));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_roundtrips_through_parse_baseline() {
        let mut sink = MetricSink::new("mp-transport");
        sink.push("pingpong_8b_latency_us", 1.25, "us");
        sink.push("pingpong_4096b_bw_mbs", 812.5, "MB/s");
        let parsed = parse_baseline(&sink.to_json());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "pingpong_8b_latency_us");
        assert!((parsed[0].1 - 1.25).abs() < 1e-9);
        assert!((parsed[1].1 - 812.5).abs() < 1e-9);
    }

    #[test]
    fn tiny_values_survive_serialisation() {
        let mut sink = MetricSink::new("fft");
        sink.push("gfft_p4_max_error", 3.25e-12, "abs");
        let parsed = parse_baseline(&sink.to_json());
        assert!((parsed[0].1 - 3.25e-12).abs() < 1e-18);
    }

    #[test]
    fn baseline_merge_emits_speedups() {
        let mut sink = MetricSink::new("s");
        sink.push("a_us", 2.0, "us");
        sink.push("b_mbs", 200.0, "MB/s");
        sink.push("c_per_s", 200.0, "switch/s");
        let speedups = sink.merge_baseline(&[
            ("a_us".into(), 4.0),
            ("b_mbs".into(), 100.0),
            ("c_per_s".into(), 100.0),
            ("gone".into(), 1.0),
        ]);
        // Lower time, higher bandwidth and higher rate all read as 2x
        // (`_per_s` ends in `_s` but is not a time).
        assert_eq!(speedups.len(), 3);
        assert!(speedups.iter().all(|(_, s)| (s - 2.0).abs() < 1e-12));
        assert!(sink
            .to_json()
            .contains("\"c_per_s_baseline\": { \"value\": 100.0000, \"unit\": \"switch/s\" }"));
        assert_eq!(sink.get("a_us_baseline"), Some(4.0));
        assert_eq!(sink.get("gone_baseline"), Some(1.0));
        assert!(sink.get("gone_speedup").is_none());
    }

    #[test]
    fn derived_entries_do_not_compound() {
        let mut sink = MetricSink::new("s");
        sink.push("a_us", 2.0, "us");
        sink.merge_baseline(&[("a_us".into(), 4.0)]);
        let parsed = parse_baseline(&sink.to_json());
        assert_eq!(parsed.len(), 1, "baseline/speedup entries are skipped");
        assert_eq!(parsed[0].0, "a_us");
    }
}
