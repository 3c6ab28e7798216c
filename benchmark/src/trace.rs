//! Span recording for the traced pass. Spans are taken here, in the
//! benchmark's own files, around each call into a layer of the stack; they
//! stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;

use harness::Stopwatch;

use crate::json::Json;

/// Schema tag of the trace file.
pub const TRACE_SCHEMA: &str = "hpcbench-benchmark-trace-v1";

/// One recorded interval: a call into `layer`, caused by `parent`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Position in the recording order; the root is 0.
    pub id: usize,
    /// The enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// What was called (`cell:PingPong/virtual/p2048/1024`, `write_all`...).
    pub name: String,
    /// The layer the call enters.
    pub layer: &'static str,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

/// Records nested spans, or nothing at all when switched off: the untimed
/// path through [`Tracer::span`] is one branch, so traced and untraced
/// passes run the same code.
pub struct Tracer {
    clock: Option<Stopwatch>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            clock: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records every span, with its clock at zero.
    pub fn on() -> Tracer {
        Tracer {
            clock: Some(Stopwatch::start()),
            ..Tracer::off()
        }
    }

    /// Runs `f` inside a span named `name` entering `layer`. Spans opened
    /// by `f` through the tracer it is handed become children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let Some(clock) = &self.clock else {
            return f(self);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            layer,
            start_us: clock.elapsed_us(),
            end_us: f64::NAN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let clock = self.clock.as_ref().expect("tracing stays on");
        self.spans[id].end_us = clock.elapsed_us();
        out
    }

    /// The finished spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans still open");
        &self.spans
    }
}

/// Self time of every span, seconds: its duration minus the part of it
/// its direct children cover. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Self time summed per layer, seconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer).or_insert(0.0) += own;
    }
    by_layer
}

/// Total duration of the spans whose name starts with `prefix`, seconds.
pub fn total_named(spans: &[Span], prefix: &str) -> f64 {
    // Folded from +0.0: an empty `sum()` is -0.0, which prints as "-0".
    spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .fold(0.0, |total, s| total + s.secs())
}

fn spans_json(spans: &[Span]) -> Json {
    let own = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(&own)
            .map(|(s, own)| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(&s.name)),
                    ("layer", Json::str(s.layer)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    ("self_us", Json::Num(own * 1e6)),
                ])
            })
            .collect(),
    )
}

/// The trace file: the traced pass's spans (one root, `pass`) with their
/// self times and the per-layer sums, the probes' spans (their own root),
/// the exact counts taken at the same boundaries, and the host.
pub fn trace_json(
    workload: &str,
    seed: u64,
    pass: &[Span],
    probes: &[Span],
    counts: &[(String, f64)],
) -> Json {
    Json::obj([
        ("schema", Json::str(TRACE_SCHEMA)),
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("host", crate::host::facts().to_json()),
        ("spans", spans_json(pass)),
        (
            "layer_self_s",
            Json::obj(
                layer_self_times(pass)
                    .into_iter()
                    .map(|(l, s)| (l, Json::Num(s))),
            ),
        ),
        ("probe_spans", spans_json(probes)),
        (
            "counts",
            Json::obj(counts.iter().map(|(k, v)| (k.as_str(), Json::Num(*v)))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 us; two sibling children 10..30 and 40..90; the
        // second has a nested child 50..70.
        let spans = vec![
            span(0, None, "bench", 0.0, 100.0),
            span(1, Some(0), "harness", 10.0, 30.0),
            span(2, Some(0), "harness", 40.0, 90.0),
            span(3, Some(2), "imb", 50.0, 70.0),
        ];
        let own: Vec<f64> = self_times(&spans).iter().map(|s| s * 1e6).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(own[0], 30.0), "root keeps what no child covers");
        assert!(close(own[1], 20.0));
        assert!(
            close(own[2], 30.0),
            "a grandchild is charged to its parent only"
        );
        assert!(close(own[3], 20.0));
        let layers = layer_self_times(&spans);
        assert!(close(layers["bench"] * 1e6, 30.0));
        assert!(close(layers["harness"] * 1e6, 50.0));
        assert!(close(layers["imb"] * 1e6, 20.0));
        // Self times partition the root exactly.
        assert!(close(own.iter().sum::<f64>(), 100.0));
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut t = Tracer::on();
        let got = t.span("bench", "root", |t| {
            t.span("harness", "a", |t| t.span("imb", "a1", |_| 1));
            t.span("core", "b", |_| 2)
        });
        assert_eq!(got, 2);
        let spans = t.spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        for s in spans {
            assert!(s.end_us >= s.start_us, "{s:?}");
        }
        assert!(spans[0].secs() >= spans[1].secs() + spans[3].secs());
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("bench", "root", |t| t.span("imb", "x", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
