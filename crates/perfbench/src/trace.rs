//! In-memory span arena for the traced repetition.
//!
//! Spans are recorded from the harness's own files, around the calls
//! into each layer's public functions (spans inside the libraries are a
//! later change). They stay in memory and are written once, when the
//! workload ends, as Chrome trace-event JSON (`chrome://tracing`,
//! Perfetto). A disabled tracer records nothing, so the end-to-end
//! repetitions run the same harness code with tracing off.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What ran (`core.epoch`, `replay.decode`, …).
    pub name: &'static str,
    /// The layer (crate) the time belongs to.
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Index of the workload in [`crate::metrics::WORKLOADS`]; spans of
    /// one workload run share it.
    pub workload: u32,
}

/// The span arena.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans for workload number `workload`.
    pub fn new(workload: u32) -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(0)
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span; spans opened by `f` through the tracer it
    /// receives become children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            workload: self.workload,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        result
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// part of it its direct children cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        self_time_by_layer(&self.spans)
    }

    /// The arena as Chrome trace-event JSON: one complete (`"ph":"X"`)
    /// event per span, `pid` = workload id, parent id in `args`.
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                Json::obj([
                    ("name", Json::str(span.name)),
                    ("cat", Json::str(span.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(f64::from(span.workload))),
                    ("tid", Json::Num(0.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .to_string()
    }
}

/// See [`Tracer::self_time_by_layer`]. The harness is single-threaded,
/// so sibling spans never overlap and "covered by children" is the sum
/// of the children's durations.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut self_ns: Vec<i128> = spans
        .iter()
        .map(|span| i128::from(span.end_ns) - i128::from(span.start_ns))
        .collect();
    for span in spans {
        if let Some(parent) = span.parent {
            self_ns[parent as usize] -= i128::from(span.end_ns) - i128::from(span.start_ns);
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, ns) in spans.iter().zip(self_ns) {
        *by_layer.entry(span.layer).or_insert(0.0) += ns.max(0) as f64 / 1e9;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            layer,
            start_ns,
            end_ns,
            parent,
            workload: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // bench 0..100 s
        //   core 10..70          (60 total)
        //     vm 20..30, vm 40..60   (30 total)
        //   replay 80..90
        let s = 1_000_000_000;
        let spans = vec![
            span("bench", 0, 100 * s, None),
            span("core", 10 * s, 70 * s, Some(0)),
            span("vm", 20 * s, 30 * s, Some(1)),
            span("vm", 40 * s, 60 * s, Some(1)),
            span("replay", 80 * s, 90 * s, Some(0)),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], 30.0);
        assert_eq!(by_layer["core"], 30.0);
        assert_eq!(by_layer["vm"], 30.0);
        assert_eq!(by_layer["replay"], 10.0);
        let total: f64 = by_layer.values().sum();
        assert_eq!(total, 100.0, "self times partition the root span");
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut tracer = Tracer::new(3);
        let out = tracer.span("bench", "outer", |t| {
            t.span("core", "inner", |_| 1) + t.span("vm", "inner", |_| 2)
        });
        assert_eq!(out, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.workload == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.durations_us("inner").len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_body() {
        let mut tracer = Tracer::disabled();
        assert_eq!(tracer.span("core", "x", |t| t.span("vm", "y", |_| 5)), 5);
        assert!(tracer.spans().is_empty());
        assert!(!tracer.enabled());
    }

    #[test]
    fn chrome_json_is_loadable() {
        let mut tracer = Tracer::new(1);
        tracer.span("bench", "rep", |t| t.span("core", "core.epoch", |_| ()));
        let doc = Json::parse(&tracer.to_chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("core"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Null)
        );
    }
}
