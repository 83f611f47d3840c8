//! Harness-side span recorder for the traced pass.
//!
//! A span brackets one call the harness makes into the program under test
//! (generate, preparing-only call, timed call, baseline leg, layer probe).
//! Spans nest by call order, live in memory, and are written once at exit
//! as a Chrome-trace document. Spans *inside* the crates are out of scope:
//! the program is only measured from outside.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed or still-open span. Times are ns since the recorder's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to [`Recorder::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled and does nothing otherwise, so the untraced
/// pass runs the same harness code without the bookkeeping.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, workload: &str) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close in the reverse of the order they opened"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Record a span around `f`.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome-trace document: complete (`X`) events in µs,
    /// each carrying the workload id, its own index, its parent's index and
    /// its self time.
    pub fn chrome_trace(&self) -> String {
        assert!(self.open.is_empty(), "a span is still open");
        let self_ns = self_times(&self.spans);
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"harness\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"workload\":\"{}\",\"id\":{i},\"parent\":{parent},\
                 \"self_us\":{:.3}}}}}",
                pipad_gpu_sim::json_escape(&s.name),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                pipad_gpu_sim::json_escape(&self.workload),
                self_ns[i] as f64 / 1e3,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. The harness is single-threaded and spans nest by
/// a stack, so siblings never overlap and their cover is their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_cover = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_cover[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&child_cover)
        .map(|(s, &c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_child_cover() {
        let spans = [
            span("run", 0, 100, None),
            span("setup", 10, 40, Some(0)),
            span("generate", 12, 20, Some(1)),
            span("timed", 50, 90, Some(0)),
            span("probe", 100, 130, None),
        ];
        // run: 100 − (30 + 40); setup: 30 − 8; grandchildren do not count
        // twice against `run`.
        assert_eq!(self_times(&spans), vec![30, 22, 8, 40, 30]);
    }

    #[test]
    fn self_times_add_up_to_the_root_spans() {
        let spans = [
            span("a", 0, 50, None),
            span("b", 5, 25, Some(0)),
            span("c", 6, 10, Some(1)),
            span("d", 30, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 50);
    }

    #[test]
    fn recorder_nests_by_call_order_and_exports_valid_json() {
        let mut rec = Recorder::new(true, "w\"1");
        let outer = rec.begin("outer");
        rec.scope("inner", || std::hint::black_box(1 + 1));
        rec.end(outer);
        rec.scope("next", || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = rec.chrome_trace();
        pipad_gpu_sim::validate_json(&doc).expect("span export must be well-formed JSON");
        assert!(doc.contains("\"workload\":\"w\\\"1\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, "w");
        let id = rec.begin("x");
        rec.end(id);
        assert_eq!(rec.scope("y", || 7), 7);
        assert!(rec.spans().is_empty());
    }
}
