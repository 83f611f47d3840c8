//! Deterministic structured trace of the simulated timeline.
//!
//! Every kernel launch, PCIe copy, stream wait, allocation (including the
//! high-water mark and [`crate::OomError`] hits), CUDA-graph replay and
//! pipeline/trainer control event is recorded as a [`TraceEvent`] keyed on
//! [`SimNanos`]. The recorder is the observability substrate the paper's
//! timeline claims (transfer/compute overlap, pipeline stalls, per-frame
//! breakdowns — Figures 8, 11 and 12) are checked against.
//!
//! It is the simulator's only timeline log and stores each fact once: a
//! 32-byte record of ids into intern tables of names, argument lists and
//! [`KernelArgs`], rendered by one [`Records`] view as a [`TraceEvent`] or
//! as the [`crate::Profiler`]'s [`Sample`]; counter peaks fold the records.
//!
//! ## Determinism contract
//!
//! A trace is a **pure function of the simulated clock**: the same program
//! produces a byte-identical exported trace on every run and under every
//! `PIPAD_THREADS` setting. Nothing here reads wall-clock time, thread ids,
//! hashes with randomized state, or any other ambient source; event order is
//! the (deterministic) program issue order, and [`Tracer::sorted`] imposes a
//! total `(timestamp, duration desc, lane, sequence)` order on top. The
//! exported JSON therefore doubles as a whole-stack determinism oracle — see
//! `tests/trace_golden.rs`.
//!
//! ## Export formats
//!
//! * [`export_chrome_trace`] — Chrome-trace-format JSON (the "JSON Array
//!   with metadata" flavor), loadable in `chrome://tracing` and
//!   [Perfetto](https://ui.perfetto.dev): one *process* per GPU, one
//!   *thread* per simulated stream / copy engine / host lane, a counter
//!   track for device memory.
//! * [`trace_text_summary`] — a compact per-name aggregation for logs.
//!
//! The serializer is hand-rolled (no external deps) with fixed, locale-free
//! formatting; [`crate::validate_json`] keeps the exporter honest.

use crate::cost::KernelCategory;
use crate::device::TransferDir;
use crate::intern::Interner;
use crate::profiler::{ProfSnapshot, Sample, SampleKind};
use crate::time::SimNanos;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Which simulated execution lane (a Chrome-trace "thread") an event lives
/// on. Kernels appear on their issuing stream; copies on their engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Host-side operations (graph slicing, partition assembly, …).
    Host,
    /// Trainer / pipeline-controller control events.
    Control,
    /// Device-memory events and the `device_mem_in_use` counter track.
    Memory,
    /// The host→device copy engine.
    H2D,
    /// The device→host copy engine.
    D2H,
    /// A simulated CUDA stream.
    Stream(usize),
}

impl Lane {
    /// Stable Chrome-trace `tid` for this lane.
    pub fn tid(self) -> u64 {
        match self {
            Lane::Host => 0,
            Lane::Control => 1,
            Lane::Memory => 2,
            Lane::H2D => 3,
            Lane::D2H => 4,
            Lane::Stream(i) => 5 + i as u64,
        }
    }

    /// The lane whose [`Lane::tid`] is `tid`.
    fn from_tid(tid: u32) -> Lane {
        match tid {
            0 => Lane::Host,
            1 => Lane::Control,
            2 => Lane::Memory,
            3 => Lane::H2D,
            4 => Lane::D2H,
            i => Lane::Stream(i as usize - 5),
        }
    }

    /// Human-readable lane name (the Chrome-trace thread name).
    pub fn label(self) -> String {
        match self {
            Lane::Host => "host".to_string(),
            Lane::Control => "pipeline".to_string(),
            Lane::Memory => "memory".to_string(),
            Lane::H2D => "copy-engine h2d".to_string(),
            Lane::D2H => "copy-engine d2h".to_string(),
            Lane::Stream(i) => format!("stream {i}"),
        }
    }
}

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Kernel execution span.
    Kernel,
    /// PCIe copy span.
    Memcpy,
    /// Accounted host-operation span.
    HostOp,
    /// Control-flow span (epoch, frame, CUDA-graph launch window).
    Span,
    /// Point event (stream wait, stage transition, alloc, OOM, decision).
    Instant,
    /// Injected-fault point event (`fault_injected`); its own category so
    /// fault → recovery chains filter cleanly in trace viewers.
    Fault,
    /// Counter sample (device memory in use).
    Counter,
}

impl TraceKind {
    /// Chrome-trace category string.
    pub fn category(self) -> &'static str {
        match self {
            TraceKind::Kernel => "kernel",
            TraceKind::Memcpy => "memcpy",
            TraceKind::HostOp => "host",
            TraceKind::Span => "control",
            TraceKind::Instant => "instant",
            TraceKind::Fault => "fault",
            TraceKind::Counter => "counter",
        }
    }

    /// Whether this kind occupies an interval (Chrome `ph:"X"`).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            TraceKind::Kernel | TraceKind::Memcpy | TraceKind::HostOp | TraceKind::Span
        )
    }
}

/// A trace argument value, rendered into the Chrome `args` object.
///
/// Equal and hashed by value bits, as the intern table needs: `F64(0.0)`
/// and `F64(-0.0)` (which export differently) differ, and so do two NaN
/// payloads, while a NaN equals itself.
#[derive(Clone, Debug)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values export as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl PartialEq for ArgValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ArgValue::U64(a), ArgValue::U64(b)) => a == b,
            (ArgValue::I64(a), ArgValue::I64(b)) => a == b,
            (ArgValue::F64(a), ArgValue::F64(b)) => a.to_bits() == b.to_bits(),
            (ArgValue::Bool(a), ArgValue::Bool(b)) => a == b,
            (ArgValue::Str(a), ArgValue::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ArgValue {}

impl Hash for ArgValue {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            ArgValue::U64(x) => x.hash(h),
            ArgValue::I64(x) => x.hash(h),
            ArgValue::F64(x) => x.to_bits().hash(h),
            ArgValue::Bool(b) => b.hash(h),
            ArgValue::Str(s) => s.hash(h),
        }
    }
}

/// An event's ordered key→value details.
type Args = Arc<[(&'static str, ArgValue)]>;

/// A kernel's one descriptor, interned once per tracer: its
/// [`SampleKind::Kernel`], and what its exported args are built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelArgs {
    /// Kernel family.
    pub category: KernelCategory,
    /// Global-memory requests.
    pub gmem_requests: u64,
    /// Global-memory transactions.
    pub gmem_transactions: u64,
    /// Shared-memory transactions.
    pub smem_transactions: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Warp efficiency, in thousandths.
    pub warp_efficiency_milli: u32,
    /// Duration the kernel would have had under perfect load balance.
    pub balanced: SimNanos,
    /// Load imbalance across SMs, in thousandths.
    pub imbalance_milli: u64,
}

/// One recorded timeline entry, as [`Tracer::events`] renders it from the
/// stored record and the tracer's intern tables.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent<'a> {
    /// Event name (kernel name, `memcpy_h2d`, `epoch`, …).
    pub name: &'static str,
    /// See [`TraceKind`].
    pub kind: TraceKind,
    /// See [`Lane`].
    pub lane: Lane,
    /// Simulated start time (or the instant itself).
    pub ts: SimNanos,
    /// Span duration; [`SimNanos::ZERO`] for instants and counters.
    pub dur: SimNanos,
    /// Ordered key→value details, shared with every event recording an
    /// equal list.
    pub args: &'a [(&'static str, ArgValue)],
}

impl TraceEvent<'_> {
    /// Span end (`ts` for zero-duration events).
    pub fn end(&self) -> SimNanos {
        self.ts + self.dur
    }
}

/// What the log stores per event: 32 bytes, the name, the argument list
/// and (for a kernel) the [`KernelArgs`] as ids into the tracer's tables.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Record {
    ts: SimNanos,
    dur: SimNanos,
    args: u32,
    tid: u32,
    sample: u32,
    name: u16,
    kind: TraceKind,
}

/// Append-only deterministic event recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    pub(crate) records: Vec<Record>,
    /// Every distinct event name, by id.
    names: Interner<&'static str, u16>,
    /// Every distinct argument list recorded, stored once, by id.
    args: Interner<Args, u32>,
    /// Every distinct kernel descriptor recorded, by id (a kernel record's
    /// `sample`).
    kernels: Interner<KernelArgs, u32>,
    /// The argument-list id of each kernel id, so a launch seen before
    /// builds no `category` string.
    kernel_args: Vec<u32>,
    /// Deterministic run-level metadata (e.g. buffer-pool hit counters).
    /// Rendered only by [`trace_text_summary`] — never by
    /// [`export_chrome_trace`], whose JSON is pinned byte-for-byte by
    /// golden tests and must not vary with host-side cache warmth.
    meta: BTreeMap<&'static str, u64>,
}

/// The records of a [`Tracer`] from one position on, in program (issue)
/// order, each rendered as a `T`: [`Events`] renders every record,
/// [`crate::Samples`] the kernel, copy and host-op ones.
#[derive(Clone, Copy, Debug)]
pub struct Records<'a, T> {
    pub(crate) tracer: &'a Tracer,
    pub(crate) from: usize,
    pub(crate) render: fn(&'a Tracer, &Record) -> Option<T>,
}

/// Every recorded event, as [`TraceEvent`]s.
pub type Events<'a> = Records<'a, TraceEvent<'a>>;

/// Iterator over [`Events`].
pub type EventsIter<'a> = RecordsIter<'a, TraceEvent<'a>>;

impl<'a, T> Records<'a, T> {
    /// Every rendered record, in issue order.
    pub fn iter(&self) -> RecordsIter<'a, T> {
        RecordsIter {
            tracer: self.tracer,
            render: self.render,
            records: self.tracer.records[self.from..].iter(),
        }
    }

    /// Number of rendered records (a scan).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether nothing renders.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// The `i`-th rendered record (a scan).
    pub fn get(&self, i: usize) -> Option<T> {
        self.iter().nth(i)
    }

    /// The most recent rendered record.
    pub fn last(&self) -> Option<T> {
        let mut records = self.tracer.records[self.from..].iter().rev();
        records.find_map(|r| (self.render)(self.tracer, r))
    }

    /// The records since `snap` was taken: `snap` is a position in the
    /// whole table, whatever this view starts at.
    pub fn since(&self, snap: ProfSnapshot) -> Self {
        Records {
            from: snap.from,
            ..*self
        }
    }
}

impl<'a, T> IntoIterator for Records<'a, T> {
    type Item = T;
    type IntoIter = RecordsIter<'a, T>;

    fn into_iter(self) -> RecordsIter<'a, T> {
        self.iter()
    }
}

/// Iterator over a [`Records`] view.
#[derive(Clone, Debug)]
pub struct RecordsIter<'a, T> {
    tracer: &'a Tracer,
    render: fn(&'a Tracer, &Record) -> Option<T>,
    records: std::slice::Iter<'a, Record>,
}

impl<T> Iterator for RecordsIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let (tracer, render) = (self.tracer, self.render);
        self.records.find_map(|r| render(tracer, r))
    }
}

impl Tracer {
    /// Create a new instance.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// All events in program (issue) order.
    pub fn events(&self) -> Events<'_> {
        Records {
            tracer: self,
            from: 0,
            render: |t, r| Some(t.view(r)),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The name of `r`.
    fn name(&self, r: &Record) -> &'static str {
        self.names.items()[usize::from(r.name)]
    }

    /// The argument list of `r`.
    fn args(&self, r: &Record) -> &[(&'static str, ArgValue)] {
        &self.args.items()[r.args as usize]
    }

    /// The event `r` stores.
    fn view(&self, r: &Record) -> TraceEvent<'_> {
        TraceEvent {
            name: self.name(r),
            kind: r.kind,
            lane: Lane::from_tid(r.tid),
            ts: r.ts,
            dur: r.dur,
            args: self.args(r),
        }
    }

    /// The sample `r` stores, if it records a kernel, copy or host op: a
    /// kernel's descriptor, a copy's direction (its lane) and `bytes` and
    /// `pinned` args, or a host op.
    pub(crate) fn sample(&self, r: &Record) -> Option<Sample> {
        let kind = match r.kind {
            TraceKind::Kernel => SampleKind::Kernel(self.kernels.items()[r.sample as usize]),
            TraceKind::Memcpy => {
                let [(_, ArgValue::U64(bytes)), (_, ArgValue::Bool(pinned)), ..] = *self.args(r)
                else {
                    unreachable!("a copy's args start with bytes and pinned")
                };
                let dir = match Lane::from_tid(r.tid) {
                    Lane::H2D => TransferDir::H2D,
                    _ => TransferDir::D2H,
                };
                SampleKind::Transfer { dir, bytes, pinned }
            }
            TraceKind::HostOp => SampleKind::Host,
            _ => return None,
        };
        Some(Sample {
            name: self.name(r),
            kind,
            start: r.ts,
            end: r.ts + r.dur,
        })
    }

    /// The id of the stored list equal to `args`, storing a copy on first
    /// sight.
    fn intern(&mut self, args: &[(&'static str, ArgValue)]) -> u32 {
        self.args.id(args, |list| list.into())
    }

    /// Append a record; a kernel sets its `sample` id.
    fn push(
        &mut self,
        name: &'static str,
        kind: TraceKind,
        lane: Lane,
        ts: SimNanos,
        dur: SimNanos,
        args: u32,
    ) -> &mut Record {
        let tid = u32::try_from(lane.tid()).expect("lane tid beyond u32");
        let name = self.names.id(&name, |&name| name);
        self.records.push(Record {
            ts,
            dur,
            args,
            tid,
            sample: 0,
            name,
            kind,
        });
        self.records.last_mut().expect("just pushed")
    }

    /// Record a control ([`TraceKind::Span`]) or host-op
    /// ([`TraceKind::HostOp`], a [`SampleKind::Host`] sample) span
    /// `[start, end)`. Kernels and copies go through [`Tracer::kernel`] and
    /// [`Tracer::memcpy`].
    pub fn span(
        &mut self,
        name: &'static str,
        kind: TraceKind,
        lane: Lane,
        start: SimNanos,
        end: SimNanos,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        debug_assert!(end >= start, "span must not end before it starts");
        assert!(
            matches!(kind, TraceKind::Span | TraceKind::HostOp),
            "span records only control and host-op spans, not {kind:?}"
        );
        let args = self.intern(&args);
        self.push(name, kind, lane, start, end - start, args);
    }

    /// Record a kernel span `[start, end)`. Its exported args are `key`'s
    /// category (as a string), flops, global-memory transactions, warp
    /// efficiency and imbalance, in that order; its sample is `key`. The
    /// args are built only the first time this tracer sees `key`.
    pub fn kernel(
        &mut self,
        name: &'static str,
        lane: Lane,
        start: SimNanos,
        end: SimNanos,
        key: KernelArgs,
    ) {
        debug_assert!(end >= start, "span must not end before it starts");
        let id = self.kernels.id(&key, |&key| key);
        if id as usize == self.kernel_args.len() {
            let args = self.intern(&[
                ("category", ArgValue::Str(key.category.label().to_string())),
                ("flops", ArgValue::U64(key.flops)),
                ("gmem_transactions", ArgValue::U64(key.gmem_transactions)),
                (
                    "warp_efficiency_milli",
                    ArgValue::U64(key.warp_efficiency_milli.into()),
                ),
                ("imbalance_milli", ArgValue::U64(key.imbalance_milli)),
            ]);
            self.kernel_args.push(args);
        }
        let args = self.kernel_args[id as usize];
        self.push(name, TraceKind::Kernel, lane, start, end - start, args)
            .sample = id;
    }

    /// Record a PCIe copy `[start, end)` issued on `stream`, on `dir`'s
    /// copy-engine lane as `memcpy_h2d` / `memcpy_d2h` with args `bytes`,
    /// `pinned` and `stream`, which its sample is read from.
    pub fn memcpy(
        &mut self,
        dir: TransferDir,
        stream: usize,
        start: SimNanos,
        end: SimNanos,
        bytes: u64,
        pinned: bool,
    ) {
        debug_assert!(end >= start, "span must not end before it starts");
        let (name, lane) = match dir {
            TransferDir::H2D => ("memcpy_h2d", Lane::H2D),
            TransferDir::D2H => ("memcpy_d2h", Lane::D2H),
        };
        let args = self.intern(&[
            ("bytes", ArgValue::U64(bytes)),
            ("pinned", ArgValue::Bool(pinned)),
            ("stream", ArgValue::U64(stream as u64)),
        ]);
        self.push(name, TraceKind::Memcpy, lane, start, end - start, args);
    }

    /// Record a point event.
    pub fn instant(
        &mut self,
        name: &'static str,
        lane: Lane,
        ts: SimNanos,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let args = self.intern(&args);
        self.push(name, TraceKind::Instant, lane, ts, SimNanos::ZERO, args);
    }

    /// Record an injected-fault point event ([`TraceKind::Fault`]).
    pub fn fault(
        &mut self,
        name: &'static str,
        lane: Lane,
        ts: SimNanos,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let args = self.intern(&args);
        self.push(name, TraceKind::Fault, lane, ts, SimNanos::ZERO, args);
    }

    /// Record a counter sample. A value seen before allocates nothing.
    pub fn counter(&mut self, name: &'static str, lane: Lane, ts: SimNanos, value: u64) {
        let args = self.intern(&[("value", ArgValue::U64(value))]);
        self.push(name, TraceKind::Counter, lane, ts, SimNanos::ZERO, args);
    }

    /// High-water mark of a counter track (0 if never sampled).
    pub fn counter_peak(&self, name: &str) -> u64 {
        self.counter_peaks().get(name).copied().unwrap_or(0)
    }

    /// Every counter track's high-water mark, in name order: the largest
    /// value among its records, folded from the table on each call.
    pub fn counter_peaks(&self) -> BTreeMap<&'static str, u64> {
        let mut peaks = BTreeMap::new();
        for r in self.records.iter().filter(|r| r.kind == TraceKind::Counter) {
            let [(_, ArgValue::U64(value))] = *self.args(r) else {
                unreachable!("a counter's args are its value")
            };
            let peak = peaks.entry(self.name(r)).or_insert(0);
            *peak = value.max(*peak);
        }
        peaks
    }

    /// Set a run-level metadata counter (timestamp-free; text summary only).
    pub fn set_meta(&mut self, name: &'static str, value: u64) {
        self.meta.insert(name, value);
    }

    /// Run-level metadata counters in deterministic (sorted) order.
    pub fn meta(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.meta.iter().map(|(&k, &v)| (k, v))
    }

    /// Record indices in the canonical export order: nondecreasing
    /// timestamp, then longer spans first (so enclosing spans precede their
    /// children), then lane, then issue order. The index breaks every tie,
    /// so the order is total and an unstable sort gives it.
    fn sorted_ids(&self) -> Vec<u32> {
        let n = u32::try_from(self.records.len()).expect("more than 2^32 trace events");
        let mut ids: Vec<u32> = (0..n).collect();
        ids.sort_unstable_by_key(|&i| {
            let r = &self.records[i as usize];
            (r.ts, Reverse(r.dur), r.tid, i)
        });
        ids
    }

    /// Events in the canonical export order: nondecreasing timestamp, then
    /// longer spans first (so enclosing spans precede their children), then
    /// lane, then issue order. Stable and fully deterministic.
    pub fn sorted(&self) -> impl Iterator<Item = TraceEvent<'_>> + '_ {
        self.sorted_ids()
            .into_iter()
            .map(|i| self.view(&self.records[i as usize]))
    }
}

// ---- JSON serialization -------------------------------------------------

/// Escape a string for a JSON string literal (quotes not included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_json_escaped(&mut out, s);
    out
}

// The exporter writes hundreds of bytes per event for up to millions of
// events, so every piece below appends to the one output string instead of
// returning a temporary.

/// Append `s` escaped for a JSON string literal (quotes not included).
fn push_json_escaped(out: &mut String, s: &str) {
    // Copy unescaped runs whole; everything escaped is one byte long.
    let mut run = 0;
    for (i, c) in s.char_indices() {
        if !matches!(c, '"' | '\\' | '\0'..='\x1f') {
            continue;
        }
        out.push_str(&s[run..i]);
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Append nanoseconds as Chrome-trace microseconds with a fixed three
/// decimal places (`1500` ns → `1.500`). Fixed-width fractions keep the
/// output byte-stable; exact because 1 us = 1000 ns.
fn push_micros(out: &mut String, ns: SimNanos) {
    let _ = write!(
        out,
        "{}.{:03}",
        ns.as_nanos() / 1_000,
        ns.as_nanos() % 1_000
    );
}

fn push_arg(out: &mut String, v: &ArgValue) {
    let _ = match v {
        ArgValue::U64(x) => write!(out, "{x}"),
        ArgValue::I64(x) => write!(out, "{x}"),
        // `{:?}` is Rust's shortest round-trip form: deterministic, and
        // valid JSON for finite values (`1.0`, exponents as `1e-10`).
        ArgValue::F64(x) if x.is_finite() => write!(out, "{x:?}"),
        ArgValue::F64(_) => write!(out, "null"),
        ArgValue::Bool(b) => write!(out, "{b}"),
        ArgValue::Str(s) => {
            out.push('"');
            push_json_escaped(out, s);
            out.push('"');
            Ok(())
        }
    };
}

fn push_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push_json_escaped(out, k);
        out.push_str("\":");
        push_arg(out, v);
    }
    out.push('}');
}

/// Export a tracer's events as Chrome-trace-format JSON ("JSON Object"
/// flavor with a `traceEvents` array). `pid` distinguishes GPUs when traces
/// from several devices are concatenated by the caller.
pub fn export_chrome_trace(tracer: &Tracer, pid: u64) -> String {
    export_sorted_events(tracer, &tracer.sorted_ids(), pid)
}

/// `[start, end]` of the last (highest-start, then longest) span named
/// `name`, e.g. the final `"epoch"` span of a training run. Used to cut a
/// steady-epoch comparison window out of a full trace.
pub fn last_span_window(tracer: &Tracer, name: &str) -> Option<(SimNanos, SimNanos)> {
    tracer
        .events()
        .iter()
        .filter(|e| e.name == name && e.kind.is_span())
        .map(|e| (e.ts, e.end()))
        .max()
}

/// [`export_chrome_trace`] restricted to events lying entirely inside
/// `[t0, t1]` (`ts >= t0` and `ts + dur <= t1`), byte-format-identical to
/// the full export otherwise. This is the resume-determinism oracle: a
/// window over the final epoch of a kill-and-resume run must be
/// byte-identical to the same window of the uninterrupted run, even though
/// the runs' *full* traces differ in their prologues.
pub fn export_chrome_trace_window(tracer: &Tracer, pid: u64, t0: SimNanos, t1: SimNanos) -> String {
    let mut ids = tracer.sorted_ids();
    ids.retain(|&i| {
        let r = &tracer.records[i as usize];
        r.ts >= t0 && r.ts + r.dur <= t1
    });
    export_sorted_events(tracer, &ids, pid)
}

/// Render the records `ids` names, in that order; each view is built as it
/// is written.
fn export_sorted_events(tracer: &Tracer, ids: &[u32], pid: u64) -> String {
    let sorted = || {
        ids.iter()
            .map(|&i| tracer.view(&tracer.records[i as usize]))
    };
    // Sized from the events (fixed keys and numbers ≈ 96 B, ≈ 12 B per
    // argument beyond its key: about 1.15× what the benchmark's traces
    // need), so a multi-hundred-MB export is allocated once instead of
    // regrown by doubling.
    let estimate: usize = sorted()
        .map(|e| {
            let args: usize = e.args.iter().map(|(k, _)| k.len() + 12).sum();
            96 + e.name.len() + args
        })
        .sum();
    let mut out = String::with_capacity(256 + estimate);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"pipad-sim gpu{pid}\"}}}}"
    );
    // One thread-name metadata record per lane that actually appears.
    let mut lanes: BTreeMap<u64, Lane> = BTreeMap::new();
    for e in sorted() {
        lanes.entry(e.lane.tid()).or_insert(e.lane);
    }
    for (tid, lane) in &lanes {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\""
        );
        push_json_escaped(&mut out, &lane.label());
        out.push_str("\"}}");
    }
    for e in sorted() {
        out.push_str(",\n{\"name\":\"");
        push_json_escaped(&mut out, e.name);
        let cat = e.kind.category();
        let tid = e.lane.tid();
        let span = e.kind.is_span();
        let ph = match e.kind {
            _ if span => "\"X\"",
            TraceKind::Counter => "\"C\"",
            _ => "\"i\",\"s\":\"t\"",
        };
        let _ = write!(
            out,
            "\",\"cat\":\"{cat}\",\"ph\":{ph},\"pid\":{pid},\"tid\":{tid},\"ts\":"
        );
        push_micros(&mut out, e.ts);
        if span {
            out.push_str(",\"dur\":");
            push_micros(&mut out, e.dur);
        }
        if !e.args.is_empty() {
            out.push_str(",\"args\":");
            push_args(&mut out, e.args);
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Compact per-name aggregation of a trace, for logs and quick diffing.
pub fn trace_text_summary(tracer: &Tracer) -> String {
    let mut out = String::new();
    let events = tracer.events();
    let wall_start = events.iter().map(|e| e.ts).min().unwrap_or(SimNanos::ZERO);
    let wall_end = events
        .iter()
        .map(|e| e.end())
        .max()
        .unwrap_or(SimNanos::ZERO);
    let _ = writeln!(
        out,
        "== trace summary: {} events, span {} ==",
        events.len(),
        wall_end - wall_start
    );
    // (kind, name) -> (count, total duration)
    let mut rows: BTreeMap<(&'static str, &'static str), (u64, SimNanos)> = BTreeMap::new();
    for e in events {
        let row = rows
            .entry((e.kind.category(), e.name))
            .or_insert((0, SimNanos::ZERO));
        row.0 += 1;
        row.1 += e.dur;
    }
    let _ = writeln!(
        out,
        "{:<10} {:<28} {:>8} {:>14}",
        "kind", "name", "count", "total"
    );
    for ((kind, name), (count, total)) in &rows {
        let _ = writeln!(out, "{kind:<10} {name:<28} {count:>8} {total:>14}");
    }
    for (name, peak) in tracer.counter_peaks() {
        let _ = writeln!(out, "high-water {name}: {peak}");
    }
    for (name, value) in tracer.meta() {
        let _ = writeln!(out, "meta {name}: {value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_json;

    /// Record an `other` kernel `name` over `[start, end)` on stream 0.
    fn kernel(t: &mut Tracer, name: &'static str, start: u64, end: u64) {
        let key = KernelArgs {
            category: KernelCategory::Other,
            gmem_requests: 1,
            gmem_transactions: 2,
            smem_transactions: 0,
            flops: 10,
            warp_efficiency_milli: 1_000,
            balanced: SimNanos::ZERO,
            imbalance_milli: 0,
        };
        t.kernel(name, Lane::Stream(0), SimNanos(start), SimNanos(end), key);
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(json_escape("\u{0001}"), "\\u0001");
        assert_eq!(json_escape("ünïcødé"), "ünïcødé");
    }

    /// What an appender writes into an empty string.
    fn pushed(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn micros_formatting_is_fixed_width_fraction() {
        let micros = |ns| pushed(|o| push_micros(o, SimNanos(ns)));
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_500), "1.500");
        assert_eq!(micros(12_030_007), "12030.007");
    }

    #[test]
    fn arg_values_render_as_valid_json() {
        let arg = |v: ArgValue| pushed(|o| push_arg(o, &v));
        assert_eq!(arg(ArgValue::U64(7)), "7");
        assert_eq!(arg(ArgValue::I64(-7)), "-7");
        assert_eq!(arg(ArgValue::Bool(true)), "true");
        assert_eq!(arg(ArgValue::F64(0.5)), "0.5");
        assert_eq!(arg(ArgValue::F64(3.0)), "3.0");
        assert_eq!(arg(ArgValue::F64(f64::NAN)), "null");
        assert_eq!(arg(ArgValue::F64(f64::INFINITY)), "null");
        assert_eq!(arg(ArgValue::Str("x\"y".into())), "\"x\\\"y\"");
        for v in [
            arg(ArgValue::F64(1e-10)),
            arg(ArgValue::F64(-2.25)),
            pushed(|o| {
                push_args(
                    o,
                    &[("a", ArgValue::U64(1)), ("b", ArgValue::Str("s".into()))],
                )
            }),
        ] {
            validate_json(&v).unwrap();
        }
    }

    #[test]
    fn sorted_orders_by_time_then_encloser_first() {
        let mut t = Tracer::new();
        t.instant("late", Lane::Control, SimNanos(50), vec![]);
        t.span(
            "inner",
            TraceKind::Span,
            Lane::Control,
            SimNanos(10),
            SimNanos(20),
            vec![],
        );
        t.span(
            "outer",
            TraceKind::Span,
            Lane::Control,
            SimNanos(10),
            SimNanos(100),
            vec![],
        );
        let names: Vec<&str> = t.sorted().map(|e| e.name).collect();
        assert_eq!(names, ["outer", "inner", "late"]);
    }

    #[test]
    fn counter_peak_tracks_running_max() {
        let mut t = Tracer::new();
        t.counter("device_mem_in_use", Lane::Memory, SimNanos(0), 10);
        t.counter("device_mem_in_use", Lane::Memory, SimNanos(1), 90);
        t.counter("device_mem_in_use", Lane::Memory, SimNanos(2), 40);
        assert_eq!(t.counter_peak("device_mem_in_use"), 90);
        assert_eq!(t.counter_peak("missing"), 0);
    }

    #[test]
    fn export_is_well_formed_and_deterministic() {
        let build = || {
            let mut t = Tracer::new();
            kernel(&mut t, "k", 0, 100);
            t.memcpy(TransferDir::H2D, 0, SimNanos(0), SimNanos(50), 1024, true);
            t.instant(
                "oom",
                Lane::Memory,
                SimNanos(75),
                vec![("requested", ArgValue::U64(9))],
            );
            t.counter("device_mem_in_use", Lane::Memory, SimNanos(75), 7);
            export_chrome_trace(&t, 0)
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "export must be byte-identical across runs");
        validate_json(&a).unwrap();
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"thread_name\""));
    }

    #[test]
    fn windowed_export_keeps_only_fully_contained_events() {
        let mut t = Tracer::new();
        t.span(
            "epoch",
            TraceKind::Span,
            Lane::Control,
            SimNanos(0),
            SimNanos(100),
            vec![],
        );
        t.span(
            "epoch",
            TraceKind::Span,
            Lane::Control,
            SimNanos(100),
            SimNanos(220),
            vec![],
        );
        kernel(&mut t, "k_in", 110, 120);
        kernel(&mut t, "k_straddle", 90, 110);
        t.instant("edge", Lane::Control, SimNanos(220), vec![]);
        t.instant("late", Lane::Control, SimNanos(221), vec![]);
        let (t0, t1) = last_span_window(&t, "epoch").unwrap();
        assert_eq!((t0, t1), (SimNanos(100), SimNanos(220)));
        let w = export_chrome_trace_window(&t, 0, t0, t1);
        validate_json(&w).unwrap();
        assert!(w.contains("k_in"));
        assert!(w.contains("\"edge\""), "closed-interval end is included");
        assert!(!w.contains("k_straddle"));
        assert!(!w.contains("\"late\""));
        // Only one epoch span survives the cut.
        assert_eq!(w.matches("\"epoch\"").count(), 1);
        // Format is identical to the full exporter over the same events.
        let mut only = Tracer::new();
        only.span(
            "epoch",
            TraceKind::Span,
            Lane::Control,
            SimNanos(100),
            SimNanos(220),
            vec![],
        );
        kernel(&mut only, "k_in", 110, 120);
        only.instant("edge", Lane::Control, SimNanos(220), vec![]);
        assert_eq!(w, export_chrome_trace(&only, 0));
    }

    #[test]
    fn summary_aggregates_by_name() {
        let mut t = Tracer::new();
        for i in 0..3u64 {
            kernel(&mut t, "k", i * 10, i * 10 + 5);
        }
        let s = trace_text_summary(&t);
        assert!(s.contains("3 events"));
        assert!(s.contains("kernel"));
        assert!(s.contains(" 3 "), "{s}");
    }

    /// Whether two events point at the one stored argument list.
    fn shared(a: TraceEvent, b: TraceEvent) -> bool {
        std::ptr::eq(a.args, b.args)
    }

    #[test]
    fn equal_args_share_one_allocation() {
        let mut t = Tracer::new();
        let args = || {
            vec![
                ("bytes", ArgValue::U64(64)),
                ("pinned", ArgValue::Bool(true)),
            ]
        };
        t.instant("a", Lane::Control, SimNanos(0), args());
        t.span(
            "b",
            TraceKind::HostOp,
            Lane::Host,
            SimNanos(0),
            SimNanos(5),
            args(),
        );
        t.counter("device_mem_in_use", Lane::Memory, SimNanos(1), 9);
        t.counter("queue_depth", Lane::Control, SimNanos(2), 9);
        t.instant(
            "c",
            Lane::Control,
            SimNanos(3),
            vec![("value", ArgValue::U64(9))],
        );
        kernel(&mut t, "k", 0, 4);
        kernel(&mut t, "k2", 4, 8);
        let e: Vec<TraceEvent> = t.events().iter().collect();
        assert!(shared(e[0], e[1]));
        assert!(shared(e[2], e[3]));
        assert!(shared(e[2], e[4]), "counter lists are interned too");
        assert!(shared(e[5], e[6]));
        assert_eq!(e[5].args[0], ("category", ArgValue::Str("other".into())));
        assert_eq!(e[5].args.len(), 5);
    }

    #[test]
    fn args_are_merged_by_bits_not_by_float_equality() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() | 1);
        let mut t = Tracer::new();
        for x in [0.0, -0.0, quiet, payload, quiet] {
            t.instant(
                "x",
                Lane::Control,
                SimNanos(0),
                vec![("x", ArgValue::F64(x))],
            );
        }
        let e: Vec<TraceEvent> = t.events().iter().collect();
        assert!(!shared(e[0], e[1]), "0.0 and -0.0 stay apart");
        assert!(!shared(e[2], e[3]), "NaN payloads stay apart");
        assert!(shared(e[2], e[4]), "a NaN finds its own list");
        let bits: Vec<u64> = e
            .iter()
            .map(|e| match e.args[0].1 {
                ArgValue::F64(x) => x.to_bits(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            bits,
            [
                0.0f64.to_bits(),
                (-0.0f64).to_bits(),
                quiet.to_bits(),
                payload.to_bits(),
                quiet.to_bits()
            ]
        );
        let out = export_chrome_trace(&t, 0);
        assert!(out.contains("\"args\":{\"x\":0.0}"), "{out}");
        assert!(out.contains("\"args\":{\"x\":-0.0}"), "{out}");
        assert_eq!(out.matches("\"args\":{\"x\":null}").count(), 3, "{out}");
    }

    #[test]
    #[should_panic(expected = "not Kernel")]
    fn span_rejects_kernels() {
        let mut t = Tracer::new();
        t.span(
            "k",
            TraceKind::Kernel,
            Lane::Stream(0),
            SimNanos(0),
            SimNanos(1),
            vec![],
        );
    }

    #[test]
    fn trace_record_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 32);
    }

    #[test]
    fn summary_lists_all_counter_high_waters() {
        let mut t = Tracer::new();
        t.counter("device_mem_in_use", Lane::Memory, SimNanos(0), 7);
        t.counter("queue_depth", Lane::Control, SimNanos(1), 3);
        t.counter("queue_depth", Lane::Control, SimNanos(2), 1);
        let s = trace_text_summary(&t);
        assert!(s.contains("high-water device_mem_in_use: 7"), "{s}");
        assert!(s.contains("high-water queue_depth: 3"), "{s}");
    }
}
