//! Deterministic structured trace of the simulated timeline.
//!
//! Every kernel launch, PCIe copy, stream wait, allocation (including the
//! high-water mark and [`crate::OomError`] hits), CUDA-graph replay and
//! pipeline/trainer control event is recorded as a [`TraceEvent`] keyed on
//! [`SimNanos`]. The recorder is the observability substrate the paper's
//! timeline claims (transfer/compute overlap, pipeline stalls, per-frame
//! breakdowns — Figures 8, 11 and 12) are checked against.
//!
//! It is the simulator's only timeline log. Each event is a 32-byte record
//! of ids into intern tables of names, argument lists and, for a kernel,
//! copy or host op, its [`SampleKind`]: the one record renders both as a
//! [`TraceEvent`] and as the [`crate::Profiler`]'s [`Sample`].
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
use crate::intern::{FastHash, Interner};
use crate::profiler::{Sample, SampleKind};
use crate::time::SimNanos;
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
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
        self.is_sample() || self == TraceKind::Span
    }

    /// Whether a record of this kind is also a profiler [`Sample`].
    pub(crate) fn is_sample(self) -> bool {
        matches!(
            self,
            TraceKind::Kernel | TraceKind::Memcpy | TraceKind::HostOp
        )
    }
}

/// A trace argument value, rendered into the Chrome `args` object.
#[derive(Clone, Debug, PartialEq)]
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

/// An event's ordered key→value details.
type Args = Arc<[(&'static str, ArgValue)]>;

/// Everything a kernel record keeps: the fields of its
/// [`SampleKind::Kernel`] and the load imbalance its busy time was scaled
/// by. [`Tracer::kernel`]'s lookup key: a launch whose key the tracer has
/// seen builds nothing.
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
/// and (for a kernel, copy or host op) the [`SampleKind`] as ids into the
/// tracer's tables.
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

/// An argument list as the intern table sees it: hashed and compared by
/// value bits, so `F64(0.0)` and `F64(-0.0)` (which export differently) and
/// two NaN payloads stay distinct lists.
trait ArgList {
    fn list(&self) -> &[(&'static str, ArgValue)];
}

impl ArgList for &[(&'static str, ArgValue)] {
    fn list(&self) -> &[(&'static str, ArgValue)] {
        self
    }
}

impl Hash for dyn ArgList + '_ {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_usize(self.list().len());
        for (k, v) in self.list() {
            k.hash(h);
            std::mem::discriminant(v).hash(h);
            match v {
                ArgValue::U64(x) => x.hash(h),
                ArgValue::I64(x) => x.hash(h),
                ArgValue::F64(x) => x.to_bits().hash(h),
                ArgValue::Bool(b) => b.hash(h),
                ArgValue::Str(s) => s.hash(h),
            }
        }
    }
}

impl PartialEq for dyn ArgList + '_ {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: &ArgValue, b: &ArgValue| match (a, b) {
            (ArgValue::F64(x), ArgValue::F64(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        };
        let (a, b) = (self.list(), other.list());
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
    }
}

impl Eq for dyn ArgList + '_ {}

/// A stored list; looked up by a borrowed slice, so a hit allocates nothing.
#[derive(Debug)]
struct Interned(Args);

impl ArgList for Interned {
    fn list(&self) -> &[(&'static str, ArgValue)] {
        &self.0
    }
}

impl<'a> Borrow<dyn ArgList + 'a> for Interned {
    fn borrow(&self) -> &(dyn ArgList + 'a) {
        self
    }
}

impl Hash for Interned {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (self as &dyn ArgList).hash(h)
    }
}

impl PartialEq for Interned {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn ArgList) == (other as &dyn ArgList)
    }
}

impl Eq for Interned {}

/// Append-only deterministic event recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    records: Vec<Record>,
    /// Every distinct event name, by id.
    names: Interner<&'static str, u16>,
    /// Every distinct argument list recorded, stored once, by id.
    args: Vec<Args>,
    /// The id of each list in `args`.
    arg_ids: HashMap<Interned, u32, FastHash>,
    /// Every distinct [`SampleKind`] recorded, by id.
    kinds: Interner<SampleKind, u32>,
    /// [`Tracer::kernel`]'s (list, kind) ids by key, so a launch seen before
    /// builds no `category` string.
    kernel_ids: HashMap<KernelArgs, (u32, u32), FastHash>,
    counter_peaks: BTreeMap<&'static str, u64>,
    /// Deterministic run-level metadata (e.g. buffer-pool hit counters).
    /// Rendered only by [`trace_text_summary`] — never by
    /// [`export_chrome_trace`], whose JSON is pinned byte-for-byte by
    /// golden tests and must not vary with host-side cache warmth.
    meta: BTreeMap<&'static str, u64>,
}

/// The recorded events in program (issue) order, as [`TraceEvent`] views.
#[derive(Clone, Copy, Debug)]
pub struct Events<'a> {
    tracer: &'a Tracer,
}

impl<'a> Events<'a> {
    /// Views of every event, in issue order.
    pub fn iter(&self) -> EventsIter<'a> {
        EventsIter {
            tracer: self.tracer,
            records: self.tracer.records.iter(),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.tracer.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.tracer.records.is_empty()
    }

    /// The `i`-th event in issue order.
    pub fn get(&self, i: usize) -> Option<TraceEvent<'a>> {
        self.tracer.records.get(i).map(|r| self.tracer.view(r))
    }
}

impl<'a> IntoIterator for Events<'a> {
    type Item = TraceEvent<'a>;
    type IntoIter = EventsIter<'a>;

    fn into_iter(self) -> EventsIter<'a> {
        self.iter()
    }
}

/// Iterator over [`Events`].
#[derive(Clone, Debug)]
pub struct EventsIter<'a> {
    tracer: &'a Tracer,
    records: std::slice::Iter<'a, Record>,
}

impl<'a> Iterator for EventsIter<'a> {
    type Item = TraceEvent<'a>;

    fn next(&mut self) -> Option<TraceEvent<'a>> {
        self.records.next().map(|r| self.tracer.view(r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl Tracer {
    /// Create a new instance.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// All events in program (issue) order.
    pub fn events(&self) -> Events<'_> {
        Events { tracer: self }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The event `r` stores.
    fn view(&self, r: &Record) -> TraceEvent<'_> {
        TraceEvent {
            name: self.names.items()[usize::from(r.name)],
            kind: r.kind,
            lane: Lane::from_tid(r.tid),
            ts: r.ts,
            dur: r.dur,
            args: &self.args[r.args as usize],
        }
    }

    /// Every record, in issue order.
    pub(crate) fn records(&self) -> &[Record] {
        &self.records
    }

    /// The sample `r` stores, if it records a kernel, copy or host op.
    pub(crate) fn sample(&self, r: &Record) -> Option<Sample> {
        r.kind.is_sample().then(|| Sample {
            name: self.names.items()[usize::from(r.name)],
            kind: self.kinds.items()[r.sample as usize],
            start: r.ts,
            end: r.ts + r.dur,
        })
    }

    /// The id of the stored list equal to `args`, storing a copy on first
    /// sight.
    fn intern(&mut self, args: &[(&'static str, ArgValue)]) -> u32 {
        if let Some(&id) = self.arg_ids.get(&args as &dyn ArgList) {
            return id;
        }
        let id = u32::try_from(self.args.len()).expect("more than 2^32 distinct trace arg lists");
        let shared = Args::from(args);
        self.args.push(shared.clone());
        self.arg_ids.insert(Interned(shared), id);
        id
    }

    /// Append a record; a kernel, copy or host op sets its `sample` id.
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
        let name = self.names.id(name);
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
    /// `[start, end)`.
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
        debug_assert!(matches!(kind, TraceKind::Span | TraceKind::HostOp));
        let args = self.intern(&args);
        let sample = match kind {
            TraceKind::HostOp => self.kinds.id(SampleKind::Host),
            _ => 0,
        };
        self.push(name, kind, lane, start, end - start, args).sample = sample;
    }

    /// Record a kernel span `[start, end)`. Its exported args are `key`'s
    /// category (as a string), flops, global-memory transactions, warp
    /// efficiency and imbalance, in that order; its sample carries the rest.
    /// Both are built only the first time this tracer sees `key`.
    pub fn kernel(
        &mut self,
        name: &'static str,
        lane: Lane,
        start: SimNanos,
        end: SimNanos,
        key: KernelArgs,
    ) {
        debug_assert!(end >= start, "span must not end before it starts");
        let (args, sample) = match self.kernel_ids.get(&key) {
            Some(&ids) => ids,
            None => {
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
                let sample = self.kinds.id(SampleKind::Kernel {
                    category: key.category,
                    gmem_requests: key.gmem_requests,
                    gmem_transactions: key.gmem_transactions,
                    smem_transactions: key.smem_transactions,
                    flops: key.flops,
                    warp_efficiency_milli: key.warp_efficiency_milli,
                    balanced: key.balanced,
                });
                self.kernel_ids.insert(key, (args, sample));
                (args, sample)
            }
        };
        self.push(name, TraceKind::Kernel, lane, start, end - start, args)
            .sample = sample;
    }

    /// Record a PCIe copy `[start, end)` issued on `stream`, on `dir`'s
    /// copy-engine lane as `memcpy_h2d` / `memcpy_d2h` with args `bytes`,
    /// `pinned` and `stream`.
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
        let sample = self.kinds.id(SampleKind::Transfer { dir, bytes, pinned });
        self.push(name, TraceKind::Memcpy, lane, start, end - start, args)
            .sample = sample;
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

    /// Record a counter sample; the per-name running maximum is tracked as
    /// the counter's high-water mark. A value seen before allocates nothing.
    pub fn counter(&mut self, name: &'static str, lane: Lane, ts: SimNanos, value: u64) {
        let peak = self.counter_peaks.entry(name).or_insert(0);
        *peak = (*peak).max(value);
        let args = self.intern(&[("value", ArgValue::U64(value))]);
        self.push(name, TraceKind::Counter, lane, ts, SimNanos::ZERO, args);
    }

    /// High-water mark of a counter track (0 if never sampled).
    pub fn counter_peak(&self, name: &str) -> u64 {
        self.counter_peaks.get(name).copied().unwrap_or(0)
    }

    /// All counter tracks and their high-water marks, in name order.
    pub fn counter_peaks(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counter_peaks.iter().map(|(&k, &v)| (k, v))
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
