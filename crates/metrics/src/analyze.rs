//! Pipeline-health analyzer: derived per-epoch metrics from a raw trace.
//!
//! PiPAD's performance argument is about pipeline *shape* — how much PCIe
//! transfer time hides under compute, where the bubbles are, and which
//! kernels dominate (the profiling behind the paper's Figures 4 and 11).
//! The raw [`Tracer`] records the timeline; this module post-processes it
//! (plus its [`Profiler`] view's aggregate counters) into comparable numbers:
//!
//! * **Overlap fraction** — `|compute ∪| ∩ |transfer ∪|` as a share of
//!   transfer busy time, per window and per stream. 1000‰ means every
//!   transferred byte moved while some kernel was resident.
//! * **Bubble time** — window span not covered by any kernel or copy,
//!   with stall attribution: explicit sync waits (`wait_event` /
//!   `wait_host` `stalled_ns`), transfer backoff retries, and the
//!   remainder.
//! * **Per-kernel table** — a [`Log2Histogram`] of durations per kernel
//!   name (count / total / mean / p95 without storing every sample).
//! * **Recovery / fault counters** — every `recovery` instant increments
//!   a per-policy counter; every injected fault a per-kind counter.
//! * **Device allocation count** — `device_mem_in_use` counter increases
//!   per window; unlike host-heap or pool statistics this is a pure
//!   function of the simulated device and therefore knob-invariant.
//!
//! Windows use the same closed-containment rule as
//! [`pipad_gpu_sim::export_chrome_trace_window`]: an event belongs to
//! `[t0, t1]` iff `ts >= t0 && end <= t1`.

use crate::hist::Log2Histogram;
use crate::registry::MetricsRegistry;
use pipad_gpu_sim::{
    total_ns, union_intervals, ArgValue, Breakdown, Events, Lane, Profiler, TraceEvent, TraceKind,
    Tracer,
};
use std::collections::BTreeMap;

/// Overlap accounting for one simulated stream within a window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamHealth {
    /// Stream index (`Lane::Stream(i)`).
    pub stream: usize,
    /// Union of this stream's kernel spans, ns.
    pub busy_ns: u64,
    /// Intersection of this stream's kernel union with the transfer
    /// union, ns.
    pub overlap_ns: u64,
}

/// Derived pipeline metrics over one time window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowHealth {
    /// Window start (simulated ns).
    pub start_ns: u64,
    /// Window end (simulated ns).
    pub end_ns: u64,
    /// Union of kernel spans in the window, ns.
    pub compute_busy_ns: u64,
    /// Union of memcpy spans in the window, ns.
    pub transfer_busy_ns: u64,
    /// Intersection of the kernel and transfer unions, ns.
    pub overlap_ns: u64,
    /// Window time covered by neither kernels nor copies, ns.
    pub bubble_ns: u64,
    /// Σ `stalled_ns` over `wait_event` / `wait_host` instants.
    pub sync_stall_ns: u64,
    /// Σ duration of `transfer_backoff` spans.
    pub backoff_ns: u64,
    /// Count of `device_mem_in_use` increases (device allocations).
    pub device_allocs: u64,
    /// Count of kernel spans (launches) in the window.
    pub kernel_launches: u64,
    /// The same launches by [`launch_family`]; every family of
    /// [`LAUNCH_FAMILIES`] is present, at zero if nothing launched.
    pub launches_by_family: BTreeMap<&'static str, u64>,
    /// Host→device copies (`memcpy_h2d` spans) in the window.
    pub h2d_copies: u64,
    /// Σ `bytes` over those copies.
    pub h2d_bytes: u64,
    /// Per-stream overlap accounting, ascending stream index.
    pub per_stream: Vec<StreamHealth>,
    /// Σ duration of accounted host ops by name.
    pub host_op_ns: BTreeMap<&'static str, u64>,
}

impl WindowHealth {
    /// Window span, ns.
    pub fn span_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Share of transfer busy time hidden under compute, in 1/1000ths
    /// (1000 = fully overlapped; 0 when nothing was transferred).
    pub fn overlap_fraction_milli(&self) -> u64 {
        (self.overlap_ns * 1000)
            .checked_div(self.transfer_busy_ns)
            .unwrap_or(0)
    }

    /// Share of the window with at least one kernel resident, 1/1000ths.
    pub fn sm_utilization_milli(&self) -> u64 {
        let span = self.span_ns().max(1);
        self.compute_busy_ns * 1000 / span
    }
}

/// One `epoch` control span and its derived metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochHealth {
    /// Epoch index from the trace args.
    pub epoch: u64,
    /// Whether the trainer flagged this a preparing (warm-up) epoch.
    pub preparing: bool,
    /// Derived metrics over the epoch span.
    pub health: WindowHealth,
}

/// Duration statistics for one kernel name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelAgg {
    /// Kernel name as launched.
    pub name: &'static str,
    /// Histogram of execution durations, ns.
    pub hist: Log2Histogram,
}

/// The analyzer's full output: run/epoch/steady windows, the kernel
/// table, and typed recovery / fault counters.
#[derive(Clone, Debug, Default)]
pub struct PipelineHealth {
    /// Metrics over the whole trace.
    pub run: WindowHealth,
    /// Per-`epoch`-span metrics in trace order.
    pub epochs: Vec<EpochHealth>,
    /// Metrics over the steady window (first non-preparing epoch start →
    /// last non-preparing epoch end); `None` without steady epochs.
    pub steady: Option<WindowHealth>,
    /// Per-kernel duration histograms, ascending name order.
    pub kernels: Vec<KernelAgg>,
    /// `recovery` instants by `policy` arg.
    pub recoveries: BTreeMap<String, u64>,
    /// Injected faults by `kind` arg.
    pub faults: BTreeMap<String, u64>,
    /// High-water mark per counter track: the trace's own fold,
    /// [`Tracer::counter_peaks`].
    pub counter_peaks: BTreeMap<&'static str, u64>,
    /// The profiler's aggregate breakdown over the run (per-category compute,
    /// warp efficiency, flops, memory requests and balanced time).
    pub breakdown: Breakdown,
}

/// The launch census's kernel families (ROADMAP "What still launches").
pub const LAUNCH_FAMILIES: [&str; 9] = [
    "add",
    "aggregation",
    "bias",
    "gemm",
    "hadamard",
    "loss",
    "optimizer",
    "rnn_cell",
    "other",
];

/// The [`LAUNCH_FAMILIES`] entry a kernel name is counted under.
pub fn launch_family(kernel: &str) -> &'static str {
    match kernel {
        "add" => "add",
        "hadamard" => "hadamard",
        "add_bias" | "col_sums" => "bias",
        "sgd_step" => "optimizer",
        "mse_loss" | "mse_grad" | "sse_loss" => "loss",
        "sigmoid_add" | "sigmoid_grad" => "rnn_cell",
        k if k.starts_with("gemm") => "gemm",
        k if k.starts_with("spmm") || k.starts_with("row_scale") => "aggregation",
        k if k.starts_with("lstm_cell") || k.starts_with("gru_") => "rnn_cell",
        _ => "other",
    }
}

fn arg_u64(e: TraceEvent, key: &str) -> Option<u64> {
    e.args.iter().find_map(|(k, v)| match v {
        ArgValue::U64(x) if *k == key => Some(*x),
        _ => None,
    })
}

fn arg_bool(e: TraceEvent, key: &str) -> Option<bool> {
    e.args.iter().find_map(|(k, v)| match v {
        ArgValue::Bool(b) if *k == key => Some(*b),
        _ => None,
    })
}

fn arg_str<'e>(e: TraceEvent<'e>, key: &str) -> Option<&'e str> {
    e.args.iter().find_map(|(k, v)| match v {
        ArgValue::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

/// Total intersection of two disjoint ascending interval lists.
fn intersect_ns(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Compute [`WindowHealth`] over events fully contained in `[t0, t1]`.
/// `alloc_ts` is the precomputed ascending list of device-allocation
/// timestamps for the whole trace.
fn window_health(events: Events, t0: u64, t1: u64, alloc_ts: &[u64]) -> WindowHealth {
    let mut kernels: Vec<(u64, u64)> = Vec::new();
    let mut transfers: Vec<(u64, u64)> = Vec::new();
    let mut per_stream: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    let mut out = WindowHealth {
        start_ns: t0,
        end_ns: t1,
        launches_by_family: LAUNCH_FAMILIES.iter().map(|&f| (f, 0)).collect(),
        ..WindowHealth::default()
    };
    for e in events {
        let (ts, end) = (e.ts.as_nanos(), e.end().as_nanos());
        if ts < t0 || end > t1 {
            continue;
        }
        match e.kind {
            TraceKind::Kernel => {
                kernels.push((ts, end));
                *out.launches_by_family
                    .entry(launch_family(e.name))
                    .or_insert(0) += 1;
                if let Lane::Stream(i) = e.lane {
                    per_stream.entry(i).or_default().push((ts, end));
                }
            }
            TraceKind::Memcpy => {
                transfers.push((ts, end));
                if e.lane == Lane::H2D {
                    out.h2d_copies += 1;
                    out.h2d_bytes += arg_u64(e, "bytes").unwrap_or(0);
                }
            }
            TraceKind::HostOp => {
                *out.host_op_ns.entry(e.name).or_insert(0) += end - ts;
            }
            TraceKind::Span if e.name == "transfer_backoff" => {
                out.backoff_ns += end - ts;
            }
            TraceKind::Instant if e.name == "wait_event" || e.name == "wait_host" => {
                out.sync_stall_ns += arg_u64(e, "stalled_ns").unwrap_or(0);
            }
            _ => {}
        }
    }
    let busy: Vec<(u64, u64)> = kernels.iter().chain(transfers.iter()).copied().collect();
    let transfer_union = union_intervals(transfers);
    out.kernel_launches = kernels.len() as u64;
    let kernel_union = union_intervals(kernels);
    out.compute_busy_ns = total_ns(&kernel_union);
    out.transfer_busy_ns = total_ns(&transfer_union);
    out.overlap_ns = intersect_ns(&kernel_union, &transfer_union);
    out.bubble_ns = (t1 - t0).saturating_sub(total_ns(&union_intervals(busy)));
    out.device_allocs = alloc_ts.iter().filter(|&&ts| ts >= t0 && ts <= t1).count() as u64;
    out.per_stream = per_stream
        .into_iter()
        .map(|(stream, iv)| {
            let u = union_intervals(iv);
            StreamHealth {
                stream,
                busy_ns: total_ns(&u),
                overlap_ns: intersect_ns(&u, &transfer_union),
            }
        })
        .collect();
    out
}

/// Analyze a trace + profiler pair into derived pipeline metrics.
pub fn analyze(tracer: &Tracer, profiler: Profiler<'_>) -> PipelineHealth {
    let events = tracer.events();
    let t0 = events.iter().map(|e| e.ts.as_nanos()).min().unwrap_or(0);
    let t1 = events.iter().map(|e| e.end().as_nanos()).max().unwrap_or(0);

    // Device allocations: `device_mem_in_use` samples whose value rose
    // relative to the previous sample, in issue order.
    let mut alloc_ts: Vec<u64> = Vec::new();
    let mut prev_in_use = 0u64;
    for e in events {
        if e.kind == TraceKind::Counter && e.name == "device_mem_in_use" {
            let v = arg_u64(e, "value").unwrap_or(0);
            if v > prev_in_use {
                alloc_ts.push(e.ts.as_nanos());
            }
            prev_in_use = v;
        }
    }

    let mut health = PipelineHealth {
        run: window_health(events, t0, t1, &alloc_ts),
        counter_peaks: tracer.counter_peaks(),
        breakdown: profiler.full(),
        ..PipelineHealth::default()
    };

    // Per-epoch windows and the steady (non-preparing) super-window.
    let mut steady_bounds: Option<(u64, u64)> = None;
    for e in events {
        if e.name != "epoch" || !e.kind.is_span() {
            continue;
        }
        let (s, t) = (e.ts.as_nanos(), e.end().as_nanos());
        let preparing = arg_bool(e, "preparing").unwrap_or(false);
        if !preparing {
            steady_bounds = Some(match steady_bounds {
                None => (s, t),
                Some((a, b)) => (a.min(s), b.max(t)),
            });
        }
        health.epochs.push(EpochHealth {
            epoch: arg_u64(e, "epoch").unwrap_or(health.epochs.len() as u64),
            preparing,
            health: window_health(events, s, t, &alloc_ts),
        });
    }
    health.steady = steady_bounds.map(|(s, t)| window_health(events, s, t, &alloc_ts));

    // Kernel duration table.
    let mut kernels: BTreeMap<&'static str, Log2Histogram> = BTreeMap::new();
    for e in events {
        if e.kind == TraceKind::Kernel {
            kernels.entry(e.name).or_default().observe(e.dur.as_nanos());
        }
    }
    health.kernels = kernels
        .into_iter()
        .map(|(name, hist)| KernelAgg { name, hist })
        .collect();

    // Typed recovery and fault counters.
    for e in events {
        match e.kind {
            TraceKind::Instant if e.name == "recovery" => {
                let policy = arg_str(e, "policy").unwrap_or("unknown").to_string();
                *health.recoveries.entry(policy).or_insert(0) += 1;
            }
            TraceKind::Fault => {
                let kind = arg_str(e, "kind").unwrap_or("unknown").to_string();
                *health.faults.entry(kind).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    health
}

impl PipelineHealth {
    /// Fill a [`MetricsRegistry`] with this analysis. `labels` is
    /// prepended to every metric (e.g. `[("leg", "train")]`) so several
    /// analyses can share one registry.
    pub fn register_into(&self, reg: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        let with = |extra: &[(&str, &str)]| -> Vec<(String, String)> {
            labels
                .iter()
                .chain(extra.iter())
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };

        let window = |reg: &mut MetricsRegistry, name: &str, w: &WindowHealth| {
            let l = with(&[("window", name)]);
            let l: Vec<(&str, &str)> = l.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            reg.set_gauge_with(
                "pipad_overlap_fraction_milli",
                &l,
                w.overlap_fraction_milli() as f64,
            );
            reg.set_gauge_with(
                "pipad_sm_utilization_milli",
                &l,
                w.sm_utilization_milli() as f64,
            );
            reg.inc_counter_with("pipad_window_span_ns", &l, w.span_ns());
            reg.inc_counter_with("pipad_compute_busy_ns", &l, w.compute_busy_ns);
            reg.inc_counter_with("pipad_transfer_busy_ns", &l, w.transfer_busy_ns);
            reg.inc_counter_with("pipad_overlap_ns", &l, w.overlap_ns);
            reg.inc_counter_with("pipad_bubble_ns", &l, w.bubble_ns);
            reg.inc_counter_with("pipad_sync_stall_ns", &l, w.sync_stall_ns);
            reg.inc_counter_with("pipad_transfer_backoff_ns", &l, w.backoff_ns);
            reg.inc_counter_with("pipad_device_allocs", &l, w.device_allocs);
            reg.inc_counter_with("pipad_kernel_launches", &l, w.kernel_launches);
            reg.inc_counter_with("pipad_h2d_copies", &l, w.h2d_copies);
            reg.inc_counter_with("pipad_h2d_bytes", &l, w.h2d_bytes);
            for (&family, &n) in &w.launches_by_family {
                let mut by_family = vec![("family", family)];
                by_family.extend_from_slice(&l);
                reg.inc_counter_with("pipad_kernel_launches", &by_family, n);
            }
        };
        window(reg, "run", &self.run);
        if let Some(steady) = &self.steady {
            window(reg, "steady", steady);
        }

        for k in &self.kernels {
            let l = with(&[("kernel", k.name)]);
            let l: Vec<(&str, &str)> = l.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            reg.merge_histogram("pipad_kernel_ns", &l, &k.hist);
        }

        for (policy, n) in &self.recoveries {
            let l = with(&[("policy", policy)]);
            let l: Vec<(&str, &str)> = l.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            reg.inc_counter_with("pipad_recovery_total", &l, *n);
        }
        for (kind, n) in &self.faults {
            let l = with(&[("kind", kind)]);
            let l: Vec<(&str, &str)> = l.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            reg.inc_counter_with("pipad_fault_total", &l, *n);
        }
        for (&name, &peak) in &self.counter_peaks {
            let l = with(&[("counter", name)]);
            let l: Vec<(&str, &str)> = l.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            reg.set_gauge_with("pipad_counter_peak", &l, peak as f64);
        }
        for (&op, &ns) in &self.run.host_op_ns {
            let l = with(&[("op", op)]);
            let l: Vec<(&str, &str)> = l.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            reg.inc_counter_with("pipad_host_op_ns", &l, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::{KernelArgs, KernelCategory, SimNanos, Tracer, TransferDir};

    /// Hand-built trace: kernel [0,100) on stream 0, transfer [50,150),
    /// one epoch span [0,200). Overlap is exactly 50 of 100 transfer ns.
    fn hand_trace() -> Tracer {
        let mut t = Tracer::new();
        t.span(
            "epoch",
            TraceKind::Span,
            Lane::Control,
            SimNanos(0),
            SimNanos(200),
            vec![
                ("epoch", ArgValue::U64(0)),
                ("preparing", ArgValue::Bool(false)),
            ],
        );
        let spmm = KernelArgs {
            category: KernelCategory::Aggregation,
            gmem_requests: 8,
            gmem_transactions: 16,
            smem_transactions: 0,
            flops: 1_000,
            warp_efficiency_milli: 1_000,
            balanced: SimNanos(100),
            imbalance_milli: 1_000,
        };
        t.kernel("spmm", Lane::Stream(0), SimNanos(0), SimNanos(100), spmm);
        t.memcpy(TransferDir::H2D, 0, SimNanos(50), SimNanos(150), 4096, true);
        t.instant(
            "wait_event",
            Lane::Stream(0),
            SimNanos(150),
            vec![("stalled_ns", ArgValue::U64(17))],
        );
        t.counter("device_mem_in_use", Lane::Memory, SimNanos(10), 64);
        t.counter("device_mem_in_use", Lane::Memory, SimNanos(20), 128);
        t.counter("device_mem_in_use", Lane::Memory, SimNanos(30), 64);
        t.instant(
            "recovery",
            Lane::Control,
            SimNanos(160),
            vec![("policy", ArgValue::Str("nan_skip".into()))],
        );
        t
    }

    #[test]
    fn overlap_fraction_is_exact_on_hand_trace() {
        let t = hand_trace();
        let h = analyze(&t, Profiler::new(&t));
        assert_eq!(h.breakdown.compute_total, SimNanos(100));
        assert_eq!(h.breakdown.h2d_bytes, 4096);
        assert_eq!(h.breakdown.kernel_launches, 1);
        assert_eq!(h.run.compute_busy_ns, 100);
        assert_eq!(h.run.transfer_busy_ns, 100);
        assert_eq!(h.run.overlap_ns, 50);
        assert_eq!(h.run.overlap_fraction_milli(), 500);
        // busy union covers [0,150) of the [0,200] span → bubble 50.
        assert_eq!(h.run.bubble_ns, 50);
        assert_eq!(h.run.sync_stall_ns, 17);
        assert_eq!(h.run.sm_utilization_milli(), 500);
        assert_eq!(h.run.device_allocs, 2, "64→128 rise and the first 0→64");
        assert_eq!(h.run.kernel_launches, 1);
        assert_eq!(h.run.launches_by_family["aggregation"], 1);
        assert_eq!(h.run.launches_by_family["add"], 0, "present at zero");
        assert_eq!((h.run.h2d_copies, h.run.h2d_bytes), (1, 4096));
        assert_eq!(h.run.per_stream.len(), 1);
        assert_eq!(h.run.per_stream[0].overlap_ns, 50);
        assert_eq!(h.epochs.len(), 1);
        assert!(!h.epochs[0].preparing);
        assert_eq!(h.steady.as_ref().unwrap().overlap_ns, 50);
        assert_eq!(h.recoveries["nan_skip"], 1);
        assert_eq!(h.counter_peaks["device_mem_in_use"], 128);
        assert_eq!(h.kernels.len(), 1);
        assert_eq!(h.kernels[0].name, "spmm");
        assert_eq!(h.kernels[0].hist.count(), 1);
        assert_eq!(h.kernels[0].hist.sum(), 100);
    }

    #[test]
    fn interval_math() {
        assert_eq!(intersect_ns(&[(0, 15)], &[(10, 20)]), 5);
        assert_eq!(intersect_ns(&[(0, 5)], &[(5, 10)]), 0, "touching ≠ overlap");
        assert_eq!(
            intersect_ns(&[(0, 10), (20, 30)], &[(5, 25)]),
            5 + 5,
            "spanning both pieces"
        );
    }

    #[test]
    fn register_into_prefixes_labels() {
        let t = hand_trace();
        let h = analyze(&t, Profiler::new(&t));
        assert_eq!(h.breakdown.compute_total, SimNanos(100));
        assert_eq!(h.breakdown.h2d_bytes, 4096);
        assert_eq!(h.breakdown.kernel_launches, 1);
        let mut reg = MetricsRegistry::new();
        h.register_into(&mut reg, &[("leg", "train")]);
        let flat = reg.flat();
        assert_eq!(
            flat["pipad_overlap_fraction_milli{leg=\"train\",window=\"run\"}"],
            500.0
        );
        assert_eq!(
            flat["pipad_recovery_total{leg=\"train\",policy=\"nan_skip\"}"],
            1.0
        );
        assert_eq!(
            flat["pipad_kernel_ns_count{leg=\"train\",kernel=\"spmm\"}"],
            1.0
        );
        assert_eq!(
            flat["pipad_kernel_launches{family=\"add\",leg=\"train\",window=\"run\"}"],
            0.0
        );
        assert_eq!(
            flat["pipad_h2d_bytes{leg=\"train\",window=\"run\"}"],
            4096.0
        );
    }
}
