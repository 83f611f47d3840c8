//! Integration-level properties of the simulated device: timeline
//! causality, stream/event semantics, profiler window consistency and the
//! §3.2 access-shape laws, exercised through the public APIs the trainers
//! use.

use pipad_repro::dyngraph::{DatasetId, Scale};
use pipad_repro::gpu_sim::{
    export_chrome_trace, export_chrome_trace_window, feature_row_access, ratio_milli,
    schedule_blocks, trace_text_summary, ArgValue, DeviceConfig, FaultPlan, Gpu, KernelArgs,
    KernelCategory, KernelCost, Lane, Profiler, Sample, SampleKind, Samples, SimNanos,
    StragglerRange, StreamId, TraceEvent, TraceKind, Tracer, TransferDir, VectorWidth,
};
use pipad_repro::kernels::{self, DeviceMatrix};
use pipad_repro::metrics::analyze;
use pipad_repro::models::{ModelKind, TrainingConfig};
use pipad_repro::pipad::{
    train_data_parallel_devices, train_pipad, DynamicTuner, FrameProfile, GraphAnalyzer,
    MultiGpuConfig, PartitionCatalog, PipadConfig,
};
use pipad_repro::tensor::Matrix;
use proptest::prelude::*;
use std::cell::RefCell;

fn kernel(flops: u64, txns: u64) -> KernelCost {
    KernelCost::new("k", KernelCategory::Other)
        .flops(flops)
        .gmem(txns / 4 + 1, txns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn launches_never_go_back_in_time(work in proptest::collection::vec((1u64..1_000_000, 1u64..100_000), 1..40)) {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut last = SimNanos::ZERO;
        for (flops, txns) in work {
            let e = gpu.launch(s, kernel(flops, txns));
            prop_assert!(e.time() > last, "timeline must advance");
            last = e.time();
        }
        // the profiler's samples are ordered and non-overlapping on the
        // compute lane
        let samples: Vec<_> = gpu.profiler().samples().iter().collect();
        for w in samples.windows(2) {
            prop_assert!(w[1].start >= w[0].end);
        }
    }

    #[test]
    fn event_sync_is_a_lower_bound(bytes in 1u64..10_000_000) {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let a = gpu.default_stream();
        let b = gpu.create_stream();
        let t = gpu.h2d(b, bytes, true);
        let ev = gpu.record_event(b);
        gpu.wait_event(a, ev);
        let k = gpu.launch(a, kernel(1000, 10));
        prop_assert!(k.time() > t.time());
    }

    #[test]
    fn window_totals_are_additive(n1 in 1usize..20, n2 in 1usize..20) {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let start = gpu.profiler().snapshot();
        for _ in 0..n1 {
            gpu.launch(s, kernel(5000, 100));
        }
        let mid = gpu.profiler().snapshot();
        for _ in 0..n2 {
            gpu.launch(s, kernel(5000, 100));
        }
        let all = gpu.profiler().window(start);
        let first = gpu.profiler().between(start, mid);
        let second = gpu.profiler().window(mid);
        prop_assert_eq!(all.kernel_launches, first.kernel_launches + second.kernel_launches);
        prop_assert_eq!(
            all.gmem_transactions,
            first.gmem_transactions + second.gmem_transactions
        );
        prop_assert_eq!(
            all.compute_total.as_nanos(),
            first.compute_total.as_nanos() + second.compute_total.as_nanos()
        );
    }

    #[test]
    fn access_shape_laws(dim in 1u32..512) {
        let cfg = DeviceConfig::v100();
        let a = feature_row_access(&cfg, dim, VectorWidth::W1);
        // moved bytes never below useful bytes; both multiples of rules
        prop_assert!(a.moved_bytes >= a.useful_bytes);
        prop_assert_eq!(a.moved_bytes % cfg.transaction_bytes as u64, 0);
        prop_assert!(a.requests >= 1 && a.transactions >= 1);
        // §3.2 knees
        if dim <= 8 {
            prop_assert_eq!(a.transactions, 1);
        }
        if dim <= 32 {
            prop_assert_eq!(a.requests, 1);
        }
        // vector loads only reduce requests
        let v4 = feature_row_access(&cfg, dim, VectorWidth::W4);
        prop_assert!(v4.requests <= a.requests);
        prop_assert_eq!(v4.transactions, a.transactions);
    }

    #[test]
    fn transfers_respect_bandwidth_ordering(bytes in 1_000u64..50_000_000) {
        // pinned is never slower than pageable for the same payload
        let mut g1 = Gpu::new(DeviceConfig::v100());
        let s1 = g1.default_stream();
        let pinned = g1.h2d(s1, bytes, true).time();
        let mut g2 = Gpu::new(DeviceConfig::v100());
        let s2 = g2.default_stream();
        let pageable = g2.h2d(s2, bytes, false).time();
        prop_assert!(pinned <= pageable);
    }

    #[test]
    fn memory_accounting_is_exact(sizes in proptest::collection::vec(1u64..1_000_000, 1..30)) {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let total: u64 = sizes.iter().sum();
        let bufs: Vec<_> = sizes.iter().map(|&b| gpu.alloc(b).unwrap()).collect();
        prop_assert_eq!(gpu.mem().in_use(), total);
        prop_assert_eq!(gpu.mem().peak(), total);
        for b in bufs {
            gpu.free(b);
        }
        prop_assert_eq!(gpu.mem().in_use(), 0);
        prop_assert_eq!(gpu.mem().peak(), total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An accumulate operand costs its producer something between nothing
    /// and the `add` launch it replaces — for each of the four producers,
    /// over random shapes.
    #[test]
    fn an_accumulate_operand_costs_at_most_the_add_it_replaces(
        m in 1usize..200, k in 1usize..96, n in 1usize..96,
    ) {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let cat = KernelCategory::Rnn;
        let mut dev = |r, c| DeviceMatrix::alloc(&mut gpu, Matrix::zeros(r, c)).unwrap();
        let (g, w, x) = (dev(m, n), dev(k, n), dev(m, k));
        let (da, dw, db) = (dev(m, k), dev(k, n), dev(1, n));
        type Producer<'a> = &'a dyn Fn(&mut Gpu, Option<&DeviceMatrix>) -> DeviceMatrix;
        let producers: [(Producer<'_>, &DeviceMatrix); 4] = [
            (&|gpu, acc| kernels::gemm_nt_device(gpu, s, &g, &w, acc, cat).unwrap(), &da),
            (&|gpu, acc| kernels::gemm_tn_device(gpu, s, &x, &g, m, acc, cat).unwrap(), &dw),
            (&|gpu, acc| kernels::hadamard(gpu, s, &g, &g, acc, cat).unwrap(), &g),
            (&|gpu, acc| kernels::col_sums(gpu, s, &g, acc, cat).unwrap(), &db),
        ];
        for (produce, prev) in producers {
            let snap = gpu.profiler().snapshot();
            let product = produce(&mut gpu, None);
            produce(&mut gpu, Some(prev));
            kernels::add(&mut gpu, s, prev, &product, cat).unwrap();
            let busy: Vec<u64> = gpu.profiler().samples().since(snap)
                .iter()
                .map(|l| (l.end - l.start).as_nanos())
                .collect();
            let (plain, fused, add) = (busy[0], busy[1], busy[2]);
            prop_assert!(plain <= fused && fused <= plain + add, "{plain} {fused} {add}");
        }
    }

    /// One copy of Σ bytes moves what k copies of the pieces move and ends
    /// no later: it pays the PCIe latency once.
    #[test]
    fn one_copy_of_the_sum_ends_no_later_than_its_pieces(
        pieces in proptest::collection::vec(1u64..4_000_000, 1..20),
    ) {
        let ship = |copies: &[u64]| {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            let s = gpu.create_stream();
            let done = copies.iter().map(|&b| gpu.h2d(s, b, true).time()).max();
            (done.unwrap(), gpu.profiler().full().h2d_bytes)
        };
        let (piecewise, moved) = ship(&pieces);
        let (at_once, moved_at_once) = ship(&[pieces.iter().sum()]);
        prop_assert!(at_once <= piecewise, "{at_once} vs {piecewise}");
        prop_assert_eq!(moved_at_once, moved);
    }
}

/// Simulated time of `launches` on a fresh device, eager or as one graph
/// replay.
fn elapsed(graphed: bool, launches: impl FnOnce(&mut Gpu, StreamId)) -> SimNanos {
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let s = gpu.default_stream();
    if graphed {
        gpu.graph_scope(s, |gpu| launches(gpu, s));
    } else {
        launches(&mut gpu, s);
    }
    gpu.synchronize()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A graph replay costs one fixed launch and a smaller per-kernel
    /// overhead: whatever is launched, from one kernel up, it is never
    /// slower than launching the same kernels one by one.
    #[test]
    fn a_graph_replay_never_costs_more_than_eager_launches(
        work in proptest::collection::vec((1u64..2_000_000, 1u64..200_000), 1..40),
    ) {
        let launch_all = |gpu: &mut Gpu, s| {
            for &(flops, txns) in &work {
                gpu.launch(s, kernel(flops, txns));
            }
        };
        let (graphed, eager) = (elapsed(true, launch_all), elapsed(false, launch_all));
        prop_assert!(graphed <= eager, "{graphed} graphed vs {eager} eager");
    }

    /// One multi-tensor `sgd_step` over P tensors costs no more than the P
    /// launches it replaces, eager or graphed. (Over grids of up to one wave
    /// of blocks — every model's parameters. Past one wave this simulator
    /// charges a wave-quantization tail to a merged grid that the pieces,
    /// each under one wave at full-device throughput, do not pay: ROADMAP
    /// item 1's partial-occupancy term.)
    #[test]
    fn one_multi_tensor_step_costs_no_more_than_one_step_per_tensor(
        shapes in proptest::collection::vec((1usize..300, 1usize..300), 1..16),
        graphed in 0usize..2,
    ) {
        let step = |per_tensor: bool| {
            elapsed(graphed == 1, |gpu, s| {
                let params: Vec<RefCell<DeviceMatrix>> = shapes
                    .iter()
                    .map(|&(r, c)| RefCell::new(DeviceMatrix::alloc(gpu, Matrix::zeros(r, c)).unwrap()))
                    .collect();
                let grads: Vec<Matrix> = shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect();
                let pairs: Vec<_> = params.iter().zip(&grads).collect();
                if per_tensor {
                    for &pair in &pairs {
                        kernels::sgd_step(gpu, s, &[pair], 0.1, true);
                    }
                } else {
                    kernels::sgd_step(gpu, s, &pairs, 0.1, true);
                }
            })
        };
        let (merged, split) = (step(false), step(true));
        prop_assert!(merged <= split, "{merged} for one launch vs {split} for {}", shapes.len());
    }

    /// One split-K `gemm_tn` over W stacked segments, launch overhead
    /// included, costs no more than the W per-segment launches whose β = 1
    /// chain it folds, eager or graphed (one-wave grids, as above: every
    /// weight gradient the models produce is at most 64 tiles).
    #[test]
    fn one_split_k_weight_gradient_costs_no_more_than_one_per_segment(
        seg in 1usize..200, m in 1usize..256, n in 1usize..256, w in 1usize..24,
        graphed in 0usize..2,
    ) {
        let cat = KernelCategory::Rnn;
        let grad = |split_k: bool| {
            elapsed(graphed == 1, |gpu, s| {
                let mut dev = |r, c| DeviceMatrix::alloc(gpu, Matrix::zeros(r, c)).unwrap();
                let (x, g) = (dev(seg * w, m), dev(seg * w, n));
                let (xs, gs): (Vec<_>, Vec<_>) = (0..w).map(|_| (dev(seg, m), dev(seg, n))).unzip();
                if split_k {
                    kernels::gemm_tn_device(gpu, s, &x, &g, seg, None, cat).unwrap();
                } else {
                    let mut acc: Option<DeviceMatrix> = None;
                    for t in (0..w).rev() {
                        let sum = kernels::gemm_tn_device(gpu, s, &xs[t], &gs[t], seg, acc.as_ref(), cat);
                        acc = Some(sum.unwrap());
                    }
                }
            })
        };
        let (merged, split) = (grad(true), grad(false));
        prop_assert!(merged <= split, "{merged} for one launch vs {split} for {w}");
    }
}

#[test]
fn graph_scope_only_changes_overheads() {
    let run = |graphed: bool| {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        if graphed {
            gpu.graph_scope(s, |gpu| {
                for _ in 0..30 {
                    gpu.launch(s, kernel(100_000, 1000));
                }
            });
        } else {
            for _ in 0..30 {
                gpu.launch(s, kernel(100_000, 1000));
            }
        }
        let b = gpu.profiler().full();
        (gpu.now(), b.compute_total, b.gmem_transactions)
    };
    let (t_graph, busy_graph, txn_graph) = run(true);
    let (t_plain, busy_plain, txn_plain) = run(false);
    assert!(t_graph < t_plain, "graph mode amortizes launches");
    assert_eq!(busy_graph, busy_plain, "kernel busy time identical");
    assert_eq!(txn_graph, txn_plain, "traffic identical");
}

// ---- trace layer properties -----------------------------------------------
//
// The structured trace recorder (gpu_sim::trace) observes the same timeline
// the profiler accounts for; these properties pin the invariants the Chrome
// export relies on: spans are well-formed, one lane never overlaps itself,
// export order is nondecreasing in time, and per-kernel span durations sum
// to the profiler's independent totals.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trace_spans_are_causal_and_consistent(
        work in proptest::collection::vec(
            (1u64..500_000, 1u64..50_000, 0usize..2, 0usize..3), 1..30)
    ) {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s0 = gpu.default_stream();
        let s1 = gpu.create_stream();
        for (flops, txns, which, op) in work {
            let s = if which == 0 { s0 } else { s1 };
            match op {
                0 => {
                    gpu.launch(s, kernel(flops, txns));
                }
                1 => {
                    gpu.h2d(s, txns + 1, true);
                }
                _ => {
                    gpu.d2h(s, txns + 1, false);
                }
            }
        }
        gpu.synchronize();

        // every span ends at or after it begins
        for e in gpu.trace().events() {
            prop_assert!(e.end() >= e.ts);
        }
        // export order is nondecreasing in time
        let sorted: Vec<_> = gpu.trace().sorted().collect();
        for w in sorted.windows(2) {
            prop_assert!(w[1].ts >= w[0].ts, "export order regressed in time");
        }
        // spans that share a lane never overlap (kernels serialize on the
        // compute unit, copies serialize per engine)
        let mut by_lane: std::collections::BTreeMap<u64, Vec<(SimNanos, SimNanos)>> =
            std::collections::BTreeMap::new();
        for e in gpu.trace().events() {
            if e.kind.is_span() {
                by_lane.entry(e.lane.tid()).or_default().push((e.ts, e.end()));
            }
        }
        for spans in by_lane.values_mut() {
            spans.sort();
            for w in spans.windows(2) {
                prop_assert!(w[1].0 >= w[0].1, "spans overlap on one lane: {w:?}");
            }
        }
        // kernel/memcpy span totals equal the profiler's accounting
        let consistency = gpu.profiler().consistency_check(gpu.trace());
        prop_assert!(consistency.is_ok(), "{consistency:?}");
    }

    #[test]
    fn trace_export_is_a_pure_function_of_the_workload(
        work in proptest::collection::vec((1u64..200_000, 1u64..20_000), 1..15)
    ) {
        let run = |work: &[(u64, u64)]| {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            let s = gpu.default_stream();
            for &(flops, txns) in work {
                gpu.launch(s, kernel(flops, txns));
            }
            gpu.synchronize();
            pipad_repro::gpu_sim::export_chrome_trace(gpu.trace(), 0)
        };
        let a = run(&work);
        let b = run(&work);
        prop_assert_eq!(a, b);
    }
}

// ---- the compact trace and profiler logs ---------------------------------
//
// `Tracer` stores fixed-size records holding ids into intern tables and
// renders views on read; `Profiler` is a view of its kernel, copy and
// host-op records. These properties replay random call sequences and read
// every field back: in issue order, in export order against a reference
// stable sort, through the windowed export, and as profiler samples.

/// Names the log round trips draw from; the last one needs JSON escaping.
const NAMES: [&str; 6] = [
    "epoch",
    "frame",
    "k",
    "memcpy_h2d",
    "tuner_decision",
    "say \"hi\"",
];

/// `0..46` covers the five fixed lanes and `Stream(0..=40)`.
fn lane_at(i: usize) -> Lane {
    match i {
        0 => Lane::Host,
        1 => Lane::Control,
        2 => Lane::Memory,
        3 => Lane::H2D,
        4 => Lane::D2H,
        s => Lane::Stream(s - 5),
    }
}

/// Argument pool: `0.0` / `-0.0` and two NaN payloads export differently
/// or not at all, and must still come back bit for bit.
fn arg_at(i: u64) -> (&'static str, ArgValue) {
    let quiet = f64::NAN;
    match i % 8 {
        0 => ("bytes", ArgValue::U64(64)),
        1 => ("x", ArgValue::F64(0.0)),
        2 => ("x", ArgValue::F64(-0.0)),
        3 => ("x", ArgValue::F64(quiet)),
        4 => ("x", ArgValue::F64(f64::from_bits(quiet.to_bits() | 1))),
        5 => ("delta", ArgValue::I64(-3)),
        6 => ("pinned", ArgValue::Bool(true)),
        _ => ("policy", ArgValue::Str("nan_skip".into())),
    }
}

/// One tracer call of the round trip.
#[derive(Clone, Debug)]
enum TraceCall {
    Span(
        &'static str,
        TraceKind,
        Lane,
        u64,
        u64,
        Vec<(&'static str, ArgValue)>,
    ),
    Kernel(&'static str, Lane, u64, u64, KernelArgs),
    Memcpy(TransferDir, usize, u64, u64, u64, bool),
    Instant(&'static str, Lane, u64, Vec<(&'static str, ArgValue)>),
    Fault(&'static str, Lane, u64, Vec<(&'static str, ArgValue)>),
    Counter(&'static str, Lane, u64, u64),
}

/// The event a [`TraceCall`] records.
struct Recorded {
    name: &'static str,
    kind: TraceKind,
    lane: Lane,
    ts: u64,
    dur: u64,
    args: Vec<(&'static str, ArgValue)>,
}

impl Recorded {
    fn matches(&self, e: &TraceEvent) -> bool {
        e.name == self.name
            && e.kind == self.kind
            && e.lane == self.lane
            && e.ts == SimNanos(self.ts)
            && e.dur == SimNanos(self.dur)
            && e.args == self.args.as_slice()
    }
}

impl TraceCall {
    fn decode((op, lane, ts, bits): (usize, usize, u64, u64)) -> Self {
        let name = NAMES[(bits % 6) as usize];
        let lane = lane_at(lane);
        let dur = (bits >> 3) % 50;
        let args = (0..(bits >> 9) % 4)
            .map(|k| arg_at(bits >> (11 + 3 * k)))
            .collect();
        match op {
            0 => {
                let kinds = [TraceKind::HostOp, TraceKind::Span];
                TraceCall::Span(
                    name,
                    kinds[((bits >> 20) % 2) as usize],
                    lane,
                    ts,
                    dur,
                    args,
                )
            }
            1 => TraceCall::Kernel(
                name,
                lane,
                ts,
                dur,
                KernelArgs {
                    category: [KernelCategory::Update, KernelCategory::Aggregation]
                        [((bits >> 22) % 2) as usize],
                    gmem_requests: (bits >> 28) % 2,
                    gmem_transactions: (bits >> 25) % 2,
                    smem_transactions: (bits >> 29) % 2,
                    flops: (bits >> 23) % 3,
                    warp_efficiency_milli: 1_000 - ((bits >> 26) % 2) as u32,
                    balanced: SimNanos(dur / 2),
                    imbalance_milli: (bits >> 27) % 2,
                },
            ),
            2 => TraceCall::Instant(name, lane, ts, args),
            3 => TraceCall::Fault(name, lane, ts, args),
            4 => TraceCall::Counter(name, lane, ts, (bits >> 30) % 5 * 256),
            _ => {
                let dir = [TransferDir::H2D, TransferDir::D2H][((bits >> 20) % 2) as usize];
                let stream = (bits >> 21) as usize % 3;
                TraceCall::Memcpy(
                    dir,
                    stream,
                    ts,
                    dur,
                    (bits >> 30) % 3 * 64,
                    bits >> 23 & 1 == 1,
                )
            }
        }
    }

    fn apply(&self, t: &mut Tracer) {
        match self.clone() {
            TraceCall::Span(name, kind, lane, ts, dur, args) => {
                t.span(name, kind, lane, SimNanos(ts), SimNanos(ts + dur), args)
            }
            TraceCall::Kernel(name, lane, ts, dur, key) => {
                t.kernel(name, lane, SimNanos(ts), SimNanos(ts + dur), key)
            }
            TraceCall::Memcpy(dir, stream, ts, dur, bytes, pinned) => {
                t.memcpy(dir, stream, SimNanos(ts), SimNanos(ts + dur), bytes, pinned)
            }
            TraceCall::Instant(name, lane, ts, args) => t.instant(name, lane, SimNanos(ts), args),
            TraceCall::Fault(name, lane, ts, args) => t.fault(name, lane, SimNanos(ts), args),
            TraceCall::Counter(name, lane, ts, v) => t.counter(name, lane, SimNanos(ts), v),
        }
    }

    /// The profiler sample this call records, if it records one.
    fn sample(&self) -> Option<Sample> {
        let (name, kind, ts, dur) = match self.clone() {
            TraceCall::Span(name, TraceKind::HostOp, _, ts, dur, _) => {
                (name, SampleKind::Host, ts, dur)
            }
            TraceCall::Kernel(name, _, ts, dur, key) => (name, SampleKind::Kernel(key), ts, dur),
            TraceCall::Memcpy(dir, _, ts, dur, bytes, pinned) => {
                let name = self.recorded().name;
                (name, SampleKind::Transfer { dir, bytes, pinned }, ts, dur)
            }
            _ => return None,
        };
        let (start, end) = (SimNanos(ts), SimNanos(ts + dur));
        Some(Sample {
            name,
            kind,
            start,
            end,
        })
    }

    fn recorded(&self) -> Recorded {
        let (name, kind, lane, ts, dur, args) = match self.clone() {
            TraceCall::Span(name, kind, lane, ts, dur, args) => (name, kind, lane, ts, dur, args),
            TraceCall::Kernel(name, lane, ts, dur, key) => {
                let args = vec![
                    ("category", ArgValue::Str(key.category.label().into())),
                    ("flops", ArgValue::U64(key.flops)),
                    ("gmem_transactions", ArgValue::U64(key.gmem_transactions)),
                    (
                        "warp_efficiency_milli",
                        ArgValue::U64(key.warp_efficiency_milli.into()),
                    ),
                    ("imbalance_milli", ArgValue::U64(key.imbalance_milli)),
                ];
                (name, TraceKind::Kernel, lane, ts, dur, args)
            }
            TraceCall::Memcpy(dir, stream, ts, dur, bytes, pinned) => {
                let (name, lane) = match dir {
                    TransferDir::H2D => ("memcpy_h2d", Lane::H2D),
                    TransferDir::D2H => ("memcpy_d2h", Lane::D2H),
                };
                let args = vec![
                    ("bytes", ArgValue::U64(bytes)),
                    ("pinned", ArgValue::Bool(pinned)),
                    ("stream", ArgValue::U64(stream as u64)),
                ];
                (name, TraceKind::Memcpy, lane, ts, dur, args)
            }
            TraceCall::Instant(name, lane, ts, args) => {
                (name, TraceKind::Instant, lane, ts, 0, args)
            }
            TraceCall::Fault(name, lane, ts, args) => (name, TraceKind::Fault, lane, ts, 0, args),
            TraceCall::Counter(name, lane, ts, v) => {
                let args = vec![("value", ArgValue::U64(v))];
                (name, TraceKind::Counter, lane, ts, 0, args)
            }
        };
        Recorded {
            name,
            kind,
            lane,
            ts,
            dur,
            args,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_compact_trace_log_round_trips(
        calls in proptest::collection::vec((0usize..6, 0usize..46, 0u64..400, 0u64..u64::MAX), 0..80),
        a in 0u64..460,
        b in 0u64..460,
    ) {
        let calls: Vec<TraceCall> = calls.into_iter().map(TraceCall::decode).collect();
        let mut t = Tracer::new();
        for c in &calls {
            c.apply(&mut t);
        }
        let recorded: Vec<Recorded> = calls.iter().map(TraceCall::recorded).collect();

        // Issue order, through `iter`, `get` and `IntoIterator`.
        let events = t.events();
        prop_assert_eq!(events.len(), recorded.len());
        prop_assert_eq!(events.is_empty(), recorded.is_empty());
        for (i, (e, r)) in events.iter().zip(&recorded).enumerate() {
            prop_assert!(r.matches(&e), "event {i}: {e:?}");
            prop_assert!(r.matches(&events.get(i).unwrap()), "get({i})");
        }
        prop_assert!(events.get(recorded.len()).is_none());
        prop_assert_eq!(events.into_iter().count(), recorded.len());

        // The kernel, copy and host-op records, as profiler samples.
        let samples: Vec<Sample> = calls.iter().filter_map(TraceCall::sample).collect();
        prop_assert_eq!(Profiler::new(&t).samples().iter().collect::<Vec<_>>(), samples);

        // Export order: a reference stable sort by (ts, dur desc, tid),
        // issue order breaking the remaining ties.
        let mut reference: Vec<&Recorded> = recorded.iter().collect();
        reference.sort_by_key(|r| (r.ts, std::cmp::Reverse(r.dur), r.lane.tid()));
        let sorted: Vec<TraceEvent> = t.sorted().collect();
        prop_assert_eq!(sorted.len(), reference.len());
        for (i, (e, r)) in sorted.iter().zip(&reference).enumerate() {
            prop_assert!(r.matches(e), "sorted position {i}: {e:?}");
        }

        // A window exports exactly what a tracer holding only the kept
        // events exports in full.
        let (t0, t1) = (a.min(b), a.max(b));
        let mut only = Tracer::new();
        for (c, r) in calls.iter().zip(&recorded) {
            if r.ts >= t0 && r.ts + r.dur <= t1 {
                c.apply(&mut only);
            }
        }
        prop_assert_eq!(
            export_chrome_trace_window(&t, 3, SimNanos(t0), SimNanos(t1)),
            export_chrome_trace(&only, 3)
        );
    }

    #[test]
    fn the_compact_profiler_log_round_trips(
        ops in proptest::collection::vec((0usize..8, 0usize..2, 0u64..2_000_000, 0u64..u64::MAX), 0..60),
        mark in 0usize..60,
    ) {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let streams = [gpu.default_stream(), gpu.create_stream()];
        let mut expected: Vec<Sample> = Vec::new();
        let mut snap = None;
        for (i, (op, stream, a, bits)) in ops.into_iter().enumerate() {
            if i == mark {
                snap = Some((gpu.profiler().snapshot(), expected.len()));
            }
            let s = streams[stream];
            let name = NAMES[(bits % 6) as usize];
            match op {
                // A launch; op 7 makes it a straggler, whose
                // `fault_injected` instant lands right after the kernel.
                0 | 7 => {
                    let cats = [KernelCategory::Aggregation, KernelCategory::Update, KernelCategory::Other];
                    let mut cost = KernelCost::new(name, cats[((bits >> 3) % 3) as usize])
                        .flops(a % 4)
                        .gmem((bits >> 5) % 3, (bits >> 7) % 5)
                        .smem((bits >> 10) % 2)
                        .uniform_blocks(1 + ((bits >> 12) % 4) as usize, 1 + (bits >> 14) % 3);
                    cost.warp_efficiency_milli = 1 + ((bits >> 16) % 1_000) as u32;
                    let (mut busy, balanced) = gpu.kernel_busy(&cost);
                    if op == 7 {
                        let from = gpu.op_counters().launches;
                        let multiplier_milli = 3_000;
                        gpu.install_faults(FaultPlan {
                            straggler_ranges: vec![StragglerRange { from, to: from + 1, multiplier_milli }],
                            ..FaultPlan::default()
                        });
                        busy = busy.scale(multiplier_milli, 1_000);
                    }
                    let slots = gpu.cfg().block_slots();
                    let (num, den) = schedule_blocks(&cost.block_work, slots).factor_ratio();
                    let kind = SampleKind::Kernel(KernelArgs {
                        category: cost.category,
                        gmem_requests: cost.gmem_requests,
                        gmem_transactions: cost.gmem_transactions,
                        smem_transactions: cost.smem_transactions,
                        flops: cost.flops,
                        warp_efficiency_milli: cost.warp_efficiency_milli,
                        balanced,
                        imbalance_milli: ratio_milli(num, den),
                    });
                    let end = gpu.launch(s, cost).time();
                    expected.push(Sample { name, kind, start: end - busy, end });
                    if op == 7 {
                        let fault = gpu.trace().events().iter().last().unwrap();
                        prop_assert_eq!(fault.name, "fault_injected");
                        prop_assert_eq!(gpu.profiler().samples().last(), expected.last().copied());
                    }
                }
                1 => {
                    let (bytes, pinned) = (a % 4 + 1, bits & 1 == 1);
                    let (dir, name, end) = if (bits >> 1) & 1 == 0 {
                        (TransferDir::H2D, "memcpy_h2d", gpu.h2d(s, bytes, pinned).time())
                    } else {
                        (TransferDir::D2H, "memcpy_d2h", gpu.d2h(s, bytes, pinned).time())
                    };
                    let cfg = gpu.cfg();
                    let bw = if pinned { cfg.pcie_pinned_bytes_per_us } else { cfg.pcie_pageable_bytes_per_us };
                    let dur = SimNanos::from_nanos(cfg.pcie_latency_ns) + SimNanos::from_bytes(bytes, bw);
                    let kind = SampleKind::Transfer { dir, bytes, pinned };
                    expected.push(Sample { name, kind, start: end - dur, end });
                }
                2 => {
                    let (start, end) = gpu.host_op(name, SimNanos(a % 1_000), SimNanos((bits >> 3) % 500));
                    expected.push(Sample { name, kind: SampleKind::Host, start, end });
                }
                // Records that are no samples: a control instant and span,
                // a `wait_event` stall, the alloc/free memory counter and a
                // CUDA-graph launch span.
                3 => {
                    let t = SimNanos(a % 1_000);
                    gpu.trace_mut().instant(name, Lane::Control, t, vec![]);
                    let end = t + SimNanos((bits >> 3) % 500);
                    gpu.trace_mut().span(name, TraceKind::Span, Lane::Control, t, end, vec![]);
                }
                4 => {
                    let other = streams[1 - stream];
                    let later = gpu.now() + SimNanos(1 + a % 100);
                    gpu.stream_wait_host(other, later);
                    let ev = gpu.record_event(other);
                    gpu.wait_event(s, ev);
                }
                5 => {
                    let id = gpu.alloc(1 + a % 4_096).unwrap();
                    gpu.free(id);
                }
                _ => gpu.graph_scope(s, |_| ()),
            }
        }

        let samples = gpu.profiler().samples();
        prop_assert_eq!(samples.len(), expected.len());
        prop_assert_eq!(samples.is_empty(), expected.is_empty());
        prop_assert_eq!(samples.iter().collect::<Vec<_>>(), expected.clone());
        for (i, s) in expected.iter().enumerate() {
            prop_assert_eq!(samples.get(i), Some(*s));
        }
        prop_assert_eq!(samples.get(expected.len()), None);
        prop_assert_eq!(samples.last(), expected.last().copied());
        if let Some((snap, from)) = snap {
            prop_assert_eq!(samples.since(snap).iter().collect::<Vec<_>>(), expected[from..].to_vec());
            // The window's breakdown is that of a trace holding only its
            // samples.
            let only = samples_only(&expected[from..]);
            prop_assert_eq!(
                format!("{:?}", gpu.profiler().window(snap)),
                format!("{:?}", Profiler::new(&only).full())
            );
        }
        let consistency = gpu.profiler().consistency_check(gpu.trace());
        prop_assert!(consistency.is_ok(), "{consistency:?}");
    }
}

/// A trace recording exactly `samples`, through the calls that record them.
fn samples_only(samples: &[Sample]) -> Tracer {
    let mut t = Tracer::new();
    for s in samples {
        match s.kind {
            SampleKind::Kernel(key) => t.kernel(s.name, Lane::Stream(0), s.start, s.end, key),
            SampleKind::Transfer { dir, bytes, pinned } => {
                t.memcpy(dir, 0, s.start, s.end, bytes, pinned)
            }
            SampleKind::Host => t.span(
                s.name,
                TraceKind::HostOp,
                Lane::Host,
                s.start,
                s.end,
                vec![],
            ),
        }
    }
    t
}

#[test]
fn since_on_a_since_view_indexes_the_whole_table() {
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let s = gpu.default_stream();
    let kernel = |name| {
        KernelCost::new(name, KernelCategory::Other)
            .flops(1)
            .uniform_blocks(1, 1)
    };
    // A record that is no sample ahead of each snapshot, so an offset
    // applied twice lands elsewhere.
    gpu.launch(s, kernel("a"));
    let now = gpu.now();
    gpu.trace_mut().instant("mark", Lane::Control, now, vec![]);
    let a = gpu.profiler().snapshot();
    gpu.launch(s, kernel("b"));
    gpu.trace_mut().instant("mark", Lane::Control, now, vec![]);
    gpu.launch(s, kernel("c"));
    let b = gpu.profiler().snapshot();
    gpu.launch(s, kernel("d"));
    let names = |v: Samples| v.iter().map(|s| s.name).collect::<Vec<_>>();
    let samples = gpu.profiler().samples();
    assert_eq!(names(samples.since(a)), ["b", "c", "d"]);
    assert_eq!(names(samples.since(a).since(b)), ["d"]);
    assert_eq!(names(samples.since(b).since(a)), ["b", "c", "d"]);
    assert_eq!(samples.since(a).since(b).last().map(|s| s.name), Some("d"));
    let events = gpu.trace().events().since(b);
    assert_eq!(events.iter().map(|e| e.name).collect::<Vec<_>>(), ["d"]);
}

#[test]
fn arg_values_are_equal_and_hashed_by_bits() {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let quiet = f64::NAN;
    let payload = f64::from_bits(quiet.to_bits() | 1);
    assert_ne!(ArgValue::F64(0.0), ArgValue::F64(-0.0));
    assert_eq!(ArgValue::F64(quiet), ArgValue::F64(quiet));
    assert_ne!(ArgValue::F64(quiet), ArgValue::F64(payload));
    assert_ne!(ArgValue::U64(1), ArgValue::I64(1));
    assert_ne!(ArgValue::U64(1), ArgValue::Bool(true));
    let list = || {
        vec![
            ("x", ArgValue::F64(payload)),
            ("policy", ArgValue::Str("nan_skip".into())),
            ("delta", ArgValue::I64(-3)),
        ]
    };
    let hash = |list: &[(&str, ArgValue)]| {
        let mut h = DefaultHasher::new();
        list.hash(&mut h);
        h.finish()
    };
    assert_eq!(list(), list());
    assert_eq!(hash(&list()), hash(&list()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The trace's `device_mem_in_use` high-water mark, its text summary's
    /// `high-water` line and `analyze`'s counter peak all read the one fold
    /// of the counter records, and equal the memory subsystem's all-time
    /// peak under random traffic that runs a small device out of memory.
    #[test]
    fn high_water_marks_are_folded_from_the_counter_records(
        ops in proptest::collection::vec((0u64..3, 1u64..48 << 10), 1..40),
    ) {
        let mut cfg = DeviceConfig::v100();
        cfg.capacity_bytes = 128 << 10;
        let mut gpu = Gpu::new(cfg);
        let mut live = Vec::new();
        for (op, bytes) in ops {
            if op == 0 && !live.is_empty() {
                let id = live.swap_remove(bytes as usize % live.len());
                gpu.free(id);
            } else if let Ok(id) = gpu.alloc(bytes) {
                live.push(id);
            }
        }
        let peak = gpu.mem().peak_ever();
        prop_assert_eq!(gpu.trace().counter_peak("device_mem_in_use"), peak);
        let summary = trace_text_summary(gpu.trace());
        let line = format!("\nhigh-water device_mem_in_use: {peak}\n");
        prop_assert!(summary.contains(&line), "{}", summary);
        let health = analyze(gpu.trace(), gpu.profiler());
        prop_assert_eq!(health.counter_peaks.get("device_mem_in_use"), Some(&peak));
    }
}

// ---- tuner under memory pressure ------------------------------------------
//
// The OOM-recovery ladder shrinks `S_per` one tuner step at a time
// (`DynamicTuner::downshift`); these properties pin the invariants the
// trainer relies on: a decision never exceeds the memory-derived upper
// bound `U = budget / one-snapshot-peak`, and the downshift chain from any
// decision is strictly decreasing until it reaches (and then stays at) 1 —
// so every rung of the ladder still respects the bound the decision did.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tuner_decisions_and_downshifts_respect_the_memory_bound(
        peak in 1_000u64..8_000_000,
        budget in 1_000u64..32_000_000,
        compute_us in 100u64..100_000,
    ) {
        let graph = pipad_repro::dyngraph::DatasetId::Covid19England
            .gen_config(pipad_repro::dyngraph::Scale::Tiny)
            .generate();
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let mut host = gpu.host_now();
        let analyzer = GraphAnalyzer::run(&mut gpu, &graph, &mut host);
        let catalog = PartitionCatalog::build(&mut gpu, &analyzer, &mut host);

        let tuner = DynamicTuner::new(budget, 16_000, 16);
        let profile = FrameProfile {
            peak_mem_one_snapshot: peak,
            compute_time: SimNanos::from_nanos(compute_us * 1_000),
            transfer_bytes: 0,
        };
        let window = 8usize;
        let d = tuner.decide(&profile, &catalog, 0, window);
        let bound = ((budget / peak) as usize).max(1);
        prop_assert!(d.s_per >= 1);
        prop_assert!(
            d.s_per <= bound,
            "decision {} exceeds memory bound {} (budget {budget}, peak {peak})",
            d.s_per, bound
        );
        prop_assert_eq!(d.memory_bound, bound);
        prop_assert!(d.s_per <= window);

        // After an OOM, the trainer walks the decision down the ladder:
        // every rung is strictly smaller (hence still within the bound)
        // until the floor, which maps to itself as the give-up signal.
        let mut s = d.s_per;
        let mut steps = 0;
        while s > 1 {
            let down = DynamicTuner::downshift(s);
            prop_assert!(down < s, "downshift must strictly decrease ({s} -> {down})");
            prop_assert!(down <= bound, "downshifted {down} escaped the bound {bound}");
            s = down;
            steps += 1;
            prop_assert!(steps <= 4, "ladder 8->4->2->1 has at most 3 rungs");
        }
        prop_assert_eq!(DynamicTuner::downshift(1), 1, "the floor maps to itself");
    }
}

/// Causality of the backward halo scatter in the data-parallel trainer: a
/// `p2p_halo_grad` span carries gradients that the producing devices'
/// first backward sweep deposited, so it starts no earlier than the end of
/// that sweep on every device (its last per-shard `sse_loss`), and the
/// consumer's next kernel — the injection — starts no earlier than its end.
/// At 303dbcd the span sat at the end of *staging*, before any producer had
/// launched a kernel, and the consumer's wait on it was a no-op.
#[test]
fn halo_gradients_are_scattered_after_they_exist() {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let cfg = TrainingConfig {
        window: 8,
        epochs: 3,
        preparing_epochs: 1,
        lr: 0.01,
        seed: 7,
    };
    let two = MultiGpuConfig {
        n_gpus: 2,
        ..Default::default()
    };
    for model in [ModelKind::EvolveGcn, ModelKind::MpnnLstm] {
        let (_, gpus) = train_data_parallel_devices(model, &graph, 8, &cfg, &two).expect("train");
        let traces: Vec<Vec<TraceEvent>> =
            gpus.iter().map(|g| g.trace().sorted().collect()).collect();
        // The allreduce is one interval on every device; a frame's sweeps
        // lie between the previous frame's and its own.
        let barriers = traces[0].iter().filter(|e| e.name == "allreduce");
        let mut scatters = 0;
        let mut frame_t0 = SimNanos::ZERO;
        for barrier in barriers {
            let in_frame = |e: &&TraceEvent| e.ts >= frame_t0 && e.end() <= barrier.ts;
            let swept = traces
                .iter()
                .flat_map(|t| t.iter().filter(in_frame))
                .filter(|e| e.name == "sse_loss")
                .map(|e| e.end())
                .max()
                .expect("every frame computes a loss");
            for t in &traces {
                for g in t
                    .iter()
                    .filter(in_frame)
                    .filter(|e| e.name == "p2p_halo_grad")
                {
                    scatters += 1;
                    assert!(
                        g.ts >= swept,
                        "{model:?}: gradients scattered at {} before sweep 1 ended at {swept}",
                        g.ts
                    );
                    let next = t
                        .iter()
                        .find(|e| e.kind == TraceKind::Kernel && e.ts >= g.ts);
                    let next = next.expect("the injection follows the scatter");
                    assert!(
                        next.ts >= g.end(),
                        "{model:?}: {} launched at {} under the scatter ending at {}",
                        next.name,
                        next.ts,
                        g.end()
                    );
                }
            }
            frame_t0 = barrier.ts;
        }
        assert!(
            scatters > 0,
            "{model:?}: no gradient scatter on the timeline"
        );
    }
}

/// §4.4's device-resident reuse tier, as a law: with headroom it engages
/// and takes bytes off the PCIe link, and it can cost neither a loss bit
/// nor simulated time. The run it is compared with is the same run on a
/// device with room for its frames and nothing more, where the tier's
/// budget (half of what two frame peaks leave free) never grows above 0;
/// `S_per` is forced so that capacity decides nothing else.
#[test]
fn the_device_reuse_tier_saves_pcie_bytes_and_costs_neither_bits_nor_time() {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let cfg = TrainingConfig {
        window: 8,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 3,
    };
    let pcfg = PipadConfig {
        force_s_per: Some(4),
        ..Default::default()
    };
    let meta = |gpu: &Gpu, key: &str| gpu.trace().meta().find(|&(k, _)| k == key).unwrap().1;
    for model in ModelKind::ALL {
        let mut roomy = Gpu::new(DeviceConfig::v100());
        let with = train_pipad(&mut roomy, model, &graph, 8, &cfg, &pcfg).expect("roomy run");
        let mut tight = Gpu::new(DeviceConfig::with_capacity(roomy.mem().peak_ever()));
        let without = train_pipad(&mut tight, model, &graph, 8, &cfg, &pcfg).expect("tight run");
        assert_eq!(meta(&tight, "reuse_gpu_hits"), 0, "{model:?}: budget grew");
        let recovered = tight.trace().events().iter().any(|e| e.name == "recovery");
        assert!(
            !recovered,
            "{model:?}: the tight device changed the schedule"
        );

        assert!(meta(&roomy, "reuse_gpu_hits") > 0, "{model:?}: tier is off");
        assert!(
            with.steady.h2d_bytes < without.steady.h2d_bytes,
            "{model:?}: steady H2D {} with the tier, {} without",
            with.steady.h2d_bytes,
            without.steady.h2d_bytes
        );
        for (a, b) in with.epochs.iter().zip(&without.epochs) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "{model:?}");
            assert!(
                a.sim_time <= b.sim_time,
                "{model:?} epoch {}: {} with the tier, {} without",
                a.epoch,
                a.sim_time,
                b.sim_time
            );
        }
    }
}

/// A zero-fault plan behaves exactly like no plan: installing
/// `FaultPlan::default()` moves no loss bit, no trace event and no fault
/// counter.
#[test]
fn a_zero_fault_plan_behaves_exactly_like_no_plan() {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let cfg = TrainingConfig {
        window: 8,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 3,
    };
    for model in ModelKind::ALL {
        let run = |plan: Option<FaultPlan>| {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            if let Some(plan) = plan {
                gpu.install_faults(plan);
            }
            let report = train_pipad(&mut gpu, model, &graph, 8, &cfg, &PipadConfig::default())
                .expect("train");
            let bits: Vec<u32> = report.losses().iter().map(|l| l.to_bits()).collect();
            (bits, export_chrome_trace(gpu.trace(), 0), gpu.fault_stats())
        };
        let (bits, trace, stats) = run(None);
        let (zero_bits, zero_trace, zero_stats) = run(Some(FaultPlan::default()));
        assert_eq!(bits, zero_bits, "{model:?}: loss bits");
        assert!(trace == zero_trace, "{model:?}: the traces differ");
        assert_eq!(stats, zero_stats, "{model:?}: fault counters");
    }
}
