//! The simulator's built-in profiler: the stand-in for nvprof, the PyTorch
//! Profiler and nvidia-smi used throughout the paper's evaluation.
//!
//! Every kernel launch, PCIe transfer and accounted host operation appends a
//! [`Sample`]; analyses are computed over index windows so callers can
//! measure e.g. only the steady-state epochs (the paper excludes its two
//! "preparing" epochs the same way).

use crate::cost::KernelCategory;
use crate::device::TransferDir;
use crate::time::SimNanos;
use std::collections::BTreeMap;

/// What kind of activity a sample records.
#[derive(Clone, Debug)]
pub enum SampleKind {
    /// Kernel.
    Kernel {
        /// See the type-level documentation.
        category: KernelCategory,
        /// See the type-level documentation.
        gmem_requests: u64,
        /// See the type-level documentation.
        gmem_transactions: u64,
        /// See the type-level documentation.
        smem_transactions: u64,
        /// See the type-level documentation.
        flops: u64,
        /// See the type-level documentation.
        warp_efficiency_milli: u32,
        /// Duration this kernel would have had under perfect load balance.
        balanced: SimNanos,
    },
    /// Transfer.
    Transfer {
        /// See the type-level documentation.
        dir: TransferDir,
        /// See the type-level documentation.
        bytes: u64,
        /// See the type-level documentation.
        pinned: bool,
    },
    /// Host.
    Host,
}

/// One timeline entry.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Human-readable name.
    pub name: &'static str,
    /// Which model this is.
    pub kind: SampleKind,
    /// Interval start on the simulated timeline.
    pub start: SimNanos,
    /// The end.
    pub end: SimNanos,
}

impl Sample {
    /// Length of this interval.
    pub fn duration(&self) -> SimNanos {
        self.end - self.start
    }

    /// Whether this sample records a kernel.
    pub fn is_kernel(&self) -> bool {
        matches!(self.kind, SampleKind::Kernel { .. })
    }
}

/// Marker into the sample log; analyses run over `[snapshot.from..]` or
/// between two snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfSnapshot {
    /// The from.
    pub from: usize,
}

/// Aggregated view over a sample window.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// Wall span of the window (first start → last end).
    pub span: SimNanos,
    /// Serialized GPU kernel time by category.
    pub compute_by_category: BTreeMap<&'static str, SimNanos>,
    /// Total kernel time (== Σ of the category map).
    pub compute_total: SimNanos,
    /// Kernel time under perfect load balance.
    pub compute_balanced: SimNanos,
    /// Bytes and busy time on the H2D engine.
    pub h2d_time: SimNanos,
    /// The h2d bytes.
    pub h2d_bytes: u64,
    /// Bytes and busy time on the D2H engine.
    pub d2h_time: SimNanos,
    /// The d2h bytes.
    pub d2h_bytes: u64,
    /// Accounted host-side time (may overlap GPU activity).
    pub host_time: SimNanos,
    /// Global-memory totals across kernels.
    pub gmem_requests: u64,
    /// The gmem transactions.
    pub gmem_transactions: u64,
    /// The flops.
    pub flops: u64,
    /// Time-weighted warp execution efficiency over kernels, 1/1000ths.
    pub warp_efficiency_milli: u32,
    /// Fraction of the span with at least one kernel resident, 1/1000ths
    /// (SM utilization as the PyTorch profiler reports it).
    pub sm_utilization_milli: u32,
    /// Same, but counting memcpy engines as busy too (nvidia-smi semantics,
    /// Table 2's caveat).
    pub sm_utilization_with_memcpy_milli: u32,
    /// The kernel launches.
    pub kernel_launches: u64,
}

impl Breakdown {
    /// Sm utilization.
    pub fn sm_utilization(&self) -> f64 {
        self.sm_utilization_milli as f64 / 1000.0
    }

    /// Sm utilization with memcpy.
    pub fn sm_utilization_with_memcpy(&self) -> f64 {
        self.sm_utilization_with_memcpy_milli as f64 / 1000.0
    }

    /// Warp efficiency.
    pub fn warp_efficiency(&self) -> f64 {
        self.warp_efficiency_milli as f64 / 1000.0
    }

    /// Transfer time.
    pub fn transfer_time(&self) -> SimNanos {
        self.h2d_time + self.d2h_time
    }

    /// Load-imbalance factor over the window (≥ 1).
    pub fn imbalance_factor(&self) -> f64 {
        if self.compute_balanced.as_nanos() == 0 {
            1.0
        } else {
            self.compute_total.as_nanos() as f64 / self.compute_balanced.as_nanos() as f64
        }
    }
}

/// Append-only sample log with window analyses.
#[derive(Debug, Default)]
pub struct Profiler {
    samples: Vec<Sample>,
}

impl Profiler {
    /// Create a new instance.
    pub fn new() -> Self {
        Profiler::default()
    }

    pub(crate) fn record(&mut self, sample: Sample) {
        debug_assert!(sample.end >= sample.start);
        self.samples.push(sample);
    }

    /// All recorded samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mark the current position; analyze later with [`Profiler::window`].
    pub fn snapshot(&self) -> ProfSnapshot {
        ProfSnapshot {
            from: self.samples.len(),
        }
    }

    /// Analyze everything recorded so far.
    pub fn full(&self) -> Breakdown {
        self.analyze(0, self.samples.len())
    }

    /// Analyze samples recorded since `snap`.
    pub fn window(&self, snap: ProfSnapshot) -> Breakdown {
        self.analyze(snap.from, self.samples.len())
    }

    /// Analyze samples in `[a, b)` sample-index space.
    pub fn between(&self, a: ProfSnapshot, b: ProfSnapshot) -> Breakdown {
        self.analyze(a.from, b.from)
    }

    fn analyze(&self, from: usize, to: usize) -> Breakdown {
        let window = &self.samples[from..to];
        let mut out = Breakdown::default();
        if window.is_empty() {
            return out;
        }
        let wall_start = window.iter().map(|s| s.start).min().unwrap();
        let wall_end = window.iter().map(|s| s.end).max().unwrap();
        out.span = wall_end - wall_start;

        let mut kernel_intervals = Vec::new();
        let mut busy_intervals = Vec::new();
        let mut eff_weight: u128 = 0;
        let mut eff_time: u128 = 0;
        for s in window {
            let dur = s.duration();
            match &s.kind {
                SampleKind::Kernel {
                    category,
                    gmem_requests,
                    gmem_transactions,
                    smem_transactions: _,
                    flops,
                    warp_efficiency_milli,
                    balanced,
                } => {
                    *out.compute_by_category
                        .entry(category.label())
                        .or_insert(SimNanos::ZERO) += dur;
                    out.compute_total += dur;
                    out.compute_balanced += *balanced;
                    out.gmem_requests += gmem_requests;
                    out.gmem_transactions += gmem_transactions;
                    out.flops += flops;
                    out.kernel_launches += 1;
                    eff_weight += *warp_efficiency_milli as u128 * dur.as_nanos() as u128;
                    eff_time += dur.as_nanos() as u128;
                    kernel_intervals.push((s.start.as_nanos(), s.end.as_nanos()));
                    busy_intervals.push((s.start.as_nanos(), s.end.as_nanos()));
                }
                SampleKind::Transfer { dir, bytes, .. } => {
                    match dir {
                        TransferDir::H2D => {
                            out.h2d_time += dur;
                            out.h2d_bytes += bytes;
                        }
                        TransferDir::D2H => {
                            out.d2h_time += dur;
                            out.d2h_bytes += bytes;
                        }
                    }
                    busy_intervals.push((s.start.as_nanos(), s.end.as_nanos()));
                }
                SampleKind::Host => {
                    out.host_time += dur;
                }
            }
        }
        out.warp_efficiency_milli = eff_weight.checked_div(eff_time).map_or(1000, |v| v as u32);
        let span_ns = out.span.as_nanos().max(1) as u128;
        let covered_milli = |iv| (total_ns(&union_intervals(iv)) as u128 * 1000 / span_ns) as u32;
        out.sm_utilization_milli = covered_milli(kernel_intervals);
        out.sm_utilization_with_memcpy_milli = covered_milli(busy_intervals);
        out
    }

    /// Cross-check the aggregate counters against the structured trace: the
    /// trace's kernel spans must reproduce this profiler's kernel count and
    /// serialized compute time exactly, and its memcpy spans the transfer
    /// busy time. Used as the determinism/consistency oracle by the trace
    /// test suite and the `repro trace` harness.
    pub fn consistency_check(&self, tracer: &crate::trace::Tracer) -> Result<(), String> {
        use crate::trace::TraceKind;
        let b = self.full();
        let mut kernels = 0u64;
        let mut kernel_time = SimNanos::ZERO;
        let mut copy_time = SimNanos::ZERO;
        for e in tracer.events() {
            match e.kind {
                TraceKind::Kernel => {
                    kernels += 1;
                    kernel_time += e.dur;
                }
                TraceKind::Memcpy => copy_time += e.dur,
                _ => {}
            }
        }
        if kernels != b.kernel_launches {
            return Err(format!(
                "trace kernel spans {kernels} != profiler launches {}",
                b.kernel_launches
            ));
        }
        if kernel_time != b.compute_total {
            return Err(format!(
                "trace kernel time {kernel_time} != profiler compute_total {}",
                b.compute_total
            ));
        }
        if copy_time != b.transfer_time() {
            return Err(format!(
                "trace memcpy time {copy_time} != profiler transfer time {}",
                b.transfer_time()
            ));
        }
        Ok(())
    }
}

/// Merge `(start, end)` nanosecond intervals into a disjoint ascending list.
pub fn union_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of disjoint intervals, such as [`union_intervals`] returns.
pub fn total_ns(iv: &[(u64, u64)]) -> u64 {
    iv.iter().map(|(s, e)| e - s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(name: &'static str, cat: KernelCategory, start: u64, end: u64) -> Sample {
        Sample {
            name,
            kind: SampleKind::Kernel {
                category: cat,
                gmem_requests: 10,
                gmem_transactions: 20,
                smem_transactions: 0,
                flops: 100,
                warp_efficiency_milli: 500,
                balanced: SimNanos(end - start),
            },
            start: SimNanos(start),
            end: SimNanos(end),
        }
    }

    fn transfer(start: u64, end: u64, dir: TransferDir, bytes: u64) -> Sample {
        Sample {
            name: "memcpy",
            kind: SampleKind::Transfer {
                dir,
                bytes,
                pinned: true,
            },
            start: SimNanos(start),
            end: SimNanos(end),
        }
    }

    #[test]
    fn union_merges_overlaps() {
        let u = union_intervals(vec![(20, 30), (0, 10), (5, 15)]);
        assert_eq!(u, vec![(0, 15), (20, 30)]);
        assert_eq!(total_ns(&u), 25);
    }

    #[test]
    fn breakdown_over_window() {
        let mut p = Profiler::new();
        p.record(kernel("agg", KernelCategory::Aggregation, 0, 100));
        let snap = p.snapshot();
        p.record(kernel("agg", KernelCategory::Aggregation, 100, 300));
        p.record(kernel("upd", KernelCategory::Update, 300, 400));
        p.record(transfer(100, 250, TransferDir::H2D, 9000));

        let w = p.window(snap);
        assert_eq!(w.compute_total, SimNanos(300));
        assert_eq!(w.compute_by_category["aggregation"], SimNanos(200));
        assert_eq!(w.compute_by_category["update"], SimNanos(100));
        assert_eq!(w.h2d_bytes, 9000);
        assert_eq!(w.h2d_time, SimNanos(150));
        assert_eq!(w.gmem_requests, 20);
        assert_eq!(w.gmem_transactions, 40);
        assert_eq!(w.kernel_launches, 2);
        // span is 100..400 = 300; kernels cover all of it.
        assert_eq!(w.span, SimNanos(300));
        assert_eq!(w.sm_utilization_milli, 1000);
    }

    #[test]
    fn utilization_counts_gaps_and_memcpy() {
        let mut p = Profiler::new();
        p.record(kernel("k", KernelCategory::Other, 0, 100));
        // gap 100..200 where only a transfer runs
        p.record(transfer(100, 200, TransferDir::H2D, 100));
        p.record(kernel("k", KernelCategory::Other, 200, 300));
        let b = p.full();
        assert_eq!(b.span, SimNanos(300));
        // kernels busy 200/300
        assert_eq!(b.sm_utilization_milli, 666);
        // with memcpy counted, fully busy (nvidia-smi semantics)
        assert_eq!(b.sm_utilization_with_memcpy_milli, 1000);
    }

    #[test]
    fn warp_efficiency_is_time_weighted() {
        let mut p = Profiler::new();
        let mut k1 = kernel("a", KernelCategory::Aggregation, 0, 100);
        if let SampleKind::Kernel {
            warp_efficiency_milli,
            ..
        } = &mut k1.kind
        {
            *warp_efficiency_milli = 1000;
        }
        let mut k2 = kernel("b", KernelCategory::Aggregation, 100, 400);
        if let SampleKind::Kernel {
            warp_efficiency_milli,
            ..
        } = &mut k2.kind
        {
            *warp_efficiency_milli = 200;
        }
        p.record(k1);
        p.record(k2);
        // (1000*100 + 200*300) / 400 = 400
        assert_eq!(p.full().warp_efficiency_milli, 400);
    }

    #[test]
    fn empty_window_is_zeroed() {
        let p = Profiler::new();
        let b = p.full();
        assert_eq!(b.span, SimNanos::ZERO);
        assert_eq!(b.compute_total, SimNanos::ZERO);
    }

    #[test]
    fn imbalance_factor() {
        let mut p = Profiler::new();
        let mut k = kernel("a", KernelCategory::Aggregation, 0, 300);
        if let SampleKind::Kernel { balanced, .. } = &mut k.kind {
            *balanced = SimNanos(100);
        }
        p.record(k);
        assert!((p.full().imbalance_factor() - 3.0).abs() < 1e-9);
    }
}
