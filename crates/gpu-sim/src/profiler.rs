//! The simulator's built-in profiler: the stand-in for nvprof, the PyTorch
//! Profiler and nvidia-smi used throughout the paper's evaluation.
//!
//! The profiler keeps no log of its own: [`Profiler`] is a `Copy` view of
//! the [`Tracer`]'s records, and every kernel launch, PCIe transfer and
//! accounted host operation record renders as a [`Sample`] through the
//! trace's one [`Records`] view ([`Samples`]).
//! Analyses run over windows between [`ProfSnapshot`]s, so callers can
//! measure e.g. only the steady-state epochs (the paper excludes its two
//! "preparing" epochs the same way).

use crate::device::TransferDir;
use crate::time::SimNanos;
use crate::trace::{ArgValue, KernelArgs, Lane, Records, RecordsIter, TraceKind, Tracer};
use std::collections::BTreeMap;

/// What kind of activity a sample records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SampleKind {
    /// Kernel, by its one descriptor.
    Kernel(KernelArgs),
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

/// One timeline entry, as [`Profiler::samples`] renders it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
        matches!(self.kind, SampleKind::Kernel(_))
    }
}

/// Marker into the trace's record log; analyses run over the samples
/// recorded since a snapshot or between two snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfSnapshot {
    pub(crate) from: usize,
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
}

/// A read-only view of a [`Tracer`]'s kernel, copy and host-op records as
/// [`Sample`]s, with window analyses. It stores nothing of its own.
#[derive(Clone, Copy, Debug)]
pub struct Profiler<'a> {
    tracer: &'a Tracer,
}

/// The recorded samples from one position on, in issue order.
pub type Samples<'a> = Records<'a, Sample>;

/// Iterator over [`Samples`].
pub type SamplesIter<'a> = RecordsIter<'a, Sample>;

impl<'a> Profiler<'a> {
    /// The profiler view of `tracer`.
    pub fn new(tracer: &'a Tracer) -> Self {
        Profiler { tracer }
    }

    /// All recorded samples.
    pub fn samples(self) -> Samples<'a> {
        Records {
            tracer: self.tracer,
            from: 0,
            render: Tracer::sample,
        }
    }

    /// Mark the current position; analyze later with [`Profiler::window`].
    pub fn snapshot(self) -> ProfSnapshot {
        ProfSnapshot {
            from: self.tracer.len(),
        }
    }

    /// Analyze everything recorded so far.
    pub fn full(self) -> Breakdown {
        self.analyze(0, self.tracer.len())
    }

    /// Analyze samples recorded since `snap`.
    pub fn window(self, snap: ProfSnapshot) -> Breakdown {
        self.analyze(snap.from, self.tracer.len())
    }

    /// Analyze samples recorded between two snapshots.
    pub fn between(self, a: ProfSnapshot, b: ProfSnapshot) -> Breakdown {
        self.analyze(a.from, b.from)
    }

    fn analyze(self, from: usize, to: usize) -> Breakdown {
        let tracer = self.tracer;
        let window = tracer.records[from..to]
            .iter()
            .filter_map(|r| tracer.sample(r));
        let mut out = Breakdown::default();
        let mut wall: Option<(SimNanos, SimNanos)> = None;
        let mut kernel_intervals = Vec::new();
        let mut busy_intervals = Vec::new();
        let mut eff_weight: u128 = 0;
        let mut eff_time: u128 = 0;
        for s in window {
            wall = Some(wall.map_or((s.start, s.end), |(a, b)| (a.min(s.start), b.max(s.end))));
            let dur = s.duration();
            match s.kind {
                SampleKind::Kernel(k) => {
                    *out.compute_by_category
                        .entry(k.category.label())
                        .or_insert(SimNanos::ZERO) += dur;
                    out.compute_total += dur;
                    out.compute_balanced += k.balanced;
                    out.gmem_requests += k.gmem_requests;
                    out.gmem_transactions += k.gmem_transactions;
                    out.flops += k.flops;
                    out.kernel_launches += 1;
                    eff_weight += k.warp_efficiency_milli as u128 * dur.as_nanos() as u128;
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
        let Some((wall_start, wall_end)) = wall else {
            return out;
        };
        out.span = wall_end - wall_start;
        out.warp_efficiency_milli = eff_weight.checked_div(eff_time).map_or(1000, |v| v as u32);
        let span_ns = out.span.as_nanos().max(1) as u128;
        let covered_milli = |iv| (total_ns(&union_intervals(iv)) as u128 * 1000 / span_ns) as u32;
        out.sm_utilization_milli = covered_milli(kernel_intervals);
        out.sm_utilization_with_memcpy_milli = covered_milli(busy_intervals);
        out
    }

    /// Check that the two renderings of each kernel, copy and host-op record
    /// agree: walking this view's samples and `tracer`'s kernel, memcpy and
    /// host-op events in issue order, the n-th of each must agree on kind,
    /// name and interval, a kernel's exported `category`, `flops`,
    /// `gmem_transactions`, `warp_efficiency_milli` and `imbalance_milli`
    /// on its descriptor, a copy's `bytes` and `pinned` on its sample and
    /// its lane on the sample's direction, and neither may run out first.
    /// One pass. Run by the trace test suite, the `repro` harnesses and, in
    /// debug builds, every training run.
    pub fn consistency_check(self, tracer: &Tracer) -> Result<(), String> {
        let mut samples = self.samples().iter();
        let spans = tracer.events().into_iter().filter(|e| {
            matches!(
                e.kind,
                TraceKind::Kernel | TraceKind::Memcpy | TraceKind::HostOp
            )
        });
        for (n, e) in spans.enumerate() {
            let Some(s) = samples.next() else {
                return Err(format!(
                    "trace span {n} ({}) has no profiler sample",
                    e.name
                ));
            };
            let arg = |key: &str| e.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
            let u64_is = |key: &str, want: u64| arg(key) == Some(&ArgValue::U64(want));
            let agree = match (e.kind, s.kind) {
                (TraceKind::Kernel, SampleKind::Kernel(k)) => {
                    matches!(arg("category"), Some(ArgValue::Str(c)) if c == k.category.label())
                        && u64_is("flops", k.flops)
                        && u64_is("gmem_transactions", k.gmem_transactions)
                        && u64_is("warp_efficiency_milli", k.warp_efficiency_milli.into())
                        && u64_is("imbalance_milli", k.imbalance_milli)
                }
                (TraceKind::Memcpy, SampleKind::Transfer { dir, bytes, pinned }) => {
                    let lane = match dir {
                        TransferDir::H2D => Lane::H2D,
                        TransferDir::D2H => Lane::D2H,
                    };
                    e.lane == lane
                        && u64_is("bytes", bytes)
                        && arg("pinned") == Some(&ArgValue::Bool(pinned))
                }
                (TraceKind::HostOp, SampleKind::Host) => true,
                _ => false,
            };
            if !agree || e.name != s.name || e.ts != s.start || e.end() != s.end {
                return Err(format!("trace span {n} {e:?} != profiler sample {s:?}"));
            }
        }
        match samples.next() {
            Some(s) => Err(format!("profiler sample {} has no trace span", s.name)),
            None => Ok(()),
        }
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
    use crate::cost::KernelCategory;

    /// Record a kernel whose warp efficiency is `eff` and whose balanced
    /// time is `balanced`.
    fn kernel_with(
        t: &mut Tracer,
        name: &'static str,
        cat: KernelCategory,
        (start, end): (u64, u64),
        eff: u32,
        balanced: u64,
    ) {
        let key = KernelArgs {
            category: cat,
            gmem_requests: 10,
            gmem_transactions: 20,
            smem_transactions: 0,
            flops: 100,
            warp_efficiency_milli: eff,
            balanced: SimNanos(balanced),
            imbalance_milli: 1_000,
        };
        t.kernel(name, Lane::Stream(0), SimNanos(start), SimNanos(end), key);
    }

    fn kernel(t: &mut Tracer, name: &'static str, cat: KernelCategory, start: u64, end: u64) {
        kernel_with(t, name, cat, (start, end), 500, end - start);
    }

    fn transfer(t: &mut Tracer, start: u64, end: u64, dir: TransferDir, bytes: u64) {
        t.memcpy(dir, 0, SimNanos(start), SimNanos(end), bytes, true);
    }

    #[test]
    fn union_merges_overlaps() {
        let u = union_intervals(vec![(20, 30), (0, 10), (5, 15)]);
        assert_eq!(u, vec![(0, 15), (20, 30)]);
        assert_eq!(total_ns(&u), 25);
    }

    #[test]
    fn breakdown_over_window() {
        let mut t = Tracer::new();
        kernel(&mut t, "agg", KernelCategory::Aggregation, 0, 100);
        let snap = Profiler::new(&t).snapshot();
        kernel(&mut t, "agg", KernelCategory::Aggregation, 100, 300);
        t.instant("between", Lane::Control, SimNanos(0), vec![]);
        kernel(&mut t, "upd", KernelCategory::Update, 300, 400);
        transfer(&mut t, 100, 250, TransferDir::H2D, 9000);

        let w = Profiler::new(&t).window(snap);
        assert_eq!(w.compute_total, SimNanos(300));
        assert_eq!(w.compute_by_category["aggregation"], SimNanos(200));
        assert_eq!(w.compute_by_category["update"], SimNanos(100));
        assert_eq!(w.h2d_bytes, 9000);
        assert_eq!(w.h2d_time, SimNanos(150));
        assert_eq!(w.gmem_requests, 20);
        assert_eq!(w.gmem_transactions, 40);
        assert_eq!(w.kernel_launches, 2);
        // span is 100..400 = 300 (the instant at 0 is no sample); kernels
        // cover all of it.
        assert_eq!(w.span, SimNanos(300));
        assert_eq!(w.sm_utilization_milli, 1000);
    }

    #[test]
    fn utilization_counts_gaps_and_memcpy() {
        let mut t = Tracer::new();
        kernel(&mut t, "k", KernelCategory::Other, 0, 100);
        // gap 100..200 where only a transfer runs
        transfer(&mut t, 100, 200, TransferDir::H2D, 100);
        kernel(&mut t, "k", KernelCategory::Other, 200, 300);
        let b = Profiler::new(&t).full();
        assert_eq!(b.span, SimNanos(300));
        // kernels busy 200/300
        assert_eq!(b.sm_utilization_milli, 666);
        // with memcpy counted, fully busy (nvidia-smi semantics)
        assert_eq!(b.sm_utilization_with_memcpy_milli, 1000);
    }

    #[test]
    fn warp_efficiency_is_time_weighted() {
        let mut t = Tracer::new();
        kernel_with(
            &mut t,
            "a",
            KernelCategory::Aggregation,
            (0, 100),
            1000,
            100,
        );
        kernel_with(
            &mut t,
            "b",
            KernelCategory::Aggregation,
            (100, 400),
            200,
            300,
        );
        // (1000*100 + 200*300) / 400 = 400
        assert_eq!(Profiler::new(&t).full().warp_efficiency_milli, 400);
    }

    #[test]
    fn empty_window_is_zeroed() {
        let mut t = Tracer::new();
        t.counter("device_mem_in_use", Lane::Memory, SimNanos(5), 64);
        let b = Profiler::new(&t).full();
        assert_eq!(b.span, SimNanos::ZERO);
        assert_eq!(b.compute_total, SimNanos::ZERO);
        assert!(Profiler::new(&t).samples().is_empty());
    }

    #[test]
    fn consistency_is_checked_launch_by_launch() {
        let trace = |launches: &[(&'static str, u64, u64)], bytes: u64, pinned: bool| {
            let mut t = Tracer::new();
            for &(name, start, end) in launches {
                kernel(&mut t, name, KernelCategory::Other, start, end);
            }
            t.memcpy(
                TransferDir::H2D,
                0,
                SimNanos(0),
                SimNanos(50),
                bytes,
                pinned,
            );
            t
        };
        let same = [("a", 0, 10), ("b", 10, 30)];
        let reference = trace(&same, 64, true);
        let p = Profiler::new(&reference);
        assert_eq!(p.consistency_check(&reference), Ok(()));
        assert_eq!(p.consistency_check(&trace(&same, 64, true)), Ok(()));
        // Same count and total kernel time, launched the other way round.
        let swapped = [("b", 0, 20), ("a", 20, 30)];
        assert!(p.consistency_check(&trace(&swapped, 64, true)).is_err());
        // Same copy interval, other byte count, or pageable.
        assert!(p.consistency_check(&trace(&same, 65, true)).is_err());
        assert!(p.consistency_check(&trace(&same, 64, false)).is_err());
        // Same intervals, one kernel of another family.
        let mut family = Tracer::new();
        kernel(&mut family, "a", KernelCategory::Other, 0, 10);
        kernel(&mut family, "b", KernelCategory::Update, 10, 30);
        transfer(&mut family, 0, 50, TransferDir::H2D, 64);
        assert!(p.consistency_check(&family).is_err());
        // A kernel span short, and one too many.
        assert!(p.consistency_check(&trace(&same[..1], 64, true)).is_err());
        let extra = [("a", 0, 10), ("b", 10, 30), ("c", 30, 31)];
        assert!(p.consistency_check(&trace(&extra, 64, true)).is_err());
    }
}
