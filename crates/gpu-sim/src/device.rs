//! The simulated device: streams, events, kernel launches, PCIe transfers
//! and host-op accounting, all advancing a deterministic integer timeline.
//!
//! ## Timeline model
//!
//! * One **compute lane**: kernels from all streams execute serially in
//!   issue order (concurrent-kernel co-residency is not modeled; PiPAD
//!   itself serializes kernels and relies on *fused multi-snapshot* kernels
//!   plus transfer/compute overlap, which this model captures).
//! * Two **copy-engine lanes** (H2D and D2H) that run concurrently with the
//!   compute lane — this is what makes CUDA-stream pipelining (PyGT-A and
//!   PiPAD's pipeline, Figure 8) effective.
//! * Per-**stream** cursors provide ordering *within* a stream; events
//!   provide ordering *between* streams and with the host.
//! * One **host lane**: the CPU-side loader of Figure 8 (slicing, on-demand
//!   overlap extraction, staging, halo gathers). Host-lane ops start where
//!   it is and advance it; [`Gpu::now`] reads the device lanes only.
//! * One **worker lane**: the data-preparation worker, a second host
//!   thread that extracts partition overlaps beside the loader. Its ops
//!   start no earlier than the host lane that hands them off and move
//!   neither the host lane nor [`Gpu::now_with_host`]; their spans share
//!   the host track of the trace.

use crate::config::DeviceConfig;
use crate::cost::KernelCost;
use crate::faults::{
    CrashCounter, CrashError, FaultPlan, FaultSession, FaultStats, OpCounters, TransferError,
};
use crate::memory::{BufferId, DeviceMemory, OomError};
use crate::profiler::Profiler;
use crate::schedule::schedule_blocks;
use crate::time::SimNanos;
use crate::trace::{ArgValue, KernelArgs, Lane, TraceKind, Tracer};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Direction of a PCIe transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransferDir {
    /// H2 D.
    H2D,
    /// D2 H.
    D2H,
}

/// Handle to a simulated CUDA stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamId(pub(crate) usize);

/// A recorded timeline point, used for cross-stream and host↔device sync.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event(pub(crate) SimNanos);

impl Event {
    /// The simulated timestamp.
    pub fn time(&self) -> SimNanos {
        self.0
    }
}

/// The simulated GPU.
pub struct Gpu {
    cfg: DeviceConfig,
    mem: DeviceMemory,
    tracer: Tracer,
    compute_cursor: SimNanos,
    h2d_cursor: SimNanos,
    d2h_cursor: SimNanos,
    streams: Vec<SimNanos>,
    host_lane: SimNanos,
    /// The data-preparation worker's cursor: a second host thread beside
    /// the loader. Not part of the clock (see [`Gpu::restore_clock`]).
    worker_lane: SimNanos,
    graph_mode: bool,
    /// Each captured CUDA graph's launch digest, by key. Not part of the
    /// clock: a restored device has instantiated no graphs.
    graphs: HashMap<u64, u64>,
    /// Digests the kernel names the graph scope in progress launches.
    recording: Option<DefaultHasher>,
    graph_replays: u64,
    /// The fault-injection session (see [`crate::faults`]); a fresh
    /// device runs `FaultPlan::default()`, which injects nothing.
    faults: FaultSession,
    /// Monotonic operation counters: the index space fault plans address.
    alloc_attempts: u64,
    copy_ops: u64,
    launches: u64,
    eager_launches: u64,
}

impl Gpu {
    /// Create a new instance.
    pub fn new(cfg: DeviceConfig) -> Self {
        let capacity = cfg.capacity_bytes;
        Gpu {
            cfg,
            mem: DeviceMemory::new(capacity),
            tracer: Tracer::new(),
            compute_cursor: SimNanos::ZERO,
            h2d_cursor: SimNanos::ZERO,
            d2h_cursor: SimNanos::ZERO,
            streams: vec![SimNanos::ZERO], // default stream 0
            host_lane: SimNanos::ZERO,
            worker_lane: SimNanos::ZERO,
            graph_mode: false,
            graphs: HashMap::new(),
            recording: None,
            graph_replays: 0,
            faults: FaultSession::new(FaultPlan::default()),
            alloc_attempts: 0,
            copy_ops: 0,
            launches: 0,
            eager_launches: 0,
        }
    }

    // ---- fault injection -------------------------------------------------

    /// Install a deterministic fault plan. Replaces any previous plan;
    /// operation counters keep running, so plans installed mid-run address
    /// the same global index space.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = FaultSession::new(plan);
    }

    /// Counts of faults injected so far by the current plan.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats
    }

    /// Monotonic operation counters (allocation attempts, logical copy
    /// ops, kernel launches and the eager ones among them); harnesses probe
    /// these on a fault-free run to place faults at known fractions of the
    /// op stream.
    pub fn op_counters(&self) -> OpCounters {
        OpCounters {
            allocs: self.alloc_attempts,
            copy_ops: self.copy_ops,
            launches: self.launches,
            eager_launches: self.eager_launches,
        }
    }

    /// Consume the poison armed by the most recent poisoned launch, if
    /// any. The autograd tape calls this after each kernel to decide
    /// whether to NaN-poison the output it is about to record.
    pub fn take_poison_pending(&mut self) -> bool {
        std::mem::take(&mut self.faults.poison_armed)
    }

    /// Consume the crash armed when an op counter crossed the plan's
    /// [`crate::faults::CrashPoint`], if any. The trainer polls this at
    /// frame boundaries and abandons the run — no cleanup, no checkpoint —
    /// modeling a process kill whose recovery is a fresh process restoring
    /// the last on-disk checkpoint.
    pub fn take_crash(&mut self) -> Option<CrashError> {
        self.faults.crash_armed.take()
    }

    /// The device configuration.
    pub fn cfg(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// The device memory tracker.
    pub fn mem(&self) -> &DeviceMemory {
        &self.mem
    }

    /// The profiler's view of the trace: its kernel, copy and host-op
    /// records as samples.
    pub fn profiler(&self) -> Profiler<'_> {
        Profiler::new(&self.tracer)
    }

    /// The structured trace recorder.
    pub fn trace(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access for higher layers (trainer, executor, pipeline
    /// controller) to emit their own control events onto the trace.
    pub fn trace_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The default stream (stream 0), always present.
    pub fn default_stream(&self) -> StreamId {
        StreamId(0)
    }

    /// Create a new stream.
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(SimNanos::ZERO);
        StreamId(self.streams.len() - 1)
    }

    /// Latest point any device lane or stream has reached (not the host lane).
    pub fn now(&self) -> SimNanos {
        let mut t = self
            .compute_cursor
            .max(self.h2d_cursor)
            .max(self.d2h_cursor);
        for &s in &self.streams {
            t = t.max(s);
        }
        t
    }

    // ---- memory ---------------------------------------------------------

    /// Alloc. Success moves the `device_mem_in_use` counter track; failure
    /// records an `alloc_oom` instant with the full [`OomError`] detail.
    pub fn alloc(&mut self, bytes: u64) -> Result<BufferId, OomError> {
        self.alloc_labeled(bytes, "alloc")
    }

    /// [`Gpu::alloc`] with an attribution label carried into any
    /// [`OomError`] and the `alloc_oom` trace event. Consults the
    /// installed fault plan: the Nth allocation attempt, or any attempt
    /// crossing the plan's usage threshold, fails with an injected OOM.
    pub fn alloc_labeled(&mut self, bytes: u64, label: &'static str) -> Result<BufferId, OomError> {
        let t = self.now();
        let index = self.alloc_attempts;
        self.alloc_attempts += 1;
        self.check_crash_counter(CrashCounter::Allocs, index, t);
        let in_use = self.mem.in_use();
        let injected = self.faults.should_fail_alloc(index, in_use, bytes);
        let res = if injected {
            Err(OomError {
                requested: bytes,
                in_use,
                capacity: self.mem.capacity(),
                label,
            })
        } else {
            self.mem.alloc_labeled(bytes, label)
        };
        match res {
            Ok(id) => {
                self.tracer
                    .counter("device_mem_in_use", Lane::Memory, t, self.mem.in_use());
                Ok(id)
            }
            Err(e) => {
                if injected {
                    self.tracer.fault(
                        "fault_injected",
                        Lane::Memory,
                        t,
                        vec![
                            ("kind", ArgValue::Str("oom".to_string())),
                            ("alloc_index", ArgValue::U64(index)),
                            ("requested", ArgValue::U64(bytes)),
                        ],
                    );
                }
                self.tracer.instant(
                    "alloc_oom",
                    Lane::Memory,
                    t,
                    vec![
                        ("requested", ArgValue::U64(e.requested)),
                        ("in_use", ArgValue::U64(e.in_use)),
                        ("capacity", ArgValue::U64(e.capacity)),
                        ("label", ArgValue::Str(e.label.to_string())),
                        ("injected", ArgValue::Bool(injected)),
                    ],
                );
                Err(e)
            }
        }
    }

    /// Release the device allocation.
    pub fn free(&mut self, id: BufferId) {
        let t = self.now();
        self.mem.free(id);
        self.tracer
            .counter("device_mem_in_use", Lane::Memory, t, self.mem.in_use());
    }

    /// Reset peak mem.
    pub fn reset_peak_mem(&mut self) {
        self.mem.reset_peak();
    }

    /// Allocation watermark for [`Gpu::release_since`].
    pub fn mem_mark(&self) -> u64 {
        self.mem.mark()
    }

    /// Free every allocation made at or after `mark` that is still live —
    /// the rollback step of OOM recovery: a failed frame attempt releases
    /// exactly what it allocated, then retries. Returns `(buffers, bytes)`
    /// released.
    pub fn release_since(&mut self, mark: u64) -> (usize, u64) {
        let ids = self.mem.live_ids_from(mark);
        let count = ids.len();
        let mut bytes = 0u64;
        for id in ids {
            bytes += self.mem.size_of(id).unwrap_or(0);
            self.free(id);
        }
        (count, bytes)
    }

    // ---- kernels --------------------------------------------------------

    /// Busy time (actual, balanced) for a kernel, independent of queueing.
    pub fn kernel_busy(&self, cost: &KernelCost) -> (SimNanos, SimNanos) {
        let (busy, balanced, _) = self.kernel_busy_ratio(cost);
        (busy, balanced)
    }

    /// [`Gpu::kernel_busy`] plus the exact block-imbalance ratio
    /// `(makespan, ideal)` the busy time was scaled by.
    fn kernel_busy_ratio(&self, cost: &KernelCost) -> (SimNanos, SimNanos, (u64, u64)) {
        let eff = cost.warp_efficiency_milli.clamp(1, 1000) as u64;
        // Low warp occupancy throttles arithmetic linearly, and achieved
        // DRAM bandwidth down to a floor: a warp with few active lanes
        // keeps fewer loads in flight (the paper's §3.2 low-thread-
        // utilization problem), but cross-warp parallelism keeps some
        // throughput even in the latency-bound regime.
        let mem_throttle = (2 * eff).clamp(self.cfg.mem_efficiency_floor_milli, 1000);
        let mem = SimNanos::from_bytes(cost.gmem_bytes(&self.cfg), self.cfg.hbm_bytes_per_us)
            .scale(1000, mem_throttle);
        let compute = SimNanos::from_units(cost.flops, self.cfg.flops_per_ns).scale(1000, eff);
        let smem = SimNanos::from_units(cost.smem_transactions, self.cfg.smem_txn_per_ns);
        let balanced = mem.max(compute).max(smem);
        let report = schedule_blocks(&cost.block_work, self.cfg.block_slots());
        let (num, den) = report.factor_ratio();
        (balanced.scale(num, den), balanced, (num, den))
    }

    /// Arm (and trace) the plan's crash point if `index` on `counter`
    /// crossed it; the armed crash is observed later via
    /// [`Gpu::take_crash`].
    fn check_crash_counter(&mut self, counter: CrashCounter, index: u64, t: SimNanos) {
        if self.faults.check_crash(counter, index) {
            self.tracer.fault(
                "fault_injected",
                Lane::Control,
                t,
                vec![
                    ("kind", ArgValue::Str("crash".to_string())),
                    ("counter", ArgValue::Str(counter.name().to_string())),
                    ("index", ArgValue::U64(index)),
                ],
            );
        }
    }

    /// Launch a kernel. Outside graph mode this pays the full per-launch
    /// driver overhead; inside a [`Gpu::graph_scope`] it pays the amortized
    /// CUDA-graph per-kernel cost instead.
    pub fn launch(&mut self, stream: StreamId, cost: KernelCost) -> Event {
        let overhead = SimNanos::from_nanos(if self.graph_mode {
            self.cfg.graph_kernel_ns
        } else {
            self.cfg.kernel_launch_ns
        });
        let launch_index = self.launches;
        self.launches += 1;
        self.eager_launches += u64::from(!self.graph_mode);
        if let Some(digest) = &mut self.recording {
            cost.name.hash(digest);
        }
        self.check_crash_counter(CrashCounter::Launches, launch_index, self.now());
        let (mut busy, balanced, (imb_num, imb_den)) = self.kernel_busy_ratio(&cost);
        let straggler_milli = self.faults.straggler_multiplier(launch_index);
        if let Some(m) = straggler_milli {
            busy = busy.scale(m, 1_000);
        }
        let poisoned = self.faults.should_poison(launch_index);
        let queued = self.streams[stream.0].max(self.compute_cursor);
        // The launch overhead is host/driver latency: the SMs are idle for
        // it, so the recorded busy interval starts after it (this is what
        // makes SM utilization drop when tiny kernels are launch-bound).
        let start = queued + overhead;
        let end = start + busy;
        self.streams[stream.0] = end;
        self.compute_cursor = end;
        self.tracer.kernel(
            cost.name,
            Lane::Stream(stream.0),
            start,
            end,
            KernelArgs {
                category: cost.category,
                gmem_requests: cost.gmem_requests,
                gmem_transactions: cost.gmem_transactions,
                smem_transactions: cost.smem_transactions,
                flops: cost.flops,
                warp_efficiency_milli: cost.warp_efficiency_milli,
                balanced,
                imbalance_milli: crate::schedule::ratio_milli(imb_num, imb_den),
            },
        );
        if let Some(m) = straggler_milli {
            self.tracer.fault(
                "fault_injected",
                Lane::Stream(stream.0),
                start,
                vec![
                    ("kind", ArgValue::Str("straggler".to_string())),
                    ("launch", ArgValue::U64(launch_index)),
                    ("multiplier_milli", ArgValue::U64(m)),
                ],
            );
        }
        if poisoned {
            self.tracer.fault(
                "fault_injected",
                Lane::Stream(stream.0),
                start,
                vec![
                    ("kind", ArgValue::Str("poison".to_string())),
                    ("launch", ArgValue::U64(launch_index)),
                ],
            );
        }
        Event(end)
    }

    /// Run `f` as a replay of CUDA graph `key` on `stream` (§4.2): one fixed
    /// whole-graph launch overhead, then each `launch` inside pays only the
    /// per-kernel graph cost. A key's first scope is its capture. CUDA
    /// replays a graph with new operands only while its topology holds, so
    /// a later scope of the key that launches another kernel-name sequence
    /// panics. A scope whose `f` returns `Err` captures and checks nothing.
    pub fn graph_scope<R, E>(
        &mut self,
        stream: StreamId,
        key: u64,
        f: impl FnOnce(&mut Gpu) -> Result<R, E>,
    ) -> Result<R, E> {
        let start = self.streams[stream.0].max(self.compute_cursor);
        let end = start + SimNanos::from_nanos(self.cfg.graph_launch_ns);
        self.streams[stream.0] = end;
        self.compute_cursor = end;
        self.tracer.span(
            "cuda_graph_launch",
            TraceKind::Span,
            Lane::Stream(stream.0),
            start,
            end,
            vec![],
        );
        self.graph_mode = true;
        let r = self.recorded(key, f);
        self.graph_mode = false;
        r
    }

    /// Run `f` on `stream` as graph `key`: a [`Gpu::graph_scope`] replay if
    /// the key was captured, else launch by launch as the key's capture.
    pub fn capture_or_replay<R, E>(
        &mut self,
        stream: StreamId,
        key: u64,
        f: impl FnOnce(&mut Gpu) -> Result<R, E>,
    ) -> Result<R, E> {
        if self.graphs.contains_key(&key) {
            self.graph_scope(stream, key, f)
        } else {
            self.recorded(key, f)
        }
    }

    /// Run `f`; on `Ok`, capture `key` with its launch digest or check it.
    fn recorded<R, E>(
        &mut self,
        key: u64,
        f: impl FnOnce(&mut Gpu) -> Result<R, E>,
    ) -> Result<R, E> {
        let outer = self.recording.replace(DefaultHasher::new());
        assert!(outer.is_none(), "graph scopes do not nest");
        let r = f(self);
        let digest = self.recording.take().expect("the scope's digest").finish();
        if r.is_ok() {
            if let Some(captured) = self.graphs.insert(key, digest) {
                let what = "a replay launched another kernel sequence than its capture";
                assert_eq!(captured, digest, "graph {key:#018x}: {what}");
                self.graph_replays += 1;
            }
        }
        r
    }

    /// CUDA graphs captured so far: keys whose first scope returned `Ok`.
    pub fn graph_captures(&self) -> usize {
        self.graphs.len()
    }

    /// Scopes so far that replayed a captured graph and returned `Ok`.
    pub fn graph_replays(&self) -> u64 {
        self.graph_replays
    }

    // ---- transfers ------------------------------------------------------

    fn transfer(&mut self, stream: StreamId, bytes: u64, pinned: bool, dir: TransferDir) -> Event {
        let bw = if pinned {
            self.cfg.pcie_pinned_bytes_per_us
        } else {
            self.cfg.pcie_pageable_bytes_per_us
        };
        let dur = SimNanos::from_nanos(self.cfg.pcie_latency_ns) + SimNanos::from_bytes(bytes, bw);
        let lane = match dir {
            TransferDir::H2D => &mut self.h2d_cursor,
            TransferDir::D2H => &mut self.d2h_cursor,
        };
        let start = self.streams[stream.0].max(*lane);
        let end = start + dur;
        *lane = end;
        self.streams[stream.0] = end;
        // A pageable copy blocks the host and, on the device side, implicitly
        // synchronizes: model the latter by also holding back the compute
        // lane (this is why PyGT's synchronous loading starves the GPU).
        if !pinned {
            self.compute_cursor = self.compute_cursor.max(end);
        }
        self.tracer.memcpy(dir, stream.0, start, end, bytes, pinned);
        Event(end)
    }

    /// Host → device copy. `pinned` selects the fast DMA path and keeps the
    /// copy asynchronous with respect to the compute lane.
    pub fn h2d(&mut self, stream: StreamId, bytes: u64, pinned: bool) -> Event {
        self.next_copy_op();
        self.transfer(stream, bytes, pinned, TransferDir::H2D)
    }

    /// Device → host copy.
    pub fn d2h(&mut self, stream: StreamId, bytes: u64, pinned: bool) -> Event {
        self.next_copy_op();
        self.transfer(stream, bytes, pinned, TransferDir::D2H)
    }

    /// Assign the next logical copy-op index. Fault plans address copies by
    /// this index; retries of one logical operation share it, so a plan's
    /// per-op failure budget can actually be exhausted by retrying.
    fn next_copy_op(&mut self) -> u64 {
        let op = self.copy_ops;
        self.copy_ops += 1;
        self.check_crash_counter(CrashCounter::CopyOps, op, self.now());
        op
    }

    /// Ship `bytes` the host has assembled into one pinned staging buffer —
    /// a partition's adjacency and features back to back — as **one**
    /// logical H2D copy into device buffers the caller has already
    /// allocated: one `pcie_latency_ns`, however many structures the buffer
    /// holds. Nothing to ship is no copy and uses no op index.
    ///
    /// This is the one copy the fault plan can fail. Every attempt shares
    /// the logical op index and occupies the copy engine — a failed DMA
    /// still burns the bus time — and an injected failure records a
    /// `fault_injected` event. After a failure the stream is held for a
    /// `transfer_backoff` span of `base · 2^min(attempt, 16)` (no jitter:
    /// the delay lands on the simulated timeline) and the copy is retried.
    /// Fails only past the plan's `max_transfer_retries` retries, and then
    /// the caller owes the device its allocations back.
    pub fn h2d_staged(&mut self, stream: StreamId, bytes: u64) -> Result<(), TransferError> {
        if bytes == 0 {
            return Ok(());
        }
        let op = self.next_copy_op();
        let mut attempt = 0u32;
        loop {
            let failed = self.faults.should_fail_copy(op);
            let done = self.transfer(stream, bytes, true, TransferDir::H2D);
            if !failed {
                return Ok(());
            }
            self.tracer.fault(
                "fault_injected",
                Lane::H2D,
                done.time(),
                vec![
                    ("kind", ArgValue::Str("transfer".to_string())),
                    ("op", ArgValue::U64(op)),
                    ("bytes", ArgValue::U64(bytes)),
                ],
            );
            if attempt >= self.faults.max_transfer_retries {
                return Err(TransferError {
                    bytes,
                    op_index: op,
                    attempts: attempt + 1,
                });
            }
            let delay_ns = self
                .faults
                .transfer_backoff_ns
                .max(1)
                .saturating_mul(1 << attempt.min(16));
            let start = self.streams[stream.0];
            let end = start + SimNanos::from_nanos(delay_ns);
            self.streams[stream.0] = end;
            self.tracer.span(
                "transfer_backoff",
                TraceKind::Span,
                Lane::Stream(stream.0),
                start,
                end,
                vec![
                    ("attempt", ArgValue::U64(attempt as u64)),
                    ("delay_ns", ArgValue::U64(delay_ns)),
                ],
            );
            attempt += 1;
        }
    }

    // ---- synchronization ------------------------------------------------

    /// Record the stream's current position.
    pub fn record_event(&self, stream: StreamId) -> Event {
        Event(self.streams[stream.0])
    }

    /// Make `stream` wait until `event` has completed.
    pub fn wait_event(&mut self, stream: StreamId, event: Event) {
        let before = self.streams[stream.0];
        self.streams[stream.0] = before.max(event.0);
        if event.0 > before {
            // Only genuine stalls are recorded; no-op waits would bury the
            // timeline in noise without moving any cursor.
            self.tracer.instant(
                "wait_event",
                Lane::Stream(stream.0),
                self.streams[stream.0],
                vec![("stalled_ns", ArgValue::U64((event.0 - before).as_nanos()))],
            );
        }
    }

    /// Make `stream` wait until an absolute host-side time (used when the
    /// CPU finishes preparing data that a transfer depends on).
    pub fn stream_wait_host(&mut self, stream: StreamId, t: SimNanos) {
        let before = self.streams[stream.0];
        self.streams[stream.0] = before.max(t);
        if t > before {
            self.tracer.instant(
                "wait_host",
                Lane::Stream(stream.0),
                t,
                vec![("stalled_ns", ArgValue::U64((t - before).as_nanos()))],
            );
        }
    }

    /// Device-wide barrier: every lane and stream advances to `now()`.
    pub fn synchronize(&mut self) -> SimNanos {
        let t = self.now();
        self.compute_cursor = t;
        self.h2d_cursor = t;
        self.d2h_cursor = t;
        for s in &mut self.streams {
            *s = t;
        }
        self.tracer.instant("device_sync", Lane::Control, t, vec![]);
        t
    }

    // ---- host lane -------------------------------------------------------

    /// Where the host lane has reached.
    pub fn host_now(&self) -> SimNanos {
        self.host_lane
    }

    /// The later of [`Gpu::now`] and the host lane.
    pub fn now_with_host(&self) -> SimNanos {
        self.now().max(self.host_lane)
    }

    /// Lift the host lane to `t` (no-op if it is already past it).
    pub fn host_wait(&mut self, t: SimNanos) {
        self.host_lane = self.host_lane.max(t);
    }

    /// Run a host operation of length `dur` on the host lane: it starts
    /// where the lane is and advances it. Returns its end.
    pub fn host_lane_op(&mut self, name: &'static str, dur: SimNanos) -> SimNanos {
        self.host_lane = self.host_op(name, self.host_lane, dur).1;
        self.host_lane
    }

    /// Where the data-preparation worker lane has reached.
    pub fn worker_lane_now(&self) -> SimNanos {
        self.worker_lane
    }

    /// Run a host operation of length `dur` on the data-preparation worker
    /// lane. The loader hands the work off, so it starts at the later of
    /// the worker lane and the host lane; it moves neither the host lane
    /// nor [`Gpu::now_with_host`]. Returns its end.
    pub fn worker_lane_op(&mut self, name: &'static str, dur: SimNanos) -> SimNanos {
        let issue = self.worker_lane.max(self.host_lane);
        self.worker_lane = self.host_op(name, issue, dur).1;
        self.worker_lane
    }

    /// Assemble `bytes` for one staged transfer on the host lane: a fixed
    /// overhead plus the bytes at host staging throughput. Returns its end.
    pub fn host_stage(&mut self, name: &'static str, bytes: u64) -> SimNanos {
        let dur = SimNanos::from_nanos(self.cfg.host_op_fixed_ns)
            + SimNanos::from_bytes(bytes, self.cfg.host_bytes_per_us);
        self.host_lane_op(name, dur)
    }

    /// Record a host-side operation of length `dur` starting at `after`,
    /// off the host lane (which it does not move); returns its (start,
    /// end). Its sample gives Figure 3's "other" share.
    pub fn host_op(
        &mut self,
        name: &'static str,
        after: SimNanos,
        dur: SimNanos,
    ) -> (SimNanos, SimNanos) {
        let start = after;
        let end = start + dur;
        self.tracer
            .span(name, TraceKind::HostOp, Lane::Host, start, end, vec![]);
        (start, end)
    }

    // ---- checkpoint support ----------------------------------------------

    /// Snapshot the deterministic clock: every lane/stream cursor, the
    /// host lane and the monotonic op counters — the complete timeline
    /// state a checkpoint must carry for a resumed run to continue on the
    /// *same* simulated timeline.
    pub fn clock(&self) -> DeviceClock {
        DeviceClock {
            compute: self.compute_cursor,
            h2d: self.h2d_cursor,
            d2h: self.d2h_cursor,
            streams: self.streams.clone(),
            counters: self.op_counters(),
            host: self.host_lane,
        }
    }

    /// Restore a [`DeviceClock`] snapshot, overwriting every cursor and op
    /// counter. Intended for checkpoint restore on a *fresh* device right
    /// after the restore prologue re-created the standing allocations: the
    /// prologue only advanced the alloc counter and early timestamps, and
    /// this call erases both perturbations so subsequent ops land on
    /// exactly the timeline the original run would have produced.
    ///
    /// The worker lane is not restored: it carries only the one-off work
    /// the prologue issues, and a resumed run re-runs the prologue on the
    /// same timeline, so the worker already stands where the original
    /// run's did.
    pub fn restore_clock(&mut self, clock: &DeviceClock) {
        self.compute_cursor = clock.compute;
        self.h2d_cursor = clock.h2d;
        self.d2h_cursor = clock.d2h;
        self.streams = clock.streams.clone();
        self.alloc_attempts = clock.counters.allocs;
        self.copy_ops = clock.counters.copy_ops;
        self.launches = clock.counters.launches;
        self.eager_launches = clock.counters.eager_launches;
        self.host_lane = clock.host;
    }
}

/// The device's deterministic timeline state (see [`Gpu::clock`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceClock {
    /// Compute-lane cursor.
    pub compute: SimNanos,
    /// H2D copy-engine cursor.
    pub h2d: SimNanos,
    /// D2H copy-engine cursor.
    pub d2h: SimNanos,
    /// Per-stream cursors (index = stream id).
    pub streams: Vec<SimNanos>,
    /// Monotonic op counters.
    pub counters: OpCounters,
    /// Host-lane cursor.
    pub host: SimNanos,
}

/// A graph key: the hash of whatever fixes the scope's kernel sequence.
pub fn graph_key(parts: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{KernelCategory, KernelCost};

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::v100())
    }

    fn small_kernel() -> KernelCost {
        KernelCost::new("k", KernelCategory::Other)
            .flops(14_000_000) // 1000ns of compute
            .gmem(100, 100)
    }

    #[test]
    fn kernels_serialize_on_compute_lane() {
        let mut g = gpu();
        let s1 = g.default_stream();
        let s2 = g.create_stream();
        let e1 = g.launch(s1, small_kernel());
        let e2 = g.launch(s2, small_kernel());
        // Even on different streams, the second kernel starts after the first.
        assert!(e2.time() > e1.time());
        let b = g.profiler().full();
        assert_eq!(b.kernel_launches, 2);
        // the second launch's driver overhead is an idle gap on the SMs
        assert!(b.sm_utilization_milli < 1000);
        assert!(b.sm_utilization_milli > 200);
    }

    #[test]
    fn pinned_transfer_overlaps_compute() {
        let mut g = gpu();
        let compute_stream = g.default_stream();
        let copy_stream = g.create_stream();
        let k = g.launch(compute_stream, small_kernel());
        let t = g.h2d(copy_stream, 1_200_000, true); // 100us + latency
                                                     // The copy started at 0, concurrent with the kernel.
        let b = g.profiler().full();
        assert!(b.h2d_time > SimNanos::ZERO);
        let copy_sample = g.profiler().samples().get(1).unwrap();
        assert_eq!(copy_sample.start, SimNanos::ZERO);
        assert!(t.time() > k.time()); // the copy is longer here
    }

    #[test]
    fn pageable_transfer_blocks_compute() {
        let mut g = gpu();
        let s = g.default_stream();
        let copy = g.create_stream();
        let t = g.h2d(copy, 1_200_000, false);
        let k = g.launch(s, small_kernel());
        // The kernel could not start before the pageable copy finished.
        let kernel_sample = g.profiler().samples().last().unwrap();
        assert!(kernel_sample.start >= t.time());
        assert!(k.time() > t.time());
    }

    #[test]
    fn events_order_streams() {
        let mut g = gpu();
        let a = g.default_stream();
        let b = g.create_stream();
        let t = g.h2d(b, 1_000_000, true);
        let ev = g.record_event(b);
        assert_eq!(ev.time(), t.time());
        g.wait_event(a, ev);
        let k = g.launch(a, small_kernel());
        let ks = g.profiler().samples().last().unwrap();
        assert!(ks.start >= t.time());
        assert!(k.time() > t.time());
    }

    #[test]
    fn graph_launch_is_cheaper_than_individual() {
        let mut g1 = gpu();
        let s1 = g1.default_stream();
        for _ in 0..50 {
            g1.launch(s1, small_kernel());
        }
        let individual = g1.now();

        let mut g2 = gpu();
        let s2 = g2.default_stream();
        g2.graph_scope(s2, 0, |g| {
            for _ in 0..50 {
                g.launch(s2, small_kernel());
            }
            Ok::<_, ()>(())
        })
        .unwrap();
        let graphed = g2.now();
        assert!(graphed < individual, "graphed={graphed} ind={individual}");
    }

    #[test]
    fn pinned_beats_pageable_bandwidth() {
        let mut g = gpu();
        let s = g.default_stream();
        let t1 = g.h2d(s, 12_000_000, true);
        let start2 = g.record_event(s).time();
        let t2 = g.h2d(s, 12_000_000, false);
        let pinned_dur = t1.time();
        let pageable_dur = t2.time() - start2;
        assert!(pageable_dur.as_nanos() > pinned_dur.as_nanos() * 3 / 2);
    }

    #[test]
    fn synchronize_aligns_all_lanes() {
        let mut g = gpu();
        let s = g.default_stream();
        let c = g.create_stream();
        g.launch(s, small_kernel());
        g.h2d(c, 10_000_000, true);
        let t = g.synchronize();
        assert_eq!(g.now(), t);
        assert_eq!(g.record_event(s).time(), t);
        assert_eq!(g.record_event(c).time(), t);
    }

    #[test]
    fn imbalanced_blocks_slow_the_kernel() {
        let g = gpu();
        let balanced = small_kernel().uniform_blocks(640, 100);
        let mut skew = vec![1u64; 639];
        skew.push(63_400); // same total work, one hot block
        let skewed = small_kernel().blocks(skew);
        let (t_bal, _) = g.kernel_busy(&balanced);
        let (t_skew, base) = g.kernel_busy(&skewed);
        assert_eq!(t_bal, base);
        assert!(t_skew.as_nanos() > t_bal.as_nanos() * 100);
    }

    #[test]
    fn low_warp_efficiency_throttles_compute() {
        let g = gpu();
        let full = KernelCost::new("k", KernelCategory::Other).flops(14_000_000);
        let half = KernelCost::new("k", KernelCategory::Other)
            .flops(14_000_000)
            .warp_efficiency(0.5);
        let (t_full, _) = g.kernel_busy(&full);
        let (t_half, _) = g.kernel_busy(&half);
        assert_eq!(t_half.as_nanos(), t_full.as_nanos() * 2);
    }

    #[test]
    fn host_op_recorded() {
        let mut g = gpu();
        let (s, e) = g.host_op("graph_slicing", SimNanos(100), SimNanos(50));
        assert_eq!((s, e), (SimNanos(100), SimNanos(150)));
        assert_eq!(g.profiler().full().host_time, SimNanos(50));
        assert_eq!(g.host_now(), SimNanos::ZERO, "off the host lane");
    }

    #[test]
    fn each_launch_copy_and_host_op_is_one_record() {
        let mut g = gpu();
        let s = g.default_stream();
        g.launch(s, small_kernel());
        g.h2d(s, 4096, true);
        g.d2h(s, 4096, false);
        g.host_op("slice", SimNanos(0), SimNanos(10));
        let kinds: Vec<TraceKind> = g.trace().events().iter().map(|e| e.kind).collect();
        use TraceKind::{HostOp, Kernel, Memcpy};
        assert_eq!(kinds, [Kernel, Memcpy, Memcpy, HostOp]);
        assert_eq!(g.profiler().samples().len(), 4);
        g.profiler().consistency_check(g.trace()).unwrap();
    }

    #[test]
    fn host_lane_ops_queue_and_waits_only_lift() {
        let mut g = gpu();
        assert_eq!(g.host_lane_op("a", SimNanos(50)), SimNanos(50));
        g.host_wait(SimNanos(20));
        assert_eq!(g.host_now(), SimNanos(50), "a wait never lowers the lane");
        g.host_wait(SimNanos(100));
        assert_eq!(g.host_lane_op("b", SimNanos(5)), SimNanos(105));
        assert_eq!(g.now(), SimNanos::ZERO, "now() reads device lanes only");
        assert_eq!(g.now_with_host(), SimNanos(105));
        let fixed = g.cfg().host_op_fixed_ns;
        assert_eq!(g.host_stage("c", 0), SimNanos(105 + fixed));
        assert_eq!(g.profiler().full().host_time, SimNanos(55 + fixed));
    }

    #[test]
    fn worker_ops_queue_behind_their_issue_and_leave_the_host_lane() {
        let mut g = gpu();
        g.host_lane_op("slice", SimNanos(40));
        // Issued at the host lane, then serial on the worker.
        assert_eq!(g.worker_lane_op("x", SimNanos(100)), SimNanos(140));
        assert_eq!(g.worker_lane_op("y", SimNanos(10)), SimNanos(150));
        assert_eq!(g.host_now(), SimNanos(40), "the loader moved on");
        assert_eq!(g.now_with_host(), SimNanos(40));
        // A later issue point delays the next op; it never starts earlier.
        g.host_wait(SimNanos(200));
        assert_eq!(g.worker_lane_op("z", SimNanos(5)), SimNanos(205));
        assert_eq!(g.worker_lane_now(), SimNanos(205));
        assert_eq!(g.host_now(), SimNanos(200));
        let spans: Vec<_> = g
            .trace()
            .events()
            .iter()
            .map(|e| (e.lane, e.ts, e.end()))
            .collect();
        assert_eq!(
            spans[1..],
            [
                (Lane::Host, SimNanos(40), SimNanos(140)),
                (Lane::Host, SimNanos(140), SimNanos(150)),
                (Lane::Host, SimNanos(200), SimNanos(205)),
            ]
        );
        // The clock does not carry the worker.
        let mut fresh = gpu();
        fresh.restore_clock(&g.clock());
        assert_eq!(fresh.worker_lane_now(), SimNanos::ZERO);
        assert_eq!(fresh.now_with_host(), g.now_with_host());
    }

    #[test]
    fn oom_propagates() {
        let mut g = Gpu::new(DeviceConfig::with_capacity(100));
        let a = g.alloc(60).unwrap();
        assert!(g.alloc(50).is_err());
        g.free(a);
        assert!(g.alloc(50).is_ok());
    }

    #[test]
    fn injected_oom_fires_at_the_nth_attempt_and_is_traced() {
        let mut g = gpu();
        g.install_faults(FaultPlan {
            oom_at_alloc: vec![1],
            ..FaultPlan::default()
        });
        let a = g.alloc(100).unwrap();
        let err = g.alloc_labeled(100, "device_matrix").unwrap_err();
        assert_eq!(err.label, "device_matrix");
        assert!(g.alloc(100).is_ok(), "one-shot: next attempt succeeds");
        assert_eq!(g.fault_stats().oom_injected, 1);
        assert!(g
            .trace()
            .events()
            .iter()
            .any(|e| e.name == "fault_injected" && e.kind == TraceKind::Fault));
        g.free(a);
    }

    #[test]
    fn injected_transfer_failure_burns_bus_time_and_retries_succeed() {
        let mut g = gpu();
        g.install_faults(FaultPlan {
            transfer_faults: vec![crate::faults::TransferFault { op: 0, failures: 1 }],
            ..FaultPlan::default()
        });
        let s = g.default_stream();
        g.h2d_staged(s, 1 << 20).unwrap();
        let copies: Vec<_> = g
            .trace()
            .events()
            .iter()
            .filter(|e| e.name == "memcpy_h2d")
            .collect();
        assert_eq!(copies.len(), 2, "the failed DMA still took the bus");
        assert!(copies[1].ts > copies[0].end(), "retried after the backoff");
        assert_eq!(g.fault_stats().transfer_injected, 1);
    }

    /// The `delay_ns` of every `transfer_backoff` span, in order.
    fn backoff_delays(g: &Gpu) -> Vec<u64> {
        g.trace()
            .events()
            .iter()
            .filter(|e| e.name == "transfer_backoff")
            .map(|e| match e.args[1] {
                ("delay_ns", ArgValue::U64(ns)) => ns,
                _ => panic!("transfer_backoff without delay_ns"),
            })
            .collect()
    }

    #[test]
    fn staged_copy_retries_transient_failures_to_success() {
        let mut g = gpu();
        g.install_faults(FaultPlan {
            transfer_faults: vec![crate::faults::TransferFault { op: 0, failures: 2 }],
            ..FaultPlan::default()
        });
        let s = g.default_stream();
        g.h2d_staged(s, 256).unwrap();
        // 3 attempts on the bus (2 failed + 1 good) plus 2 backoff spans
        // doubling from the default base, all on logical op 0.
        assert_eq!(g.fault_stats().transfer_injected, 2);
        assert_eq!(g.profiler().full().h2d_bytes, 3 * 256);
        assert_eq!(backoff_delays(&g), [2_000, 4_000]);
        assert_eq!(g.op_counters().copy_ops, 1);
    }

    #[test]
    fn staged_copy_gives_up_past_the_retry_budget() {
        let mut g = gpu();
        g.install_faults(FaultPlan {
            transfer_faults: vec![crate::faults::TransferFault {
                op: 0,
                failures: 10,
            }],
            max_transfer_retries: 2,
            transfer_backoff_ns: 0,
            ..FaultPlan::default()
        });
        let s = g.default_stream();
        let err = g.h2d_staged(s, 256).unwrap_err();
        assert_eq!(err.attempts, 3, "1 try + 2 retries");
        assert_eq!((err.op_index, err.bytes), (0, 256));
        assert_eq!(backoff_delays(&g), [1, 2], "a zero base clamps to 1 ns");
    }

    #[test]
    fn staged_copy_is_one_plain_copy_when_no_faults_and_none_when_empty() {
        let mut g1 = gpu();
        let s1 = g1.default_stream();
        g1.h2d(s1, 256, true);
        let mut g2 = gpu();
        let s2 = g2.default_stream();
        g2.h2d_staged(s2, 256).unwrap();
        assert_eq!(g1.now(), g2.now(), "identical timeline without faults");
        g2.h2d_staged(s2, 0).unwrap();
        assert_eq!(g1.now(), g2.now(), "nothing to ship, nothing shipped");
        assert_eq!(g2.op_counters().copy_ops, 1, "and no op index spent");
    }

    #[test]
    fn straggler_multiplier_stretches_the_launch() {
        let busy_of = |g: &Gpu| {
            let s = g.profiler().samples().last().unwrap();
            (s.end - s.start).as_nanos()
        };
        let plain = {
            let mut g = gpu();
            g.launch(g.default_stream(), small_kernel());
            busy_of(&g)
        };
        let mut g = gpu();
        g.install_faults(FaultPlan {
            straggler_ranges: vec![crate::faults::StragglerRange {
                from: 0,
                to: 1,
                multiplier_milli: 4_000,
            }],
            ..FaultPlan::default()
        });
        g.launch(g.default_stream(), small_kernel());
        assert_eq!(busy_of(&g), plain * 4, "busy time stretched exactly 4x");
        assert_eq!(g.fault_stats().straggler_injected, 1);
    }

    #[test]
    fn poison_arms_once_and_is_consumed() {
        let mut g = gpu();
        g.install_faults(FaultPlan {
            poison_launches: vec![1],
            ..FaultPlan::default()
        });
        let s = g.default_stream();
        g.launch(s, small_kernel());
        assert!(!g.take_poison_pending());
        g.launch(s, small_kernel());
        assert!(g.take_poison_pending());
        assert!(!g.take_poison_pending(), "consumed");
        assert_eq!(g.fault_stats().poison_injected, 1);
    }

    #[test]
    fn release_since_frees_only_frame_local_buffers() {
        let mut g = Gpu::new(DeviceConfig::with_capacity(1000));
        let keep = g.alloc(100).unwrap();
        let mark = g.mem_mark();
        let _a = g.alloc(200).unwrap();
        let _b = g.alloc(300).unwrap();
        let (count, bytes) = g.release_since(mark);
        assert_eq!((count, bytes), (2, 500));
        assert_eq!(g.mem().in_use(), 100);
        g.free(keep);
        assert_eq!(g.release_since(mark), (0, 0));
    }

    #[test]
    fn crash_point_arms_on_the_chosen_launch_and_is_consumed() {
        let mut g = gpu();
        g.install_faults(FaultPlan {
            crash: Some(crate::faults::CrashPoint {
                counter: CrashCounter::Launches,
                at: 1,
            }),
            ..FaultPlan::default()
        });
        let s = g.default_stream();
        g.launch(s, small_kernel());
        assert!(g.take_crash().is_none());
        g.launch(s, small_kernel());
        let e = g.take_crash().expect("crash armed");
        assert_eq!((e.counter, e.at), (CrashCounter::Launches, 1));
        assert!(g.take_crash().is_none(), "consumed");
        assert_eq!(g.fault_stats().crash_injected, 1);
        assert!(g
            .trace()
            .events()
            .iter()
            .any(|e| e.name == "fault_injected" && e.kind == TraceKind::Fault));
    }

    #[test]
    fn clock_snapshot_round_trips_onto_a_fresh_device() {
        let mut g = gpu();
        let s = g.default_stream();
        let c = g.create_stream();
        g.launch(s, small_kernel());
        g.h2d(c, 1 << 20, true);
        let _ = g.alloc(64).unwrap();
        g.host_lane_op("graph_slicing", SimNanos(1 << 30));
        let clock = g.clock();

        let mut fresh = gpu();
        fresh.create_stream();
        let _ = fresh.alloc(64).unwrap(); // restore-prologue noise
        fresh.restore_clock(&clock);
        assert_eq!(fresh.clock(), clock);
        assert_eq!(fresh.now_with_host(), g.now_with_host());
        assert_eq!(fresh.host_now(), SimNanos(1 << 30));
        assert_eq!(fresh.op_counters(), g.op_counters());
    }

    #[test]
    fn op_counters_track_the_index_space() {
        let mut g = gpu();
        let s = g.default_stream();
        g.launch(s, small_kernel());
        g.h2d(s, 1024, true);
        g.d2h(s, 1024, true);
        let _ = g.alloc(64).unwrap();
        g.graph_scope(s, 0, |g| Ok::<_, ()>(g.launch(s, small_kernel())))
            .unwrap();
        let c = g.op_counters();
        assert_eq!((c.allocs, c.copy_ops, c.launches), (1, 2, 2));
        assert_eq!(c.eager_launches, 1, "the graphed launch is not eager");
    }

    fn named(name: &'static str) -> KernelCost {
        KernelCost::new(name, KernelCategory::Other).flops(1_000)
    }

    /// Launch `names` in order as one scope's body.
    fn launches<'a>(names: &'a [&'static str]) -> impl FnOnce(&mut Gpu) -> Result<(), ()> + 'a {
        move |g| {
            let s = g.default_stream();
            for &n in names {
                g.launch(s, named(n));
            }
            Ok(())
        }
    }

    #[test]
    #[should_panic(expected = "another kernel sequence")]
    fn a_replay_of_another_kernel_sequence_panics() {
        let mut g = gpu();
        let s = g.default_stream();
        g.graph_scope(s, 7, launches(&["a", "b"])).unwrap();
        g.graph_scope(s, 7, launches(&["a"])).unwrap();
    }

    #[test]
    #[should_panic(expected = "another kernel sequence")]
    fn names_do_not_run_together_in_a_digest() {
        let mut g = gpu();
        let s = g.default_stream();
        g.graph_scope(s, 7, launches(&["ab", "c"])).unwrap();
        g.graph_scope(s, 7, launches(&["a", "bc"])).unwrap();
    }

    #[test]
    fn a_failed_scope_captures_and_checks_nothing() {
        let mut g = gpu();
        let s = g.default_stream();
        let failed = g.graph_scope(s, 1, |g| {
            g.launch(s, named("a"));
            Err::<(), _>("oom")
        });
        assert_eq!(failed, Err("oom"));
        assert_eq!((g.graph_captures(), g.graph_replays()), (0, 0));
        // The failed scope recorded no digest: another sequence captures.
        g.graph_scope(s, 1, launches(&["b", "c"])).unwrap();
        assert_eq!(g.graph_captures(), 1);
        // A failed replay is checked against nothing.
        let failed = g.graph_scope(s, 1, |_| Err::<(), _>("oom"));
        assert_eq!(failed, Err("oom"));
        g.graph_scope(s, 1, launches(&["b", "c"])).unwrap();
        assert_eq!((g.graph_captures(), g.graph_replays()), (1, 1));
    }

    #[test]
    fn capture_or_replay_captures_eagerly_then_replays() {
        let mut g = gpu();
        let s = g.default_stream();
        let names = ["a", "b", "c"];
        g.capture_or_replay(s, 3, launches(&names)).unwrap();
        let c = g.op_counters();
        assert_eq!(
            (c.launches, c.eager_launches),
            (3, 3),
            "the capture is eager"
        );
        assert_eq!((g.graph_captures(), g.graph_replays()), (1, 0));
        let t = g.now();
        for _ in 0..2 {
            g.capture_or_replay(s, 3, launches(&names)).unwrap();
        }
        let c = g.op_counters();
        assert_eq!(
            (c.launches, c.eager_launches),
            (9, 3),
            "replays launch no eager kernel"
        );
        assert_eq!((g.graph_captures(), g.graph_replays()), (1, 2));
        let replays = g.trace().events().iter();
        let launched = replays.filter(|e| e.name == "cuda_graph_launch").count();
        assert_eq!(launched, 2);
        assert!(g.now() > t);
    }
}
