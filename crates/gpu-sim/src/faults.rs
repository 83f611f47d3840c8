//! Deterministic fault injection for the simulated device.
//!
//! Production dynamic-GNN training runs into faults the paper's happy path
//! never exercises: allocations that push past device capacity, PCIe
//! transfers that have to be retried, kernels that straggle far past their
//! profiled cost, and numerically poisoned outputs. This module injects all
//! four **deterministically**: a [`FaultPlan`] names faults by *operation
//! index* (the Nth allocation, the Nth logical copy, the Nth kernel launch)
//! on the device's deterministic issue order, so the same plan produces the
//! same faults — and the same recovery trace — on every run and under every
//! `PIPAD_THREADS` setting.
//!
//! ## Fault kinds
//!
//! * **OOM** — fail the Nth allocation attempt outright ([`FaultPlan::
//!   oom_at_alloc`], one-shot per index), or fail any allocation that would
//!   push usage above a byte threshold ([`FaultPlan::oom_usage_threshold`],
//!   persistent — models a capacity-shrinking co-tenant).
//! * **Transfer** — fail chosen logical copy-engine operations for a number
//!   of attempts ([`FaultPlan::transfer_faults`]); `Gpu::h2d_staged`
//!   retries with simulated backoff, so a fault with `failures <=
//!   max_transfer_retries` is transient and recoverable.
//! * **Straggler** — multiply the busy time of kernel launches in chosen
//!   index ranges ([`FaultPlan::straggler_ranges`]); sustained stragglers
//!   invalidate the pipeline controller's profiling assumptions.
//! * **Poison** — arm a NaN payload on a chosen kernel launch
//!   ([`FaultPlan::poison_launches`]); the autograd tape replaces that
//!   kernel's output with NaNs, which propagate to the loss.
//! * **Crash** — kill the training process when a chosen op counter
//!   reaches a threshold ([`FaultPlan::crash`]); the device arms the
//!   crash and the trainer observes it via `Gpu::take_crash` at the next
//!   frame boundary, abandoning the run exactly as a real `SIGKILL`
//!   between frames would. Recovery is *external*: restart and restore
//!   from the last checkpoint (`pipad-ckpt`).
//!
//! Injection is pure bookkeeping on the simulated timeline: no wall clock,
//! no RNG at injection time (plans may be *generated* from a seed via
//! [`FaultPlan::seeded`], but a built plan is plain data). Every injected
//! fault is recorded as a `fault_injected` trace event ([`crate::trace`])
//! so Chrome-trace exports show fault → recovery spans.

use crate::memory::OomError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A transient failure on one logical copy-engine operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferFault {
    /// Logical copy-op index (counted by `OpCounters::copy_ops`); retries
    /// in `Gpu::h2d_staged` share their logical operation's index.
    pub op: u64,
    /// How many consecutive attempts fail before the op succeeds.
    pub failures: u32,
}

/// A straggler window: kernel launches with index in `[from, to)` have
/// their busy time multiplied by `multiplier_milli / 1000`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StragglerRange {
    /// First affected launch index (inclusive).
    pub from: u64,
    /// First unaffected launch index (exclusive).
    pub to: u64,
    /// Busy-time multiplier in milli-units (e.g. `8000` = 8×). Values
    /// below 1000 are clamped up: stragglers never speed a kernel up.
    pub multiplier_milli: u64,
}

/// Which monotonic device op counter a [`CrashPoint`] watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashCounter {
    /// Allocation attempts ([`OpCounters::allocs`]).
    Allocs,
    /// Logical copy-engine operations ([`OpCounters::copy_ops`]).
    CopyOps,
    /// Kernel launches ([`OpCounters::launches`]).
    Launches,
}

impl CrashCounter {
    /// Stable lowercase name, as crash errors print it.
    pub fn name(&self) -> &'static str {
        match self {
            CrashCounter::Allocs => "allocs",
            CrashCounter::CopyOps => "copy_ops",
            CrashCounter::Launches => "launches",
        }
    }
}

/// A process-kill point addressed by op counter: the crash arms when the
/// chosen counter reaches `at` (i.e. on the op with index `at`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// The op counter being watched.
    pub counter: CrashCounter,
    /// Op index that triggers the crash (fires once).
    pub at: u64,
}

/// A deterministic, serializable fault schedule for one device.
///
/// Plans are plain data: build one by hand for a targeted scenario, or
/// derive one from a seed with [`FaultPlan::seeded`] for property tests.
/// Install with `Gpu::install_faults`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Allocation-attempt indices that fail with OOM exactly once each.
    pub oom_at_alloc: Vec<u64>,
    /// Fail any allocation that would push `in_use` above this many bytes.
    pub oom_usage_threshold: Option<u64>,
    /// Transient copy-engine failures by logical op index.
    pub transfer_faults: Vec<TransferFault>,
    /// Retries `Gpu::h2d_staged` makes per logical copy op.
    pub max_transfer_retries: u32,
    /// Base simulated backoff between retry attempts, in nanoseconds;
    /// `Gpu::h2d_staged` doubles it per retry.
    pub transfer_backoff_ns: u64,
    /// Straggler windows over kernel-launch indices.
    pub straggler_ranges: Vec<StragglerRange>,
    /// Kernel-launch indices whose output is poisoned with NaNs.
    pub poison_launches: Vec<u64>,
    /// Kill the process when an op counter reaches a threshold (one-shot).
    pub crash: Option<CrashPoint>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            oom_at_alloc: Vec::new(),
            oom_usage_threshold: None,
            transfer_faults: Vec::new(),
            max_transfer_retries: 3,
            transfer_backoff_ns: 2_000,
            straggler_ranges: Vec::new(),
            poison_launches: Vec::new(),
            crash: None,
        }
    }
}

/// SplitMix64: tiny, deterministic, well-mixed. Used only to *generate*
/// plans from a seed; injection itself never draws randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Derive a pseudo-random plan from `seed`. The mapping is a pure
    /// function of the seed: the same seed yields the same plan on every
    /// platform and thread count. Index magnitudes are sized for the small
    /// training workloads the chaos/property suites run.
    pub fn seeded(seed: u64) -> Self {
        let mut s = seed ^ 0x5151_5151_5151_5151;
        let mut plan = FaultPlan::default();
        let r = splitmix64(&mut s);
        // One-shot OOMs: 0..=2 of them, spread over the first few thousand
        // allocation attempts.
        for _ in 0..(r % 3) {
            plan.oom_at_alloc.push(splitmix64(&mut s) % 4_096);
        }
        // Occasionally add a usage threshold between 8 MiB and 40 MiB.
        if splitmix64(&mut s).is_multiple_of(4) {
            plan.oom_usage_threshold = Some((8 + splitmix64(&mut s) % 33) << 20);
        }
        // 0..=2 transient transfer faults; most are recoverable within the
        // default retry budget, some exhaust it on purpose.
        for _ in 0..(splitmix64(&mut s) % 3) {
            plan.transfer_faults.push(TransferFault {
                op: splitmix64(&mut s) % 2_048,
                failures: 1 + (splitmix64(&mut s) % 4) as u32,
            });
        }
        // 0..=1 straggler windows of 2x..17x over up to 96 launches.
        if splitmix64(&mut s).is_multiple_of(2) {
            let from = splitmix64(&mut s) % 8_192;
            plan.straggler_ranges.push(StragglerRange {
                from,
                to: from + 1 + splitmix64(&mut s) % 96,
                multiplier_milli: 2_000 + splitmix64(&mut s) % 15_000,
            });
        }
        // 0..=1 poisoned launches.
        if splitmix64(&mut s).is_multiple_of(3) {
            plan.poison_launches.push(splitmix64(&mut s) % 8_192);
        }
        plan.normalize();
        plan
    }

    /// Canonicalize: indices sorted and deduplicated, multipliers clamped.
    pub fn normalize(&mut self) {
        self.oom_at_alloc.sort_unstable();
        self.oom_at_alloc.dedup();
        self.transfer_faults.sort_by_key(|f| f.op);
        self.transfer_faults.dedup_by_key(|f| f.op);
        self.straggler_ranges.sort_by_key(|r| (r.from, r.to));
        for r in &mut self.straggler_ranges {
            r.multiplier_milli = r.multiplier_milli.max(1_000);
        }
        self.poison_launches.sort_unstable();
        self.poison_launches.dedup();
    }
}

/// Counts of faults actually injected by an installed plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// OOMs injected (Nth-alloc and threshold-crossing combined).
    pub oom_injected: u64,
    /// Failed copy-engine attempts injected.
    pub transfer_injected: u64,
    /// Kernel launches slowed by a straggler window.
    pub straggler_injected: u64,
    /// Kernel launches whose output was poisoned.
    pub poison_injected: u64,
    /// Crash points fired (0 or 1 per plan).
    pub crash_injected: u64,
}

impl FaultStats {
    /// Total injections across all kinds.
    pub fn total(&self) -> u64 {
        self.oom_injected
            + self.transfer_injected
            + self.straggler_injected
            + self.poison_injected
            + self.crash_injected
    }
}

/// Live injection state for an installed [`FaultPlan`].
#[derive(Debug)]
pub(crate) struct FaultSession {
    /// One-shot alloc-attempt indices still pending.
    oom_pending: BTreeSet<u64>,
    usage_threshold: Option<u64>,
    /// Remaining failures per logical copy op.
    copy_remaining: BTreeMap<u64, u32>,
    straggler_ranges: Vec<StragglerRange>,
    /// Poison launch indices still pending (one-shot).
    poison_pending_launches: BTreeSet<u64>,
    pub(crate) max_transfer_retries: u32,
    pub(crate) transfer_backoff_ns: u64,
    pub(crate) stats: FaultStats,
    /// Set when a poisoned launch fires; consumed by the autograd layer via
    /// `Gpu::take_poison_pending`.
    pub(crate) poison_armed: bool,
    /// Crash point still pending (one-shot).
    crash_pending: Option<CrashPoint>,
    /// Set when the crash point fires; consumed by the trainer via
    /// `Gpu::take_crash`.
    pub(crate) crash_armed: Option<CrashError>,
}

impl FaultSession {
    pub(crate) fn new(mut plan: FaultPlan) -> Self {
        plan.normalize();
        FaultSession {
            oom_pending: plan.oom_at_alloc.iter().copied().collect(),
            usage_threshold: plan.oom_usage_threshold,
            copy_remaining: plan
                .transfer_faults
                .iter()
                .filter(|f| f.failures > 0)
                .map(|f| (f.op, f.failures))
                .collect(),
            straggler_ranges: plan.straggler_ranges,
            poison_pending_launches: plan.poison_launches.iter().copied().collect(),
            max_transfer_retries: plan.max_transfer_retries,
            transfer_backoff_ns: plan.transfer_backoff_ns,
            stats: FaultStats::default(),
            poison_armed: false,
            crash_pending: plan.crash,
            crash_armed: None,
        }
    }

    /// Should allocation attempt `index` (which would leave `in_use +
    /// bytes` allocated) fail?
    pub(crate) fn should_fail_alloc(&mut self, index: u64, in_use: u64, bytes: u64) -> bool {
        let one_shot = self.oom_pending.remove(&index);
        let threshold = self
            .usage_threshold
            .is_some_and(|t| in_use.saturating_add(bytes) > t);
        if one_shot || threshold {
            self.stats.oom_injected += 1;
            return true;
        }
        false
    }

    /// Should this attempt of logical copy op `op` fail? Decrements the
    /// remaining-failure budget on hit.
    pub(crate) fn should_fail_copy(&mut self, op: u64) -> bool {
        match self.copy_remaining.get_mut(&op) {
            Some(left) => {
                *left -= 1;
                if *left == 0 {
                    self.copy_remaining.remove(&op);
                }
                self.stats.transfer_injected += 1;
                true
            }
            None => false,
        }
    }

    /// Straggler multiplier (milli-units) for launch `index`, if any.
    pub(crate) fn straggler_multiplier(&mut self, index: u64) -> Option<u64> {
        let m = self
            .straggler_ranges
            .iter()
            .filter(|r| r.from <= index && index < r.to)
            .map(|r| r.multiplier_milli)
            .max()?;
        self.stats.straggler_injected += 1;
        Some(m)
    }

    /// Whether launch `index` poisons its output (one-shot; arms
    /// `poison_armed`).
    pub(crate) fn should_poison(&mut self, index: u64) -> bool {
        if self.poison_pending_launches.remove(&index) {
            self.stats.poison_injected += 1;
            self.poison_armed = true;
            true
        } else {
            false
        }
    }

    /// Arm the crash if op `index` on `counter` reached the pending crash
    /// point (one-shot). Returns `true` when the crash fires on this op.
    pub(crate) fn check_crash(&mut self, counter: CrashCounter, index: u64) -> bool {
        match self.crash_pending {
            Some(c) if c.counter == counter && index >= c.at => {
                self.crash_pending = None;
                self.stats.crash_injected += 1;
                self.crash_armed = Some(CrashError {
                    counter: c.counter,
                    at: c.at,
                });
                true
            }
            _ => false,
        }
    }
}

/// An injected process kill: the op counter named in the plan's
/// [`CrashPoint`] reached its threshold. The trainer abandons the run
/// without cleanup; recovery happens out of process, by restoring the
/// last checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashError {
    /// The op counter that triggered the crash.
    pub counter: CrashCounter,
    /// The op index it fired at.
    pub at: u64,
}

impl fmt::Display for CrashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected crash: {} counter reached {}",
            self.counter.name(),
            self.at
        )
    }
}

impl std::error::Error for CrashError {}

/// A staged host-to-device copy that failed past its retry budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferError {
    /// Payload size in bytes.
    pub bytes: u64,
    /// Logical copy-op index the failure was injected on.
    pub op_index: u64,
    /// Attempts made (including the first).
    pub attempts: u32,
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transfer failed: h2d copy of {} B (op #{}) after {} attempt(s)",
            self.bytes, self.op_index, self.attempts
        )
    }
}

impl std::error::Error for TransferError {}

/// A device-level fault that escaped the recovery ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceFault {
    /// Out of device memory (possibly injected).
    Oom(OomError),
    /// A copy-engine op failed past its retry budget.
    Transfer(TransferError),
    /// An injected crash killed the trainer mid-run.
    Crash(CrashError),
}

impl From<OomError> for DeviceFault {
    fn from(e: OomError) -> Self {
        DeviceFault::Oom(e)
    }
}

impl From<TransferError> for DeviceFault {
    fn from(e: TransferError) -> Self {
        DeviceFault::Transfer(e)
    }
}

impl From<CrashError> for DeviceFault {
    fn from(e: CrashError) -> Self {
        DeviceFault::Crash(e)
    }
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceFault::Oom(e) => e.fmt(f),
            DeviceFault::Transfer(e) => e.fmt(f),
            DeviceFault::Crash(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for DeviceFault {}

/// Monotonic per-device operation counters, the index space fault plans
/// address. Exposed so harnesses can probe a fault-free run and then place
/// faults at known fractions of the op stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Allocation attempts (successful or not).
    pub allocs: u64,
    /// Logical copy-engine operations: one per `h2d` / `d2h` call and
    /// per non-empty `Gpu::h2d_staged`, however many attempts it takes.
    pub copy_ops: u64,
    /// Kernel launches (plain and graphed).
    pub launches: u64,
    /// The launches of `launches` made outside any `Gpu::graph_scope`, each
    /// paying the full driver overhead. Not an index fault plans address,
    /// and not carried by a checkpoint: a restored device counts from 0.
    pub eager_launches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_normalized() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = FaultPlan::seeded(seed);
            let b = FaultPlan::seeded(seed);
            assert_eq!(a, b);
            let mut sorted = a.oom_at_alloc.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(a.oom_at_alloc, sorted);
            for r in &a.straggler_ranges {
                assert!(r.multiplier_milli >= 1_000 && r.to > r.from);
            }
        }
        assert_ne!(FaultPlan::seeded(1), FaultPlan::seeded(2));
    }

    #[test]
    fn crash_point_fires_once_on_its_counter() {
        let mut s = FaultSession::new(FaultPlan {
            crash: Some(CrashPoint {
                counter: CrashCounter::Launches,
                at: 5,
            }),
            ..FaultPlan::default()
        });
        assert!(!s.check_crash(CrashCounter::Allocs, 5), "wrong counter");
        assert!(!s.check_crash(CrashCounter::Launches, 4));
        assert!(s.check_crash(CrashCounter::Launches, 5));
        assert_eq!(
            s.crash_armed,
            Some(CrashError {
                counter: CrashCounter::Launches,
                at: 5
            })
        );
        assert!(!s.check_crash(CrashCounter::Launches, 6), "one-shot");
        assert_eq!(s.stats.crash_injected, 1);
        assert_eq!(s.stats.total(), 1);
    }

    #[test]
    fn one_shot_oom_fires_once_threshold_fires_always() {
        let mut s = FaultSession::new(FaultPlan {
            oom_at_alloc: vec![2],
            oom_usage_threshold: Some(100),
            ..FaultPlan::default()
        });
        assert!(!s.should_fail_alloc(0, 0, 50));
        assert!(!s.should_fail_alloc(1, 50, 50));
        assert!(s.should_fail_alloc(2, 0, 10), "one-shot index");
        assert!(!s.should_fail_alloc(2, 0, 10), "consumed");
        assert!(s.should_fail_alloc(3, 90, 20), "over threshold");
        assert!(s.should_fail_alloc(4, 90, 20), "threshold persists");
        assert_eq!(s.stats.oom_injected, 3);
    }

    #[test]
    fn copy_failures_decrement_per_logical_op() {
        let mut s = FaultSession::new(FaultPlan {
            transfer_faults: vec![TransferFault { op: 5, failures: 2 }],
            ..FaultPlan::default()
        });
        assert!(!s.should_fail_copy(4));
        assert!(s.should_fail_copy(5));
        assert!(s.should_fail_copy(5));
        assert!(!s.should_fail_copy(5), "budget exhausted, op succeeds");
        assert_eq!(s.stats.transfer_injected, 2);
    }

    #[test]
    fn straggler_and_poison_windows() {
        let mut s = FaultSession::new(FaultPlan {
            straggler_ranges: vec![StragglerRange {
                from: 10,
                to: 12,
                multiplier_milli: 5_000,
            }],
            poison_launches: vec![11],
            ..FaultPlan::default()
        });
        assert_eq!(s.straggler_multiplier(9), None);
        assert_eq!(s.straggler_multiplier(10), Some(5_000));
        assert_eq!(s.straggler_multiplier(11), Some(5_000));
        assert_eq!(s.straggler_multiplier(12), None);
        assert!(!s.should_poison(10));
        assert!(s.should_poison(11));
        assert!(s.poison_armed);
        assert!(!s.should_poison(11), "poison is one-shot");
    }

    #[test]
    fn device_fault_wraps_and_displays() {
        let oom = OomError {
            requested: 10,
            in_use: 5,
            capacity: 12,
            label: "adjacency_csr",
        };
        let f: DeviceFault = oom.into();
        assert!(f.to_string().contains("adjacency_csr"));
        let t = TransferError {
            bytes: 64,
            op_index: 3,
            attempts: 4,
        };
        let f: DeviceFault = t.into();
        assert!(f.to_string().contains("op #3"));
    }
}
