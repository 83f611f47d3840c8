//! Inter-frame reuse (§4.4): the one store of layer-1 aggregation results
//! and the one home of its policy.
//!
//! [`InterFrameReuse`] holds two tiers behind a closed API:
//!
//! * the **CPU store** ([`CpuAggStore`], on its own also PyGT-R/G's and the
//!   multi-GPU trainer's reuse) keeps every snapshot's normalized layer-1
//!   aggregation, write-once — a hit eliminates the aggregation kernel and
//!   (for models without hidden-layer aggregation) the adjacency transfer,
//!   but still pays the PCIe trip;
//! * the **device tier** keeps as many results device-resident as its byte
//!   budget allows, eliminating the PCIe trip too. Eviction is by next-use
//!   order: frames slide forward, so the *lowest* snapshot index is the
//!   first to leave every window and goes first.
//!
//! A frame's life against the store, in the trainer and the serving engine
//! alike: `lookup` per partition while staging → `deposit` what had to be
//! computed → `slide` once the frame is done (or `purge`, if its output was
//! not finite). `evict_device` empties the device tier — first rung of the
//! OOM ladder, and the end of an epoch, where the window restarts —
//! `grow_budget` sizes it.

use pipad_autograd::SharedParam;
use pipad_gpu_sim::{Gpu, OomError};
use pipad_kernels::DeviceMatrix;
use pipad_tensor::Matrix;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::rc::Rc;

/// Composite [`CpuAggStore`] key for sharded aggregation entries: shard
/// `shard` of snapshot `snapshot` under a fixed `shards`-way vertex split.
/// The multi-GPU trainer caches per-*virtual-shard* row blocks (never
/// per-device ones), so the key — and therefore every hit/miss — is
/// independent of how many devices host the shards.
pub fn shard_key(snapshot: usize, shard: usize, shards: usize) -> usize {
    assert!(shard < shards, "shard index out of range");
    snapshot * shards + shard
}

/// CPU-side aggregation store (always unbounded — host memory is large).
#[derive(Debug, Default)]
pub struct CpuAggStore {
    store: HashMap<usize, Matrix>,
    /// Incrementally maintained byte total; debug builds assert it equals
    /// the recomputed sum after every mutation.
    tracked_bytes: u64,
    /// Lookup statistics ([`Cell`] because [`CpuAggStore::get`] takes
    /// `&self`); a pure function of the deterministic lookup sequence, so
    /// safe to surface in metrics and trace meta.
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl CpuAggStore {
    /// Create a new instance.
    pub fn new() -> Self {
        CpuAggStore::default()
    }

    /// Look up an entry.
    pub fn get(&self, snapshot: usize) -> Option<&Matrix> {
        let found = self.store.get(&snapshot);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.set(counter.get() + 1);
        found
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Insert an entry. A buffer displaced by the write-once rule goes
    /// back to the buffer pool.
    pub fn insert(&mut self, snapshot: usize, agg: Matrix) {
        match self.store.entry(snapshot) {
            std::collections::hash_map::Entry::Occupied(_) => agg.recycle(),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.tracked_bytes += agg.bytes();
                e.insert(agg);
            }
        }
        self.debug_check_bytes();
    }

    /// Whether the entry is present.
    pub fn contains(&self, snapshot: usize) -> bool {
        self.store.contains_key(&snapshot)
    }

    /// Drop an entry. The store is normally write-once, but NaN-skip
    /// recovery purges every deposit a poisoned frame made so the poison
    /// cannot be re-served from cache on later frames.
    fn remove(&mut self, snapshot: usize) -> Option<Matrix> {
        let removed = self.store.remove(&snapshot);
        if let Some(m) = &removed {
            self.tracked_bytes -= m.bytes();
        }
        self.debug_check_bytes();
        removed
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Size in bytes (O(1) — incrementally tracked).
    pub fn bytes(&self) -> u64 {
        self.tracked_bytes
    }

    /// Entries sorted by snapshot index — the deterministic iteration
    /// order checkpoint encoding requires (the backing map is a
    /// `HashMap`, whose raw order varies run to run).
    pub fn entries_sorted(&self) -> Vec<(usize, &Matrix)> {
        let mut v: Vec<(usize, &Matrix)> = self.store.iter().map(|(&k, m)| (k, m)).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }

    /// Overwrite the hit/miss counters (checkpoint restore: the resumed
    /// run continues the original run's statistics).
    pub fn restore_counters(&mut self, hits: u64, misses: u64) {
        self.hits.set(hits);
        self.misses.set(misses);
    }

    /// Debug-build invariant: the tracked byte total must equal the sum of
    /// the stored entry sizes after every mutation.
    fn debug_check_bytes(&self) {
        debug_assert_eq!(
            self.tracked_bytes,
            self.store.values().map(Matrix::bytes).sum::<u64>(),
            "CpuAggStore byte accounting drifted"
        );
    }
}

/// The device tier: budgeted, write-once, evicted lowest snapshot first.
#[derive(Default)]
struct DeviceTier {
    entries: BTreeMap<usize, SharedParam>,
    budget_bytes: u64,
    used_bytes: u64,
    hits: u64,
    misses: u64,
}

impl DeviceTier {
    fn get(&mut self, snapshot: usize) -> Option<SharedParam> {
        let found = self.entries.get(&snapshot).map(Rc::clone);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Keep a device copy of `host` for `snapshot`, evicting lowest-index
    /// entries while over budget. Returns whether the snapshot is resident
    /// afterwards: a resident key stays as it is (write-once, like the CPU
    /// tier), an entry larger than the whole budget is declined.
    fn put(&mut self, gpu: &mut Gpu, snapshot: usize, host: &Matrix) -> Result<bool, OomError> {
        let bytes = host.bytes();
        if self.entries.contains_key(&snapshot) {
            return Ok(true);
        }
        if bytes > self.budget_bytes {
            return Ok(false);
        }
        while self.used_bytes + bytes > self.budget_bytes {
            let (&first, _) = self.entries.iter().next().expect("over budget yet empty");
            self.evict(gpu, first);
        }
        let dm = DeviceMatrix::alloc(gpu, host.clone_in())?;
        self.used_bytes += bytes;
        self.entries.insert(snapshot, Rc::new(RefCell::new(dm)));
        Ok(true)
    }

    /// Drop one entry, releasing its device memory (only safe when no tape
    /// is alive that still references it — every caller runs between
    /// frames). Debug builds re-derive the byte total.
    fn evict(&mut self, gpu: &mut Gpu, snapshot: usize) {
        if let Some(p) = self.entries.remove(&snapshot) {
            let dm = Rc::try_unwrap(p)
                .expect("evicting a cache entry still referenced by a tape")
                .into_inner();
            self.used_bytes -= dm.bytes();
            dm.release(gpu);
        }
        let resident = self.entries.values().map(|p| p.borrow().bytes());
        debug_assert_eq!(self.used_bytes, resident.sum::<u64>());
    }

    /// Evict every entry below `end`, lowest first.
    fn evict_below(&mut self, gpu: &mut Gpu, end: usize) {
        let keys: Vec<usize> = self.entries.range(..end).map(|(&k, _)| k).collect();
        for k in keys {
            self.evict(gpu, k);
        }
    }
}

/// A layer-1 aggregation the store can serve without running a kernel.
pub enum Cached {
    /// Device-resident: nothing to ship either.
    Device(SharedParam),
    /// A pooled copy of the CPU store's entry: one PCIe trip.
    Host(Matrix),
}

/// Counters and sizes of an [`InterFrameReuse`]. Hits and misses are pure
/// functions of the deterministic lookup sequence, so safe to surface in
/// metrics, trace meta and checkpoints; a lookup the device tier answers
/// never reaches the CPU store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Lookups the CPU store answered.
    pub cpu_hits: u64,
    /// Lookups neither tier answered.
    pub cpu_misses: u64,
    /// Lookups the device tier answered.
    pub gpu_hits: u64,
    /// Lookups that fell through the device tier.
    pub gpu_misses: u64,
    /// The device tier's byte budget.
    pub budget_bytes: u64,
    /// Bytes the device tier holds right now.
    pub device_bytes: u64,
}

/// The two-tier reuse store (see the module docs for the call sequence).
#[derive(Default)]
pub struct InterFrameReuse {
    cpu: CpuAggStore,
    device: DeviceTier,
}

impl InterFrameReuse {
    /// An empty store whose device tier may hold `gpu_budget_bytes`.
    pub fn new(gpu_budget_bytes: u64) -> Self {
        let mut reuse = InterFrameReuse::default();
        reuse.grow_budget(gpu_budget_bytes);
        reuse
    }

    /// Look one partition's `snapshots` up, device tier first, CPU store
    /// for what it misses. A partition is served from cache only when
    /// EVERY member is cached: a partially purged store falls back to
    /// staging features for the whole partition so one aggregation launch
    /// can cover it. Every member is looked up (and counted) either way.
    pub fn lookup(&mut self, snapshots: Range<usize>) -> Option<Vec<Cached>> {
        let members = snapshots.len();
        let mut found = Vec::new();
        for s in snapshots {
            found.extend(match self.device.get(s) {
                Some(p) => Some(Cached::Device(p)),
                None => self.cpu.get(s).map(|m| Cached::Host(m.clone_in())),
            });
        }
        if found.len() == members {
            return Some(found);
        }
        for c in found {
            if let Cached::Host(m) = c {
                m.recycle();
            }
        }
        None
    }

    /// Deposit a freshly computed aggregation for later frames and epochs.
    /// Write-once: `host` (a device-to-host read) runs only for a snapshot
    /// the store does not hold yet.
    pub fn deposit(&mut self, snapshot: usize, host: impl FnOnce() -> Matrix) {
        if !self.cpu.contains(snapshot) {
            self.cpu.insert(snapshot, host());
        }
    }

    /// The frame is done and the window slides: snapshots below
    /// `resident.start` never recur and leave the device tier; those in
    /// `resident` — which the frame just had on the device, computed or
    /// shipped — stay there for the frames that share them, as far as the
    /// budget goes. Keeping what is already on the device ships nothing, so
    /// promotion is charged no copy; it is best effort, and a full device
    /// just stops it. Values are the CPU store's (write-once), so whether a
    /// snapshot was promoted can never change a result — only PCIe traffic.
    pub fn slide(&mut self, gpu: &mut Gpu, resident: Range<usize>) {
        self.device.evict_below(gpu, resident.start);
        for s in resident {
            if let Some(host) = self.cpu.store.get(&s) {
                if self.device.put(gpu, s, host).is_err() {
                    break;
                }
            }
        }
    }

    /// Forget `snapshots` in both tiers: a frame whose output was not
    /// finite may have deposited poison, which must not be re-served.
    pub fn purge(&mut self, gpu: &mut Gpu, snapshots: Range<usize>) {
        for s in snapshots {
            if let Some(m) = self.cpu.remove(s) {
                m.recycle();
            }
            self.device.evict(gpu, s);
        }
    }

    /// Release everything the device tier holds.
    pub fn evict_device(&mut self, gpu: &mut Gpu) {
        self.device.evict_below(gpu, usize::MAX);
    }

    /// Grow the device tier's budget (a smaller value never shrinks it —
    /// §4.4 only reallocates when too small).
    pub fn grow_budget(&mut self, budget_bytes: u64) {
        self.device.budget_bytes = self.device.budget_bytes.max(budget_bytes);
    }

    /// Counters and sizes.
    pub fn stats(&self) -> ReuseStats {
        ReuseStats {
            cpu_hits: self.cpu.hits(),
            cpu_misses: self.cpu.misses(),
            gpu_hits: self.device.hits,
            gpu_misses: self.device.misses,
            budget_bytes: self.device.budget_bytes,
            device_bytes: self.device.used_bytes,
        }
    }

    /// The CPU tier, for checkpoint encoding (`deposit` is the way back in).
    pub(crate) fn cpu_store(&self) -> &CpuAggStore {
        &self.cpu
    }

    /// Continue a checkpointed run's device-tier statistics.
    pub(crate) fn restore_device_counters(&mut self, hits: u64, misses: u64) {
        (self.device.hits, self.device.misses) = (hits, misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::DeviceConfig;

    #[test]
    fn cpu_store_is_write_once() {
        let mut s = CpuAggStore::new();
        s.insert(1, Matrix::full(2, 2, 1.0));
        s.insert(1, Matrix::full(2, 2, 9.0));
        assert_eq!(s.get(1).unwrap()[(0, 0)], 1.0, "first write wins");
        assert_eq!(s.bytes(), 16);
    }

    #[test]
    fn cpu_store_counts_lookups() {
        let mut s = CpuAggStore::new();
        s.insert(1, Matrix::full(2, 2, 1.0));
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_none());
        assert!(s.get(1).is_some());
        assert_eq!((s.hits(), s.misses()), (2, 1));
        assert!(s.contains(1), "contains() must not touch the counters");
        assert_eq!((s.hits(), s.misses()), (2, 1));
    }

    /// A store whose CPU tier holds a `side × side` matrix of `s as f32`
    /// for every `s` in `snapshots`.
    fn store_with(budget: u64, snapshots: Range<usize>, side: usize) -> InterFrameReuse {
        let mut r = InterFrameReuse::new(budget);
        for s in snapshots {
            r.deposit(s, || Matrix::full(side, side, s as f32));
        }
        r
    }

    fn device_keys(r: &InterFrameReuse) -> Vec<usize> {
        r.device.entries.keys().copied().collect()
    }

    #[test]
    fn slide_retires_below_the_range_and_promotes_it_inside_the_budget() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        // budget: two 4x4 f32 matrices (64 B each)
        let mut r = store_with(128, 10..14, 4);
        r.slide(&mut gpu, 10..12);
        assert_eq!(r.stats().device_bytes, 128);
        // a third evicts snapshot 10 (lowest = leaves the window first)
        r.slide(&mut gpu, 10..13);
        assert_eq!(device_keys(&r), [11, 12]);
        assert_eq!(gpu.mem().in_use(), 128);
        // 13 has a host copy but is not named; 11 left the window
        r.slide(&mut gpu, 12..13);
        assert_eq!(device_keys(&r), [12]);
        // Promotion reads the CPU store without counting a lookup.
        assert_eq!(r.stats().cpu_hits + r.stats().cpu_misses, 0);
        r.evict_device(&mut gpu);
        assert_eq!((gpu.mem().in_use(), r.stats().device_bytes), (0, 0));
    }

    #[test]
    fn the_device_tier_is_write_once() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let mut tier = DeviceTier {
            budget_bytes: 1 << 20,
            ..Default::default()
        };
        assert!(tier.put(&mut gpu, 3, &Matrix::full(4, 4, 1.0)).unwrap());
        let (in_use, live) = (gpu.mem().in_use(), gpu.mem().live_buffers());
        // A resident key keeps its entry, its buffer and its byte count.
        assert!(tier.put(&mut gpu, 3, &Matrix::full(4, 4, 9.0)).unwrap());
        assert_eq!(
            (gpu.mem().in_use(), gpu.mem().live_buffers()),
            (in_use, live)
        );
        assert_eq!(tier.used_bytes, 64);
        assert_eq!(tier.get(3).unwrap().borrow().host()[(0, 0)], 1.0);
        tier.evict(&mut gpu, 3);
        assert_eq!(gpu.mem().in_use(), 0, "nothing leaked");
    }

    #[test]
    fn oversized_entries_are_declined_and_a_full_device_stops_promotion() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let mut r = store_with(32, 0..1, 4);
        r.slide(&mut gpu, 0..1);
        assert_eq!(device_keys(&r), [0usize; 0]);

        // 64-byte entries on a 100-byte device: the second allocation fails
        // and promotion stops without an error.
        let mut small = Gpu::new(DeviceConfig::with_capacity(100));
        let mut r = store_with(1 << 20, 0..3, 4);
        r.slide(&mut small, 0..3);
        assert_eq!(device_keys(&r), [0]);
        r.evict_device(&mut small);
    }

    #[test]
    fn lookup_prefers_the_device_and_is_all_or_nothing_per_partition() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let mut r = store_with(1 << 20, 0..3, 2);
        r.deposit(1, || panic!("write-once: the store holds snapshot 1"));
        r.slide(&mut gpu, 0..2);
        let hit = r.lookup(0..3).expect("every member is cached");
        assert!(matches!(hit[0], Cached::Device(_)));
        assert!(matches!(hit[1], Cached::Device(_)));
        assert!(matches!(hit[2], Cached::Host(_)));
        drop(hit);
        // Snapshot 3 is nowhere: the partition 2..4 is not served, but both
        // members were looked up in both tiers.
        assert!(r.lookup(2..4).is_none());
        let st = r.stats();
        assert_eq!((st.gpu_hits, st.gpu_misses), (2, 3));
        assert_eq!((st.cpu_hits, st.cpu_misses), (2, 1));
        r.evict_device(&mut gpu);
    }

    #[test]
    fn purge_forgets_a_range_in_both_tiers() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let mut r = store_with(1 << 20, 0..4, 2);
        r.slide(&mut gpu, 0..4);
        r.purge(&mut gpu, 1..3);
        assert_eq!(device_keys(&r), [0, 3]);
        assert!((1..3).all(|s| r.lookup(s..s + 1).is_none()));
        assert!(r.lookup(0..1).is_some() && r.lookup(3..4).is_some());
        assert_eq!(gpu.mem().in_use(), r.stats().device_bytes);
        r.evict_device(&mut gpu);
        assert_eq!(gpu.mem().in_use(), 0);
    }

    #[test]
    fn byte_accounting_tracks_every_mutation() {
        // CPU store: bytes() is incrementally tracked and must match the
        // recomputed sum through insert (including write-once rejections)
        // and remove.
        let mut s = CpuAggStore::new();
        assert_eq!(s.bytes(), 0);
        s.insert(0, Matrix::full(2, 2, 1.0));
        s.insert(1, Matrix::full(4, 4, 2.0));
        s.insert(1, Matrix::full(4, 4, 9.0)); // rejected duplicate
        assert_eq!(s.bytes(), 16 + 64);
        assert_eq!(s.bytes(), s.store.values().map(Matrix::bytes).sum());
        s.remove(0);
        assert_eq!(s.bytes(), 64);
        s.remove(42); // absent key is a no-op
        assert_eq!(s.bytes(), 64);
        s.remove(1);
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn budget_only_grows() {
        let mut r = InterFrameReuse::new(100);
        r.grow_budget(50);
        assert_eq!(r.stats().budget_bytes, 100);
        r.grow_budget(200);
        assert_eq!(r.stats().budget_bytes, 200);
    }
}
