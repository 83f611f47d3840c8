//! Inter-frame reuse (§4.4): CPU-side store plus budgeted GPU-side buffer
//! for layer-1 aggregation results.
//!
//! * the **CPU store** holds every snapshot's normalized layer-1 aggregation
//!   computed during the preparing epochs — a hit eliminates the aggregation
//!   kernel and (for models without hidden-layer aggregation) the adjacency
//!   transfer, but still pays the PCIe trip;
//! * the **GPU buffer** additionally keeps as many results device-resident
//!   as its byte budget allows, eliminating the PCIe trip too. Eviction is
//!   by next-use order: frames slide forward, so the *lowest* snapshot
//!   index is the first to leave every window and is evicted first.

use pipad_autograd::SharedParam;
use pipad_gpu_sim::{Gpu, OomError};
use pipad_kernels::DeviceMatrix;
use pipad_tensor::Matrix;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
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
    pub fn remove(&mut self, snapshot: usize) -> Option<Matrix> {
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

/// GPU-side aggregation buffer with a byte budget.
#[derive(Default)]
pub struct GpuAggCache {
    entries: BTreeMap<usize, SharedParam>,
    budget_bytes: u64,
    used_bytes: u64,
    hits: u64,
    misses: u64,
}

impl GpuAggCache {
    /// Create a new instance.
    pub fn new(budget_bytes: u64) -> Self {
        GpuAggCache {
            entries: BTreeMap::new(),
            budget_bytes,
            used_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Grow the budget (the tuner re-derives it from per-frame memory
    /// statistics; shrinking never frees eagerly — §4.4 only reallocates
    /// when too small).
    pub fn set_budget(&mut self, budget_bytes: u64) {
        self.budget_bytes = self.budget_bytes.max(budget_bytes);
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.budget_bytes
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used_bytes
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether `snapshot` is resident, without touching the hit/miss
    /// counters (the serving promoter probes before `put` and must not
    /// distort the statistics the reports pin).
    pub fn contains(&self, snapshot: usize) -> bool {
        self.entries.contains_key(&snapshot)
    }

    /// Device-resident aggregation for `snapshot`, if cached.
    pub fn get(&mut self, snapshot: usize) -> Option<SharedParam> {
        match self.entries.get(&snapshot) {
            Some(p) => {
                self.hits += 1;
                Some(Rc::clone(p))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Try to cache an aggregation result; evicts lowest-index entries
    /// (next-use order) while over budget. Returns whether it was kept.
    pub fn put(&mut self, gpu: &mut Gpu, snapshot: usize, agg: Matrix) -> Result<bool, OomError> {
        let bytes = agg.bytes();
        if bytes > self.budget_bytes {
            return Ok(false);
        }
        // Evict from the front (smallest snapshot index leaves the sliding
        // window first).
        while self.used_bytes + bytes > self.budget_bytes {
            let (&first, _) = self.entries.iter().next().expect("over budget yet empty");
            self.evict(gpu, first);
        }
        let dm = DeviceMatrix::alloc(gpu, agg)?;
        self.used_bytes += bytes;
        self.entries.insert(snapshot, Rc::new(RefCell::new(dm)));
        self.debug_check_bytes();
        Ok(true)
    }

    /// Drop one entry, releasing its device memory (only safe when no tape
    /// is alive that still references it — the trainer evicts between
    /// frames).
    fn evict(&mut self, gpu: &mut Gpu, snapshot: usize) {
        if let Some(p) = self.entries.remove(&snapshot) {
            let dm = Rc::try_unwrap(p)
                .expect("evicting a cache entry still referenced by a tape")
                .into_inner();
            self.used_bytes -= dm.bytes();
            dm.release(gpu);
        }
        self.debug_check_bytes();
    }

    /// Debug-build invariant: `used()` must equal the sum of the resident
    /// entry sizes after every `put`/`evict`/`retire_below`/`clear`.
    fn debug_check_bytes(&self) {
        debug_assert_eq!(
            self.used_bytes,
            self.entries
                .values()
                .map(|p| p.borrow().bytes())
                .sum::<u64>(),
            "GpuAggCache byte accounting drifted"
        );
    }

    /// Visit every resident entry's host-side values in snapshot order
    /// (checkpoint encoding).
    pub fn for_each_host(&self, mut f: impl FnMut(usize, &Matrix)) {
        for (&snapshot, p) in &self.entries {
            let dm = p.borrow();
            f(snapshot, dm.host());
        }
    }

    /// Overwrite the hit/miss counters (checkpoint restore: the resumed
    /// run continues the original run's statistics).
    pub fn restore_counters(&mut self, hits: u64, misses: u64) {
        self.hits = hits;
        self.misses = misses;
    }

    /// Evict everything below `min_snapshot` (entries that left the window).
    pub fn retire_below(&mut self, gpu: &mut Gpu, min_snapshot: usize) {
        let stale: Vec<usize> = self
            .entries
            .range(..min_snapshot)
            .map(|(&k, _)| k)
            .collect();
        for k in stale {
            self.evict(gpu, k);
        }
    }

    /// Release everything.
    pub fn clear(&mut self, gpu: &mut Gpu) {
        let keys: Vec<usize> = self.entries.keys().copied().collect();
        for k in keys {
            self.evict(gpu, k);
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Combined two-level reuse state.
#[derive(Default)]
pub struct InterFrameReuse {
    /// Unbounded CPU-side aggregation store.
    pub cpu: CpuAggStore,
    /// Budgeted GPU-side aggregation buffer.
    pub gpu_cache: GpuAggCache,
}

impl InterFrameReuse {
    /// Create a new instance.
    pub fn new(gpu_budget_bytes: u64) -> Self {
        InterFrameReuse {
            cpu: CpuAggStore::new(),
            gpu_cache: GpuAggCache::new(gpu_budget_bytes),
        }
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

    #[test]
    fn gpu_cache_respects_budget_and_evicts_lowest() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        // budget: two 4x4 f32 matrices (64 B each)
        let mut c = GpuAggCache::new(128);
        assert!(c.put(&mut gpu, 10, Matrix::full(4, 4, 1.0)).unwrap());
        assert!(c.put(&mut gpu, 11, Matrix::full(4, 4, 2.0)).unwrap());
        assert_eq!(c.used(), 128);
        // inserting a third evicts snapshot 10 (lowest = leaves window first)
        assert!(c.put(&mut gpu, 12, Matrix::full(4, 4, 3.0)).unwrap());
        assert!(c.get(10).is_none());
        assert!(c.get(11).is_some());
        assert!(c.get(12).is_some());
        assert_eq!(gpu.mem().in_use(), 128);
        c.clear(&mut gpu);
        assert_eq!(gpu.mem().in_use(), 0);
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let mut c = GpuAggCache::new(32);
        assert!(!c.put(&mut gpu, 0, Matrix::full(4, 4, 1.0)).unwrap());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn retire_below_drops_stale_window_entries() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let mut c = GpuAggCache::new(1 << 20);
        for i in 0..5 {
            c.put(&mut gpu, i, Matrix::full(2, 2, i as f32)).unwrap();
        }
        c.retire_below(&mut gpu, 3);
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none());
        assert!(c.get(3).is_some());
        c.clear(&mut gpu);
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

        // GPU cache: used() must match the resident entries through put,
        // budget-driven eviction, retire_below and clear.
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let mut c = GpuAggCache::new(128);
        c.put(&mut gpu, 0, Matrix::full(4, 4, 1.0)).unwrap();
        c.put(&mut gpu, 1, Matrix::full(4, 4, 2.0)).unwrap();
        c.put(&mut gpu, 2, Matrix::full(4, 4, 3.0)).unwrap(); // evicts 0
        let resident: u64 = c.entries.values().map(|p| p.borrow().bytes()).sum();
        assert_eq!(c.used(), resident);
        c.retire_below(&mut gpu, 2);
        assert_eq!(c.used(), 64);
        c.clear(&mut gpu);
        assert_eq!(c.used(), 0);
        assert_eq!(gpu.mem().in_use(), 0);
    }

    #[test]
    fn budget_only_grows() {
        let mut c = GpuAggCache::new(100);
        c.set_budget(50);
        assert_eq!(c.budget(), 100);
        c.set_budget(200);
        assert_eq!(c.budget(), 200);
    }
}
