//! Inter-frame reuse (§4.4): the one store of layer-1 aggregation results
//! and the one home of its policy.
//!
//! [`InterFrameReuse`] holds two private tiers behind a closed API:
//!
//! * the **CPU tier** keeps every snapshot's normalized layer-1
//!   aggregation, write-once — a hit eliminates the aggregation kernel and
//!   (for models without hidden-layer aggregation) the adjacency transfer,
//!   but still pays the PCIe trip;
//! * the **device tier** keeps as many results device-resident as its byte
//!   budget allows, eliminating the PCIe trip too. Eviction is by next-use
//!   order: frames slide forward, so the *lowest* snapshot index is the
//!   first to leave every window and goes first.
//!
//! Every trainer and the serving engine holds one. PiPAD and serving grow
//! the device budget; PyGT-R/G (§5.1) and data-parallel training keep it at
//! zero, so their store is the CPU tier alone and every hit is a
//! [`Cached::Host`] copy. The data-parallel trainer keys its entries by
//! (snapshot, shard) instead of by snapshot.
//!
//! A frame's life against the store, in the trainer and the serving engine
//! alike: `lookup` per partition while staging → `deposit` what had to be
//! computed → `slide` once the frame is done (or `purge`, if its output was
//! not finite). `evict_device` empties the device tier — first rung of the
//! OOM ladder, and the end of an epoch, where the window restarts —
//! `grow_budget` sizes it. Its [`CkptExtra`] impl is the store's one
//! checkpoint encoding.

use crate::checkpoint::CkptExtra;
use pipad_autograd::SharedParam;
use pipad_ckpt::codec::{get_list, get_matrix, put_list, put_matrix, put_u64, Reader};
use pipad_ckpt::{Checkpoint, CheckpointWriter, CkptError};
use pipad_gpu_sim::{Gpu, OomError};
use pipad_kernels::DeviceMatrix;
use pipad_tensor::Matrix;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::rc::Rc;

/// The CPU tier: write-once and unbounded (host memory is large).
#[derive(Default)]
struct CpuAggStore {
    entries: HashMap<usize, Matrix>,
    hits: u64,
    misses: u64,
}

impl CpuAggStore {
    fn get(&mut self, snapshot: usize) -> Option<&Matrix> {
        let found = self.entries.get(&snapshot);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
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
    /// A pooled copy of the CPU tier's entry: one PCIe trip.
    Host(Matrix),
}

impl Cached {
    /// The host copy of a hit from a store without a device budget, whose
    /// device tier never holds an entry (see [`InterFrameReuse::slide`]).
    pub fn into_host(self) -> Matrix {
        match self {
            Cached::Host(m) => m,
            Cached::Device(_) => {
                unreachable!("a store without a device budget served a device hit")
            }
        }
    }
}

/// Counters and sizes of an [`InterFrameReuse`]. Hits and misses are pure
/// functions of the deterministic lookup sequence, so safe to surface in
/// metrics, trace meta and checkpoints; a lookup the device tier answers
/// never reaches the CPU tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Lookups the CPU tier answered.
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

    /// Look one partition's `snapshots` up, device tier first, CPU tier
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
        if let Entry::Vacant(e) = self.cpu.entries.entry(snapshot) {
            e.insert(host());
        }
    }

    /// The frame is done and the window slides: snapshots below
    /// `resident.start` never recur and leave the device tier; those in
    /// `resident` — which the frame just had on the device, computed or
    /// shipped — stay there for the frames that share them, as far as the
    /// budget goes. Keeping what is already on the device ships nothing, so
    /// promotion is charged no copy; it is best effort, and a full device
    /// just stops it. Values are the CPU tier's (write-once), so whether a
    /// snapshot was promoted can never change a result — only PCIe traffic.
    pub fn slide(&mut self, gpu: &mut Gpu, resident: Range<usize>) {
        self.device.evict_below(gpu, resident.start);
        for s in resident {
            if let Some(host) = self.cpu.entries.get(&s) {
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
            if let Some(m) = self.cpu.entries.remove(&s) {
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
            cpu_hits: self.cpu.hits,
            cpu_misses: self.cpu.misses,
            gpu_hits: self.device.hits,
            gpu_misses: self.device.misses,
            budget_bytes: self.device.budget_bytes,
            device_bytes: self.device.used_bytes,
        }
    }
}

/// The store's one checkpoint encoding: the device tier's budget and both
/// tiers' hit and miss counters in `meta`, the CPU tier's entries in
/// `reuse_cpu`. The device tier's entries are not written: checkpoints are
/// taken at epoch boundaries, where the window restarts and the trainer has
/// evicted them.
impl CkptExtra for InterFrameReuse {
    fn put_meta(&self, meta: &mut Vec<u8>) {
        put_u64(meta, self.device.budget_bytes);
        put_u64(meta, self.cpu.hits);
        put_u64(meta, self.cpu.misses);
        put_u64(meta, self.device.hits);
        put_u64(meta, self.device.misses);
    }

    fn put_sections(&self, w: &mut CheckpointWriter) {
        debug_assert_eq!(
            self.device.used_bytes, 0,
            "checkpoint with a live device tier"
        );
        // Sorted by snapshot: the map's own order varies run to run.
        let mut entries: Vec<(usize, &Matrix)> =
            self.cpu.entries.iter().map(|(&k, m)| (k, m)).collect();
        entries.sort_by_key(|&(k, _)| k);
        let cap = 8 + entries
            .iter()
            .map(|(_, m)| 24 + m.bytes() as usize)
            .sum::<usize>();
        put_list(w.section_sized("reuse_cpu", cap), &entries, |s, &(k, m)| {
            put_u64(s, k as u64);
            put_matrix(s, m);
        });
    }

    fn get_meta(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        self.grow_budget(r.get_u64()?);
        self.cpu.hits = r.get_u64()?;
        self.cpu.misses = r.get_u64()?;
        self.device.hits = r.get_u64()?;
        self.device.misses = r.get_u64()?;
        Ok(())
    }

    fn get_sections(&mut self, ckpt: &Checkpoint) -> Result<(), CkptError> {
        let mut r = Reader::new(ckpt.require("reuse_cpu")?);
        for (snapshot, m) in get_list(&mut r, |r| Ok((r.get_usize()?, get_matrix(r)?)))? {
            self.deposit(snapshot, || m);
        }
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::DeviceConfig;

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
        // Promotion reads the CPU tier without counting a lookup.
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
    fn the_cpu_tier_is_write_once_and_counts_only_lookups() {
        let mut r = store_with(0, 1..2, 2);
        r.deposit(1, || Matrix::full(2, 2, 9.0));
        let st = r.stats();
        assert_eq!(
            (st.cpu_hits, st.cpu_misses),
            (0, 0),
            "deposit's presence check counts nothing"
        );
        let hit = r.lookup(1..2).expect("snapshot 1 is cached").remove(0);
        assert_eq!(hit.into_host()[(0, 0)], 1.0, "first write wins");
        assert!(r.lookup(2..3).is_none());
        assert!(r.lookup(1..2).is_some());
        let st = r.stats();
        assert_eq!((st.cpu_hits, st.cpu_misses), (2, 1));
        // No device budget: the device tier missed every lookup.
        assert_eq!((st.gpu_hits, st.gpu_misses), (0, 3));
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
    fn budget_only_grows() {
        let mut r = InterFrameReuse::new(100);
        r.grow_budget(50);
        assert_eq!(r.stats().budget_bytes, 100);
        r.grow_budget(200);
        assert_eq!(r.stats().budget_bytes, 200);
    }
}
