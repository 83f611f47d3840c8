//! Device memory accounting: allocations, frees, peak usage and OOM.
//!
//! The dynamic tuner (§4.4 of the paper) must pick the snapshots-per-
//! partition setting without triggering out-of-memory, using the per-frame
//! memory statistics gathered in the preparing epochs; this allocator is
//! where those statistics come from.

use std::collections::HashMap;
use std::fmt;

/// Handle to a live device allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(u64);

/// Returned when an allocation would exceed device capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OomError {
    /// The requested.
    pub requested: u64,
    /// Bytes currently allocated.
    pub in_use: u64,
    /// Total capacity in bytes.
    pub capacity: u64,
    /// What the allocation was for (`"device_matrix"`, `"adjacency_csr"`,
    /// …); empty for unlabeled allocations. Lets error messages and trace
    /// events attribute the OOM to the allocating lane/kernel.
    pub label: &'static str,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B with {} / {} B in use",
            self.requested, self.in_use, self.capacity
        )?;
        if !self.label.is_empty() {
            write!(f, " (allocating {})", self.label)?;
        }
        Ok(())
    }
}

impl std::error::Error for OomError {}

/// Tracks device allocations against a fixed capacity.
#[derive(Debug)]
pub struct DeviceMemory {
    capacity: u64,
    in_use: u64,
    peak: u64,
    peak_ever: u64,
    next_id: u64,
    live: HashMap<u64, u64>,
}

impl DeviceMemory {
    /// Create a new instance.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            capacity,
            in_use: 0,
            peak: 0,
            peak_ever: 0,
            next_id: 0,
            live: HashMap::new(),
        }
    }

    /// Allocate `bytes`; fails with [`OomError`] past capacity.
    pub fn alloc(&mut self, bytes: u64) -> Result<BufferId, OomError> {
        self.alloc_labeled(bytes, "")
    }

    /// [`DeviceMemory::alloc`] with an attribution label carried into any
    /// [`OomError`].
    pub fn alloc_labeled(&mut self, bytes: u64, label: &'static str) -> Result<BufferId, OomError> {
        if self.in_use + bytes > self.capacity {
            return Err(OomError {
                requested: bytes,
                in_use: self.in_use,
                capacity: self.capacity,
                label,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id, bytes);
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        self.peak_ever = self.peak_ever.max(self.in_use);
        Ok(BufferId(id))
    }

    /// Release an allocation. Double-frees panic: they are always bugs in
    /// the calling framework.
    pub fn free(&mut self, id: BufferId) {
        let bytes = self
            .live
            .remove(&id.0)
            .expect("free of unknown or already-freed device buffer");
        self.in_use -= bytes;
    }

    /// Size of a live buffer, if it exists.
    pub fn size_of(&self, id: BufferId) -> Option<u64> {
        self.live.get(&id.0).copied()
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Peak bytes allocated since the last reset.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// All-time high-water mark, immune to [`DeviceMemory::reset_peak`];
    /// this is the value the trace's `device_mem_in_use` counter peaks at.
    pub fn peak_ever(&self) -> u64 {
        self.peak_ever
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes still available.
    pub fn headroom(&self) -> u64 {
        self.capacity - self.in_use
    }

    /// Number of live allocations.
    pub fn live_buffers(&self) -> usize {
        self.live.len()
    }

    /// Reset the peak-tracking watermark to current usage (used between
    /// profiling windows, e.g. per frame).
    pub fn reset_peak(&mut self) {
        self.peak = self.in_use;
    }

    /// Watermark for [`DeviceMemory::live_ids_from`]: buffers allocated
    /// from now on have ids `>=` the returned mark.
    pub fn mark(&self) -> u64 {
        self.next_id
    }

    /// All live buffers allocated at or after `mark`, in allocation order.
    /// The rollback path (`Gpu::release_since`) uses this to free exactly
    /// the allocations a failed frame attempt left behind.
    pub fn live_ids_from(&self, mark: u64) -> Vec<BufferId> {
        let mut ids: Vec<u64> = self.live.keys().copied().filter(|&id| id >= mark).collect();
        ids.sort_unstable();
        ids.into_iter().map(BufferId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut m = DeviceMemory::new(1000);
        let a = m.alloc(400).unwrap();
        let b = m.alloc(500).unwrap();
        assert_eq!(m.in_use(), 900);
        assert_eq!(m.peak(), 900);
        assert_eq!(m.size_of(a), Some(400));
        m.free(a);
        assert_eq!(m.in_use(), 500);
        assert_eq!(m.peak(), 900, "peak sticks");
        m.free(b);
        assert_eq!(m.in_use(), 0);
        assert_eq!(m.live_buffers(), 0);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let mut m = DeviceMemory::new(100);
        let _a = m.alloc(80).unwrap();
        let err = m.alloc(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert_eq!(err.capacity, 100);
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    #[should_panic(expected = "already-freed")]
    fn double_free_panics() {
        let mut m = DeviceMemory::new(100);
        let a = m.alloc(10).unwrap();
        m.free(a);
        m.free(a);
    }

    #[test]
    fn reset_peak_window() {
        let mut m = DeviceMemory::new(1000);
        let a = m.alloc(800).unwrap();
        m.free(a);
        assert_eq!(m.peak(), 800);
        m.reset_peak();
        assert_eq!(m.peak(), 0);
        let _b = m.alloc(100).unwrap();
        assert_eq!(m.peak(), 100);
        assert_eq!(m.peak_ever(), 800, "all-time high-water survives resets");
    }

    #[test]
    fn labeled_oom_carries_attribution() {
        let mut m = DeviceMemory::new(100);
        let err = m.alloc_labeled(200, "adjacency_csr").unwrap_err();
        assert_eq!(err.label, "adjacency_csr");
        assert!(err.to_string().contains("adjacency_csr"));
        let err = m.alloc(200).unwrap_err();
        assert_eq!(err.label, "");
        assert!(!err.to_string().contains("allocating"));
    }

    #[test]
    fn live_ids_from_mark_sees_only_newer_buffers() {
        let mut m = DeviceMemory::new(1000);
        let a = m.alloc(10).unwrap();
        let mark = m.mark();
        let b = m.alloc(20).unwrap();
        let c = m.alloc(30).unwrap();
        m.free(b);
        let since = m.live_ids_from(mark);
        assert_eq!(since, vec![c]);
        assert!(!since.contains(&a));
        assert!(m.live_ids_from(m.mark()).is_empty());
    }

    #[test]
    fn headroom_tracks_usage() {
        let mut m = DeviceMemory::new(256);
        assert_eq!(m.headroom(), 256);
        let _x = m.alloc(56).unwrap();
        assert_eq!(m.headroom(), 200);
    }
}
