//! Dynamic tuner (component ❹ of Figure 7, §4.4): picks the
//! snapshots-per-partition setting `S_per` for each frame.
//!
//! Three factors, exactly as the paper lays out:
//!
//! 1. **memory consumption** — processing a partition keeps all its
//!    snapshots' data resident, so `S_per` is capped by an upper bound `U`
//!    derived from the one-snapshot peak profiled in the preparing epochs;
//! 2. **computation speedup** — estimated from an offline analysis table of
//!    the parallel GNN indexed by (S_per, overlap-rate bucket, feature
//!    dimension bucket) — the Figure 9 data — combined with the frame's
//!    measured overlap rate;
//! 3. **pipeline stall** — options whose partition transfer would take
//!    longer than the overlapped computation are rejected.

use crate::prep::{PartitionCatalog, S_PER_OPTIONS};
use pipad_gpu_sim::{ArgValue, SimNanos};

/// Overlap-rate bucket edges (lower bounds).
pub const OR_BUCKETS: [f64; 5] = [0.0, 0.3, 0.5, 0.7, 0.85];
/// Feature-dimension bucket edges (lower bounds, in floats).
pub const DIM_BUCKETS: [usize; 3] = [0, 8, 33];

/// Offline parallel-GNN speedup table (Figure 9). Rows: `S_per` option;
/// columns: overlap-rate bucket; entries already ≥ 1.0. `dim_scale`
/// adjusts for the feature-dimension regime (small dims gain the most from
/// coalescing; very large dims are already bandwidth-saturated).
#[derive(Clone, Debug)]
pub struct OfflineTable {
    /// `speedup[s_idx][or_bucket]` for `S_PER_OPTIONS[s_idx]`.
    pub speedup: [[f64; 5]; 3],
    /// Multiplier per dimension bucket.
    pub dim_scale: [f64; 3],
}

impl Default for OfflineTable {
    /// Entries fitted to the dim-16 column of an earlier `repro fig9`, one
    /// that timed a hand copy of the kernel sequence: more snapshots per
    /// partition win at every overlap rate, higher overlap amplifies the
    /// win, and small dimensions benefit the most (coalescing lives below 8
    /// floats/row). `repro fig9` prints today's measurements beside these
    /// entries and says whether they agree; every PiPAD `S_per` decision
    /// depends on them, so they change only with a deliberate re-fit.
    fn default() -> Self {
        OfflineTable {
            speedup: [
                [1.00, 1.01, 1.01, 1.02, 1.07], // S_per = 2
                [1.11, 1.10, 1.14, 1.15, 1.22], // S_per = 4
                [1.17, 1.18, 1.22, 1.22, 1.34], // S_per = 8
            ],
            dim_scale: [1.60, 1.00, 0.85],
        }
    }
}

impl OfflineTable {
    fn or_bucket(or: f64) -> usize {
        OR_BUCKETS.iter().rposition(|&b| or >= b).unwrap_or(0)
    }

    fn dim_bucket(dim: usize) -> usize {
        DIM_BUCKETS.iter().rposition(|&b| dim >= b).unwrap_or(0)
    }

    /// Estimated parallel-GNN speedup for an option.
    pub fn lookup(&self, s_per: usize, or: f64, feat_dim: usize) -> f64 {
        let Some(s_idx) = S_PER_OPTIONS.iter().position(|&s| s == s_per) else {
            return 1.0;
        };
        let v =
            self.speedup[s_idx][Self::or_bucket(or)] * self.dim_scale[Self::dim_bucket(feat_dim)];
        v.max(1.0)
    }
}

/// Statistics one frame accumulated during the preparing epochs.
#[derive(Clone, Debug)]
pub struct FrameProfile {
    /// Peak device memory while training this frame one snapshot at a time.
    pub peak_mem_one_snapshot: u64,
    /// GPU compute time of this frame in one-snapshot mode.
    pub compute_time: SimNanos,
    /// Bytes transferred for this frame in one-snapshot mode.
    pub transfer_bytes: u64,
}

/// The tuner's decision for one frame.
#[derive(Clone, Debug)]
pub struct SperDecision {
    /// The snapshots-per-partition setting in effect.
    pub s_per: usize,
    /// Parallel-GNN speedup the offline table predicts for this choice.
    pub estimated_speedup: f64,
    /// Memory-derived upper bound `U` on `S_per`.
    pub memory_bound: usize,
    /// Options rejected because their transfer would stall the pipeline.
    pub rejected_for_stall: Vec<usize>,
}

impl SperDecision {
    /// Ordered argument list for the `tuner_decision` trace instant the
    /// pipeline controller emits once per frame (deterministic: every value
    /// derives from profiled simulated quantities).
    pub fn trace_args(&self, frame: usize) -> Vec<(&'static str, ArgValue)> {
        vec![
            ("frame", ArgValue::U64(frame as u64)),
            ("s_per", ArgValue::U64(self.s_per as u64)),
            ("memory_bound", ArgValue::U64(self.memory_bound as u64)),
            ("estimated_speedup", ArgValue::F64(self.estimated_speedup)),
            (
                "rejected_for_stall",
                ArgValue::Str(format!("{:?}", self.rejected_for_stall)),
            ),
        ]
    }
}

/// The dynamic tuner.
pub struct DynamicTuner {
    table: OfflineTable,
    /// Device capacity minus standing allocations, bytes.
    capacity_budget: u64,
    /// PCIe bandwidth for estimates, bytes/us.
    pcie_bytes_per_us: u64,
    feat_dim: usize,
}

impl DynamicTuner {
    /// A tuner estimating speedups from `OfflineTable::default()`.
    pub fn new(capacity_budget: u64, pcie_bytes_per_us: u64, feat_dim: usize) -> Self {
        DynamicTuner {
            table: OfflineTable::default(),
            capacity_budget,
            pcie_bytes_per_us,
            feat_dim,
        }
    }

    /// Factor (1), the memory bound `U` on `S_per`: an N-snapshot peak is at
    /// most N × the one-snapshot peak, so N is capped at the free capacity
    /// over that peak.
    pub fn memory_bound(capacity_budget: u64, peak_one_snapshot: u64) -> usize {
        ((capacity_budget / peak_one_snapshot.max(1)) as usize).max(1)
    }

    /// Decide `S_per` for the frame starting at `frame_start`.
    pub fn decide(
        &self,
        profile: &FrameProfile,
        catalog: &PartitionCatalog,
        frame_start: usize,
        window: usize,
    ) -> SperDecision {
        let memory_bound = Self::memory_bound(self.capacity_budget, profile.peak_mem_one_snapshot);

        let mut best = SperDecision {
            s_per: 1,
            estimated_speedup: 1.0,
            memory_bound,
            rejected_for_stall: Vec::new(),
        };
        for &s in &S_PER_OPTIONS {
            if s > memory_bound || s > window {
                continue;
            }
            // (2) estimated speedup from the offline table × measured OR.
            let mut or_sum = 0.0;
            let mut or_n = 0usize;
            let mut adj_bytes = 0u64;
            let mut start = frame_start;
            while start + s <= frame_start + window {
                let plan = catalog
                    .get(s, start)
                    .expect("the catalog is filled before the tuner decides");
                or_sum += plan.overlap_rate;
                adj_bytes += plan.adjacency_bytes;
                or_n += 1;
                start += s;
            }
            if or_n == 0 {
                continue;
            }
            let or = or_sum / or_n as f64;
            let speedup = self.table.lookup(s, or, self.feat_dim);
            // (3) pipeline stall: estimated compute shrinks by the speedup;
            // if the (reduced) transfer exceeds it, the copy engine becomes
            // the bottleneck and the option is rejected.
            let est_compute =
                SimNanos::from_nanos((profile.compute_time.as_nanos() as f64 / speedup) as u64);
            let est_transfer = SimNanos::from_bytes(adj_bytes, self.pcie_bytes_per_us);
            if est_transfer > est_compute {
                best.rejected_for_stall.push(s);
                continue;
            }
            if speedup > best.estimated_speedup {
                best.s_per = s;
                best.estimated_speedup = speedup;
            }
        }
        best
    }

    /// One step down the `S_per` ladder — the OOM-recovery fallback when
    /// evicting the reuse cache was not enough. Returns the next smaller
    /// entry of [`S_PER_OPTIONS`] (or `1` below the smallest); `1` maps to
    /// itself, which callers use as the "cannot shrink further" signal.
    pub fn downshift(s_per: usize) -> usize {
        S_PER_OPTIONS
            .iter()
            .rev()
            .copied()
            .find(|&s| s < s_per)
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::GraphAnalyzer;
    use pipad_dyngraph::{DatasetId, Scale};
    use pipad_gpu_sim::{DeviceConfig, Gpu};

    fn catalog() -> PartitionCatalog {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
        let mut host = gpu.host_now();
        let analyzer = GraphAnalyzer::run(&mut gpu, &graph, &mut host);
        PartitionCatalog::build(&mut gpu, &analyzer, &mut host)
    }

    fn profile(peak: u64) -> FrameProfile {
        FrameProfile {
            peak_mem_one_snapshot: peak,
            compute_time: SimNanos::from_micros(5_000),
            transfer_bytes: 1 << 20,
        }
    }

    #[test]
    fn table_lookup_monotonicity() {
        let t = OfflineTable::default();
        // larger S_per wins at equal OR (Figure 9a)
        assert!(t.lookup(8, 0.9, 16) > t.lookup(4, 0.9, 16));
        assert!(t.lookup(4, 0.9, 16) > t.lookup(2, 0.9, 16));
        // higher OR wins at equal S_per
        assert!(t.lookup(4, 0.9, 16) > t.lookup(4, 0.4, 16));
        // small dims benefit the most (Figure 9b)
        assert!(t.lookup(4, 0.9, 2) > t.lookup(4, 0.9, 64));
        // unknown option → neutral
        assert_eq!(t.lookup(3, 0.9, 16), 1.0);
    }

    #[test]
    fn high_overlap_prefers_max_parallelism() {
        let cat = catalog();
        let tuner = DynamicTuner::new(1 << 30, 12_000, 16);
        let d = tuner.decide(&profile(1 << 20), &cat, 0, 16);
        assert_eq!(d.s_per, 8, "{d:?}");
        assert!(d.estimated_speedup > 1.1);
        assert!(d.rejected_for_stall.is_empty());
    }

    #[test]
    fn memory_bound_caps_s_per() {
        let cat = catalog();
        // budget fits only ~2 one-snapshot peaks
        let tuner = DynamicTuner::new(2 << 20, 12_000, 16);
        let d = tuner.decide(&profile(1 << 20), &cat, 0, 16);
        assert_eq!(d.memory_bound, 2);
        assert!(d.s_per <= 2, "{d:?}");
    }

    #[test]
    fn slow_link_rejects_large_partitions() {
        let cat = catalog();
        // pathological PCIe: 1 byte/us → everything stalls
        let tuner = DynamicTuner::new(1 << 30, 1, 16);
        let mut p = profile(1 << 20);
        p.compute_time = SimNanos::from_nanos(10);
        let d = tuner.decide(&p, &cat, 0, 16);
        assert_eq!(d.s_per, 1, "{d:?}");
        assert!(!d.rejected_for_stall.is_empty());
    }

    #[test]
    fn window_limits_options() {
        let cat = catalog();
        let tuner = DynamicTuner::new(1 << 30, 12_000, 16);
        let d = tuner.decide(&profile(1 << 20), &cat, 0, 4);
        assert!(d.s_per <= 4);
    }

    #[test]
    fn downshift_walks_the_ladder_to_one() {
        assert_eq!(DynamicTuner::downshift(8), 4);
        assert_eq!(DynamicTuner::downshift(4), 2);
        assert_eq!(DynamicTuner::downshift(2), 1);
        assert_eq!(DynamicTuner::downshift(1), 1, "floor maps to itself");
        // off-ladder values snap to the next option below
        assert_eq!(DynamicTuner::downshift(6), 4);
    }
}
