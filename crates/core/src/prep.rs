//! Data preparation module (component ❷ of Figure 7): partition-wise
//! overlap extraction.
//!
//! For every candidate `S_per` and every possible partition start index,
//! the snapshots' shared topology is extracted once ("in the beginning once
//! for all", §4.3) into an overlap sliced-CSR plus per-snapshot exclusives.
//! The catalog also records each partition's overlap rate — the statistic
//! the dynamic tuner buckets on — and its transfer footprint.

use crate::analyzer::GraphAnalyzer;
use pipad_gpu_sim::{Gpu, SimNanos};
use pipad_sparse::{extract_overlap, SlicedCsr};
use std::collections::HashMap;
use std::rc::Rc;

/// Host-lane cost of overlap extraction, per edge examined (ns).
pub const EXTRACT_NS_PER_EDGE: u64 = 3;

/// Candidate snapshots-per-partition settings (§4.3: "a finite set").
pub const S_PER_OPTIONS: [usize; 3] = [2, 4, 8];

/// Prepared adjacency data for one partition `[start, start + s_per)`,
/// stored in the catalog under the key `(s_per, start)`.
#[derive(Clone)]
pub struct PartitionPlan {
    /// Topology shared by every member, sliced.
    pub overlap: Rc<SlicedCsr>,
    /// Per-member exclusive remainders, sliced.
    pub exclusives: Vec<Rc<SlicedCsr>>,
    /// Shared-edge fraction (the tuner's `OR`).
    pub overlap_rate: f64,
    /// Bytes to ship the whole split (overlap once + exclusives).
    pub adjacency_bytes: u64,
}

/// Catalog of partition plans for all `(s_per, start)` combinations.
pub struct PartitionCatalog {
    plans: HashMap<(usize, usize), PartitionPlan>,
    n_snapshots: usize,
}

impl PartitionCatalog {
    /// Extract overlaps for every candidate partition on the host lane,
    /// which first waits for `host_cursor`; `host_cursor` gets where the
    /// pass ended. Partitions of one snapshot need no plan (they use the
    /// full sliced adjacency directly).
    pub fn build(gpu: &mut Gpu, analyzer: &GraphAnalyzer, host_cursor: &mut SimNanos) -> Self {
        gpu.host_wait(*host_cursor);
        let n = analyzer.len();
        let mut plans = HashMap::new();
        // Pass 1 (serial): enumerate work items and charge the host lane in
        // the original order, so simulated time is byte-identical at every
        // thread count.
        let mut work: Vec<(usize, usize, Vec<&pipad_sparse::Csr>)> = Vec::new();
        for &s_per in &S_PER_OPTIONS {
            if s_per > n {
                continue;
            }
            for start in 0..=(n - s_per) {
                let members: Vec<_> = (start..start + s_per)
                    .map(|i| analyzer.snapshot(i).norm.adj_hat.as_ref())
                    .collect();
                let total_edges: usize = members.iter().map(|m| m.nnz()).sum();
                let cost = SimNanos::from_nanos(
                    gpu.cfg().host_op_fixed_ns + EXTRACT_NS_PER_EDGE * total_edges as u64,
                );
                gpu.host_lane_op("overlap_extraction", cost);
                work.push((s_per, start, members));
            }
        }
        *host_cursor = gpu.host_now();
        // Pass 2: the actual extraction is pure per-partition work — fan it
        // out across the pool. `Rc` wrapping happens serially afterwards
        // (the results cross threads, so the parallel stage returns plain
        // owned data).
        let extracted = pipad_pool::par_map(&work, |(s_per, _, members)| {
            let s_per = *s_per;
            let total_edges: usize = members.iter().map(|m| m.nnz()).sum();
            let split = extract_overlap(members);
            let mean_edges = (total_edges as f64 / s_per as f64).max(1.0);
            let overlap_rate = (split.overlap.nnz() as f64 / mean_edges).min(1.0);
            let overlap = SlicedCsr::from_csr(&split.overlap);
            let exclusives: Vec<SlicedCsr> =
                split.exclusives.iter().map(SlicedCsr::from_csr).collect();
            (overlap, exclusives, overlap_rate)
        });
        for ((s_per, start, _), (overlap, exclusives, overlap_rate)) in work.iter().zip(extracted) {
            let (s_per, start) = (*s_per, *start);
            let overlap = Rc::new(overlap);
            let exclusives: Vec<Rc<SlicedCsr>> = exclusives.into_iter().map(Rc::new).collect();
            let adjacency_bytes =
                overlap.bytes() + exclusives.iter().map(|e| e.bytes()).sum::<u64>();
            plans.insert(
                (s_per, start),
                PartitionPlan {
                    overlap,
                    exclusives,
                    overlap_rate,
                    adjacency_bytes,
                },
            );
        }
        PartitionCatalog {
            plans,
            n_snapshots: n,
        }
    }

    /// Look up an entry.
    pub fn get(&self, s_per: usize, start: usize) -> Option<&PartitionPlan> {
        self.plans.get(&(s_per, start))
    }

    /// Number of snapshots the catalog covers.
    pub fn n_snapshots(&self) -> usize {
        self.n_snapshots
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Mean overlap rate over all partitions with the given `s_per` — the
    /// statistic the tuner combines with the offline table.
    pub fn mean_overlap_rate(&self, s_per: usize) -> f64 {
        let rates: Vec<f64> = self
            .plans
            .iter()
            .filter(|((s, _), _)| *s == s_per)
            .map(|(_, p)| p.overlap_rate)
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            rates.iter().sum::<f64>() / rates.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::GraphAnalyzer;
    use pipad_dyngraph::{DatasetId, Scale};
    use pipad_gpu_sim::DeviceConfig;

    fn catalog() -> (Gpu, GraphAnalyzer, PartitionCatalog) {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
        let mut host = gpu.host_now();
        let analyzer = GraphAnalyzer::run(&mut gpu, &graph, &mut host);
        let catalog = PartitionCatalog::build(&mut gpu, &analyzer, &mut host);
        (gpu, analyzer, catalog)
    }

    #[test]
    fn catalog_covers_all_starts_and_options() {
        let (_gpu, analyzer, catalog) = catalog();
        let n = analyzer.len();
        for &s in &S_PER_OPTIONS {
            for start in 0..=(n - s) {
                assert!(catalog.get(s, start).is_some(), "missing ({s}, {start})");
            }
            assert!(catalog.get(s, n - s + 1).is_none());
        }
    }

    #[test]
    fn partitions_reassemble_to_members() {
        let (_gpu, analyzer, catalog) = catalog();
        let plan = catalog.get(4, 3).unwrap();
        for (k, excl) in plan.exclusives.iter().enumerate() {
            let mut edges = plan.overlap.to_csr().edges();
            edges.extend(excl.to_csr().edges());
            let full =
                pipad_sparse::Csr::from_edges(plan.overlap.n_rows(), plan.overlap.n_cols(), &edges);
            assert_eq!(&full, analyzer.snapshot(3 + k).norm.adj_hat.as_ref());
        }
    }

    #[test]
    fn slow_evolution_gives_high_overlap_and_savings() {
        let (_gpu, analyzer, catalog) = catalog();
        // 10% change per step → pairwise OR around 0.75+, decreasing with s_per
        let or2 = catalog.mean_overlap_rate(2);
        let or8 = catalog.mean_overlap_rate(8);
        assert!(or2 > 0.6, "or2 = {or2}");
        assert!(or2 > or8, "more snapshots → lower OR ({or2} vs {or8})");
        // transfer savings vs shipping full adjacencies
        let plan = catalog.get(4, 0).unwrap();
        let full: u64 = (0..4).map(|i| analyzer.snapshot(i).sliced.bytes()).sum();
        assert!(
            plan.adjacency_bytes < full,
            "split {} vs full {}",
            plan.adjacency_bytes,
            full
        );
    }
}
