//! Data preparation module (component ❷ of Figure 7): partition-wise
//! overlap extraction.
//!
//! For every candidate `S_per` and every possible partition start index,
//! the snapshots' shared topology is extracted once into an overlap
//! sliced-CSR plus per-snapshot exclusives. The catalog also records each
//! partition's overlap rate — the statistic the dynamic tuner buckets on —
//! and its transfer footprint.
//!
//! [`PartitionCatalog::fill`] extracts every missing plan on the device's
//! data-preparation worker lane ([`Gpu::worker_lane_op`]): the trainer
//! issues it in its prologue, so the extractions run beside the loader
//! under the preparing epochs, and the tuner waits for the worker before
//! it reads them. [`PartitionCatalog::plan`] extracts a missing plan on
//! demand, synchronously on the loader's host lane (the serving engine
//! never fills its catalog). Both go through one extraction with one cost
//! formula, so a plan's bits and its host charge do not depend on which of
//! them made it or on which lane paid for it.

use crate::analyzer::GraphAnalyzer;
use pipad_gpu_sim::{Gpu, SimNanos};
use pipad_sparse::{extract_overlap, Csr, SlicedCsr};
use std::cell::OnceCell;
use std::rc::Rc;

/// Host-lane cost of overlap extraction, per edge examined (ns).
pub const EXTRACT_NS_PER_EDGE: u64 = 3;

/// Name of the host op that extracts one partition's plan.
pub const EXTRACTION_OP: &str = "overlap_extraction";

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

/// One partition's extraction: the members' normalized adjacencies, ready
/// to split on any thread.
struct Extraction<'a> {
    members: Vec<&'a Csr>,
}

impl<'a> Extraction<'a> {
    /// The members of `[start, start + s_per)`.
    fn new(analyzer: &'a GraphAnalyzer, s_per: usize, start: usize) -> Self {
        let members = (start..start + s_per)
            .map(|i| analyzer.snapshot(i).norm.adj_hat.as_ref())
            .collect();
        Extraction { members }
    }

    /// Host time of the `overlap_extraction` op: a fixed overhead plus
    /// every member edge examined.
    fn cost(&self, gpu: &Gpu) -> SimNanos {
        let total_edges: usize = self.members.iter().map(|m| m.nnz()).sum();
        SimNanos::from_nanos(gpu.cfg().host_op_fixed_ns + EXTRACT_NS_PER_EDGE * total_edges as u64)
    }

    /// The split itself: pure per-partition work that returns plain owned
    /// data, so it can cross threads (`Rc` wrapping happens in
    /// [`Split::into_plan`]).
    fn run(&self) -> Split {
        let total_edges: usize = self.members.iter().map(|m| m.nnz()).sum();
        let split = extract_overlap(&self.members);
        let mean_edges = (total_edges as f64 / self.members.len() as f64).max(1.0);
        Split {
            overlap_rate: (split.overlap.nnz() as f64 / mean_edges).min(1.0),
            overlap: SlicedCsr::from_csr(&split.overlap),
            exclusives: split.exclusives.iter().map(SlicedCsr::from_csr).collect(),
        }
    }
}

/// An extracted split before it is shared.
struct Split {
    overlap: SlicedCsr,
    exclusives: Vec<SlicedCsr>,
    overlap_rate: f64,
}

impl Split {
    fn into_plan(self) -> PartitionPlan {
        let overlap = Rc::new(self.overlap);
        let exclusives: Vec<Rc<SlicedCsr>> = self.exclusives.into_iter().map(Rc::new).collect();
        let adjacency_bytes = overlap.bytes() + exclusives.iter().map(|e| e.bytes()).sum::<u64>();
        PartitionPlan {
            overlap,
            exclusives,
            overlap_rate: self.overlap_rate,
            adjacency_bytes,
        }
    }
}

/// Catalog of partition plans for all `(s_per, start)` combinations,
/// filled on demand.
pub struct PartitionCatalog {
    /// Per entry of [`S_PER_OPTIONS`], one cell per start: iterated in
    /// that order, the canonical extraction order.
    plans: [Vec<OnceCell<PartitionPlan>>; S_PER_OPTIONS.len()],
    n_snapshots: usize,
}

impl PartitionCatalog {
    /// An empty catalog over `n_snapshots` snapshots. Extracts nothing.
    pub fn new(n_snapshots: usize) -> Self {
        let starts = |s_per: usize| (n_snapshots + 1).saturating_sub(s_per);
        PartitionCatalog {
            plans: S_PER_OPTIONS.map(|s| (0..starts(s)).map(|_| OnceCell::new()).collect()),
            n_snapshots,
        }
    }

    /// A catalog with every plan extracted: the host lane first waits for
    /// `host_cursor`, hands the extractions to the worker lane and waits
    /// for it, and `host_cursor` gets where the pass ended. Partitions of
    /// one snapshot need no plan (they use the full sliced adjacency
    /// directly).
    pub fn build(gpu: &mut Gpu, analyzer: &GraphAnalyzer, host_cursor: &mut SimNanos) -> Self {
        gpu.host_wait(*host_cursor);
        let catalog = Self::new(analyzer.len());
        catalog.fill(gpu, analyzer);
        gpu.host_wait(gpu.worker_lane_now());
        *host_cursor = gpu.host_now();
        catalog
    }

    /// Extract every plan not extracted yet. The worker lane is charged
    /// serially in the canonical order, from where the host lane hands the
    /// work off, so simulated time is identical at every thread count; the
    /// splits themselves fan out across the pool. The host lane does not
    /// move: a reader that needs the plans' time waits for
    /// [`Gpu::worker_lane_now`].
    pub fn fill(&self, gpu: &mut Gpu, analyzer: &GraphAnalyzer) {
        debug_assert_eq!(analyzer.len(), self.n_snapshots);
        let mut missing = Vec::new();
        let mut work = Vec::new();
        for (&s_per, cells) in S_PER_OPTIONS.iter().zip(&self.plans) {
            for (start, cell) in cells.iter().enumerate() {
                if cell.get().is_none() {
                    let extraction = Extraction::new(analyzer, s_per, start);
                    gpu.worker_lane_op(EXTRACTION_OP, extraction.cost(gpu));
                    missing.push(cell);
                    work.push(extraction);
                }
            }
        }
        let splits = pipad_pool::par_map(&work, Extraction::run);
        for (cell, split) in missing.into_iter().zip(splits) {
            // Empty when charged, and nothing since could fill it.
            let _ = cell.set(split.into_plan());
        }
    }

    /// The plan of `[start, start + s_per)`, extracted now on the host
    /// lane if no one has asked for it before; `None` if `s_per` is not a
    /// candidate or the partition runs past the last snapshot.
    pub fn plan(
        &self,
        gpu: &mut Gpu,
        analyzer: &GraphAnalyzer,
        s_per: usize,
        start: usize,
    ) -> Option<&PartitionPlan> {
        debug_assert_eq!(analyzer.len(), self.n_snapshots);
        Some(self.cells(s_per)?.get(start)?.get_or_init(|| {
            let extraction = Extraction::new(analyzer, s_per, start);
            gpu.host_lane_op(EXTRACTION_OP, extraction.cost(gpu));
            extraction.run().into_plan()
        }))
    }

    /// The plan of `[start, start + s_per)` if it has been extracted.
    pub fn get(&self, s_per: usize, start: usize) -> Option<&PartitionPlan> {
        self.cells(s_per)?.get(start)?.get()
    }

    /// The cells of option `s_per`, one per start.
    fn cells(&self, s_per: usize) -> Option<&[OnceCell<PartitionPlan>]> {
        let k = S_PER_OPTIONS.iter().position(|&s| s == s_per)?;
        Some(&self.plans[k])
    }

    /// Number of snapshots the catalog covers.
    pub fn n_snapshots(&self) -> usize {
        self.n_snapshots
    }

    /// Number of plans extracted so far.
    pub fn len(&self) -> usize {
        let extracted =
            |cells: &Vec<OnceCell<_>>| cells.iter().filter(|c| c.get().is_some()).count();
        self.plans.iter().map(extracted).sum()
    }

    /// Whether no plan has been extracted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mean overlap rate over all partitions with the given `s_per`, summed
    /// in start order (extracting any plan not extracted yet) — the
    /// statistic the tuner combines with the offline table.
    pub fn mean_overlap_rate(&self, gpu: &mut Gpu, analyzer: &GraphAnalyzer, s_per: usize) -> f64 {
        let starts = self.cells(s_per).map_or(0, |cells| cells.len());
        let rates: Vec<f64> = (0..starts)
            .filter_map(|start| self.plan(gpu, analyzer, s_per, start))
            .map(|p| p.overlap_rate)
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

    fn analyzed() -> (Gpu, GraphAnalyzer) {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
        let mut host = gpu.host_now();
        let analyzer = GraphAnalyzer::run(&mut gpu, &graph, &mut host);
        (gpu, analyzer)
    }

    fn catalog() -> (Gpu, GraphAnalyzer, PartitionCatalog) {
        let (mut gpu, analyzer) = analyzed();
        let mut host = gpu.host_now();
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
        assert!(catalog.get(3, 0).is_none(), "3 is not a candidate S_per");
    }

    #[test]
    fn on_demand_plans_are_builds_plans_at_builds_host_cost() {
        let (mut g_build, analyzer) = analyzed();
        let before = g_build.host_now();
        let mut host = before;
        let built = PartitionCatalog::build(&mut g_build, &analyzer, &mut host);
        let build_ns = (g_build.host_now() - before).as_nanos();

        let (mut gpu, analyzer) = analyzed();
        let lazy = PartitionCatalog::new(analyzer.len());
        let t0 = gpu.host_now();
        assert!(lazy.is_empty(), "a new catalog extracts nothing");
        assert_eq!(gpu.host_now(), t0, "a new catalog charges nothing");
        let n = analyzer.len();
        for &s in &S_PER_OPTIONS {
            for start in 0..=(n - s) {
                let a = lazy.plan(&mut gpu, &analyzer, s, start).unwrap();
                let b = built.get(s, start).unwrap();
                assert_eq!(a.overlap, b.overlap, "({s}, {start}) overlap");
                assert_eq!(a.exclusives, b.exclusives, "({s}, {start}) exclusives");
                assert_eq!(a.overlap_rate.to_bits(), b.overlap_rate.to_bits());
                assert_eq!(a.adjacency_bytes, b.adjacency_bytes);
                // A plan asked for again is not extracted again.
                let charged = gpu.host_now();
                lazy.plan(&mut gpu, &analyzer, s, start).unwrap();
                assert_eq!(gpu.host_now(), charged, "({s}, {start}) charged twice");
            }
        }
        assert_eq!((gpu.host_now() - t0).as_nanos(), build_ns);
        assert_eq!(lazy.len(), built.len());
        // Nothing is missing, so filling charges neither lane.
        let worker = gpu.worker_lane_now();
        lazy.fill(&mut gpu, &analyzer);
        assert_eq!((gpu.host_now() - t0).as_nanos(), build_ns);
        assert_eq!(gpu.worker_lane_now(), worker);
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
        let (mut gpu, analyzer, catalog) = catalog();
        // 10% change per step → pairwise OR around 0.75+, decreasing with s_per
        let or2 = catalog.mean_overlap_rate(&mut gpu, &analyzer, 2);
        let or8 = catalog.mean_overlap_rate(&mut gpu, &analyzer, 8);
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
