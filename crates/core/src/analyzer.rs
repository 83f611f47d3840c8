//! Low-overhead online graph analyzer (component ❶ of Figure 7).
//!
//! Converts every snapshot from CSR to the sliced format during the
//! preparing epochs, charging the host lane for the (linear) slicing work.
//! This is the cost the paper contrasts with the "onerous node reordering
//! (up to seconds per snapshot)" of GNNAdvisor-style approaches (§2.2) —
//! slicing is a single pass over the edges.

use pipad_dyngraph::DynamicGraph;
use pipad_gpu_sim::{Gpu, SimNanos};
use pipad_models::{normalize_snapshot, NormalizedAdj};
use pipad_sparse::SlicedCsr;
use std::rc::Rc;

/// Host-lane cost of slicing, per edge (ns). One linear pass.
pub const SLICE_NS_PER_EDGE: u64 = 2;

/// Analyzer output for one snapshot.
#[derive(Clone)]
pub struct AnalyzedSnapshot {
    /// Normalized adjacency (`Â = A + I`, inverse degrees).
    pub norm: NormalizedAdj,
    /// The full adjacency in sliced form (used when a partition's overlap
    /// split is not applicable, e.g. a partition of one).
    pub sliced: Rc<SlicedCsr>,
}

/// Online CSR → sliced-CSR analyzer.
pub struct GraphAnalyzer {
    snapshots: Vec<AnalyzedSnapshot>,
}

impl GraphAnalyzer {
    /// Analyze every snapshot on the host lane, which first waits for
    /// `host_cursor`; `host_cursor` gets where the pass ended.
    pub fn run(gpu: &mut Gpu, graph: &DynamicGraph, host_cursor: &mut SimNanos) -> Self {
        gpu.host_wait(*host_cursor);
        let mut snapshots = Vec::with_capacity(graph.len());
        for snap in &graph.snapshots {
            let norm = normalize_snapshot(&snap.adj);
            let cost = SimNanos::from_nanos(
                gpu.cfg().host_op_fixed_ns + SLICE_NS_PER_EDGE * norm.adj_hat.nnz() as u64,
            );
            gpu.host_lane_op("graph_slicing", cost);
            let sliced = Rc::new(SlicedCsr::from_csr(&norm.adj_hat));
            snapshots.push(AnalyzedSnapshot { norm, sliced });
        }
        *host_cursor = gpu.host_now();
        GraphAnalyzer { snapshots }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// One analyzed snapshot by index.
    pub fn snapshot(&self, idx: usize) -> &AnalyzedSnapshot {
        &self.snapshots[idx]
    }

    /// The analyzed snapshots.
    pub fn snapshots(&self) -> &[AnalyzedSnapshot] {
        &self.snapshots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_dyngraph::{DatasetId, Scale};
    use pipad_gpu_sim::DeviceConfig;

    #[test]
    fn analyzer_slices_every_snapshot_and_bills_host() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let graph = DatasetId::Pems08.gen_config(Scale::Tiny).generate();
        let mut host = gpu.host_now();
        let a = GraphAnalyzer::run(&mut gpu, &graph, &mut host);
        assert_eq!(a.len(), graph.len());
        assert!(host > SimNanos::ZERO);
        assert_eq!(gpu.host_now(), host, "the lane ends where the pass does");
        // A cursor ahead of the lane is waited for: a second, equally long
        // pass starts there.
        let mut ahead = host + SimNanos::from_micros(5);
        GraphAnalyzer::run(&mut gpu, &graph, &mut ahead);
        assert_eq!(ahead, host + SimNanos::from_micros(5) + host);
        assert_eq!(gpu.host_now(), ahead);
        for (i, s) in a.snapshots().iter().enumerate() {
            // sliced form reassembles to the self-looped adjacency
            assert_eq!(s.sliced.to_csr(), *s.norm.adj_hat, "snapshot {i}");
        }
        // host work recorded in the profiler (Figure 3's "other" share)
        assert!(gpu.profiler().full().host_time > SimNanos::ZERO);
    }
}
