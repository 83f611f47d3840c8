//! The executor abstraction separating *what* a DGNN computes from *how*
//! its graph kernels are organized.
//!
//! Baseline trainers implement this with one-snapshot-at-a-time kernels;
//! PiPAD implements it with partition-parallel aggregation and the
//! weight-reuse update. [`DirectExecutor`] is the reference implementation
//! used by tests and examples.

use crate::gcn::{normalize_snapshot, NormalizedAdj};
use pipad_autograd::{AggregationKernel, Tape, Var};
use pipad_gpu_sim::{Gpu, KernelCategory, OomError};
use pipad_kernels::upload_matrix;
use pipad_tensor::Matrix;

/// Graph-execution service a model runs against for one frame.
pub trait GnnExecutor {
    /// Number of snapshots in the current frame.
    fn frame_len(&self) -> usize;

    /// Normalized layer-1 aggregations `D̂⁻¹ Â X_t` of the *raw input
    /// features* for every slot. Time-independent, hence cacheable across
    /// frames and epochs (PiPAD's inter-frame reuse hooks in here).
    fn aggregate_inputs(&mut self, gpu: &mut Gpu, tape: &mut Tape) -> Result<Vec<Var>, OomError>;

    /// Normalized aggregations `D̂⁻¹ Â x_t` of per-slot *hidden* features
    /// (layer ≥ 2; not cacheable — the inputs depend on current weights).
    fn aggregate_hidden(
        &mut self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        xs: &[Var],
    ) -> Result<Vec<Var>, OomError>;

    /// FC update `x_t @ w + b` for every slot with shared weights. The
    /// PiPAD implementation fuses this across the partition with the
    /// locality-optimized weight reuse (§4.2); the default is per-slot.
    fn update(
        &mut self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        xs: &[Var],
        w: Var,
        b: Var,
    ) -> Result<Vec<Var>, OomError> {
        xs.iter()
            .map(|&x| {
                let h = tape.matmul(gpu, x, w, KernelCategory::Update)?;
                tape.add_bias(gpu, h, b, KernelCategory::Update)
            })
            .collect()
    }
}

/// Reference executor: uploads everything up front, aggregates one snapshot
/// at a time with the PyG-style scatter kernel, no reuse, no pipelining.
pub struct DirectExecutor {
    norms: Vec<NormalizedAdj>,
    features: Vec<Matrix>,
}

impl DirectExecutor {
    /// Build from a frame's snapshots (adjacency + features per slot).
    pub fn new(snapshots: &[(&pipad_sparse::Csr, &Matrix)]) -> Self {
        DirectExecutor {
            norms: snapshots
                .iter()
                .map(|(a, _)| normalize_snapshot(a))
                .collect(),
            features: snapshots.iter().map(|(_, f)| (*f).clone()).collect(),
        }
    }

    /// Input feature Vars, one per frame slot, device-resident.
    fn inputs(&mut self, gpu: &mut Gpu, tape: &mut Tape) -> Result<Vec<Var>, OomError> {
        let stream = tape.stream();
        self.features
            .iter()
            .map(|f| {
                let dm = upload_matrix(gpu, stream, f, false)?;
                Ok(tape.input(dm))
            })
            .collect()
    }
}

impl GnnExecutor for DirectExecutor {
    fn frame_len(&self) -> usize {
        self.features.len()
    }

    fn aggregate_inputs(&mut self, gpu: &mut Gpu, tape: &mut Tape) -> Result<Vec<Var>, OomError> {
        let xs = self.inputs(gpu, tape)?;
        self.aggregate_hidden(gpu, tape, &xs)
    }

    fn aggregate_hidden(
        &mut self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        xs: &[Var],
    ) -> Result<Vec<Var>, OomError> {
        assert_eq!(xs.len(), self.norms.len(), "one feature Var per slot");
        xs.iter()
            .zip(&self.norms)
            .map(|(&x, norm)| {
                let adj = std::rc::Rc::clone(&norm.adj_hat);
                let agg = tape.spmm(gpu, adj, x, AggregationKernel::CooScatter)?;
                tape.row_scale(gpu, agg, std::rc::Rc::clone(&norm.inv_deg))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::DeviceConfig;
    use pipad_sparse::Csr;
    use pipad_tensor::{seeded_rng, uniform};

    #[test]
    fn direct_executor_aggregates_correctly() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let adj = Csr::from_edges(3, 3, &[(0, 1), (1, 0)]);
        let x = uniform(&mut seeded_rng(1), 3, 2, 1.0);
        let mut exec = DirectExecutor::new(&[(&adj, &x)]);
        let mut tape = Tape::new(s);
        let aggs = exec.aggregate_inputs(&mut gpu, &mut tape).unwrap();
        assert_eq!(aggs.len(), 1);
        // v2 is isolated: mean over {v2} = its own features
        let out = tape.host(aggs[0]);
        assert!((out[(2, 0)] - x[(2, 0)]).abs() < 1e-6);
        // v0: mean of {v0, v1}
        assert!((out[(0, 1)] - (x[(0, 1)] + x[(1, 1)]) / 2.0).abs() < 1e-6);
        tape.finish(&mut gpu);
    }

    #[test]
    fn default_update_is_per_slot() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let adj = Csr::from_edges(2, 2, &[(0, 1), (1, 0)]);
        let x = uniform(&mut seeded_rng(2), 2, 3, 1.0);
        let mut exec = DirectExecutor::new(&[(&adj, &x), (&adj, &x)]);
        let mut tape = Tape::new(s);
        let xs = exec.inputs(&mut gpu, &mut tape).unwrap();
        let w = tape.input(pipad_kernels::DeviceMatrix::alloc(&mut gpu, Matrix::eye(3)).unwrap());
        let b =
            tape.input(pipad_kernels::DeviceMatrix::alloc(&mut gpu, Matrix::zeros(1, 3)).unwrap());
        let hs = exec.update(&mut gpu, &mut tape, &xs, w, b).unwrap();
        assert_eq!(hs.len(), 2);
        assert!(tape.host(hs[0]).approx_eq(&x, 1e-6));
        tape.finish(&mut gpu);
    }
}
