//! T-GCN (Zhao et al., T-ITS'19; paper Figure 2c): a GRU whose input
//! transforms are 1-layer GCNs — "integrates several 1-layer GCNs into GRU
//! by replacing the original GEMM".
//!
//! All three gates consume graph convolutions of the *raw* node features
//! `X_t`; the hidden path stays dense. The shared input aggregation
//! `D̂⁻¹ Â X_t` is computed once per snapshot and is exactly the quantity
//! inter-frame reuse caches — which is why the paper observes that with
//! reuse enabled T-GCN has *no aggregation left at all* (§5.2) and PyGT-G's
//! GE-SpMM advantage evaporates on this model.

use crate::executor::GnnExecutor;
use crate::gcn::GcnLayer;
use crate::params::{Binder, Linear, Param};
use crate::training::{DgnnModel, ForwardOutput, ModelKind};
use pipad_autograd::Tape;
use pipad_gpu_sim::{Gpu, KernelCategory, OomError};
use pipad_kernels::DeviceMatrix;
use pipad_tensor::Matrix;
use rand::rngs::StdRng;

const RNN: KernelCategory = KernelCategory::Rnn;

/// The T-GCN model.
pub struct TGcn {
    /// Per-gate graph convolutions over the input features (z, r, n).
    gcn_z: GcnLayer,
    gcn_r: GcnLayer,
    gcn_n: GcnLayer,
    /// Dense hidden-path transforms.
    u_z: Param,
    u_r: Param,
    u_n: Param,
    head: Linear,
    in_dim: usize,
    hidden: usize,
}

impl TGcn {
    /// Create a new instance.
    pub fn new(
        gpu: &mut Gpu,
        rng: &mut StdRng,
        in_dim: usize,
        hidden: usize,
    ) -> Result<Self, OomError> {
        Ok(TGcn {
            gcn_z: GcnLayer::new(gpu, rng, "tgcn.gcn_z", in_dim, hidden)?,
            gcn_r: GcnLayer::new(gpu, rng, "tgcn.gcn_r", in_dim, hidden)?,
            gcn_n: GcnLayer::new(gpu, rng, "tgcn.gcn_n", in_dim, hidden)?,
            u_z: Param::glorot(gpu, rng, "tgcn.u_z", hidden, hidden)?,
            u_r: Param::glorot(gpu, rng, "tgcn.u_r", hidden, hidden)?,
            u_n: Param::glorot(gpu, rng, "tgcn.u_n", hidden, hidden)?,
            head: Linear::new(gpu, rng, "tgcn.head", hidden, in_dim)?,
            in_dim,
            hidden,
        })
    }
}

impl DgnnModel for TGcn {
    fn kind(&self) -> ModelKind {
        ModelKind::TGcn
    }

    fn forward_frame(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        exec: &mut dyn GnnExecutor,
    ) -> Result<ForwardOutput, OomError> {
        let mut binder = Binder::new();

        // One shared input aggregation per snapshot serves all three gates
        // (and is what inter-frame reuse caches).
        let aggs = exec.aggregate_inputs(gpu, tape)?;
        // Gate-specific GCN updates, batched over the frame so PiPAD's
        // weight reuse can fuse them.
        let zx = self
            .gcn_z
            .update_many(gpu, tape, &mut binder, exec, &aggs, false)?;
        let rx = self
            .gcn_r
            .update_many(gpu, tape, &mut binder, exec, &aggs, false)?;
        let nx = self
            .gcn_n
            .update_many(gpu, tape, &mut binder, exec, &aggs, false)?;

        let uz = binder.bind(tape, &self.u_z);
        let ur = binder.bind(tape, &self.u_r);
        let un = binder.bind(tape, &self.u_n);

        let n_vertices = tape.shape(zx[0]).0;
        let mut h = tape.input(DeviceMatrix::alloc(
            gpu,
            Matrix::zeros(n_vertices, self.hidden),
        )?);
        for t in 0..exec.frame_len() {
            let zh = tape.matmul(gpu, h, uz, RNN)?;
            let z = tape.sigmoid_add(gpu, zx[t], zh, RNN)?;
            let rh = tape.matmul(gpu, h, ur, RNN)?;
            let r = tape.sigmoid_add(gpu, rx[t], rh, RNN)?;
            let rh2 = tape.hadamard(gpu, r, h, RNN)?;
            let nh = tape.matmul(gpu, rh2, un, RNN)?;
            h = tape.gru_blend(gpu, z, nx[t], nh, h, RNN)?;
        }
        let pred = self
            .head
            .forward(gpu, tape, &mut binder, h, KernelCategory::Update)?;
        Ok(ForwardOutput { pred, binder })
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.gcn_z.params();
        p.extend(self.gcn_r.params());
        p.extend(self.gcn_n.params());
        p.push(&self.u_z);
        p.push(&self.u_r);
        p.push(&self.u_n);
        p.extend(self.head.params());
        p
    }

    fn out_dim(&self) -> usize {
        self.in_dim
    }

    fn supports_weight_reuse(&self) -> bool {
        true
    }

    fn needs_hidden_aggregation(&self) -> bool {
        false // all aggregation is over raw inputs → fully cacheable (§5.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::DirectExecutor;
    use pipad_gpu_sim::DeviceConfig;
    use pipad_sparse::Csr;
    use pipad_tensor::{seeded_rng, uniform};

    fn frame_data(n: usize, t: usize, d: usize) -> Vec<(Csr, Matrix)> {
        let mut rng = seeded_rng(8);
        (0..t)
            .map(|_| {
                (
                    Csr::from_edges(n, n, &[(0, 1), (1, 0), (1, 2), (2, 1)]),
                    uniform(&mut rng, n, d, 1.0),
                )
            })
            .collect()
    }

    #[test]
    fn forward_shapes_and_training() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(9);
        let model = TGcn::new(&mut gpu, &mut rng, 2, 4).unwrap();
        let data = frame_data(5, 3, 2);
        let target = uniform(&mut rng, 5, 2, 0.5);
        let mut losses = Vec::new();
        for _ in 0..25 {
            let refs: Vec<(&Csr, &Matrix)> = data.iter().map(|(a, f)| (a, f)).collect();
            let mut exec = DirectExecutor::new(&refs);
            let mut tape = Tape::new(s);
            let out = model.forward_frame(&mut gpu, &mut tape, &mut exec).unwrap();
            assert_eq!(tape.host(out.pred).shape(), (5, 2));
            losses.push(tape.mse_loss(&mut gpu, out.pred, &target));
            tape.backward_mse(&mut gpu, out.pred, &target).unwrap();
            out.binder.apply_sgd(&mut gpu, s, &tape, 0.1, true);
            tape.finish(&mut gpu);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.95),
            "loss: {losses:?}"
        );
    }

    #[test]
    fn aggregation_count_is_one_per_snapshot() {
        // All three gates share a single input aggregation per snapshot —
        // 3 snapshots → 3 aggregation launches + 3 row_scale launches.
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(10);
        let model = TGcn::new(&mut gpu, &mut rng, 2, 4).unwrap();
        let data = frame_data(5, 3, 2);
        let refs: Vec<(&Csr, &Matrix)> = data.iter().map(|(a, f)| (a, f)).collect();
        let mut exec = DirectExecutor::new(&refs);
        let snap = gpu.profiler().snapshot();
        let mut tape = Tape::new(s);
        model.forward_frame(&mut gpu, &mut tape, &mut exec).unwrap();
        let agg_launches = gpu.profiler().samples()[snap.from..]
            .iter()
            .filter(|sm| sm.name == "spmm_coo_scatter")
            .count();
        assert_eq!(agg_launches, 3);
        tape.finish(&mut gpu);
    }
}
