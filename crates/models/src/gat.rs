//! GAT-RNN — the attention-based extension model demonstrating the paper's
//! §1 claim that the PiPAD methodology generalizes beyond GCN ("with the
//! SpMM-like aggregation being the foundation of mainstream GNNs (e.g.,
//! Graph Attention Network), our methodology thus can be applied to
//! various types of DGNNs").
//!
//! One GAT layer per snapshot (attention-weighted aggregation, fully
//! differentiable through the softmax) feeding a GRU over the frame.
//! Because the attention coefficients depend on the current weights,
//! neither inter-frame reuse nor weight reuse applies — what PiPAD still
//! buys for this model is the overlap-aware transfer and the pipeline;
//! the shared-index parallel kernel for attention values lives in
//! `pipad_kernels::spmm_sliced_parallel_values`.

use crate::cells::GruCell;
use crate::executor::GnnExecutor;
use crate::params::{Binder, Linear, Param};
use crate::training::{DgnnModel, ForwardOutput, ModelKind};
use pipad_autograd::{Tape, Var};
use pipad_gpu_sim::{Gpu, KernelCategory, OomError};
use pipad_kernels::DeviceMatrix;
use pipad_sparse::Csr;
use pipad_tensor::Matrix;
use rand::rngs::StdRng;
use std::rc::Rc;

/// One graph-attention layer (single head).
pub struct GatLayer {
    /// Feature projection (`in × out`).
    pub w: Param,
    /// Left (source) attention projection (`out × 1`).
    pub a_l: Param,
    /// Right (destination) attention projection (`out × 1`).
    pub a_r: Param,
    /// Leaky-ReLU slope for the attention logits.
    pub negative_slope: f32,
}

impl GatLayer {
    /// Create a new instance.
    pub fn new(
        gpu: &mut Gpu,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Result<Self, OomError> {
        Ok(GatLayer {
            w: Param::glorot(gpu, rng, format!("{name}.w"), in_dim, out_dim)?,
            a_l: Param::glorot(gpu, rng, format!("{name}.a_l"), out_dim, 1)?,
            a_r: Param::glorot(gpu, rng, format!("{name}.a_r"), out_dim, 1)?,
            negative_slope: 0.2,
        })
    }

    /// `relu(gat_aggregate(Â, x W))` for one snapshot.
    pub fn forward(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        binder: &mut Binder,
        adj: Rc<Csr>,
        x: Var,
    ) -> Result<Var, OomError> {
        let w = binder.bind(tape, &self.w);
        let al = binder.bind(tape, &self.a_l);
        let ar = binder.bind(tape, &self.a_r);
        let h = tape.matmul(gpu, x, w, KernelCategory::Update)?;
        let l = tape.matmul(gpu, h, al, KernelCategory::Aggregation)?;
        let r = tape.matmul(gpu, h, ar, KernelCategory::Aggregation)?;
        let agg = tape.gat_aggregate(gpu, adj, h, l, r, self.negative_slope)?;
        tape.relu(gpu, agg, KernelCategory::Update)
    }

    /// The trainable parameters of this component.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.a_l, &self.a_r]
    }
}

/// The GAT-RNN extension model: per-snapshot GAT + a GRU over the frame.
pub struct GatRnn {
    gat: GatLayer,
    gru: GruCell,
    head: Linear,
    in_dim: usize,
    hidden: usize,
}

impl GatRnn {
    /// Create a new instance.
    pub fn new(
        gpu: &mut Gpu,
        rng: &mut StdRng,
        in_dim: usize,
        hidden: usize,
    ) -> Result<Self, OomError> {
        Ok(GatRnn {
            gat: GatLayer::new(gpu, rng, "gat.layer", in_dim, hidden)?,
            gru: GruCell::new(gpu, rng, "gat.gru", hidden, hidden)?,
            head: Linear::new(gpu, rng, "gat.head", hidden, in_dim)?,
            in_dim,
            hidden,
        })
    }
}

impl DgnnModel for GatRnn {
    fn kind(&self) -> ModelKind {
        ModelKind::GatRnn
    }

    fn forward_frame(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        exec: &mut dyn GnnExecutor,
    ) -> Result<ForwardOutput, OomError> {
        let mut binder = Binder::new();
        let xs = exec.inputs(gpu, tape)?;
        let embeddings: Vec<Var> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let adj = exec
                    .adjacency(i)
                    .expect("GAT-RNN needs per-slot adjacency from the executor");
                self.gat.forward(gpu, tape, &mut binder, adj, x)
            })
            .collect::<Result<_, _>>()?;
        let n = tape.shape(embeddings[0]).0;
        let mut h = tape.input(DeviceMatrix::alloc(gpu, Matrix::zeros(n, self.hidden))?);
        for &e in &embeddings {
            h = self.gru.step(gpu, tape, &mut binder, e, h)?;
        }
        let pred = self
            .head
            .forward(gpu, tape, &mut binder, h, KernelCategory::Update)?;
        Ok(ForwardOutput { pred, binder })
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.gat.params();
        p.extend(self.gru.params());
        p.extend(self.head.params());
        p
    }

    fn out_dim(&self) -> usize {
        self.in_dim
    }

    fn supports_weight_reuse(&self) -> bool {
        false // attention weighs every snapshot differently
    }

    fn needs_hidden_aggregation(&self) -> bool {
        true // the adjacency must stay resident every frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::DirectExecutor;
    use pipad_gpu_sim::DeviceConfig;
    use pipad_tensor::{seeded_rng, uniform};

    fn frame_data(n: usize, t: usize, d: usize) -> Vec<(Csr, Matrix)> {
        let mut rng = seeded_rng(60);
        (0..t)
            .map(|_| {
                (
                    Csr::from_edges(n, n, &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]),
                    uniform(&mut rng, n, d, 1.0),
                )
            })
            .collect()
    }

    #[test]
    fn gat_rnn_trains() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(61);
        let model = GatRnn::new(&mut gpu, &mut rng, 2, 4).unwrap();
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
            out.binder.apply_sgd(&mut gpu, s, &tape, 0.1);
            tape.finish(&mut gpu);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.95),
            "loss: {losses:?}"
        );
        // attention parameters actually moved (full gradients, not detached)
        let al0 = crate::params::Param::glorot(&mut gpu, &mut seeded_rng(61), "ref", 2, 4);
        drop(al0);
    }

    #[test]
    fn attention_params_receive_gradients() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(62);
        let model = GatRnn::new(&mut gpu, &mut rng, 2, 4).unwrap();
        let before = model.gat.a_l.host();
        let data = frame_data(5, 3, 2);
        let target = uniform(&mut rng, 5, 2, 0.5);
        for _ in 0..5 {
            let refs: Vec<(&Csr, &Matrix)> = data.iter().map(|(a, f)| (a, f)).collect();
            let mut exec = DirectExecutor::new(&refs);
            let mut tape = Tape::new(s);
            let out = model.forward_frame(&mut gpu, &mut tape, &mut exec).unwrap();
            tape.backward_mse(&mut gpu, out.pred, &target).unwrap();
            out.binder.apply_sgd(&mut gpu, s, &tape, 0.2);
            tape.finish(&mut gpu);
        }
        assert!(
            model.gat.a_l.host().max_abs_diff(&before) > 1e-6,
            "attention projection must train"
        );
    }
}
