//! MPNN-LSTM (Panagopoulos et al., AAAI'21; paper Figure 2a): a 2-layer
//! GCN stacked with two LSTMs. The only cross-snapshot dependence is the
//! LSTM hidden-state chain, so the whole GNN phase is snapshot-parallel.

use crate::cells::LstmCell;
use crate::executor::GnnExecutor;
use crate::gcn::GcnLayer;
use crate::params::{Binder, Linear, Param};
use crate::training::{DgnnModel, ForwardOutput, ModelKind};
use pipad_autograd::{Tape, Var};
use pipad_gpu_sim::{Gpu, KernelCategory, OomError};
use rand::rngs::StdRng;

/// The MPNN-LSTM model.
pub struct MpnnLstm {
    gcn1: GcnLayer,
    gcn2: GcnLayer,
    lstm1: LstmCell,
    lstm2: LstmCell,
    head: Linear,
    in_dim: usize,
}

impl MpnnLstm {
    /// Create a new instance.
    pub fn new(
        gpu: &mut Gpu,
        rng: &mut StdRng,
        in_dim: usize,
        hidden: usize,
    ) -> Result<Self, OomError> {
        Ok(MpnnLstm {
            gcn1: GcnLayer::new(gpu, rng, "mpnn.gcn1", in_dim, hidden)?,
            gcn2: GcnLayer::new(gpu, rng, "mpnn.gcn2", hidden, hidden)?,
            lstm1: LstmCell::new(gpu, rng, "mpnn.lstm1", hidden, hidden)?,
            lstm2: LstmCell::new(gpu, rng, "mpnn.lstm2", hidden, hidden)?,
            head: Linear::new(gpu, rng, "mpnn.head", hidden, in_dim)?,
            in_dim,
        })
    }
}

impl DgnnModel for MpnnLstm {
    fn kind(&self) -> ModelKind {
        ModelKind::MpnnLstm
    }

    fn forward_frame(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        exec: &mut dyn GnnExecutor,
    ) -> Result<ForwardOutput, OomError> {
        let mut binder = Binder::new();

        // --- GNN phase (time-independent, snapshot-parallelizable) -------
        // Layer 1: aggregation of the raw inputs (cacheable), then update.
        let agg1 = exec.aggregate_inputs(gpu, tape)?;
        let h1 = self
            .gcn1
            .update_many(gpu, tape, &mut binder, exec, &agg1, true)?;
        // Layer 2: aggregation of hidden features, then update.
        let agg2 = exec.aggregate_hidden(gpu, tape, &h1)?;
        let h2 = self
            .gcn2
            .update_many(gpu, tape, &mut binder, exec, &agg2, true)?;

        // --- temporal phase (sequential over the frame) -------------------
        // lstm2 reads lstm1's outputs and nothing else of it, so lstm1 can
        // run the whole frame before lstm2 does: each then projects all its
        // inputs in one GEMM.
        let h_a = self.lstm1.run(gpu, tape, &mut binder, &h2)?;
        let h_b = self.lstm2.run(gpu, tape, &mut binder, &h_a)?;
        let last = *h_b.last().expect("a frame has at least one snapshot");
        let pred = self
            .head
            .forward(gpu, tape, &mut binder, last, KernelCategory::Update)?;
        Ok(ForwardOutput { pred, binder })
    }

    fn hidden_activations(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        exec: &mut dyn GnnExecutor,
    ) -> Result<Option<Vec<Var>>, OomError> {
        let agg1 = exec.aggregate_inputs(gpu, tape)?;
        self.gcn1
            .update_many(gpu, tape, &mut Binder::new(), exec, &agg1, true)
            .map(Some)
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.gcn1.params();
        p.extend(self.gcn2.params());
        p.extend(self.lstm1.params());
        p.extend(self.lstm2.params());
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
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::DirectExecutor;
    use pipad_gpu_sim::DeviceConfig;
    use pipad_sparse::Csr;
    use pipad_tensor::{seeded_rng, uniform, Matrix};

    fn frame_data(n: usize, t: usize, d: usize) -> Vec<(Csr, Matrix)> {
        let mut rng = seeded_rng(42);
        (0..t)
            .map(|_| {
                let edges = [(0u32, 1u32), (1, 0), (1, 2), (2, 1)];
                (Csr::from_edges(n, n, &edges), uniform(&mut rng, n, d, 1.0))
            })
            .collect()
    }

    #[test]
    fn forward_produces_prediction_of_input_dim() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(1);
        let model = MpnnLstm::new(&mut gpu, &mut rng, 3, 5).unwrap();
        let data = frame_data(4, 3, 3);
        let refs: Vec<(&Csr, &Matrix)> = data.iter().map(|(a, f)| (a, f)).collect();
        let mut exec = DirectExecutor::new(&refs);
        let mut tape = Tape::new(s);
        let out = model.forward_frame(&mut gpu, &mut tape, &mut exec).unwrap();
        assert_eq!(tape.host(out.pred).shape(), (4, 3));
        tape.finish(&mut gpu);
    }

    #[test]
    fn training_reduces_loss() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(2);
        let model = MpnnLstm::new(&mut gpu, &mut rng, 2, 4).unwrap();
        let data = frame_data(5, 3, 2);
        let target = uniform(&mut rng, 5, 2, 0.5);
        let mut losses = Vec::new();
        for _ in 0..25 {
            let refs: Vec<(&Csr, &Matrix)> = data.iter().map(|(a, f)| (a, f)).collect();
            let mut exec = DirectExecutor::new(&refs);
            let mut tape = Tape::new(s);
            let out = model.forward_frame(&mut gpu, &mut tape, &mut exec).unwrap();
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
    fn kernel_stream_covers_all_categories() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(3);
        let model = MpnnLstm::new(&mut gpu, &mut rng, 2, 4).unwrap();
        let data = frame_data(5, 3, 2);
        let refs: Vec<(&Csr, &Matrix)> = data.iter().map(|(a, f)| (a, f)).collect();
        let mut exec = DirectExecutor::new(&refs);
        let snap = gpu.profiler().snapshot();
        let mut tape = Tape::new(s);
        model.forward_frame(&mut gpu, &mut tape, &mut exec).unwrap();
        let w = gpu.profiler().window(snap);
        for cat in ["aggregation", "update", "rnn"] {
            assert!(w.compute_by_category.contains_key(cat), "missing {cat}");
        }
        tape.finish(&mut gpu);
    }
}
