//! EvolveGCN-O (Pareja et al., AAAI'20; paper Figure 2b): two layers, each
//! pairing a 1-layer GCN with a GRU that evolves the GCN *weight matrix*
//! along the timeline. Because the weights change per snapshot, the update
//! phase cannot share weights across snapshots (no weight reuse, §4.2) —
//! but the aggregations stay time-independent, so PiPAD's parallel
//! aggregation still applies, and the paper's §5.2 notes the second layer's
//! aggregation survives even under inter-frame reuse.

use crate::cells::GruCell;
use crate::executor::GnnExecutor;
use crate::params::{Binder, Linear, Param};
use crate::training::{DgnnModel, ForwardOutput, ModelKind};
use pipad_autograd::{Tape, Var};
use pipad_gpu_sim::{Gpu, KernelCategory, OomError};
use rand::rngs::StdRng;

/// One EvolveGCN layer: initial weight `w0` plus the weight-evolving GRU.
struct EvolveLayer {
    w0: Param,
    b: Param,
    evolver: GruCell,
}

impl EvolveLayer {
    fn new(
        gpu: &mut Gpu,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Result<Self, OomError> {
        Ok(EvolveLayer {
            w0: Param::glorot(gpu, rng, format!("{name}.w0"), in_dim, out_dim)?,
            b: Param::zeros_bias(gpu, format!("{name}.b"), out_dim)?,
            // EvolveGCN-O: the GRU consumes the previous weight matrix both
            // as input and as hidden state (rows of W are the "batch").
            evolver: GruCell::new(gpu, rng, &format!("{name}.gru"), out_dim, out_dim)?,
        })
    }

    /// Evolve the weight sequence for `t` timesteps: `W_t = GRU(W_{t-1})`.
    fn evolve_weights(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        binder: &mut Binder,
        steps: usize,
    ) -> Result<Vec<Var>, OomError> {
        let mut w = binder.bind(tape, &self.w0);
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            w = self.evolver.step(gpu, tape, binder, w, w)?;
            out.push(w);
        }
        Ok(out)
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = vec![&self.w0, &self.b];
        p.extend(self.evolver.params());
        p
    }
}

/// Per-snapshot update with that snapshot's evolved weight:
/// `relu(a_t @ W_t + b)`.
fn evolved_update(
    gpu: &mut Gpu,
    tape: &mut Tape,
    aggs: &[Var],
    ws: &[Var],
    b: Var,
) -> Result<Vec<Var>, OomError> {
    aggs.iter()
        .zip(ws)
        .map(|(&a, &w)| {
            let h = tape.matmul(gpu, a, w, KernelCategory::Update)?;
            let h = tape.add_bias(gpu, h, b, KernelCategory::Update)?;
            tape.relu(gpu, h, KernelCategory::Update)
        })
        .collect()
}

/// The EvolveGCN model (two evolving layers + a readout head).
pub struct EvolveGcn {
    layer1: EvolveLayer,
    layer2: EvolveLayer,
    head: Linear,
    in_dim: usize,
}

impl EvolveGcn {
    /// Create a new instance.
    pub fn new(
        gpu: &mut Gpu,
        rng: &mut StdRng,
        in_dim: usize,
        hidden: usize,
    ) -> Result<Self, OomError> {
        Ok(EvolveGcn {
            layer1: EvolveLayer::new(gpu, rng, "evolve.l1", in_dim, hidden)?,
            layer2: EvolveLayer::new(gpu, rng, "evolve.l2", hidden, hidden)?,
            head: Linear::new(gpu, rng, "evolve.head", hidden, in_dim)?,
            in_dim,
        })
    }
}

impl DgnnModel for EvolveGcn {
    fn kind(&self) -> ModelKind {
        ModelKind::EvolveGcn
    }

    fn forward_frame(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        exec: &mut dyn GnnExecutor,
    ) -> Result<ForwardOutput, OomError> {
        let mut binder = Binder::new();
        let t = exec.frame_len();

        // Weight evolution is a cheap sequential RNN over small matrices.
        let w1 = self.layer1.evolve_weights(gpu, tape, &mut binder, t)?;
        let w2 = self.layer2.evolve_weights(gpu, tape, &mut binder, t)?;
        let b1 = binder.bind(tape, &self.layer1.b);
        let b2 = binder.bind(tape, &self.layer2.b);

        // Layer 1: parallel-friendly aggregation of raw inputs, then a
        // per-snapshot update with that snapshot's evolved weights.
        let agg1 = exec.aggregate_inputs(gpu, tape)?;
        let h1 = evolved_update(gpu, tape, &agg1, &w1, b1)?;

        // Layer 2: aggregation of hidden features (never cacheable), again
        // followed by evolved-weight updates.
        let agg2 = exec.aggregate_hidden(gpu, tape, &h1)?;
        let h2 = evolved_update(gpu, tape, &agg2, &w2, b2)?;

        let pred = self.head.forward(
            gpu,
            tape,
            &mut binder,
            *h2.last().expect("nonempty frame"),
            KernelCategory::Update,
        )?;
        Ok(ForwardOutput { pred, binder })
    }

    fn hidden_activations(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        exec: &mut dyn GnnExecutor,
    ) -> Result<Option<Vec<Var>>, OomError> {
        let mut binder = Binder::new();
        let w1 = self
            .layer1
            .evolve_weights(gpu, tape, &mut binder, exec.frame_len())?;
        let b1 = binder.bind(tape, &self.layer1.b);
        let agg1 = exec.aggregate_inputs(gpu, tape)?;
        evolved_update(gpu, tape, &agg1, &w1, b1).map(Some)
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.layer1.params();
        p.extend(self.layer2.params());
        p.extend(self.head.params());
        p
    }

    fn out_dim(&self) -> usize {
        self.in_dim
    }

    fn supports_weight_reuse(&self) -> bool {
        false // weights evolve along the timeline (§4.2)
    }

    fn needs_hidden_aggregation(&self) -> bool {
        true // 2nd-layer aggregation survives inter-frame reuse (§5.2)
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
        let mut rng = seeded_rng(5);
        (0..t)
            .map(|_| {
                (
                    Csr::from_edges(n, n, &[(0, 1), (1, 0), (2, 3), (3, 2)]),
                    uniform(&mut rng, n, d, 1.0),
                )
            })
            .collect()
    }

    #[test]
    fn weights_evolve_across_timesteps() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(6);
        let model = EvolveGcn::new(&mut gpu, &mut rng, 2, 3).unwrap();
        let mut tape = Tape::new(s);
        let mut binder = Binder::new();
        let ws = model
            .layer1
            .evolve_weights(&mut gpu, &mut tape, &mut binder, 3)
            .unwrap();
        let w1 = tape.host(ws[0]);
        let w2 = tape.host(ws[1]);
        let w3 = tape.host(ws[2]);
        assert!(w1.max_abs_diff(&w2) > 1e-6, "weights must change over time");
        assert!(w2.max_abs_diff(&w3) > 1e-6);
        tape.finish(&mut gpu);
    }

    #[test]
    fn forward_and_training_step() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(7);
        let model = EvolveGcn::new(&mut gpu, &mut rng, 2, 3).unwrap();
        let data = frame_data(4, 3, 2);
        let target = uniform(&mut rng, 4, 2, 0.5);
        let mut losses = Vec::new();
        for _ in 0..20 {
            let refs: Vec<(&Csr, &Matrix)> = data.iter().map(|(a, f)| (a, f)).collect();
            let mut exec = DirectExecutor::new(&refs);
            let mut tape = Tape::new(s);
            let out = model.forward_frame(&mut gpu, &mut tape, &mut exec).unwrap();
            assert_eq!(tape.host(out.pred).shape(), (4, 2));
            losses.push(tape.mse_loss(&mut gpu, out.pred, &target));
            tape.backward_mse(&mut gpu, out.pred, &target).unwrap();
            out.binder.apply_sgd(&mut gpu, s, &tape, 0.05, true);
            tape.finish(&mut gpu);
        }
        assert!(
            losses.last().unwrap() < &losses[0],
            "loss should fall: {losses:?}"
        );
    }
}
