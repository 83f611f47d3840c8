//! Recurrent cells (LSTM [14], GRU [6]) over matrix "batches" of vertex
//! rows, billed to the RNN category of the Figure 4 breakdown.

use crate::params::{Binder, Param};
use pipad_autograd::{Tape, Var};
use pipad_gpu_sim::{Gpu, KernelCategory, OomError};
use pipad_kernels::DeviceMatrix;
use pipad_tensor::Matrix;
use rand::rngs::StdRng;

const RNN: KernelCategory = KernelCategory::Rnn;

/// Standard LSTM cell with fused gate weights: `wx (d × 4h)`, `wh (h × 4h)`,
/// `b (1 × 4h)`; gate order `[i, f, g, o]`.
pub struct LstmCell {
    /// Input-to-gates weight (`input × gates·hidden`).
    pub wx: Param,
    /// Hidden-to-gates weight (`hidden × gates·hidden`).
    pub wh: Param,
    /// Fused gate bias (`1 × gates·hidden`).
    pub b: Param,
}

impl LstmCell {
    /// Create a new instance.
    pub fn new(
        gpu: &mut Gpu,
        rng: &mut StdRng,
        name: &str,
        input: usize,
        hidden: usize,
    ) -> Result<Self, OomError> {
        Ok(LstmCell {
            wx: Param::glorot(gpu, rng, format!("{name}.wx"), input, 4 * hidden)?,
            wh: Param::glorot(gpu, rng, format!("{name}.wh"), hidden, 4 * hidden)?,
            b: Param::zeros_bias(gpu, format!("{name}.b"), 4 * hidden)?,
        })
    }

    /// The whole frame from zero initial states: the hidden state after
    /// each of `xs` (one `n × input` matrix per timestep).
    ///
    /// The input projections do not depend on the recurrence, so they are
    /// one GEMM per frame (cuDNN's layout): the timesteps stacked with
    /// [`Tape::concat_rows`], multiplied once by `wx` in segments of `n`
    /// rows ([`Tape::matmul_segments`]) and cut back apart as free views.
    /// Only `h·wh` and the fused gate algebra run per timestep.
    pub fn run(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        binder: &mut Binder,
        xs: &[Var],
    ) -> Result<Vec<Var>, OomError> {
        let wx = binder.bind(tape, &self.wx);
        let wh = binder.bind(tape, &self.wh);
        let b = binder.bind(tape, &self.b);
        let n = tape.shape(xs[0]).0;
        let x = tape.concat_rows(gpu, xs, RNN)?;
        let gx = tape.matmul_segments(gpu, x, wx, n, RNN)?;
        let gxs = tape.split_rows(gpu, gx, &vec![n; xs.len()], RNN)?;
        // One zero input is both initial states (inputs carry no gradient,
        // so sharing the node is safe).
        let hidden = self.wh.shape().0;
        let zero = tape.input(DeviceMatrix::alloc(gpu, Matrix::zeros_in(n, hidden))?);
        let (mut h, mut c) = (zero, zero);
        let mut hs = Vec::with_capacity(xs.len());
        for gx in gxs {
            let gh = tape.matmul(gpu, h, wh, RNN)?;
            (h, c) = tape.lstm_cell(gpu, gx, gh, b, c, RNN)?;
            hs.push(h);
        }
        Ok(hs)
    }

    /// The trainable parameters of this component.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.b]
    }
}

/// Standard GRU cell: `wx (d × 3h)`, `wh (h × 3h)`, `b (1 × 3h)`; gate
/// order `[r, z, n]`, candidate uses `r ⊙ (h @ Whn)`.
pub struct GruCell {
    /// Input-to-gates weight (`input × gates·hidden`).
    pub wx: Param,
    /// Hidden-to-gates weight (`hidden × gates·hidden`).
    pub wh: Param,
    /// Fused gate bias (`1 × gates·hidden`).
    pub b: Param,
}

impl GruCell {
    /// Create a new instance.
    pub fn new(
        gpu: &mut Gpu,
        rng: &mut StdRng,
        name: &str,
        input: usize,
        hidden: usize,
    ) -> Result<Self, OomError> {
        Ok(GruCell {
            wx: Param::glorot(gpu, rng, format!("{name}.wx"), input, 3 * hidden)?,
            wh: Param::glorot(gpu, rng, format!("{name}.wh"), hidden, 3 * hidden)?,
            b: Param::zeros_bias(gpu, format!("{name}.b"), 3 * hidden)?,
        })
    }

    /// One step: `h' = gru(x, h)`.
    pub fn step(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        binder: &mut Binder,
        x: Var,
        h: Var,
    ) -> Result<Var, OomError> {
        let wx = binder.bind(tape, &self.wx);
        let wh = binder.bind(tape, &self.wh);
        let b = binder.bind(tape, &self.b);
        let gx = tape.matmul(gpu, x, wx, RNN)?;
        let gh = tape.matmul(gpu, h, wh, RNN)?;
        tape.gru_cell(gpu, gx, gh, b, h, RNN)
    }

    /// The trainable parameters of this component.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::DeviceConfig;
    use pipad_kernels::DeviceMatrix;
    use pipad_tensor::{seeded_rng, uniform, Matrix};

    fn setup() -> (Gpu, pipad_gpu_sim::StreamId) {
        let g = Gpu::new(DeviceConfig::v100());
        let s = g.default_stream();
        (g, s)
    }

    #[test]
    fn lstm_run_shapes_and_bounds() {
        let (mut gpu, s) = setup();
        let mut rng = seeded_rng(1);
        let cell = LstmCell::new(&mut gpu, &mut rng, "lstm", 4, 3).unwrap();
        let mut tape = Tape::new(s);
        let mut binder = Binder::new();
        let xs: Vec<Var> = (0..3)
            .map(|_| {
                let x = uniform(&mut rng, 5, 4, 1.0);
                tape.input(DeviceMatrix::alloc(&mut gpu, x).unwrap())
            })
            .collect();
        let hs = cell.run(&mut gpu, &mut tape, &mut binder, &xs).unwrap();
        assert_eq!(hs.len(), 3);
        for h in hs {
            let hm = tape.host(h);
            assert_eq!(hm.shape(), (5, 3));
            // h = o ⊙ tanh(c) ∈ (−1, 1)
            assert!(hm.as_slice().iter().all(|v| v.abs() < 1.0));
        }
        tape.finish(&mut gpu);
    }

    #[test]
    fn gru_interpolates_between_h_and_candidate() {
        let (mut gpu, s) = setup();
        let mut rng = seeded_rng(2);
        let cell = GruCell::new(&mut gpu, &mut rng, "gru", 3, 3).unwrap();
        let mut tape = Tape::new(s);
        let mut binder = Binder::new();
        let x = tape.input(DeviceMatrix::alloc(&mut gpu, uniform(&mut rng, 4, 3, 1.0)).unwrap());
        let h = tape.input(DeviceMatrix::alloc(&mut gpu, Matrix::full(4, 3, 0.5)).unwrap());
        let h2 = cell.step(&mut gpu, &mut tape, &mut binder, x, h).unwrap();
        let hm = tape.host(h2);
        assert_eq!(hm.shape(), (4, 3));
        // new state is a convex-ish combination, bounded by max(|h|, 1)
        assert!(hm.as_slice().iter().all(|v| v.abs() <= 1.0));
        tape.finish(&mut gpu);
    }

    #[test]
    fn cells_train_on_a_memorization_task() {
        // One-step LSTM must learn to map a fixed input to a fixed target.
        let (mut gpu, s) = setup();
        let mut rng = seeded_rng(3);
        let cell = LstmCell::new(&mut gpu, &mut rng, "lstm", 2, 2).unwrap();
        let x_host = uniform(&mut rng, 6, 2, 1.0);
        let target = uniform(&mut rng, 6, 2, 0.5);
        let mut losses = Vec::new();
        for _ in 0..40 {
            let mut tape = Tape::new(s);
            let mut binder = Binder::new();
            let x = tape.input(DeviceMatrix::alloc(&mut gpu, x_host.clone()).unwrap());
            let h2 = cell.run(&mut gpu, &mut tape, &mut binder, &[x]).unwrap()[0];
            losses.push(tape.mse_loss(&mut gpu, h2, &target));
            tape.backward_mse(&mut gpu, h2, &target).unwrap();
            binder.apply_sgd(&mut gpu, s, &tape, 0.5, true);
            tape.finish(&mut gpu);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.95),
            "LSTM failed to learn: {losses:?}"
        );
    }

    #[test]
    fn rnn_work_is_billed_to_rnn_category() {
        let (mut gpu, s) = setup();
        let mut rng = seeded_rng(4);
        let gru = GruCell::new(&mut gpu, &mut rng, "gru", 2, 2).unwrap();
        let lstm = LstmCell::new(&mut gpu, &mut rng, "lstm", 2, 2).unwrap();
        let snap = gpu.profiler().snapshot();
        let mut tape = Tape::new(s);
        let mut binder = Binder::new();
        let x = tape.input(DeviceMatrix::alloc(&mut gpu, Matrix::full(3, 2, 0.1)).unwrap());
        let h = tape.input(DeviceMatrix::alloc(&mut gpu, Matrix::zeros(3, 2)).unwrap());
        gru.step(&mut gpu, &mut tape, &mut binder, x, h).unwrap();
        lstm.run(&mut gpu, &mut tape, &mut binder, &[x, x, x])
            .unwrap();
        let w = gpu.profiler().window(snap);
        assert!(w.compute_by_category.contains_key("rnn"));
        assert!(!w.compute_by_category.contains_key("aggregation"));
        // A GRU step is its two gate GEMMs plus one fused pointwise launch;
        // an LSTM frame is one input projection for all its timesteps, then
        // the recurrent GEMM and the fused cell per timestep.
        let launched: Vec<_> = gpu
            .profiler()
            .samples()
            .since(snap)
            .iter()
            .map(|sm| sm.name)
            .collect();
        assert_eq!(
            launched,
            [
                "gemm",
                "gemm",
                "gru_cell",
                "gemm",
                "gemm",
                "lstm_cell",
                "gemm",
                "lstm_cell",
                "gemm",
                "lstm_cell"
            ]
        );
        tape.finish(&mut gpu);
    }
}
