//! Trainable parameters: device-resident, shared between the model (which
//! owns them across iterations) and the per-frame tapes that use them.

use pipad_autograd::{SharedParam, Tape, Var};
use pipad_gpu_sim::{Gpu, KernelCategory, OomError, StreamId};
use pipad_kernels::{sgd_step, DeviceMatrix};
use pipad_tensor::{glorot_uniform, Matrix};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A named trainable parameter.
#[derive(Clone)]
pub struct Param {
    /// Human-readable name.
    pub name: String,
    /// Device-resident value, shared with the tapes that bind it.
    pub value: SharedParam,
}

impl Param {
    /// Allocate a parameter on the device from an explicit matrix.
    pub fn from_matrix(
        gpu: &mut Gpu,
        name: impl Into<String>,
        m: Matrix,
    ) -> Result<Self, OomError> {
        Ok(Param {
            name: name.into(),
            value: Rc::new(RefCell::new(DeviceMatrix::alloc(gpu, m)?)),
        })
    }

    /// Glorot-initialized `fan_in × fan_out` weight.
    pub fn glorot(
        gpu: &mut Gpu,
        rng: &mut StdRng,
        name: impl Into<String>,
        fan_in: usize,
        fan_out: usize,
    ) -> Result<Self, OomError> {
        Self::from_matrix(gpu, name, glorot_uniform(rng, fan_in, fan_out))
    }

    /// Zero-initialized `1 × n` bias.
    pub fn zeros_bias(gpu: &mut Gpu, name: impl Into<String>, n: usize) -> Result<Self, OomError> {
        Self::from_matrix(gpu, name, Matrix::zeros(1, n))
    }

    /// `(rows, cols)` of the matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.value.borrow().host().shape()
    }

    /// Host-side view of the values.
    pub fn host(&self) -> Matrix {
        self.value.borrow().host().clone()
    }

    /// In-place SGD update (launches the optimizer kernel).
    pub fn sgd_step(&self, gpu: &mut Gpu, stream: StreamId, grad: &Matrix, lr: f32) {
        sgd_step(gpu, stream, &mut self.value.borrow_mut(), grad, lr);
    }
}

/// One registration of a parameter on a tape.
pub struct ParamBinding {
    /// The tape node the parameter is registered as.
    pub var: Var,
    /// The parameter behind the node.
    pub param: Param,
}

/// Deduplicating tape-binder: registering the same parameter twice in one
/// frame (e.g. an LSTM cell applied at every timestep) returns the same
/// [`Var`], so gradients accumulate on a single node.
#[derive(Default)]
pub struct Binder {
    bindings: Vec<ParamBinding>,
    seen: HashMap<usize, Var>,
}

impl Binder {
    /// Create a new instance.
    pub fn new() -> Self {
        Binder::default()
    }

    /// Register `p` on `tape` (or return its existing Var).
    pub fn bind(&mut self, tape: &mut Tape, p: &Param) -> Var {
        let key = Rc::as_ptr(&p.value) as usize;
        if let Some(&v) = self.seen.get(&key) {
            return v;
        }
        let v = tape.param(&p.value);
        self.seen.insert(key, v);
        self.bindings.push(ParamBinding {
            var: v,
            param: p.clone(),
        });
        v
    }

    /// All parameters registered so far, in bind order.
    pub fn bindings(&self) -> &[ParamBinding] {
        &self.bindings
    }

    /// Apply one SGD step per bound parameter from the tape's gradients.
    pub fn apply_sgd(&self, gpu: &mut Gpu, stream: StreamId, tape: &Tape, lr: f32) {
        for b in &self.bindings {
            tape.with_grad(b.var, |g| b.param.sgd_step(gpu, stream, g, lr));
        }
    }
}

/// A dense affine layer `x @ w + b`.
pub struct Linear {
    /// Weight (`in × out`).
    pub w: Param,
    /// Bias (`1 × out`).
    pub b: Param,
}

impl Linear {
    /// Create a new instance.
    pub fn new(
        gpu: &mut Gpu,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Result<Self, OomError> {
        Ok(Linear {
            w: Param::glorot(gpu, rng, format!("{name}.w"), in_dim, out_dim)?,
            b: Param::zeros_bias(gpu, format!("{name}.b"), out_dim)?,
        })
    }

    /// Forward pass.
    pub fn forward(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        binder: &mut Binder,
        x: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        let w = binder.bind(tape, &self.w);
        let b = binder.bind(tape, &self.b);
        let h = tape.matmul(gpu, x, w, category)?;
        tape.add_bias(gpu, h, b, category)
    }

    /// The trainable parameters of this component.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::DeviceConfig;
    use pipad_tensor::seeded_rng;

    #[test]
    fn binder_dedupes_registrations() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(1);
        let p = Param::glorot(&mut gpu, &mut rng, "w", 3, 3).unwrap();
        let mut tape = Tape::new(s);
        let mut binder = Binder::new();
        let a = binder.bind(&mut tape, &p);
        let b = binder.bind(&mut tape, &p);
        assert_eq!(a, b);
        assert_eq!(binder.bindings().len(), 1);
        tape.finish(&mut gpu);
    }

    #[test]
    fn sgd_step_moves_weights_against_gradient() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let p = Param::from_matrix(&mut gpu, "w", Matrix::full(2, 2, 1.0)).unwrap();
        let g = Matrix::full(2, 2, 0.5);
        p.sgd_step(&mut gpu, s, &g, 0.1);
        assert!(p.host().approx_eq(&Matrix::full(2, 2, 0.95), 1e-6));
        // the optimizer kernel was billed
        let b = gpu.profiler().full();
        assert!(b.compute_by_category.contains_key("optimizer"));
    }

    #[test]
    fn linear_trains_toward_target() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(2);
        let lin = Linear::new(&mut gpu, &mut rng, "head", 3, 2).unwrap();
        let x = pipad_tensor::uniform(&mut rng, 8, 3, 1.0);
        let target = pipad_tensor::uniform(&mut rng, 8, 2, 1.0);
        let mut losses = Vec::new();
        for _ in 0..30 {
            let mut tape = Tape::new(s);
            let mut binder = Binder::new();
            let xv = tape.input(DeviceMatrix::alloc(&mut gpu, x.clone()).unwrap());
            let pred = lin
                .forward(&mut gpu, &mut tape, &mut binder, xv, KernelCategory::Update)
                .unwrap();
            losses.push(tape.mse_loss(&mut gpu, pred, &target));
            tape.backward_mse(&mut gpu, pred, &target).unwrap();
            binder.apply_sgd(&mut gpu, s, &tape, 0.2);
            tape.finish(&mut gpu);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss should halve: {losses:?}"
        );
    }
}
