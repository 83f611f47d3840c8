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

    /// One multi-tensor SGD launch over every bound parameter backward
    /// reached, reading the tape's gradients in place. `finite` is the
    /// loss's device-side flag ([`sgd_step`]): a step captured in a graph is
    /// launched whatever the loss and writes nothing when it is `false`.
    pub fn apply_sgd(&self, gpu: &mut Gpu, stream: StreamId, tape: &Tape, lr: f32, finite: bool) {
        let pairs: Vec<_> = self
            .bindings
            .iter()
            .filter_map(|b| tape.with_grad(b.var, |g| (&*b.param.value, g)))
            .collect();
        sgd_step(gpu, stream, &pairs, lr, finite);
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
    fn one_sgd_launch_moves_every_bound_weight_against_its_gradient() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let w = Param::from_matrix(&mut gpu, "w", Matrix::full(2, 2, 1.0)).unwrap();
        let b = Param::from_matrix(&mut gpu, "b", Matrix::full(1, 2, 1.0)).unwrap();
        let mut tape = Tape::new(s);
        let mut binder = Binder::new();
        let x = tape.input(DeviceMatrix::alloc(&mut gpu, Matrix::full(2, 2, 1.0)).unwrap());
        let (wv, bv) = (binder.bind(&mut tape, &w), binder.bind(&mut tape, &b));
        let h = tape
            .matmul(&mut gpu, x, wv, KernelCategory::Update)
            .unwrap();
        let y = tape
            .add_bias(&mut gpu, h, bv, KernelCategory::Update)
            .unwrap();
        let seed = DeviceMatrix::alloc(&mut gpu, Matrix::full(2, 2, 0.25)).unwrap();
        tape.backward_from(&mut gpu, y, seed).unwrap();

        // A non-finite loss: the launch happens, nothing is written.
        let snap = gpu.profiler().snapshot();
        binder.apply_sgd(&mut gpu, s, &tape, 0.1, false);
        assert_eq!(gpu.profiler().window(snap).kernel_launches, 1);
        assert_eq!(w.host(), Matrix::full(2, 2, 1.0));
        assert_eq!(b.host(), Matrix::full(1, 2, 1.0));

        let snap = gpu.profiler().snapshot();
        binder.apply_sgd(&mut gpu, s, &tape, 0.1, true);
        let window = gpu.profiler().window(snap);
        assert_eq!(window.kernel_launches, 1, "one launch for both tensors");
        assert!(window.compute_by_category.contains_key("optimizer"));
        // dW = xᵀ·0.25 = 0.5 per element, db = column sums = 0.5.
        assert!(w.host().approx_eq(&Matrix::full(2, 2, 0.95), 1e-6));
        assert!(b.host().approx_eq(&Matrix::full(1, 2, 0.95), 1e-6));
        tape.finish(&mut gpu);
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
            binder.apply_sgd(&mut gpu, s, &tape, 0.2, true);
            tape.finish(&mut gpu);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss should halve: {losses:?}"
        );
    }
}
