//! The autodiff tape.

use pipad_gpu_sim::{Gpu, KernelCategory, OomError, StreamId};
use pipad_kernels as k;
use pipad_kernels::{Axis, DeviceMatrix};
use pipad_pool as pool;
use pipad_sparse::{Csr, SlicedCsr};
use pipad_tensor::Matrix;
use std::cell::{Ref, RefCell};
use std::ops::Deref;
use std::rc::Rc;

/// Which aggregation kernel a [`Tape::spmm`] op uses (forward and backward).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregationKernel {
    /// PyG-style COO gather/scatter (PyGT, PyGT-A, PyGT-R).
    CooScatter,
    /// GE-SpMM shared-memory CSR kernel (PyGT-G).
    GeSpmm,
}

/// A parameter shared between the model (which owns it across iterations)
/// and the tapes that use it.
pub type SharedParam = Rc<RefCell<DeviceMatrix>>;

/// Handle to a tape node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

enum Value {
    Owned(DeviceMatrix),
    Shared(SharedParam),
}

/// Borrow guard over a node's device value.
enum DevRef<'a> {
    Owned(&'a DeviceMatrix),
    Shared(Ref<'a, DeviceMatrix>),
}

impl Deref for DevRef<'_> {
    type Target = DeviceMatrix;
    fn deref(&self) -> &DeviceMatrix {
        match self {
            DevRef::Owned(m) => m,
            DevRef::Shared(r) => r,
        }
    }
}

enum Op {
    Input,
    Param,
    /// `x × w`, `x` stacked from row segments `seg` high (all of `x` for a
    /// plain product): the weight gradient folds one partial per segment.
    MatMul {
        x: Var,
        w: Var,
        seg: usize,
    },
    Spmm {
        adj: Rc<Csr>,
        x: Var,
        kernel: AggregationKernel,
    },
    /// Sliced aggregation; backward maps the gradient through `adj_t`,
    /// absent only when `x` carries no gradient.
    SpmmSliced {
        adj_t: Option<Rc<SlicedCsr>>,
        x: Var,
        s_per: usize,
    },
    /// Fused partition aggregation (PiPAD §4.2): one parallel pass over the
    /// overlap topology serving all members, per-member exclusive passes
    /// accumulated via atomic epilogues, and one normalization pass.
    /// Output is the coalescent normalized matrix `n × (s·d)`.
    SpmmPartition {
        overlap: Option<Rc<SlicedCsr>>,
        exclusives: Vec<Rc<SlicedCsr>>,
        xs: Vec<Var>,
        inv_degs: Vec<Rc<Vec<f32>>>,
    },
    RowScale {
        x: Var,
        factors: Rc<Vec<f32>>,
    },
    Add(Var, Var),
    Hadamard(Var, Var),
    AffineConst {
        x: Var,
        mul: f32,
    },
    AddBias {
        x: Var,
        b: Var,
    },
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    ConcatRows(Vec<Var>),
    /// First of the `parts` views [`Tape::split_rows`] / [`Tape::split_cols`]
    /// cut `x` into along `axis`; the others are the [`Op::SplitPart`] nodes
    /// pushed right after it, whose gradients this node's backward gathers
    /// with its own.
    Split {
        x: Var,
        axis: Axis,
        parts: usize,
    },
    /// A later view of the [`Op::Split`] group just before it.
    SplitPart,
    /// The one-view op the split replaced, whose backward zero-pads the
    /// gradient to the parent's shape: the reference the `split_oracle`
    /// tests fold against.
    #[cfg(test)]
    SlicePadded {
        x: Var,
        axis: Axis,
        from: usize,
    },
    /// Fused LSTM gate algebra ([`Tape::lstm_cell`]). This node is `h′`;
    /// `c′` is the [`Op::CellState`] node `c_out` pushed right after it,
    /// whose gradient this node's backward consumes.
    LstmCell {
        gx: Var,
        gh: Var,
        b: Var,
        c: Var,
        c_out: Var,
        /// `[i | f | g | o | tanh(c′)]`, saved by the forward launch.
        saved: DeviceMatrix,
    },
    /// Second output of the [`Op::LstmCell`] node just before it.
    CellState,
    /// Fused GRU gate algebra ([`Tape::gru_cell`]).
    GruCell {
        gx: Var,
        gh: Var,
        b: Var,
        h: Var,
        /// `[r | z | n]`, saved by the forward launch.
        saved: DeviceMatrix,
    },
    /// `σ(a + b)` ([`Tape::sigmoid_add`]).
    SigmoidAdd(Var, Var),
    /// GRU tail ([`Tape::gru_blend`]).
    GruBlend {
        z: Var,
        nx: Var,
        nh: Var,
        h: Var,
        /// The candidate `tanh(nx + nh)`, saved by the forward launch.
        n: DeviceMatrix,
    },
}

struct Node {
    value: Value,
    /// Shared so one gradient buffer can be several parents' gradient
    /// (an LSTM's `dgx` and `dgh` are the same matrix); whoever drops the
    /// last handle frees the device allocation.
    grad: Option<Rc<DeviceMatrix>>,
    op: Op,
    requires_grad: bool,
    category: KernelCategory,
}

/// Reverse-mode tape over device kernels. See the crate docs for design.
pub struct Tape {
    nodes: Vec<Node>,
    stream: StreamId,
    /// Oracle switch: producers get no accumulate operand, so every second
    /// contribution is the product followed by an `add` launch — the pair
    /// the `acc_oracle` tests compare the fused producers against.
    #[cfg(test)]
    pub(crate) unfused: bool,
}

impl Tape {
    /// Create a new instance.
    pub fn new(stream: StreamId) -> Self {
        Tape {
            nodes: Vec::new(),
            stream,
            #[cfg(test)]
            unfused: false,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The stream this tape launches kernels on.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    fn dev(&self, v: Var) -> DevRef<'_> {
        match &self.nodes[v.0].value {
            Value::Owned(m) => DevRef::Owned(m),
            Value::Shared(p) => DevRef::Shared(p.borrow()),
        }
    }

    fn requires(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// `(rows, cols)` of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.dev(v).host().shape()
    }

    /// Read a node's value (clones the host matrix).
    pub fn host(&self, v: Var) -> Matrix {
        self.dev(v).host().clone_in()
    }

    /// Apply `f` to a node's value without cloning.
    pub fn with_value<R>(&self, v: Var, f: impl FnOnce(&Matrix) -> R) -> R {
        f(self.dev(v).host())
    }

    /// Accumulated gradient of a node, if backward reached it (clones the
    /// host matrix).
    pub fn grad(&self, v: Var) -> Option<Matrix> {
        self.with_grad(v, Matrix::clone_in)
    }

    /// Apply `f` to a node's accumulated gradient without cloning; `None`
    /// if backward never reached it. The borrow lives as long as the tape's,
    /// so `|g| g` hands it out (the multi-tensor optimiser step reads every
    /// gradient of a frame at once).
    pub fn with_grad<'t, R>(&'t self, v: Var, f: impl FnOnce(&'t Matrix) -> R) -> Option<R> {
        self.nodes[v.0].grad.as_ref().map(|g| f(g.host()))
    }

    fn push_owned(
        &mut self,
        value: DeviceMatrix,
        op: Op,
        requires_grad: bool,
        category: KernelCategory,
    ) -> Var {
        self.nodes.push(Node {
            value: Value::Owned(value),
            grad: None,
            op,
            requires_grad,
            category,
        });
        Var(self.nodes.len() - 1)
    }

    /// Record a kernel-computed value. This is the NaN-poison choke point:
    /// if the fault layer armed a poison on the producing launch, the
    /// output is replaced with NaNs before it enters the tape — exactly
    /// what a corrupted kernel write would look like. Inputs and params
    /// bypass this (poison targets kernel outputs, not uploaded data).
    fn push_computed(
        &mut self,
        gpu: &mut Gpu,
        mut value: DeviceMatrix,
        op: Op,
        requires_grad: bool,
        category: KernelCategory,
    ) -> Var {
        if gpu.take_poison_pending() {
            nan_fill(&mut value);
        }
        self.push_owned(value, op, requires_grad, category)
    }

    // ---- leaves ----------------------------------------------------------

    /// Register a device-resident value with no gradient (data).
    pub fn input(&mut self, value: DeviceMatrix) -> Var {
        self.push_owned(value, Op::Input, false, KernelCategory::Other)
    }

    /// Register a device-resident value that **carries** gradient without
    /// being a parameter. The reverse sweep stops here (`Op::Input` has no
    /// inputs of its own) but the accumulated gradient stays readable via
    /// [`Tape::grad`] — the sharded trainer registers peer shards' halo
    /// activations this way and routes the deposited gradient back to the
    /// producing shard on the host.
    pub fn input_grad(&mut self, value: DeviceMatrix) -> Var {
        self.push_owned(value, Op::Input, true, KernelCategory::Other)
    }

    /// Register a shared device-resident value **without** gradient — used
    /// for cached intermediates (e.g. PiPAD's GPU-side reuse buffer) that
    /// several tapes read in place.
    pub fn input_shared(&mut self, p: &SharedParam) -> Var {
        self.nodes.push(Node {
            value: Value::Shared(Rc::clone(p)),
            grad: None,
            op: Op::Input,
            requires_grad: false,
            category: KernelCategory::Other,
        });
        Var(self.nodes.len() - 1)
    }

    /// Register a shared trainable parameter.
    pub fn param(&mut self, p: &SharedParam) -> Var {
        self.nodes.push(Node {
            value: Value::Shared(Rc::clone(p)),
            grad: None,
            op: Op::Param,
            requires_grad: true,
            category: KernelCategory::Other,
        });
        Var(self.nodes.len() - 1)
    }

    // ---- forward ops ------------------------------------------------------

    /// `x × w`.
    pub fn matmul(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        w: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        let seg = self.shape(x).0;
        self.matmul_segments(gpu, x, w, seg, category)
    }

    /// `x × w` where `x` stacks row segments `seg` high — a frame's
    /// timesteps, [`Tape::concat_rows`]-ed so a weight is read once per frame
    /// instead of once per timestep. Forward is one plain GEMM (rows are
    /// independent). Backward is one `gemm_nt` for `dx` and one split-K
    /// `gemm_tn` for `dw` whose per-segment partials fold last segment first
    /// ([`k::gemm_tn_device`]) — bit for bit the weight gradient of one
    /// [`Tape::matmul`] per segment swept in reverse.
    pub fn matmul_segments(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        w: Var,
        seg: usize,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        let out = {
            let (a, b) = (self.dev(x), self.dev(w));
            k::gemm_device(gpu, self.stream, &a, &b, category)?
        };
        let rg = self.requires(x) || self.requires(w);
        Ok(self.push_computed(gpu, out, Op::MatMul { x, w, seg }, rg, category))
    }

    /// Aggregation over a CSR adjacency. `adj` must be structurally
    /// symmetric so backward can reuse the forward operator.
    pub fn spmm(
        &mut self,
        gpu: &mut Gpu,
        adj: Rc<Csr>,
        x: Var,
        kernel: AggregationKernel,
    ) -> Result<Var, OomError> {
        let out = {
            let handle = k::DeviceCsr::resident(Rc::clone(&adj));
            let dx = self.dev(x);
            match kernel {
                AggregationKernel::CooScatter => {
                    k::spmm_coo_scatter(gpu, self.stream, &handle, &dx)?
                }
                AggregationKernel::GeSpmm => k::spmm_gespmm(gpu, self.stream, &handle, &dx)?,
            }
        };
        let rg = self.requires(x);
        Ok(self.push_computed(
            gpu,
            out,
            Op::Spmm { adj, x, kernel },
            rg,
            KernelCategory::Aggregation,
        ))
    }

    /// PiPAD's parallel aggregation `adj · x` over a sliced adjacency and
    /// coalescent features (`s_per` snapshots wide). Backward maps the
    /// upstream gradient through `adj_t = adjᵀ`: a symmetric `adj` passes
    /// itself, and a rectangular one (the multi-GPU halo exchange's
    /// `local × n` row slice against globally stacked features) its
    /// transpose. `None` is for an `x` that carries no gradient.
    pub fn spmm_sliced(
        &mut self,
        gpu: &mut Gpu,
        adj: Rc<SlicedCsr>,
        adj_t: Option<Rc<SlicedCsr>>,
        x: Var,
        s_per: usize,
    ) -> Result<Var, OomError> {
        let rg = self.requires(x);
        assert!(
            adj_t.is_some() || !rg,
            "spmm_sliced: an input that carries a gradient needs adj_t"
        );
        let out = {
            let handle = k::DeviceSliced::resident(adj);
            let dx = self.dev(x);
            k::spmm_sliced_parallel(gpu, self.stream, &handle, &dx, s_per)?
        };
        Ok(self.push_computed(
            gpu,
            out,
            Op::SpmmSliced { adj_t, x, s_per },
            rg,
            KernelCategory::Aggregation,
        ))
    }

    /// Fused partition aggregation (PiPAD's Algorithm 1 composed with its
    /// epilogues): computes the normalized mean aggregation of every member
    /// of a snapshot partition in one coalescent output.
    ///
    /// * `overlap`: sliced adjacency of the topology shared by all members
    ///   (`None` degenerates to exclusive-only, e.g. a partition of one);
    /// * `exclusives[k]`: member `k`'s remaining topology (results are
    ///   accumulated by the kernels' atomic output writes — no separate
    ///   combine pass);
    /// * `inv_degs[k]`: member `k`'s `1/(deg+1)` normalization factors.
    ///
    /// Adjacency must be symmetric (see [`Tape::spmm`]). Returns the
    /// coalescent `n × (s·d)` Var; per-member views via [`Tape::split_cols`].
    pub fn spmm_partition(
        &mut self,
        gpu: &mut Gpu,
        overlap: Option<Rc<SlicedCsr>>,
        exclusives: Vec<Rc<SlicedCsr>>,
        xs: Vec<Var>,
        inv_degs: Vec<Rc<Vec<f32>>>,
    ) -> Result<Var, OomError> {
        let size = xs.len();
        assert!(size >= 1);
        assert_eq!(exclusives.len(), size, "one exclusive part per member");
        assert_eq!(inv_degs.len(), size, "one factor set per member");
        let cat = KernelCategory::Aggregation;
        let s = self.stream;

        // Raw (unnormalized) accumulation of overlap + exclusive passes.
        let raw = {
            let hosts: Vec<Matrix> = xs.iter().map(|&x| self.host(x)).collect();
            let refs: Vec<&Matrix> = hosts.iter().collect();
            let coalesced = Matrix::concat_cols(&refs);
            let d_co = DeviceMatrix::alloc(gpu, coalesced)?;
            let mut acc = if let Some(ov) = overlap.as_ref().filter(|_| size > 1) {
                let handle = k::DeviceSliced::resident(Rc::clone(ov));
                let out = k::spmm_sliced_parallel(gpu, s, &handle, &d_co, size)?;
                d_co.release(gpu);
                out
            } else {
                let rows = hosts[0].rows();
                let cols: usize = hosts.iter().map(|h| h.cols()).sum();
                d_co.free(gpu);
                DeviceMatrix::alloc(gpu, Matrix::zeros_in(rows, cols))?
            };
            // Exclusive passes: their output writes are the atomic adds into
            // `acc` — the kernel cost already covers them, so the host-side
            // accumulation below adds no extra launch.
            let mut col = 0;
            for (kx, (excl, h)) in exclusives.iter().zip(&hosts).enumerate() {
                let width = h.cols();
                if excl.nnz() > 0 || (overlap.is_none() || size == 1) {
                    let handle = k::DeviceSliced::resident(Rc::clone(excl));
                    let dx = self.dev(xs[kx]);
                    let part = k::spmm_sliced_parallel(gpu, s, &handle, &dx, 1)?;
                    drop(dx);
                    let mut merged = acc.host().clone_in();
                    let n_rows = merged.rows();
                    let n_cols = merged.cols();
                    let ph = part.host();
                    let shared = pool::DisjointMut::new(merged.as_mut_slice());
                    let min_rows = (1usize << 15).div_ceil(width.max(1)).max(1);
                    pool::parallel_for(n_rows, min_rows, |rows| {
                        for r in rows {
                            // SAFETY: bands cover disjoint row ranges.
                            let row = unsafe { shared.slice(r * n_cols..(r + 1) * n_cols) };
                            let dst = &mut row[col..col + width];
                            for (d, &v) in dst.iter_mut().zip(ph.row(r)) {
                                *d += v;
                            }
                        }
                    });
                    part.release(gpu);
                    acc.store(merged);
                }
                col += width;
            }
            for h in hosts {
                h.recycle();
            }
            acc
        };
        // Normalization epilogue.
        let out = k::row_scale_multi(gpu, s, &raw, &inv_degs, cat)?;
        raw.release(gpu);
        let rg = xs.iter().any(|&x| self.requires(x));
        Ok(self.push_computed(
            gpu,
            out,
            Op::SpmmPartition {
                overlap,
                exclusives,
                xs,
                inv_degs,
            },
            rg,
            cat,
        ))
    }

    /// Row-wise scaling by per-vertex factors (degree normalization).
    pub fn row_scale(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        factors: Rc<Vec<f32>>,
    ) -> Result<Var, OomError> {
        let out = {
            let dx = self.dev(x);
            k::row_scale(gpu, self.stream, &dx, &factors, KernelCategory::Aggregation)?
        };
        let rg = self.requires(x);
        Ok(self.push_computed(
            gpu,
            out,
            Op::RowScale { x, factors },
            rg,
            KernelCategory::Aggregation,
        ))
    }

    fn binary(
        &mut self,
        gpu: &mut Gpu,
        a: Var,
        b: Var,
        category: KernelCategory,
        f: fn(
            &mut Gpu,
            StreamId,
            &DeviceMatrix,
            &DeviceMatrix,
            KernelCategory,
        ) -> Result<DeviceMatrix, OomError>,
        op: Op,
    ) -> Result<Var, OomError> {
        let out = {
            let (da, db) = (self.dev(a), self.dev(b));
            f(gpu, self.stream, &da, &db, category)?
        };
        let rg = self.requires(a) || self.requires(b);
        Ok(self.push_computed(gpu, out, op, rg, category))
    }

    /// Add.
    pub fn add(
        &mut self,
        gpu: &mut Gpu,
        a: Var,
        b: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        self.binary(gpu, a, b, category, k::add, Op::Add(a, b))
    }

    /// Elementwise product.
    pub fn hadamard(
        &mut self,
        gpu: &mut Gpu,
        a: Var,
        b: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        let product = |gpu: &mut Gpu, s, a: &DeviceMatrix, b: &DeviceMatrix, cat| {
            k::hadamard(gpu, s, a, b, None, cat)
        };
        self.binary(gpu, a, b, category, product, Op::Hadamard(a, b))
    }

    /// `mul · x + add` with scalar constants (e.g. `1 − z` in GRU gates).
    pub fn affine_const(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        mul: f32,
        add: f32,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        let mut out = {
            let dx = self.dev(x);
            // One streaming kernel; the fused `·mul + add` has the same cost
            // shape as a scalar scale.
            k::scale(gpu, self.stream, &dx, mul, category)?
        };
        if add != 0.0 {
            let fixed = out.host().map(|v| v + add);
            out.store(fixed);
        }
        let rg = self.requires(x);
        Ok(self.push_computed(gpu, out, Op::AffineConst { x, mul }, rg, category))
    }

    /// Broadcast bias add (`b` is `1 × n`).
    pub fn add_bias(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        b: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        let out = {
            let (dx, db) = (self.dev(x), self.dev(b));
            k::add_bias(gpu, self.stream, &dx, &db, category)?
        };
        let rg = self.requires(x) || self.requires(b);
        Ok(self.push_computed(gpu, out, Op::AddBias { x, b }, rg, category))
    }

    fn unary(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        category: KernelCategory,
        f: fn(&mut Gpu, StreamId, &DeviceMatrix, KernelCategory) -> Result<DeviceMatrix, OomError>,
        op: Op,
    ) -> Result<Var, OomError> {
        let out = {
            let dx = self.dev(x);
            f(gpu, self.stream, &dx, category)?
        };
        let rg = self.requires(x);
        Ok(self.push_computed(gpu, out, op, rg, category))
    }

    /// Sigmoid.
    pub fn sigmoid(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        self.unary(gpu, x, category, k::sigmoid, Op::Sigmoid(x))
    }

    /// Tanh.
    pub fn tanh(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        self.unary(gpu, x, category, k::tanh_act, Op::Tanh(x))
    }

    /// Relu.
    pub fn relu(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        self.unary(gpu, x, category, k::relu, Op::Relu(x))
    }

    /// `x × w` with the weight tile kept resident across row tiles — the
    /// stacked form of PiPAD's locality-optimized weight reuse: callers
    /// stack a partition's features with [`Tape::concat_rows`], multiply
    /// once, then [`Tape::split_rows`] the results apart.
    pub fn matmul_weight_resident(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        w: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        let seg = self.shape(x).0;
        let out = {
            let (a, b) = (self.dev(x), self.dev(w));
            k::gemm_device_weight_resident(gpu, self.stream, &a, &b, category)?
        };
        let rg = self.requires(x) || self.requires(w);
        Ok(self.push_computed(gpu, out, Op::MatMul { x, w, seg }, rg, category))
    }

    /// Row-wise concatenation (stacks a partition's per-snapshot features).
    pub fn concat_rows(
        &mut self,
        gpu: &mut Gpu,
        parts: &[Var],
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        assert!(!parts.is_empty());
        let out = {
            let guards: Vec<DevRef<'_>> = parts.iter().map(|&p| self.dev(p)).collect();
            let refs: Vec<&DeviceMatrix> = guards.iter().map(|g| &**g).collect();
            k::concat_rows(gpu, self.stream, &refs, category)?
        };
        let rg = parts.iter().any(|&p| self.requires(p));
        Ok(self.push_computed(gpu, out, Op::ConcatRows(parts.to_vec()), rg, category))
    }

    /// Views of consecutive row blocks of `x`, `heights[k]` rows each (the
    /// inverse of [`Tape::concat_rows`]). Free forward, like the
    /// `pipad_kernels::slice_rows` views it is made of, and one gather
    /// launch backward however many parts there are.
    pub fn split_rows(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        heights: &[usize],
        category: KernelCategory,
    ) -> Result<Vec<Var>, OomError> {
        self.split(gpu, x, Axis::Rows, heights, category)
    }

    /// Views of consecutive column blocks of `x`, `widths[k]` columns each
    /// (a coalescent matrix's members). Costs as [`Tape::split_rows`].
    pub fn split_cols(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        widths: &[usize],
        category: KernelCategory,
    ) -> Result<Vec<Var>, OomError> {
        self.split(gpu, x, Axis::Cols, widths, category)
    }

    fn split(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        axis: Axis,
        extents: &[usize],
        category: KernelCategory,
    ) -> Result<Vec<Var>, OomError> {
        assert!(!extents.is_empty(), "split into nothing");
        assert_eq!(
            extents.iter().sum::<usize>(),
            axis.extent(self.shape(x)),
            "the parts of a split cover their parent"
        );
        // All views or none: the group's first node records how many follow.
        let mut views = Vec::with_capacity(extents.len());
        let mut from = 0;
        for &extent in extents {
            match self.view(gpu, x, axis, from, from + extent, category) {
                Ok(view) => views.push(view),
                Err(e) => {
                    views.into_iter().for_each(|v| v.release(gpu));
                    return Err(e);
                }
            }
            from += extent;
        }
        let rg = self.requires(x);
        let parts = views.len();
        let vars = views.into_iter().enumerate().map(|(k, view)| {
            let op = if k == 0 {
                Op::Split { x, axis, parts }
            } else {
                Op::SplitPart
            };
            self.push_computed(gpu, view, op, rg, category)
        });
        Ok(vars.collect())
    }

    /// The `[from, to)` view of `x` along `axis` (no launch; `k::slice_*`).
    fn view(
        &self,
        gpu: &mut Gpu,
        x: Var,
        axis: Axis,
        from: usize,
        to: usize,
        category: KernelCategory,
    ) -> Result<DeviceMatrix, OomError> {
        let dx = self.dev(x);
        match axis {
            Axis::Rows => k::slice_rows(gpu, self.stream, &dx, from, to, category),
            Axis::Cols => k::slice_cols(gpu, self.stream, &dx, from, to, category),
        }
    }

    /// The op [`Tape::split`] replaced: one view, its gradient zero-padded
    /// to the parent's shape and summed in with an `add` per view.
    #[cfg(test)]
    pub(crate) fn slice_padded(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        axis: Axis,
        from: usize,
        to: usize,
        category: KernelCategory,
    ) -> Var {
        let out = self.view(gpu, x, axis, from, to, category).unwrap();
        let rg = self.requires(x);
        let op = Op::SlicePadded { x, axis, from };
        self.push_computed(gpu, out, op, rg, category)
    }

    // ---- fused recurrent cells ---------------------------------------------

    /// Fused LSTM gate algebra, `(h′, c′)` in one launch: `gx = x·Wx` and
    /// `gh = h·Wh` are the gate pre-activation halves (`n × 4h`, order
    /// `[i, f, g, o]`), `b` the `1 × 4h` bias, `c` the previous cell state.
    /// Bit-identical to composing `add`, `add_bias`, `split_cols`,
    /// `sigmoid`, `tanh` and `hadamard`, forward and backward.
    pub fn lstm_cell(
        &mut self,
        gpu: &mut Gpu,
        gx: Var,
        gh: Var,
        b: Var,
        c: Var,
        category: KernelCategory,
    ) -> Result<(Var, Var), OomError> {
        let mut out = {
            let (dgx, dgh, db, dc) = (self.dev(gx), self.dev(gh), self.dev(b), self.dev(c));
            k::lstm_cell(gpu, self.stream, &dgx, &dgh, &db, &dc, category)?
        };
        if gpu.take_poison_pending() {
            nan_fill(&mut out.h);
            nan_fill(&mut out.c);
        }
        let rg = [gx, gh, b, c].iter().any(|&v| self.requires(v));
        let c_out = Var(self.nodes.len() + 1);
        let op = Op::LstmCell {
            gx,
            gh,
            b,
            c,
            c_out,
            saved: out.saved,
        };
        let h2 = self.push_owned(out.h, op, rg, category);
        let c2 = self.push_owned(out.c, Op::CellState, rg, category);
        debug_assert_eq!(c2, c_out);
        Ok((h2, c2))
    }

    /// Fused GRU gate algebra in one launch: `gx = x·Wx` and `gh = h·Wh`
    /// (`n × 3h`, order `[r, z, n]`), `b` the `1 × 3h` bias (added to
    /// `gx`), `h` the previous hidden state; the candidate is
    /// `tanh(nx + r ⊙ nh)`. Bit-identical to the composed ops.
    pub fn gru_cell(
        &mut self,
        gpu: &mut Gpu,
        gx: Var,
        gh: Var,
        b: Var,
        h: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        let out = {
            let (dgx, dgh, db, dh) = (self.dev(gx), self.dev(gh), self.dev(b), self.dev(h));
            k::gru_cell(gpu, self.stream, &dgx, &dgh, &db, &dh, category)?
        };
        let rg = [gx, gh, b, h].iter().any(|&v| self.requires(v));
        let op = Op::GruCell {
            gx,
            gh,
            b,
            h,
            saved: out.saved,
        };
        Ok(self.push_computed(gpu, out.h, op, rg, category))
    }

    /// `σ(a + b)` in one launch.
    pub fn sigmoid_add(
        &mut self,
        gpu: &mut Gpu,
        a: Var,
        b: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        self.binary(gpu, a, b, category, k::sigmoid_add, Op::SigmoidAdd(a, b))
    }

    /// `(1 − z) ⊙ tanh(nx + nh) + z ⊙ h` in one launch — the tail of a GRU
    /// whose candidate GEMM needs the reset gate first (T-GCN).
    pub fn gru_blend(
        &mut self,
        gpu: &mut Gpu,
        z: Var,
        nx: Var,
        nh: Var,
        h: Var,
        category: KernelCategory,
    ) -> Result<Var, OomError> {
        let out = {
            let (dz, dnx, dnh, dh) = (self.dev(z), self.dev(nx), self.dev(nh), self.dev(h));
            k::gru_blend(gpu, self.stream, &dz, &dnx, &dnh, &dh, category)?
        };
        let rg = [z, nx, nh, h].iter().any(|&v| self.requires(v));
        let op = Op::GruBlend {
            z,
            nx,
            nh,
            h,
            n: out.n,
        };
        Ok(self.push_computed(gpu, out.h, op, rg, category))
    }

    // ---- loss & backward --------------------------------------------------

    /// MSE loss value of `pred` against `target`.
    pub fn mse_loss(&mut self, gpu: &mut Gpu, pred: Var, target: &Matrix) -> f32 {
        let dm = self.dev(pred);
        k::mse_loss(gpu, self.stream, &dm, target)
    }

    /// Seed `d(loss)/d(pred)` for MSE and run the reverse sweep.
    pub fn backward_mse(
        &mut self,
        gpu: &mut Gpu,
        pred: Var,
        target: &Matrix,
    ) -> Result<(), OomError> {
        let denom = target.len() as u64;
        self.backward_mse_denom(gpu, pred, target, denom)
    }

    /// Raw sum-of-squared-error of `pred` against `target` (no divide) —
    /// the shardable half of MSE: per-shard partials summed in canonical
    /// shard order, then divided once by the global element count,
    /// reproduce the whole-matrix [`Tape::mse_loss`] bit for bit.
    pub fn sse_loss(&mut self, gpu: &mut Gpu, pred: Var, target: &Matrix) -> f32 {
        let dm = self.dev(pred);
        k::sse_loss(gpu, self.stream, &dm, target)
    }

    /// Seed `d/d(pred)` of an MSE whose denominator is the **global**
    /// element count `denom` (not `pred`'s own), then run the reverse
    /// sweep — the backward counterpart of [`Tape::sse_loss`] for sharded
    /// training, where each shard holds a row block of the full prediction.
    pub fn backward_mse_denom(
        &mut self,
        gpu: &mut Gpu,
        pred: Var,
        target: &Matrix,
        denom: u64,
    ) -> Result<(), OomError> {
        let seed = {
            let dm = self.dev(pred);
            k::mse_grad_denom(gpu, self.stream, &dm, target, denom)?
        };
        self.backward_from(gpu, pred, seed)
    }

    /// Run a reverse sweep from `root` that deposits **only** the
    /// contributions of `seed`, merging into gradients already present from
    /// earlier sweeps instead of double-counting them: grads of nodes at or
    /// below `root` are stashed, the sweep runs on a clean slate, and the
    /// stash is added back. The sharded trainer's second sweep injects
    /// cross-shard halo gradients at interior activations this way.
    pub fn backward_seed_only(
        &mut self,
        gpu: &mut Gpu,
        root: Var,
        seed: DeviceMatrix,
    ) -> Result<(), OomError> {
        // Every node, not just those below `root`: an LSTM cell at `root`
        // reads the gradient of its `c′` node, which sits just above it, and
        // a split's first part gathers those of the parts above it.
        let mut stash: Vec<(usize, Rc<DeviceMatrix>)> = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if let Some(g) = node.grad.take() {
                stash.push((i, g));
            }
        }
        self.backward_from(gpu, root, seed)?;
        for (i, g) in stash {
            self.accumulate_rc(gpu, Var(i), g)?;
        }
        Ok(())
    }

    /// Run the reverse sweep from `root` with an explicit seed gradient.
    pub fn backward_from(
        &mut self,
        gpu: &mut Gpu,
        root: Var,
        seed: DeviceMatrix,
    ) -> Result<(), OomError> {
        self.accumulate(gpu, root, seed)?;
        for i in (0..=root.0).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            if let Op::Split { x, axis, parts } = self.nodes[i].op {
                // Every part sits above this one, so the sweep is past them
                // all — whether or not this one has a gradient itself.
                self.split_backward(gpu, x, axis, i..i + parts)?;
                continue;
            }
            if self.nodes[i].grad.is_none() {
                // An LSTM cell whose `h′` nobody used still owes its inputs
                // the gradient of `c′`: run its backward with `dh = 0`.
                let Op::LstmCell { c_out, .. } = self.nodes[i].op else {
                    continue;
                };
                if self.nodes[c_out.0].grad.is_none() {
                    continue;
                }
                let (rows, cols) = self.shape(Var(i));
                let zero = DeviceMatrix::alloc(gpu, Matrix::zeros_in(rows, cols))?;
                self.nodes[i].grad = Some(Rc::new(zero));
            }
            self.step_backward(gpu, Var(i))?;
        }
        Ok(())
    }

    fn accumulate(&mut self, gpu: &mut Gpu, v: Var, g: DeviceMatrix) -> Result<(), OomError> {
        self.accumulate_rc(gpu, v, Rc::new(g))
    }

    fn accumulate_rc(
        &mut self,
        gpu: &mut Gpu,
        v: Var,
        g: Rc<DeviceMatrix>,
    ) -> Result<(), OomError> {
        debug_assert_eq!(
            self.shape(v),
            (g.rows(), g.cols()),
            "gradient shape mismatch"
        );
        match self.nodes[v.0].grad.take() {
            None => self.nodes[v.0].grad = Some(g),
            Some(prev) => {
                let cat = self.nodes[v.0].category;
                let sum = k::add(gpu, self.stream, &prev, &g, cat);
                release_grad(gpu, prev);
                release_grad(gpu, g);
                self.nodes[v.0].grad = Some(Rc::new(sum?));
            }
        }
        Ok(())
    }

    /// Detach the gradient `v` holds so far, to be the read-only accumulate
    /// operand of the kernel producing `v`'s next contribution
    /// (`D = prev + A·B`); [`Tape::settle`] takes both back.
    fn take_acc(&mut self, v: Var) -> Option<Rc<DeviceMatrix>> {
        #[cfg(test)]
        if self.unfused {
            return None;
        }
        self.nodes[v.0].grad.take()
    }

    /// Second half of [`Tape::take_acc`]: `sum` already holds `prev`, so it
    /// replaces it and `prev`'s handle is dropped — out of place, the other
    /// holders of a shared buffer keep theirs. A failed producer puts
    /// `prev` back for [`Tape::finish`] to free.
    fn settle(
        &mut self,
        gpu: &mut Gpu,
        v: Var,
        prev: Option<Rc<DeviceMatrix>>,
        sum: Result<DeviceMatrix, OomError>,
    ) -> Result<(), OomError> {
        match (sum, prev) {
            (Ok(sum), None) => self.accumulate(gpu, v, sum),
            (Ok(sum), Some(prev)) => {
                debug_assert_eq!(self.shape(v), (sum.rows(), sum.cols()));
                release_grad(gpu, prev);
                self.nodes[v.0].grad = Some(Rc::new(sum));
                Ok(())
            }
            (Err(e), prev) => {
                self.nodes[v.0].grad = prev;
                Err(e)
            }
        }
    }

    /// Hand `g` to `v` if it carries gradient, free it otherwise.
    fn deposit(&mut self, gpu: &mut Gpu, v: Var, g: DeviceMatrix) -> Result<(), OomError> {
        if self.requires(v) {
            self.accumulate(gpu, v, g)
        } else {
            g.release(gpu);
            Ok(())
        }
    }

    /// The bias gradient `Σ_rows dy`, folded into what `b` holds so far.
    fn deposit_col_sums(
        &mut self,
        gpu: &mut Gpu,
        b: Var,
        dy: &DeviceMatrix,
        cat: KernelCategory,
    ) -> Result<(), OomError> {
        let prev = self.take_acc(b);
        let db = k::col_sums(gpu, self.stream, dy, prev.as_deref(), cat);
        self.settle(gpu, b, prev, db)
    }

    /// Hand the one buffer `g` to both parents — no copy, no launch.
    fn deposit_shared(
        &mut self,
        gpu: &mut Gpu,
        parents: [Var; 2],
        g: DeviceMatrix,
    ) -> Result<(), OomError> {
        let g = Rc::new(g);
        let res = parents.into_iter().try_for_each(|p| {
            if self.requires(p) {
                self.accumulate_rc(gpu, p, Rc::clone(&g))
            } else {
                Ok(())
            }
        });
        release_grad(gpu, g);
        res
    }

    /// Hand each gradient to its parent in turn, carrying on from `so_far`.
    /// Once a step has failed the rest are freed instead: they belong to
    /// no node yet, so [`Tape::finish`] could not.
    fn deposit_each(
        &mut self,
        gpu: &mut Gpu,
        so_far: Result<(), OomError>,
        grads: impl IntoIterator<Item = (Var, DeviceMatrix)>,
    ) -> Result<(), OomError> {
        let mut res = so_far;
        for (p, g) in grads {
            if res.is_ok() {
                res = self.deposit(gpu, p, g);
            } else {
                g.release(gpu);
            }
        }
        res
    }

    /// Per-member half of [`Op::SpmmPartition`]'s backward: map
    /// each live member's block of the scaled upstream `g_scaled` through
    /// its exclusive adjacency and add its block of the overlap pass.
    fn partition_members_backward(
        &mut self,
        gpu: &mut Gpu,
        cat: KernelCategory,
        exclusives: &[Rc<SlicedCsr>],
        xs: &[Var],
        g_scaled: &DeviceMatrix,
        over_grad: Option<&DeviceMatrix>,
    ) -> Result<(), OomError> {
        let s = self.stream;
        let mut col = 0;
        for (excl, &x) in exclusives.iter().zip(xs) {
            let (rows, width) = self.shape(x);
            let cols = col..col + width;
            col += width;
            if !self.requires(x) {
                continue;
            }
            // Dead-member pruning: a member whose output never fed
            // the loss has an all-zero upstream slice; launching its
            // backward kernels would be pure waste (the unfused
            // one-snapshot path skips them by graph reachability).
            let gh = g_scaled.host();
            if (0..gh.rows()).all(|r| gh.row(r)[cols.clone()].iter().all(|&v| v == 0.0)) {
                continue;
            }
            // member slice of the upstream (view)
            let g_k = k::slice_cols(gpu, s, g_scaled, cols.start, cols.end, cat)?;
            let dx = if excl.nnz() > 0 || over_grad.is_none() {
                let handle = k::DeviceSliced::resident(Rc::clone(excl));
                k::spmm_sliced_parallel(gpu, s, &handle, &g_k, 1)
            } else {
                DeviceMatrix::alloc(gpu, Matrix::zeros_in(rows, width))
            };
            g_k.release(gpu);
            let mut dx = dx?;
            if let Some(og) = over_grad {
                // accumulate the overlap contribution (atomic adds —
                // already charged by the parallel kernel's outputs)
                let slice = og.host().slice_cols(cols.start, cols.end);
                let mut merged = dx.host().clone_in();
                merged.add_assign(&slice);
                slice.recycle();
                dx.store(merged);
            }
            self.accumulate(gpu, x, dx)?;
        }
        Ok(())
    }

    /// Backward of a whole [`Op::Split`] group (nodes `parts`, views of `x`
    /// along `axis`): one gather of the gradients present — concat is
    /// split's adjoint — instead of a parent-sized zero-padded matrix and
    /// a parent-sized `add` per part.
    fn split_backward(
        &mut self,
        gpu: &mut Gpu,
        x: Var,
        axis: Axis,
        parts: std::ops::Range<usize>,
    ) -> Result<(), OomError> {
        let cat = self.nodes[parts.start].category;
        let dx = {
            let mut placed = Vec::with_capacity(parts.len());
            let mut from = 0;
            for p in parts {
                if let Some(g) = &self.nodes[p].grad {
                    placed.push((from, &**g));
                }
                from += axis.extent(self.shape(Var(p)));
            }
            if placed.is_empty() {
                return Ok(());
            }
            k::gather(gpu, self.stream, axis, self.shape(x), &placed, cat)?
        };
        self.accumulate(gpu, x, dx)
    }

    fn step_backward(&mut self, gpu: &mut Gpu, v: Var) -> Result<(), OomError> {
        // Detach this node's gradient and op for the duration of the step
        // (children never alias their own parents in a DAG built
        // forward-only), and put both back whether or not the step failed:
        // models may read the gradient after backward, and `finish` frees
        // the gradient and the op's saved tensors.
        let node = &mut self.nodes[v.0];
        let g = node.grad.take().expect("grad present");
        let op = std::mem::replace(&mut node.op, Op::Input);
        let res = self.backward_op(gpu, v, &op, &g);
        let node = &mut self.nodes[v.0];
        node.op = op;
        node.grad = Some(g);
        res
    }

    /// Deposit into the inputs of `op` (node `v`'s, detached) the gradients
    /// that follow from `g`, the gradient of `v`.
    fn backward_op(
        &mut self,
        gpu: &mut Gpu,
        v: Var,
        op: &Op,
        g: &Rc<DeviceMatrix>,
    ) -> Result<(), OomError> {
        let cat = self.nodes[v.0].category;
        let s = self.stream;
        match op {
            // (`backward_from` gathers a split's parts without coming here.)
            Op::Input | Op::Param | Op::CellState | Op::Split { .. } | Op::SplitPart => {}
            &Op::MatMul { x, w, seg } => {
                if self.requires(x) {
                    let prev = self.take_acc(x);
                    let dx = {
                        let wm = self.dev(w);
                        k::gemm_nt_device(gpu, s, g, &wm, prev.as_deref(), cat)
                    };
                    self.settle(gpu, x, prev, dx)?;
                }
                if self.requires(w) {
                    let prev = self.take_acc(w);
                    let dw = {
                        let xm = self.dev(x);
                        k::gemm_tn_device(gpu, s, &xm, g, seg, prev.as_deref(), cat)
                    };
                    self.settle(gpu, w, prev, dw)?;
                }
            }
            &Op::Spmm { ref adj, x, kernel } => {
                if self.requires(x) {
                    // Symmetric adjacency: dX = Aᵀ g = A g.
                    let handle = k::DeviceCsr::resident(Rc::clone(adj));
                    let dx = match kernel {
                        AggregationKernel::CooScatter => k::spmm_coo_scatter(gpu, s, &handle, g)?,
                        AggregationKernel::GeSpmm => k::spmm_gespmm(gpu, s, &handle, g)?,
                    };
                    self.accumulate(gpu, x, dx)?;
                }
            }
            &Op::SpmmSliced {
                ref adj_t,
                x,
                s_per,
            } => {
                if let Some(adj_t) = adj_t.as_ref().filter(|_| self.requires(x)) {
                    let handle = k::DeviceSliced::resident(Rc::clone(adj_t));
                    let dx = k::spmm_sliced_parallel(gpu, s, &handle, g, s_per)?;
                    self.accumulate(gpu, x, dx)?;
                }
            }
            Op::SpmmPartition {
                overlap,
                exclusives,
                xs,
                inv_degs,
            } => {
                // d/d(raw) = per-member scaled upstream; then the symmetric
                // adjacency maps it back: one parallel pass over the overlap
                // plus per-member exclusive passes.
                let g_scaled = k::row_scale_multi(gpu, s, g, inv_degs, cat)?;
                let over_grad = match overlap.as_ref().filter(|_| xs.len() > 1) {
                    Some(ov) => {
                        let handle = k::DeviceSliced::resident(Rc::clone(ov));
                        match k::spmm_sliced_parallel(gpu, s, &handle, &g_scaled, xs.len()) {
                            Ok(og) => Some(og),
                            Err(e) => {
                                g_scaled.release(gpu);
                                return Err(e);
                            }
                        }
                    }
                    None => None,
                };
                let over = over_grad.as_ref();
                let res =
                    self.partition_members_backward(gpu, cat, exclusives, xs, &g_scaled, over);
                if let Some(og) = over_grad {
                    og.release(gpu);
                }
                g_scaled.release(gpu);
                res?;
            }
            &Op::RowScale { x, ref factors } => {
                if self.requires(x) {
                    let dx = k::row_scale(gpu, s, g, factors, cat)?;
                    self.accumulate(gpu, x, dx)?;
                }
            }
            &Op::Add(a, b) => {
                // d(a + b) is `g` itself for both: share the buffer.
                for p in [a, b] {
                    if self.requires(p) {
                        self.accumulate_rc(gpu, p, Rc::clone(g))?;
                    }
                }
            }
            &Op::Hadamard(a, b) => {
                for (p, other) in [(a, b), (b, a)] {
                    if self.requires(p) {
                        let prev = self.take_acc(p);
                        let dp = {
                            let om = self.dev(other);
                            k::hadamard(gpu, s, g, &om, prev.as_deref(), cat)
                        };
                        self.settle(gpu, p, prev, dp)?;
                    }
                }
            }
            &Op::AffineConst { x, mul } => {
                if self.requires(x) {
                    let dx = k::scale(gpu, s, g, mul, cat)?;
                    self.accumulate(gpu, x, dx)?;
                }
            }
            &Op::AddBias { x, b } => {
                if self.requires(x) {
                    self.accumulate_rc(gpu, x, Rc::clone(g))?;
                }
                if self.requires(b) {
                    self.deposit_col_sums(gpu, b, g, cat)?;
                }
            }
            &Op::Sigmoid(x) => {
                if self.requires(x) {
                    let dx = {
                        let out = self.dev(v);
                        k::sigmoid_grad_from_out(gpu, s, &out, g, cat)?
                    };
                    self.accumulate(gpu, x, dx)?;
                }
            }
            &Op::Tanh(x) => {
                if self.requires(x) {
                    let dx = {
                        let out = self.dev(v);
                        k::tanh_grad_from_out(gpu, s, &out, g, cat)?
                    };
                    self.accumulate(gpu, x, dx)?;
                }
            }
            &Op::Relu(x) => {
                if self.requires(x) {
                    let dx = {
                        let xin = self.dev(x);
                        k::relu_grad_mask(gpu, s, &xin, g, cat)?
                    };
                    self.accumulate(gpu, x, dx)?;
                }
            }
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for &p in parts {
                    let h = self.shape(p).0;
                    if self.requires(p) {
                        let dp = k::slice_rows(gpu, s, g, off, off + h, cat)?;
                        self.accumulate(gpu, p, dp)?;
                    }
                    off += h;
                }
            }
            #[cfg(test)]
            &Op::SlicePadded { x, axis, from } => {
                if self.requires(x) {
                    let (rows, cols) = self.shape(x);
                    let mut padded = Matrix::zeros_in(rows, cols);
                    for r in 0..g.rows() {
                        let src = g.host().row(r);
                        match axis {
                            Axis::Rows => padded.row_mut(from + r).copy_from_slice(src),
                            Axis::Cols => {
                                padded.row_mut(r)[from..from + g.cols()].copy_from_slice(src)
                            }
                        }
                    }
                    let dx = DeviceMatrix::alloc(gpu, padded)?;
                    self.accumulate(gpu, x, dx)?;
                }
            }
            &Op::LstmCell {
                gx,
                gh,
                b,
                c,
                c_out,
                ref saved,
            } => {
                let dc_next = self.nodes[c_out.0].grad.take();
                let grads = {
                    let cm = self.dev(c);
                    let want_dc = self.requires(c);
                    k::lstm_cell_grad(gpu, s, saved, &cm, g, dc_next.as_deref(), want_dc, cat)
                };
                self.nodes[c_out.0].grad = dc_next;
                let k::LstmCellGrad { dgates, dc } = grads?;
                let mut res = dc.map_or(Ok(()), |dc| self.accumulate(gpu, c, dc));
                if res.is_ok() && self.requires(b) {
                    res = self.deposit_col_sums(gpu, b, &dgates, cat);
                }
                if let Err(e) = res {
                    // `dgates` belongs to no node yet, so `finish` cannot.
                    dgates.release(gpu);
                    return Err(e);
                }
                self.deposit_shared(gpu, [gx, gh], dgates)?;
            }
            &Op::GruCell {
                gx,
                gh,
                b,
                h,
                ref saved,
            } => {
                let k::GruCellGrad { dgx, dgh, dh } = {
                    let (ghm, hm) = (self.dev(gh), self.dev(h));
                    let want_dh = self.requires(h);
                    k::gru_cell_grad(gpu, s, saved, &ghm, &hm, g, want_dh, cat)?
                };
                let mut res = dh.map_or(Ok(()), |dh| self.accumulate(gpu, h, dh));
                if res.is_ok() && self.requires(b) {
                    res = self.deposit_col_sums(gpu, b, &dgx, cat);
                }
                self.deposit_each(gpu, res, [(gx, dgx), (gh, dgh)])?;
            }
            &Op::SigmoidAdd(a, b) => {
                let d = {
                    let out = self.dev(v);
                    k::sigmoid_grad_from_out(gpu, s, &out, g, cat)?
                };
                self.deposit_shared(gpu, [a, b], d)?;
            }
            &Op::GruBlend {
                z,
                nx,
                nh,
                h,
                ref n,
            } => {
                let k::GruBlendGrad { dz, dn, dh } = {
                    let (zm, hm) = (self.dev(z), self.dev(h));
                    let want_dh = self.requires(h);
                    k::gru_blend_grad(gpu, s, &zm, n, &hm, g, want_dh, cat)?
                };
                let first = [Some((z, dz)), dh.map(|dh| (h, dh))];
                if let Err(e) = self.deposit_each(gpu, Ok(()), first.into_iter().flatten()) {
                    dn.release(gpu);
                    return Err(e);
                }
                self.deposit_shared(gpu, [nx, nh], dn)?;
            }
        }
        Ok(())
    }

    /// Free every device allocation owned by the tape (values of non-shared
    /// nodes and all gradients). Shared parameters stay resident.
    pub fn finish(self, gpu: &mut Gpu) {
        for node in self.nodes {
            if let Value::Owned(m) = node.value {
                m.release(gpu);
            }
            if let Some(g) = node.grad {
                release_grad(gpu, g);
            }
            match node.op {
                Op::LstmCell { saved, .. } | Op::GruCell { saved, .. } => saved.release(gpu),
                Op::GruBlend { n, .. } => n.release(gpu),
                _ => {}
            }
        }
    }
}

/// Overwrite a kernel output with NaNs — what a corrupted write looks like.
fn nan_fill(value: &mut DeviceMatrix) {
    let (r, c) = value.host().shape();
    value.store(Matrix::full(r, c, f32::NAN));
}

/// Drop one handle on a gradient buffer; the last one frees it.
fn release_grad(gpu: &mut Gpu, g: Rc<DeviceMatrix>) {
    if let Ok(m) = Rc::try_unwrap(g) {
        m.release(gpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::DeviceConfig;
    use pipad_tensor::{seeded_rng, uniform};

    fn setup() -> (Gpu, StreamId) {
        let g = Gpu::new(DeviceConfig::v100());
        let s = g.default_stream();
        (g, s)
    }

    fn shared(gpu: &mut Gpu, m: Matrix) -> SharedParam {
        Rc::new(RefCell::new(DeviceMatrix::alloc(gpu, m).unwrap()))
    }

    /// Numeric gradient of `loss(param)` via central differences.
    fn numeric_grad(
        gpu: &mut Gpu,
        param: &SharedParam,
        mut f: impl FnMut(&mut Gpu) -> f32,
    ) -> Matrix {
        let (rows, cols) = { param.borrow().host().shape() };
        let mut grad = Matrix::zeros(rows, cols);
        let eps = 1e-3f32;
        for r in 0..rows {
            for c in 0..cols {
                let orig = param.borrow().host()[(r, c)];
                let set = |p: &SharedParam, v: f32| {
                    let mut m = p.borrow().host().clone();
                    m[(r, c)] = v;
                    p.borrow_mut().store(m);
                };
                set(param, orig + eps);
                let hi = f(gpu);
                set(param, orig - eps);
                let lo = f(gpu);
                set(param, orig);
                grad[(r, c)] = (hi - lo) / (2.0 * eps);
            }
        }
        grad
    }

    #[test]
    fn linear_layer_gradients_match_numeric() {
        let (mut gpu, s) = setup();
        let x_host = uniform(&mut seeded_rng(1), 5, 3, 1.0);
        let w = shared(&mut gpu, uniform(&mut seeded_rng(2), 3, 2, 1.0));
        let b = shared(&mut gpu, uniform(&mut seeded_rng(3), 1, 2, 1.0));
        let target = uniform(&mut seeded_rng(4), 5, 2, 1.0);

        let run = |gpu: &mut Gpu, want_grad: bool, w: &SharedParam, b: &SharedParam| {
            let mut tape = Tape::new(s);
            let x = tape.input(DeviceMatrix::alloc(gpu, x_host.clone()).unwrap());
            let wv = tape.param(w);
            let bv = tape.param(b);
            let h = tape.matmul(gpu, x, wv, KernelCategory::Update).unwrap();
            let h = tape.add_bias(gpu, h, bv, KernelCategory::Update).unwrap();
            let h = tape.tanh(gpu, h, KernelCategory::Update).unwrap();
            let loss = tape.mse_loss(gpu, h, &target);
            let grads = if want_grad {
                tape.backward_mse(gpu, h, &target).unwrap();
                Some((tape.grad(wv).unwrap(), tape.grad(bv).unwrap()))
            } else {
                None
            };
            tape.finish(gpu);
            (loss, grads)
        };

        let (_, grads) = run(&mut gpu, true, &w, &b);
        let (gw, gb) = grads.unwrap();
        let nw = numeric_grad(&mut gpu, &w, |gpu| run(gpu, false, &w, &b).0);
        assert!(gw.approx_eq(&nw, 2e-2), "analytic {gw:?} numeric {nw:?}");
        let nb = numeric_grad(&mut gpu, &b, |gpu| run(gpu, false, &w, &b).0);
        assert!(gb.approx_eq(&nb, 2e-2), "analytic {gb:?} numeric {nb:?}");
    }

    #[test]
    fn gcn_like_chain_gradients_match_numeric() {
        let (mut gpu, s) = setup();
        let csr = Rc::new(Csr::from_edges(
            4,
            4,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (0, 0),
                (1, 1),
                (2, 2),
                (3, 3),
            ],
        ));
        let factors = Rc::new(vec![0.5, 0.33, 0.33, 0.5]);
        let x_host = uniform(&mut seeded_rng(5), 4, 3, 1.0);
        let w = shared(&mut gpu, uniform(&mut seeded_rng(6), 3, 2, 1.0));
        let target = uniform(&mut seeded_rng(7), 4, 2, 1.0);

        let run = |gpu: &mut Gpu, w: &SharedParam, want_grad: bool| {
            let mut tape = Tape::new(s);
            let x = tape.input(DeviceMatrix::alloc(gpu, x_host.clone()).unwrap());
            let wv = tape.param(w);
            let agg = tape
                .spmm(gpu, Rc::clone(&csr), x, AggregationKernel::CooScatter)
                .unwrap();
            let norm = tape.row_scale(gpu, agg, Rc::clone(&factors)).unwrap();
            let h = tape.matmul(gpu, norm, wv, KernelCategory::Update).unwrap();
            let h = tape.relu(gpu, h, KernelCategory::Update).unwrap();
            let loss = tape.mse_loss(gpu, h, &target);
            let grad = if want_grad {
                tape.backward_mse(gpu, h, &target).unwrap();
                Some(tape.grad(wv).unwrap())
            } else {
                None
            };
            tape.finish(gpu);
            (loss, grad)
        };

        let (_, gw) = run(&mut gpu, &w, true);
        let gw = gw.unwrap();
        let nw = numeric_grad(&mut gpu, &w, |gpu| run(gpu, &w, false).0);
        assert!(gw.approx_eq(&nw, 2e-2), "analytic {gw:?} numeric {nw:?}");
    }

    #[test]
    fn sliced_spmm_gradients_match_numeric() {
        let (mut gpu, s) = setup();
        let csr = Csr::from_edges(4, 4, &[(0, 1), (1, 0), (1, 3), (3, 1), (2, 2)]);
        let sliced = Rc::new(SlicedCsr::from_csr(&csr));
        // coalescent input features of a 2-snapshot partition
        let x_host = Matrix::concat_cols(&[
            &uniform(&mut seeded_rng(20), 4, 2, 1.0),
            &uniform(&mut seeded_rng(23), 4, 2, 1.0),
        ]);
        let w = shared(&mut gpu, uniform(&mut seeded_rng(21), 4, 4, 1.0));
        let target = uniform(&mut seeded_rng(22), 4, 4, 1.0);

        let run = |gpu: &mut Gpu, w: &SharedParam, want_grad: bool| {
            let mut tape = Tape::new(s);
            let x = tape.input(DeviceMatrix::alloc(gpu, x_host.clone()).unwrap());
            let wv = tape.param(w);
            let co = tape.matmul(gpu, x, wv, KernelCategory::Update).unwrap();
            let adj_t = Some(Rc::clone(&sliced));
            let agg = tape
                .spmm_sliced(gpu, Rc::clone(&sliced), adj_t, co, 2)
                .unwrap();
            let loss = tape.mse_loss(gpu, agg, &target);
            let grad = if want_grad {
                tape.backward_mse(gpu, agg, &target).unwrap();
                Some(tape.grad(wv).unwrap())
            } else {
                None
            };
            tape.finish(gpu);
            (loss, grad)
        };
        let (_, gw) = run(&mut gpu, &w, true);
        let gw = gw.unwrap();
        let nw = numeric_grad(&mut gpu, &w, |gpu| run(gpu, &w, false).0);
        assert!(gw.approx_eq(&nw, 2e-2), "analytic {gw:?} numeric {nw:?}");
    }

    #[test]
    #[should_panic(expected = "needs adj_t")]
    fn sliced_spmm_refuses_a_gradient_input_without_transpose() {
        let (mut gpu, s) = setup();
        let csr = Csr::from_edges(2, 2, &[(0, 1), (1, 0)]);
        let mut tape = Tape::new(s);
        let x = tape.input_grad(DeviceMatrix::alloc(&mut gpu, Matrix::full(2, 2, 1.0)).unwrap());
        let _ = tape.spmm_sliced(&mut gpu, Rc::new(SlicedCsr::from_csr(&csr)), None, x, 1);
    }

    #[test]
    fn rect_sliced_spmm_uses_transpose_in_backward() {
        let (mut gpu, s) = setup();
        // Asymmetric 4×4 graph; forward aggregates only the row slice
        // [1, 3) against all 4 feature rows — a genuinely rectangular op.
        let full = Csr::from_edges(4, 4, &[(0, 1), (1, 0), (1, 3), (2, 0), (2, 3), (3, 2)]);
        let local = full.slice_row_range(1, 3);
        let adj = Rc::new(SlicedCsr::from_csr(&local));
        let adj_t = Rc::new(SlicedCsr::from_csr(&local.transpose()));
        let x_host = uniform(&mut seeded_rng(50), 4, 2, 1.0);
        let w = shared(&mut gpu, uniform(&mut seeded_rng(51), 2, 2, 1.0));
        let target = uniform(&mut seeded_rng(52), 2, 2, 1.0);

        let run = |gpu: &mut Gpu, w: &SharedParam, want_grad: bool| {
            let mut tape = Tape::new(s);
            let x = tape.input(DeviceMatrix::alloc(gpu, x_host.clone()).unwrap());
            let wv = tape.param(w);
            let h = tape.matmul(gpu, x, wv, KernelCategory::Update).unwrap();
            let agg = tape
                .spmm_sliced(gpu, Rc::clone(&adj), Some(Rc::clone(&adj_t)), h, 1)
                .unwrap();
            let loss = tape.mse_loss(gpu, agg, &target);
            let (value, grad) = if want_grad {
                tape.backward_mse(gpu, agg, &target).unwrap();
                (Some(tape.host(agg)), Some(tape.grad(wv).unwrap()))
            } else {
                (None, None)
            };
            tape.finish(gpu);
            (loss, value, grad)
        };

        let (_, value, gw) = run(&mut gpu, &w, true);
        // Value check against the dense reference on the row slice.
        let h_ref = pipad_tensor::gemm(&x_host, &w.borrow().host().clone());
        let expect = local.spmm_dense(&h_ref);
        assert!(value.unwrap().approx_eq(&expect, 1e-5));
        // Gradient check: backward must route through the transpose.
        let gw = gw.unwrap();
        let nw = numeric_grad(&mut gpu, &w, |gpu| run(gpu, &w, false).0);
        assert!(gw.approx_eq(&nw, 2e-2), "analytic {gw:?} numeric {nw:?}");
    }

    #[test]
    fn input_grad_leaf_receives_gradient() {
        let (mut gpu, s) = setup();
        let target = Matrix::zeros(2, 2);
        let mut tape = Tape::new(s);
        let a = tape.input(DeviceMatrix::alloc(&mut gpu, Matrix::full(2, 2, 1.0)).unwrap());
        let halo = tape.input_grad(DeviceMatrix::alloc(&mut gpu, Matrix::full(2, 2, 2.0)).unwrap());
        let h = tape.add(&mut gpu, a, halo, KernelCategory::Other).unwrap();
        tape.backward_mse(&mut gpu, h, &target).unwrap();
        // Unlike a plain input, the grad-carrying leaf keeps its gradient.
        assert!(tape.grad(a).is_none());
        let g = tape.grad(halo).expect("halo leaf keeps its gradient");
        assert_eq!(g.shape(), (2, 2));
        assert!(g.as_slice().iter().all(|&v| v != 0.0));
        tape.finish(&mut gpu);
    }

    #[test]
    fn seed_only_backward_merges_with_prior_sweep() {
        let (mut gpu, s) = setup();
        let x_host = uniform(&mut seeded_rng(60), 3, 2, 1.0);
        let w = shared(&mut gpu, uniform(&mut seeded_rng(61), 2, 2, 1.0));
        let seed_a = uniform(&mut seeded_rng(62), 3, 2, 1.0);
        let seed_b = uniform(&mut seeded_rng(63), 3, 2, 1.0);

        // Two sweeps (seed_a then seed_only seed_b) must equal one combined
        // sweep with seed_a + seed_b — gradients are linear in the seed.
        let run = |gpu: &mut Gpu, seeds: &[&Matrix]| {
            let mut tape = Tape::new(s);
            let x = tape.input(DeviceMatrix::alloc(gpu, x_host.clone()).unwrap());
            let wv = tape.param(&w);
            let h = tape.matmul(gpu, x, wv, KernelCategory::Update).unwrap();
            let h = tape.tanh(gpu, h, KernelCategory::Update).unwrap();
            for (i, seed) in seeds.iter().enumerate() {
                let dm = DeviceMatrix::alloc(gpu, (*seed).clone_in()).unwrap();
                if i == 0 {
                    tape.backward_from(gpu, h, dm).unwrap();
                } else {
                    tape.backward_seed_only(gpu, h, dm).unwrap();
                }
            }
            let g = tape.grad(wv).unwrap();
            tape.finish(gpu);
            g
        };

        let staged = run(&mut gpu, &[&seed_a, &seed_b]);
        let mut combined_seed = seed_a.clone_in();
        combined_seed.add_assign(&seed_b);
        let combined = run(&mut gpu, &[&combined_seed]);
        assert!(
            staged.approx_eq(&combined, 1e-5),
            "staged {staged:?} combined {combined:?}"
        );
        combined_seed.recycle();
    }

    #[test]
    fn spmm_partition_matches_reference_and_numeric_grad() {
        let (mut gpu, s) = setup();
        // Two symmetric snapshots sharing an overlap edge set.
        let shared = [(0u32, 1u32), (1, 0), (2, 3), (3, 2)];
        let mut ea = shared.to_vec();
        ea.extend([(1, 2), (2, 1)]);
        let mut eb = shared.to_vec();
        eb.extend([(0, 3), (3, 0)]);
        let a = Csr::from_edges(4, 4, &ea);
        let b = Csr::from_edges(4, 4, &eb);
        let split = pipad_sparse::extract_overlap(&[&a, &b]);
        let overlap = Rc::new(SlicedCsr::from_csr(&split.overlap));
        let exclusives: Vec<Rc<SlicedCsr>> = split
            .exclusives
            .iter()
            .map(|e| Rc::new(SlicedCsr::from_csr(e)))
            .collect();
        let inv: Vec<Rc<Vec<f32>>> = vec![
            Rc::new(vec![0.5, 0.25, 0.5, 1.0]),
            Rc::new(vec![1.0, 0.5, 0.25, 0.5]),
        ];
        let x_host = uniform(&mut seeded_rng(30), 4, 2, 1.0);
        let w = shared_param_helper(&mut gpu, uniform(&mut seeded_rng(31), 2, 2, 1.0));
        let target = uniform(&mut seeded_rng(32), 4, 4, 1.0);

        let run = |gpu: &mut Gpu, w: &SharedParam, want_grad: bool| {
            let mut tape = Tape::new(s);
            let x = tape.input(DeviceMatrix::alloc(gpu, x_host.clone()).unwrap());
            let wv = tape.param(w);
            let h = tape.matmul(gpu, x, wv, KernelCategory::Update).unwrap();
            let h2 = tape.tanh(gpu, h, KernelCategory::Update).unwrap();
            let out = tape
                .spmm_partition(
                    gpu,
                    Some(Rc::clone(&overlap)),
                    exclusives.clone(),
                    vec![h, h2],
                    inv.clone(),
                )
                .unwrap();
            let loss = tape.mse_loss(gpu, out, &target);
            let value = tape.host(out);
            let grad = if want_grad {
                tape.backward_mse(gpu, out, &target).unwrap();
                Some(tape.grad(wv).unwrap())
            } else {
                None
            };
            tape.finish(gpu);
            (loss, value, grad)
        };

        // Value check against the unfused reference.
        let (_, value, gw) = run(&mut gpu, &w, true);
        let h_ref = {
            let hx = pipad_tensor::gemm(&x_host, &w.borrow().host().clone());
            let ht = hx.map(f32::tanh);
            (hx, ht)
        };
        for (m, (adj, hin, factors)) in [
            (0usize, (&a, &h_ref.0, &inv[0])),
            (1, (&b, &h_ref.1, &inv[1])),
        ] {
            let mut expect = adj.spmm_dense(hin);
            for r in 0..expect.rows() {
                let f = factors[r];
                for v in expect.row_mut(r) {
                    *v *= f;
                }
            }
            let got = value.slice_cols(m * 2, (m + 1) * 2);
            assert!(got.approx_eq(&expect, 1e-4), "member {m}");
        }

        // Gradient check.
        let gw = gw.unwrap();
        let nw = numeric_grad(&mut gpu, &w, |gpu| run(gpu, &w, false).0);
        assert!(gw.approx_eq(&nw, 2e-2), "analytic {gw:?} numeric {nw:?}");
    }

    fn shared_param_helper(gpu: &mut Gpu, m: Matrix) -> SharedParam {
        Rc::new(RefCell::new(DeviceMatrix::alloc(gpu, m).unwrap()))
    }

    #[test]
    fn gate_composite_gradients_match_numeric() {
        // z ⊙ tanh(h) + (1−z) ⊙ σ(h): hadamard + affine_const coverage.
        let (mut gpu, s) = setup();
        let x_host = uniform(&mut seeded_rng(8), 3, 4, 1.0);
        let w = shared(&mut gpu, uniform(&mut seeded_rng(9), 4, 2, 1.0));
        let target = uniform(&mut seeded_rng(10), 3, 2, 1.0);

        let run = |gpu: &mut Gpu, w: &SharedParam, want_grad: bool| {
            let mut tape = Tape::new(s);
            let x = tape.input(DeviceMatrix::alloc(gpu, x_host.clone()).unwrap());
            let wv = tape.param(w);
            let h = tape.matmul(gpu, x, wv, KernelCategory::Rnn).unwrap();
            let z = tape.sigmoid(gpu, h, KernelCategory::Rnn).unwrap();
            let t = tape.tanh(gpu, h, KernelCategory::Rnn).unwrap();
            let zt = tape.hadamard(gpu, z, t, KernelCategory::Rnn).unwrap();
            let omz = tape
                .affine_const(gpu, z, -1.0, 1.0, KernelCategory::Rnn)
                .unwrap();
            let sg = tape.sigmoid(gpu, h, KernelCategory::Rnn).unwrap();
            let rest = tape.hadamard(gpu, omz, sg, KernelCategory::Rnn).unwrap();
            let out = tape.add(gpu, zt, rest, KernelCategory::Rnn).unwrap();
            let loss = tape.mse_loss(gpu, out, &target);
            let grad = if want_grad {
                tape.backward_mse(gpu, out, &target).unwrap();
                Some(tape.grad(wv).unwrap())
            } else {
                None
            };
            tape.finish(gpu);
            (loss, grad)
        };
        let (_, gw) = run(&mut gpu, &w, true);
        let gw = gw.unwrap();
        let nw = numeric_grad(&mut gpu, &w, |gpu| run(gpu, &w, false).0);
        assert!(gw.approx_eq(&nw, 2e-2), "analytic {gw:?} numeric {nw:?}");
    }

    #[test]
    fn split_cols_gradients_match_numeric() {
        let (mut gpu, s) = setup();
        let a_host = uniform(&mut seeded_rng(11), 3, 2, 1.0);
        let w = shared(&mut gpu, uniform(&mut seeded_rng(12), 2, 4, 1.0));
        let target = uniform(&mut seeded_rng(13), 3, 2, 1.0);
        let run = |gpu: &mut Gpu, w: &SharedParam, want: bool| {
            let mut tape = Tape::new(s);
            let a = tape.input(DeviceMatrix::alloc(gpu, a_host.clone()).unwrap());
            let wv = tape.param(w);
            let cat = tape.matmul(gpu, a, wv, KernelCategory::Other).unwrap();
            // Only the second part feeds the loss: the first has no gradient.
            let right = tape
                .split_cols(gpu, cat, &[2, 2], KernelCategory::Other)
                .unwrap()[1];
            let loss = tape.mse_loss(gpu, right, &target);
            let g = if want {
                tape.backward_mse(gpu, right, &target).unwrap();
                Some(tape.grad(wv).unwrap())
            } else {
                None
            };
            tape.finish(gpu);
            (loss, g)
        };
        let (_, g) = run(&mut gpu, &w, true);
        let g = g.unwrap();
        let n = numeric_grad(&mut gpu, &w, |gpu| run(gpu, &w, false).0);
        assert!(g.approx_eq(&n, 2e-2));
    }

    #[test]
    fn finish_releases_all_tape_memory() {
        let (mut gpu, s) = setup();
        let w = shared(&mut gpu, uniform(&mut seeded_rng(14), 4, 4, 1.0));
        let baseline = gpu.mem().in_use();
        let target = Matrix::zeros(4, 4);
        let mut tape = Tape::new(s);
        let x = tape.input(DeviceMatrix::alloc(&mut gpu, Matrix::full(4, 4, 1.0)).unwrap());
        let wv = tape.param(&w);
        let h = tape
            .matmul(&mut gpu, x, wv, KernelCategory::Update)
            .unwrap();
        let h = tape.relu(&mut gpu, h, KernelCategory::Update).unwrap();
        tape.backward_mse(&mut gpu, h, &target).unwrap();
        assert!(gpu.mem().in_use() > baseline);
        tape.finish(&mut gpu);
        assert_eq!(gpu.mem().in_use(), baseline, "tape must free everything");
    }

    /// Build `graph` on a fresh tape, count the allocations its reverse
    /// sweep makes, then fail each of them in turn: whatever the failed
    /// step had in hand, `finish` must bring the device back to `baseline`
    /// (the parameters). Returns the number of allocations swept.
    fn fail_every_sweep_alloc(
        gpu: &mut Gpu,
        baseline: u64,
        graph: impl Fn(&mut Gpu, &mut Tape) -> Var,
    ) -> u64 {
        let run = |gpu: &mut Gpu, fail_at: Option<u64>| {
            let mut tape = Tape::new(gpu.default_stream());
            let root = graph(gpu, &mut tape);
            let target = Matrix::zeros(tape.shape(root).0, tape.shape(root).1);
            let before = gpu.op_counters().allocs;
            if let Some(k) = fail_at {
                gpu.install_faults(pipad_gpu_sim::FaultPlan {
                    oom_at_alloc: vec![before + k],
                    ..Default::default()
                });
            }
            let res = tape.backward_mse(gpu, root, &target);
            assert_eq!(res.is_err(), fail_at.is_some(), "fail_at={fail_at:?}");
            let allocs = gpu.op_counters().allocs - before;
            tape.finish(gpu);
            assert_eq!(
                gpu.mem().in_use(),
                baseline,
                "leak when sweep alloc {fail_at:?} fails"
            );
            allocs
        };
        let sweep_allocs = run(gpu, None);
        for k in 0..sweep_allocs {
            run(gpu, Some(k));
        }
        sweep_allocs
    }

    #[test]
    fn finish_frees_everything_after_a_failed_backward() {
        let (mut gpu, _) = setup();
        let (n, d, hd) = (4, 2, 3);
        let mut seed = 30;
        let mut param = |gpu: &mut Gpu, rows, cols| {
            seed += 1;
            shared(gpu, uniform(&mut seeded_rng(seed), rows, cols, 1.0))
        };
        let input = |gpu: &mut Gpu, tape: &mut Tape, m: Matrix| {
            tape.input(DeviceMatrix::alloc(gpu, m).unwrap())
        };
        let data = |gpu: &mut Gpu, tape: &mut Tape, seed, cols| {
            input(gpu, tape, uniform(&mut seeded_rng(seed), n, cols, 1.0))
        };
        let rnn = KernelCategory::Rnn;
        let upd = KernelCategory::Update;

        // Two-step LSTM and GRU chains: the fused cells' arm-local outputs.
        let [wx, wh] = [d, hd].map(|rows| param(&mut gpu, rows, 4 * hd));
        let b = param(&mut gpu, 1, 4 * hd);
        let [gwx, gwh] = [d, hd].map(|rows| param(&mut gpu, rows, 3 * hd));
        let gb = param(&mut gpu, 1, 3 * hd);
        // T-GCN: gate halves from three GEMMs, recurrent halves from three.
        let ws = [(); 3].map(|()| param(&mut gpu, d, hd));
        let us = [(); 3].map(|()| param(&mut gpu, hd, hd));
        // Update: stacked GEMM + bias.
        let (w0, w1, b1) = (
            param(&mut gpu, d, hd),
            param(&mut gpu, hd, hd),
            param(&mut gpu, 1, hd),
        );
        let baseline = gpu.mem().in_use();

        let lstm = fail_every_sweep_alloc(&mut gpu, baseline, |gpu, tape| {
            let (wxv, whv, bv) = (tape.param(&wx), tape.param(&wh), tape.param(&b));
            let mut h = input(gpu, tape, Matrix::zeros(n, hd));
            let mut c = h;
            for t in 0..2 {
                let x = data(gpu, tape, 40 + t, d);
                let gx = tape.matmul(gpu, x, wxv, rnn).unwrap();
                let gh = tape.matmul(gpu, h, whv, rnn).unwrap();
                (h, c) = tape.lstm_cell(gpu, gx, gh, bv, c, rnn).unwrap();
            }
            h
        });
        assert!(lstm > 8, "two cell steps and their GEMMs");

        let gru = fail_every_sweep_alloc(&mut gpu, baseline, |gpu, tape| {
            let (wxv, whv, bv) = (tape.param(&gwx), tape.param(&gwh), tape.param(&gb));
            let mut h = input(gpu, tape, Matrix::zeros(n, hd));
            for t in 0..2 {
                let x = data(gpu, tape, 50 + t, d);
                let gx = tape.matmul(gpu, x, wxv, rnn).unwrap();
                let gh = tape.matmul(gpu, h, whv, rnn).unwrap();
                h = tape.gru_cell(gpu, gx, gh, bv, h, rnn).unwrap();
            }
            h
        });
        assert!(gru > 8, "two cell steps and their GEMMs");

        // (a) two-step T-GCN chain: sigmoid_add + hadamard + gru_blend.
        let tgcn = fail_every_sweep_alloc(&mut gpu, baseline, |gpu, tape| {
            let [wz, wr, wn] = ws.each_ref().map(|w| tape.param(w));
            let [uz, ur, un] = us.each_ref().map(|u| tape.param(u));
            let mut h = input(gpu, tape, Matrix::zeros(n, hd));
            let mut states = Vec::new();
            for t in 0..2 {
                let x = data(gpu, tape, 60 + t, d);
                let [zx, rx, nx] = [wz, wr, wn].map(|w| tape.matmul(gpu, x, w, rnn).unwrap());
                let zh = tape.matmul(gpu, h, uz, rnn).unwrap();
                let z = tape.sigmoid_add(gpu, zx, zh, rnn).unwrap();
                let rh = tape.matmul(gpu, h, ur, rnn).unwrap();
                let r = tape.sigmoid_add(gpu, rx, rh, rnn).unwrap();
                let rh2 = tape.hadamard(gpu, r, h, rnn).unwrap();
                let nh = tape.matmul(gpu, rh2, un, rnn).unwrap();
                h = tape.gru_blend(gpu, z, nx, nh, h, rnn).unwrap();
                states.push(h);
            }
            // Both states feed the loss, so the second blend's `dh` meets a
            // gradient already there and its deposit allocates.
            tape.add(gpu, states[0], states[1], rnn).unwrap()
        });
        assert!(tgcn > 20, "two steps of six GEMMs and three pointwise ops");

        // (b) a two-member partition aggregation whose column views both
        // carry gradient.
        let shared_edges = [(0u32, 1u32), (1, 0), (2, 3), (3, 2)];
        let snapshots = [[(1, 2), (2, 1)], [(0, 3), (3, 0)]].map(|own| {
            let edges: Vec<_> = shared_edges.iter().copied().chain(own).collect();
            Csr::from_edges(n, n, &edges)
        });
        let overlap_split = pipad_sparse::extract_overlap(&[&snapshots[0], &snapshots[1]]);
        let overlap = Rc::new(SlicedCsr::from_csr(&overlap_split.overlap));
        let exclusives: Vec<_> = overlap_split
            .exclusives
            .iter()
            .map(|e| Rc::new(SlicedCsr::from_csr(e)))
            .collect();
        let inv = vec![Rc::new(vec![0.5; n]), Rc::new(vec![0.25; n])];
        let partition = fail_every_sweep_alloc(&mut gpu, baseline, |gpu, tape| {
            let x = data(gpu, tape, 70, d);
            let w = tape.param(&w0);
            let h = tape.matmul(gpu, x, w, upd).unwrap();
            let h2 = tape.tanh(gpu, h, upd).unwrap();
            let members = vec![h, h2];
            let agg = tape
                .spmm_partition(
                    gpu,
                    Some(Rc::clone(&overlap)),
                    exclusives.clone(),
                    members,
                    inv.clone(),
                )
                .unwrap();
            let views = tape
                .split_cols(gpu, agg, &[hd, hd], KernelCategory::Aggregation)
                .unwrap();
            tape.add(gpu, views[0], views[1], upd).unwrap()
        });
        assert!(
            partition > 6,
            "gather, scaled upstream, overlap, two members"
        );

        // (c) the weight-resident update: concat_rows → GEMM → add_bias →
        // split_rows.
        let update = fail_every_sweep_alloc(&mut gpu, baseline, |gpu, tape| {
            let (w0v, w1v, b1v) = (tape.param(&w0), tape.param(&w1), tape.param(&b1));
            let xs = [80, 81].map(|seed| {
                let x = data(gpu, tape, seed, d);
                tape.matmul(gpu, x, w0v, upd).unwrap()
            });
            let stacked = tape.concat_rows(gpu, &xs, upd).unwrap();
            let h = tape.matmul_weight_resident(gpu, stacked, w1v, upd).unwrap();
            let h = tape.add_bias(gpu, h, b1v, upd).unwrap();
            let views = tape.split_rows(gpu, h, &[n, n], upd).unwrap();
            tape.add(gpu, views[0], views[1], upd).unwrap()
        });
        assert!(
            update > 6,
            "gather, bias sum, GEMM pair, two views, GEMM pair"
        );
    }

    #[test]
    fn backward_launches_are_profiled() {
        let (mut gpu, s) = setup();
        let w = shared(&mut gpu, uniform(&mut seeded_rng(15), 3, 3, 1.0));
        let target = Matrix::zeros(2, 3);
        let snap = gpu.profiler().snapshot();
        let mut tape = Tape::new(s);
        let x = tape.input(DeviceMatrix::alloc(&mut gpu, Matrix::full(2, 3, 1.0)).unwrap());
        let wv = tape.param(&w);
        let h = tape
            .matmul(&mut gpu, x, wv, KernelCategory::Update)
            .unwrap();
        let forward_launches = gpu.profiler().window(snap).kernel_launches;
        tape.backward_mse(&mut gpu, h, &target).unwrap();
        let total = gpu.profiler().window(snap).kernel_launches;
        assert!(total > forward_launches, "backward must launch kernels");
        tape.finish(&mut gpu);
    }

    #[test]
    fn input_branches_are_skipped_in_backward() {
        let (mut gpu, s) = setup();
        let target = Matrix::zeros(2, 2);
        let mut tape = Tape::new(s);
        let a = tape.input(DeviceMatrix::alloc(&mut gpu, Matrix::full(2, 2, 1.0)).unwrap());
        let b = tape.input(DeviceMatrix::alloc(&mut gpu, Matrix::full(2, 2, 2.0)).unwrap());
        let h = tape.add(&mut gpu, a, b, KernelCategory::Other).unwrap();
        tape.backward_mse(&mut gpu, h, &target).unwrap();
        // Gradients never propagate into pure inputs.
        assert!(tape.grad(a).is_none());
        assert!(tape.grad(b).is_none());
        tape.finish(&mut gpu);
    }
}
