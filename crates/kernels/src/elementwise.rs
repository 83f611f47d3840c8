//! Pointwise and reshaping device kernels: activations, arithmetic,
//! degree normalization, concat/slice views and their gather, and the MSE
//! loss pair.
//!
//! All of these are bandwidth-bound streaming kernels: `reads + writes`
//! bytes at full warp efficiency, uniformly distributed across blocks.

use crate::device_data::DeviceMatrix;
use pipad_gpu_sim::{Gpu, KernelCategory, KernelCost, OomError, StreamId};
use pipad_pool as pool;
use pipad_tensor::Matrix;
use std::cell::RefCell;

/// Minimum elements before a row-broadcast kernel fans out to the pool.
const HOST_ELEMS_PER_BAND: usize = 1 << 15;

/// Rows per band so each band touches at least [`HOST_ELEMS_PER_BAND`]
/// elements.
pub(crate) fn rows_per_band(cols: usize) -> usize {
    HOST_ELEMS_PER_BAND.div_ceil(cols.max(1)).max(1)
}

/// Elements processed per thread block in the cost model.
const ELEMS_PER_BLOCK: u64 = 4096;

fn streaming_cost(
    name: &'static str,
    category: KernelCategory,
    elems_read: u64,
    elems_written: u64,
    flops_per_elem: u64,
) -> KernelCost {
    streaming_cost_flops(
        name,
        category,
        elems_read,
        elems_written,
        elems_written * flops_per_elem,
    )
}

/// [`streaming_cost`] with the flop total given outright — for kernels
/// whose arithmetic is not proportional to the elements they write.
pub(crate) fn streaming_cost_flops(
    name: &'static str,
    category: KernelCategory,
    elems_read: u64,
    elems_written: u64,
    flops: u64,
) -> KernelCost {
    let bytes = 4 * (elems_read + elems_written);
    let blocks = elems_written.max(1).div_ceil(ELEMS_PER_BLOCK).max(1);
    KernelCost::new(name, category)
        .flops(flops)
        .gmem(bytes.div_ceil(128), bytes.div_ceil(32))
        .uniform_blocks(blocks as usize, ELEMS_PER_BLOCK)
}

/// Elements an accumulate operand adds to its producer's reads (and adds).
pub(crate) fn acc_elems(acc: Option<&DeviceMatrix>) -> u64 {
    acc.map_or(0, |m| m.host().len() as u64)
}

/// The accumulate epilogue of a gradient producer (`D = acc + A·B`, cuBLAS
/// β = 1): `acc` meets the finished `product` in the same two-operand
/// `f32` add an [`add`] launch over the pair performs, so the bits are
/// that pair's; `acc` itself is only read.
pub(crate) fn fold_acc(mut product: Matrix, acc: Option<&DeviceMatrix>) -> Matrix {
    if let Some(acc) = acc {
        product.add_assign(acc.host());
    }
    product
}

fn unary(
    gpu: &mut Gpu,
    stream: StreamId,
    name: &'static str,
    category: KernelCategory,
    x: &DeviceMatrix,
    flops: u64,
    f: impl Fn(f32) -> f32 + Sync,
) -> Result<DeviceMatrix, OomError> {
    let n = x.host().len() as u64;
    gpu.launch(stream, streaming_cost(name, category, n, n, flops));
    DeviceMatrix::alloc(gpu, x.host().map(f))
}

fn binary(
    gpu: &mut Gpu,
    stream: StreamId,
    name: &'static str,
    category: KernelCategory,
    a: &DeviceMatrix,
    b: &DeviceMatrix,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Result<DeviceMatrix, OomError> {
    let n = a.host().len() as u64;
    gpu.launch(stream, streaming_cost(name, category, 2 * n, n, 1));
    DeviceMatrix::alloc(gpu, a.host().zip(b.host(), f))
}

/// `a + b`.
pub fn add(
    gpu: &mut Gpu,
    stream: StreamId,
    a: &DeviceMatrix,
    b: &DeviceMatrix,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    binary(gpu, stream, "add", category, a, b, |x, y| x + y)
}

/// Elementwise product, plus `acc` when given (read-only, see
/// [`crate::gemm_tn_device`]): one more operand read and one more flop
/// per element in the same launch.
pub fn hadamard(
    gpu: &mut Gpu,
    stream: StreamId,
    a: &DeviceMatrix,
    b: &DeviceMatrix,
    acc: Option<&DeviceMatrix>,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    let (n, n_acc) = (a.host().len() as u64, acc_elems(acc));
    let cost = streaming_cost_flops("hadamard", category, 2 * n + n_acc, n, n + n_acc);
    gpu.launch(stream, cost);
    let product = a.host().zip(b.host(), |x, y| x * y);
    DeviceMatrix::alloc(gpu, fold_acc(product, acc))
}

/// `a * s` for a scalar.
pub fn scale(
    gpu: &mut Gpu,
    stream: StreamId,
    a: &DeviceMatrix,
    s: f32,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    unary(gpu, stream, "scale", category, a, 1, |x| x * s)
}

/// Broadcast a `1 × n` bias row onto every row of `a`.
pub fn add_bias(
    gpu: &mut Gpu,
    stream: StreamId,
    a: &DeviceMatrix,
    bias: &DeviceMatrix,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), a.cols(), "bias width mismatch");
    let n = a.host().len() as u64;
    gpu.launch(
        stream,
        streaming_cost("add_bias", category, n + bias.cols() as u64, n, 1),
    );
    let (rows, cols) = (a.rows(), a.cols());
    let mut out = Matrix::zeros_in(rows, cols);
    let src = a.host().as_slice();
    let b_row = bias.host().row(0);
    let shared = pool::DisjointMut::new(out.as_mut_slice());
    pool::parallel_for(rows, rows_per_band(cols), |row_range| {
        for r in row_range {
            // SAFETY: bands own disjoint output-row ranges.
            let dst = unsafe { shared.slice(r * cols..(r + 1) * cols) };
            for ((d, &x), &bv) in dst
                .iter_mut()
                .zip(&src[r * cols..(r + 1) * cols])
                .zip(b_row)
            {
                *d = x + bv;
            }
        }
    });
    DeviceMatrix::alloc(gpu, out)
}

/// Logistic sigmoid.
pub fn sigmoid(
    gpu: &mut Gpu,
    stream: StreamId,
    x: &DeviceMatrix,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    unary(gpu, stream, "sigmoid", category, x, 4, sigmoid_f)
}

/// The logistic function as [`sigmoid`] rounds it; the fused recurrent
/// kernels share it so both paths produce the same bits.
#[inline]
pub(crate) fn sigmoid_f(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Hyperbolic tangent.
pub fn tanh_act(
    gpu: &mut Gpu,
    stream: StreamId,
    x: &DeviceMatrix,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    unary(gpu, stream, "tanh", category, x, 4, f32::tanh)
}

/// ReLU.
pub fn relu(
    gpu: &mut Gpu,
    stream: StreamId,
    x: &DeviceMatrix,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    unary(gpu, stream, "relu", category, x, 1, |v| v.max(0.0))
}

/// Backward helper: gradient mask of ReLU given its *input*.
pub fn relu_grad_mask(
    gpu: &mut Gpu,
    stream: StreamId,
    x: &DeviceMatrix,
    upstream: &DeviceMatrix,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    binary(gpu, stream, "relu_grad", category, x, upstream, |v, g| {
        if v > 0.0 {
            g
        } else {
            0.0
        }
    })
}

/// Backward helper: `g · σ(x) · (1 − σ(x))` given the forward *output*.
pub fn sigmoid_grad_from_out(
    gpu: &mut Gpu,
    stream: StreamId,
    out: &DeviceMatrix,
    upstream: &DeviceMatrix,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    binary(
        gpu,
        stream,
        "sigmoid_grad",
        category,
        out,
        upstream,
        sigmoid_grad_f,
    )
}

/// `dσ` from the forward output `y` and upstream `g`, as
/// [`sigmoid_grad_from_out`] rounds it: `(g·y)·(1 − y)`.
#[inline]
pub(crate) fn sigmoid_grad_f(y: f32, g: f32) -> f32 {
    g * y * (1.0 - y)
}

/// `dtanh` from the forward output `y` and upstream `g`, as
/// [`tanh_grad_from_out`] rounds it: `g·(1 − y·y)`.
#[inline]
pub(crate) fn tanh_grad_f(y: f32, g: f32) -> f32 {
    g * (1.0 - y * y)
}

/// Backward helper: `g · (1 − tanh(x)²)` given the forward *output*.
pub fn tanh_grad_from_out(
    gpu: &mut Gpu,
    stream: StreamId,
    out: &DeviceMatrix,
    upstream: &DeviceMatrix,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    binary(
        gpu,
        stream,
        "tanh_grad",
        category,
        out,
        upstream,
        tanh_grad_f,
    )
}

/// Degree normalization: scale row `r` of `x` by `factors[r]` — the mean
/// step of GCN aggregation, split out of SpMM so snapshots that share
/// topology can share one aggregation launch.
pub fn row_scale(
    gpu: &mut Gpu,
    stream: StreamId,
    x: &DeviceMatrix,
    factors: &[f32],
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    assert_eq!(factors.len(), x.rows(), "one factor per row");
    let n = x.host().len() as u64;
    gpu.launch(
        stream,
        streaming_cost("row_scale", category, n + x.rows() as u64, n, 1),
    );
    let (rows, cols) = (x.rows(), x.cols());
    let mut out = Matrix::zeros_in(rows, cols);
    let src = x.host().as_slice();
    let shared = pool::DisjointMut::new(out.as_mut_slice());
    pool::parallel_for(rows, rows_per_band(cols), |row_range| {
        for r in row_range {
            // SAFETY: bands own disjoint output-row ranges.
            let dst = unsafe { shared.slice(r * cols..(r + 1) * cols) };
            let s = factors[r];
            for (d, &x) in dst.iter_mut().zip(&src[r * cols..(r + 1) * cols]) {
                *d = x * s;
            }
        }
    });
    DeviceMatrix::alloc(gpu, out)
}

/// Per-member degree normalization over a coalescent matrix: member `k`'s
/// column block (width `cols / factors.len()`) has row `r` scaled by
/// `factors[k][r]`. One streaming pass — the normalization epilogue of the
/// partition aggregation.
pub fn row_scale_multi(
    gpu: &mut Gpu,
    stream: StreamId,
    x: &DeviceMatrix,
    factors: &[std::rc::Rc<Vec<f32>>],
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    assert!(!factors.is_empty());
    assert_eq!(x.cols() % factors.len(), 0, "uneven member widths");
    let width = x.cols() / factors.len();
    for f in factors {
        assert_eq!(f.len(), x.rows(), "one factor per row per member");
    }
    let n = x.host().len() as u64;
    gpu.launch(
        stream,
        streaming_cost(
            "row_scale_multi",
            category,
            n + (x.rows() * factors.len()) as u64,
            n,
            1,
        ),
    );
    // `Rc` is not `Sync`; borrow the underlying slices before fanning out.
    let members: Vec<&[f32]> = factors.iter().map(|f| f.as_slice()).collect();
    let (rows, cols) = (x.rows(), x.cols());
    let mut out = Matrix::zeros_in(rows, cols);
    let src = x.host().as_slice();
    let shared = pool::DisjointMut::new(out.as_mut_slice());
    pool::parallel_for(rows, rows_per_band(cols), |row_range| {
        for r in row_range {
            // SAFETY: bands own disjoint output-row ranges.
            let dst = unsafe { shared.slice(r * cols..(r + 1) * cols) };
            for (c, (d, &x)) in dst
                .iter_mut()
                .zip(&src[r * cols..(r + 1) * cols])
                .enumerate()
            {
                *d = x * members[c / width][r];
            }
        }
    });
    DeviceMatrix::alloc(gpu, out)
}

/// Concatenate matrices row-wise (stacks a partition's features so one
/// weight-resident GEMM can serve every snapshot).
pub fn concat_rows(
    gpu: &mut Gpu,
    stream: StreamId,
    parts: &[&DeviceMatrix],
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    let _ = (stream, category);
    let mats: Vec<&Matrix> = parts.iter().map(|p| p.host()).collect();
    DeviceMatrix::alloc(gpu, Matrix::concat_rows(&mats))
}

/// Row range copy `[from, to)`.
pub fn slice_rows(
    gpu: &mut Gpu,
    stream: StreamId,
    x: &DeviceMatrix,
    from: usize,
    to: usize,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    let _ = (stream, category);
    DeviceMatrix::alloc(gpu, x.host().slice_rows(from, to))
}

/// Multi-tensor SGD step, `param ← param − lr · grad` in place for every
/// `(param, grad)` pair, in **one** launch over all of them (PyTorch's
/// `foreach` SGD, apex's `multi_tensor_apply`). Nothing is launched for an
/// empty list.
///
/// `finite` says whether the loss [`mse_loss`] left in device memory is
/// finite. A replayed graph cannot branch on a value the host has not read
/// yet, so a captured step is always launched and reads that flag itself:
/// `false` makes the launch write nothing (AMP's `found_inf`).
pub fn sgd_step(
    gpu: &mut Gpu,
    stream: StreamId,
    pairs: &[(&RefCell<DeviceMatrix>, &Matrix)],
    lr: f32,
    finite: bool,
) {
    if pairs.is_empty() {
        return;
    }
    let n: u64 = pairs.iter().map(|(_, g)| g.len() as u64).sum();
    gpu.launch(
        stream,
        streaming_cost("sgd_step", KernelCategory::Optimizer, 2 * n, n, 2),
    );
    if !finite {
        return;
    }
    for (param, grad) in pairs {
        let mut param = param.borrow_mut();
        assert_eq!(param.host().shape(), grad.shape(), "sgd shape mismatch");
        let updated = param.host().zip(grad, |w, g| w - lr * g);
        param.store(updated);
    }
}

/// Column range copy `[from, to)` (a member's view of a coalescent matrix).
///
/// **View semantics**: no kernel is launched and no traffic is charged —
/// on the real device the consuming kernel's thread mapping reads the
/// member matrices interleaved (the paper's slice-group layout); charging
/// a separate packing pass would double-count the bytes the consumer
/// already pays for. Only the result's device allocation is accounted.
pub fn slice_cols(
    gpu: &mut Gpu,
    stream: StreamId,
    x: &DeviceMatrix,
    from: usize,
    to: usize,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    let _ = (stream, category);
    DeviceMatrix::alloc(gpu, x.host().slice_cols(from, to))
}

/// The axis a matrix is cut into views along, and gathered back along.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Parts stacked vertically ([`slice_rows`] views).
    Rows,
    /// Parts side by side ([`slice_cols`] views).
    Cols,
}

impl Axis {
    /// How far a `(rows, cols)` shape reaches along this axis.
    pub fn extent(self, (rows, cols): (usize, usize)) -> usize {
        match self {
            Axis::Rows => rows,
            Axis::Cols => cols,
        }
    }
}

/// Adjoint of cutting a `rows × cols` matrix into [`slice_rows`] /
/// [`slice_cols`] views: every `(from, block)` of `placed` lands at offset
/// `from` along `axis`, and whatever no block covers is zero.
///
/// One streaming launch over the **placed** elements, each read once and
/// written once. The zero fill of the uncovered rest is a memset, which this
/// simulator bills nowhere (zero-initialised device buffers are allocated
/// without a launch throughout), so gathering one block of sixteen costs
/// one block.
///
/// Elements are written as `v + 0.0`: the sum of zero-padded blocks this
/// replaces turned `−0.0` into `+0.0`, and so does this (DESIGN §3.9).
pub fn gather(
    gpu: &mut Gpu,
    stream: StreamId,
    axis: Axis,
    (rows, cols): (usize, usize),
    placed: &[(usize, &DeviceMatrix)],
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    let n: u64 = placed.iter().map(|(_, b)| b.host().len() as u64).sum();
    gpu.launch(stream, streaming_cost("gather", category, n, n, 1));
    let mut out = Matrix::zeros_in(rows, cols);
    let shared = pool::DisjointMut::new(out.as_mut_slice());
    for &(from, block) in placed {
        let (row0, col0) = match axis {
            Axis::Rows => (from, 0),
            Axis::Cols => (0, from),
        };
        let width = block.cols();
        assert!(
            row0 + block.rows() <= rows && col0 + width <= cols,
            "gathered block out of range"
        );
        let src = block.host();
        pool::parallel_for(block.rows(), rows_per_band(width), |band| {
            for r in band {
                let at = (row0 + r) * cols + col0;
                // SAFETY: bands own disjoint rows of this block's window.
                let dst = unsafe { shared.slice(at..at + width) };
                for (d, &v) in dst.iter_mut().zip(src.row(r)) {
                    *d = v + 0.0;
                }
            }
        });
    }
    DeviceMatrix::alloc(gpu, out)
}

/// Column-wise sum reduction into a `1 × cols` row vector — the bias
/// gradient (`Σ_rows dY`) — plus the `1 × cols` `acc` when given
/// (read-only, see [`crate::gemm_tn_device`]).
pub fn col_sums(
    gpu: &mut Gpu,
    stream: StreamId,
    x: &DeviceMatrix,
    acc: Option<&DeviceMatrix>,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    let (n, cols, n_acc) = (x.host().len() as u64, x.cols() as u64, acc_elems(acc));
    let cost = streaming_cost_flops("col_sums", category, n + n_acc, cols, cols + n_acc);
    gpu.launch(stream, cost);
    let sums = x.host().col_sums();
    let sums = Matrix::from_vec(1, sums.len(), sums);
    DeviceMatrix::alloc(gpu, fold_acc(sums, acc))
}

/// Mean-squared-error loss (scalar) between prediction and target. The
/// scalar is written to device memory, where a captured [`sgd_step`] reads
/// whether it is finite without a round trip to the host.
pub fn mse_loss(gpu: &mut Gpu, stream: StreamId, pred: &DeviceMatrix, target: &Matrix) -> f32 {
    squared_error(gpu, stream, "mse_loss", pred, target) / pred.host().len().max(1) as f32
}

/// Raw sum of squared errors (no normalization) between prediction and
/// target. The multi-GPU path needs the *unnormalized* partial sum per
/// vertex shard: summing shard SSEs in a canonical order and dividing once
/// by the global element count reproduces the single-device
/// [`mse_loss`] bit for bit, which post-hoc rescaling of per-shard means
/// (`(x/a)·(a/b)`) would not.
pub fn sse_loss(gpu: &mut Gpu, stream: StreamId, pred: &DeviceMatrix, target: &Matrix) -> f32 {
    squared_error(gpu, stream, "sse_loss", pred, target)
}

/// The one loss kernel body, launched as `name`: `Σ (pred − target)²`.
fn squared_error(
    gpu: &mut Gpu,
    stream: StreamId,
    name: &'static str,
    pred: &DeviceMatrix,
    target: &Matrix,
) -> f32 {
    assert_eq!(pred.host().shape(), target.shape());
    let n = pred.host().len() as u64;
    gpu.launch(
        stream,
        streaming_cost(name, KernelCategory::Loss, 2 * n, 1, 3),
    );
    let diff = pred.host().zip(target, |a, b| a - b);
    let sse = diff.norm_sq();
    diff.recycle();
    sse
}

/// Gradient of an MSE over `denom` elements w.r.t. the prediction:
/// `2 (pred − target) / denom`. With `denom = pred.len()` it is the gradient
/// of [`mse_loss`]; a vertex shard seeds its backward pass with the
/// *globally* denominated gradient (`denom` = full-graph element count), so
/// per-shard gradients are exactly the corresponding rows of the
/// single-device one.
pub fn mse_grad_denom(
    gpu: &mut Gpu,
    stream: StreamId,
    pred: &DeviceMatrix,
    target: &Matrix,
    denom: u64,
) -> Result<DeviceMatrix, OomError> {
    let n = pred.host().len() as u64;
    gpu.launch(
        stream,
        streaming_cost("mse_grad", KernelCategory::Loss, 2 * n, n, 2),
    );
    let g = pred
        .host()
        .zip(target, |a, b| 2.0 * (a - b) / denom.max(1) as f32);
    DeviceMatrix::alloc(gpu, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::upload_matrix;
    use pipad_gpu_sim::DeviceConfig;

    fn setup() -> (Gpu, StreamId) {
        let g = Gpu::new(DeviceConfig::v100());
        let s = g.default_stream();
        (g, s)
    }

    fn dev(gpu: &mut Gpu, s: StreamId, m: Matrix) -> DeviceMatrix {
        upload_matrix(gpu, s, &m, true).unwrap()
    }

    #[test]
    fn arithmetic_ops() {
        let (mut g, s) = setup();
        let a = dev(&mut g, s, Matrix::full(2, 2, 3.0));
        let b = dev(&mut g, s, Matrix::full(2, 2, 2.0));
        assert_eq!(
            add(&mut g, s, &a, &b, KernelCategory::Elementwise)
                .unwrap()
                .host()
                .sum(),
            20.0
        );
        assert_eq!(
            hadamard(&mut g, s, &a, &b, None, KernelCategory::Elementwise)
                .unwrap()
                .host()
                .sum(),
            24.0
        );
        assert_eq!(
            scale(&mut g, s, &a, 0.5, KernelCategory::Elementwise)
                .unwrap()
                .host()
                .sum(),
            6.0
        );
    }

    #[test]
    fn activations_and_grads() {
        let (mut g, s) = setup();
        let x = dev(&mut g, s, Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]));
        let r = relu(&mut g, s, &x, KernelCategory::Elementwise).unwrap();
        assert_eq!(r.host().as_slice(), &[0.0, 0.0, 2.0]);

        let sg = sigmoid(&mut g, s, &x, KernelCategory::Rnn).unwrap();
        assert!((sg.host()[(0, 1)] - 0.5).abs() < 1e-6);

        let th = tanh_act(&mut g, s, &x, KernelCategory::Rnn).unwrap();
        assert!((th.host()[(0, 2)] - 2.0f32.tanh()).abs() < 1e-6);

        let ones = dev(&mut g, s, Matrix::full(1, 3, 1.0));
        let rg = relu_grad_mask(&mut g, s, &x, &ones, KernelCategory::Elementwise).unwrap();
        assert_eq!(rg.host().as_slice(), &[0.0, 0.0, 1.0]);

        // σ'(0) = 0.25, tanh'(0) = 1
        let sgg = sigmoid_grad_from_out(&mut g, s, &sg, &ones, KernelCategory::Rnn).unwrap();
        assert!((sgg.host()[(0, 1)] - 0.25).abs() < 1e-6);
        let thg = tanh_grad_from_out(&mut g, s, &th, &ones, KernelCategory::Rnn).unwrap();
        assert!((thg.host()[(0, 1)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bias_and_row_scale() {
        let (mut g, s) = setup();
        let x = dev(&mut g, s, Matrix::full(3, 2, 1.0));
        let b = dev(&mut g, s, Matrix::from_vec(1, 2, vec![10.0, 20.0]));
        let y = add_bias(&mut g, s, &x, &b, KernelCategory::Update).unwrap();
        assert_eq!(y.host()[(2, 1)], 21.0);

        let z = row_scale(&mut g, s, &x, &[1.0, 2.0, 3.0], KernelCategory::Aggregation).unwrap();
        assert_eq!(z.host().row(2), &[3.0, 3.0]);
    }

    #[test]
    fn slice_cols_copies_the_column_range() {
        let (mut g, s) = setup();
        let a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        let cat = dev(&mut g, s, Matrix::concat_cols(&[&a, &b]));
        let sl = slice_cols(&mut g, s, &cat, 1, 3, KernelCategory::Elementwise).unwrap();
        assert_eq!(sl.host().row(0), &[1.0, 2.0]);
    }

    #[test]
    fn gather_places_blocks_zero_fills_the_rest_and_bills_only_what_it_moves() {
        let (mut g, s) = setup();
        let a = dev(&mut g, s, Matrix::from_vec(2, 2, vec![1.0, -0.0, 3.0, 4.0]));
        let b = dev(&mut g, s, Matrix::from_vec(1, 2, vec![5.0, 6.0]));
        let cat = KernelCategory::Elementwise;

        let snap = g.profiler().snapshot();
        let cols = gather(&mut g, s, Axis::Cols, (2, 6), &[(3, &a)], cat).unwrap();
        assert_eq!(cols.host().row(0), &[0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        assert_eq!(cols.host().row(1), &[0.0, 0.0, 0.0, 3.0, 4.0, 0.0]);
        // `−0.0` leaves as `+0.0`, as it left the padded sum.
        assert_eq!(cols.host()[(0, 4)].to_bits(), 0.0f32.to_bits());
        let w = g.profiler().window(snap);
        assert_eq!(w.kernel_launches, 1);
        // 4 elements read + 4 written = 32 bytes: one 32-byte sector.
        assert_eq!(w.gmem_transactions, 1);

        let rows = gather(&mut g, s, Axis::Rows, (4, 2), &[(0, &b), (2, &a)], cat).unwrap();
        assert_eq!(
            rows.host().as_slice(),
            &[5.0, 6.0, 0.0, 0.0, 1.0, 0.0, 3.0, 4.0]
        );
    }

    #[test]
    fn mse_pair_is_consistent() {
        let (mut g, s) = setup();
        let pred = dev(&mut g, s, Matrix::from_vec(1, 2, vec![1.0, 3.0]));
        let target = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let loss = mse_loss(&mut g, s, &pred, &target);
        assert!((loss - 2.5).abs() < 1e-6); // (1 + 4) / 2
        let grad = mse_grad_denom(&mut g, s, &pred, &target, 2).unwrap();
        assert_eq!(grad.host().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn sharded_sse_and_denominated_grad_match_single_device() {
        let (mut g, s) = setup();
        let pred = dev(&mut g, s, Matrix::from_vec(2, 2, vec![1.0, 3.0, 2.0, 0.0]));
        let target = Matrix::from_vec(2, 2, vec![0.0, 1.0, 0.0, 1.0]);
        let whole = mse_loss(&mut g, s, &pred, &target);
        // shard rows: SSE partials summed then divided once
        let top = dev(&mut g, s, pred.host().slice_rows(0, 1));
        let bot = dev(&mut g, s, pred.host().slice_rows(1, 2));
        let sse = sse_loss(&mut g, s, &top, &target.slice_rows(0, 1))
            + sse_loss(&mut g, s, &bot, &target.slice_rows(1, 2));
        assert_eq!((sse / 4.0).to_bits(), whole.to_bits());
        // globally denominated shard gradient == rows of the full gradient
        let full_grad = mse_grad_denom(&mut g, s, &pred, &target, 4).unwrap();
        let shard_grad = mse_grad_denom(&mut g, s, &bot, &target.slice_rows(1, 2), 4).unwrap();
        assert_eq!(
            shard_grad.host().as_slice(),
            &full_grad.host().as_slice()[2..4]
        );
    }

    #[test]
    fn kernels_account_cost() {
        let (mut g, s) = setup();
        let a = dev(&mut g, s, Matrix::full(64, 64, 1.0));
        let snap = g.profiler().snapshot();
        relu(&mut g, s, &a, KernelCategory::Elementwise).unwrap();
        let w = g.profiler().window(snap);
        assert_eq!(w.kernel_launches, 1);
        assert!(w.gmem_transactions >= 2 * 64 * 64 * 4 / 32);
    }
}
