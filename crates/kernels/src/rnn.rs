//! Fused recurrent-cell kernels: the LSTM/GRU gate algebra as one pointwise
//! launch forward and one backward, the way cuDNN and PyTorch's
//! `_thnn_fused_{lstm,gru}_cell` do it. The gate GEMMs stay outside.
//!
//! **Rounding-order contract** (DESIGN §3.9): per element each kernel
//! performs exactly the separately-rounded f32 sequence the chain of
//! one-op kernels it replaces performed — `(gx + gh) + b`, `(g·y)·(1 − y)`,
//! `g·h + (−(g·n))` — so losses keep their bits. Gate gradients end in
//! `+ 0.0`: the composed path accumulated zero-padded column slices, which
//! turns `−0.0` into `+0.0`, and the fused path reproduces that.
//!
//! **Cost contract**: every kernel is one streaming launch that reads each
//! distinct operand once and writes each output and each saved-for-backward
//! tensor once; flops are those the replaced kernels billed for the
//! arithmetic that remains.

use crate::device_data::DeviceMatrix;
use crate::elementwise::{
    rows_per_band, sigmoid_f, sigmoid_grad_f, streaming_cost_flops, tanh_grad_f,
};
use pipad_gpu_sim::{Gpu, KernelCategory, OomError, StreamId};
use pipad_pool as pool;
use pipad_tensor::Matrix;

// Billed flops per hidden element: the sum over the one-op kernels each
// fused kernel replaces (`add`/`hadamard`/`scale`/`*_grad` bill 1,
// `sigmoid`/`tanh` bill 4), not counting the identity copies and
// zero-padded accumulations that no longer exist.
const LSTM_FWD_FLOPS: u64 = 32; // 4 add + 4 bias + 3σ + 2 tanh + 3 ⊙ + 1 add
const LSTM_BWD_FLOPS: u64 = 16; // 6 ⊙ + tanh′ + add + 4 gate′ + 4 (+0.0)
const GRU_FWD_FLOPS: u64 = 23; // 3 bias + 3 add + 2σ + tanh + scale + 3 ⊙ + add
const GRU_BWD_FLOPS: u64 = 17; // 6 ⊙ + scale + add + tanh′ + 2σ′ + 6 (+0.0)
const SIGMOID_ADD_FLOPS: u64 = 5; // add + σ
const BLEND_FWD_FLOPS: u64 = 9; // add + tanh + scale + 2 ⊙ + add
const BLEND_BWD_FLOPS: u64 = 7; // 4 ⊙ + scale + add + tanh′

/// Allocate every matrix or none: a fused kernel has several outputs, and
/// an out-of-memory on a later one must not leak the earlier ones.
fn alloc_all<const N: usize>(
    gpu: &mut Gpu,
    mats: [Matrix; N],
) -> Result<[DeviceMatrix; N], OomError> {
    let mut done: [Option<DeviceMatrix>; N] = std::array::from_fn(|_| None);
    let mut rest = mats.into_iter();
    for k in 0..N {
        let m = rest.next().expect("N matrices");
        match DeviceMatrix::alloc(gpu, m) {
            Ok(d) => done[k] = Some(d),
            Err(e) => {
                done.into_iter().flatten().for_each(|d| d.release(gpu));
                rest.for_each(Matrix::recycle);
                return Err(e);
            }
        }
    }
    Ok(done.map(|d| d.expect("allocated above")))
}

/// [`alloc_all`] plus one output that exists only when `wanted` (the
/// kernels give it zero width otherwise, so one loop serves both cases).
fn alloc_all_and<const N: usize>(
    gpu: &mut Gpu,
    mats: [Matrix; N],
    optional: Matrix,
    wanted: bool,
) -> Result<([DeviceMatrix; N], Option<DeviceMatrix>), OomError> {
    let mats = alloc_all(gpu, mats)?;
    if !wanted {
        return Ok((mats, None));
    }
    match DeviceMatrix::alloc(gpu, optional) {
        Ok(d) => Ok((mats, Some(d))),
        Err(e) => {
            mats.into_iter().for_each(|d| d.release(gpu));
            Err(e)
        }
    }
}

/// Call `f(r, rows)` for every row `r`, where `rows[k]` is row `r` of
/// `outs[k]`, banded across the pool. Each output element is written by
/// exactly one call, so results do not depend on the thread count.
fn for_each_row<const N: usize>(outs: [&mut Matrix; N], f: impl Fn(usize, [&mut [f32]; N]) + Sync) {
    let rows = outs[0].rows();
    let widths = outs.each_ref().map(|m| m.cols());
    let shared = outs.map(|m| pool::DisjointMut::new(m.as_mut_slice()));
    pool::parallel_for(rows, rows_per_band(widths.iter().sum()), |band| {
        for r in band {
            let row = std::array::from_fn(|k| {
                // SAFETY: bands own disjoint row ranges, and row `r` of
                // output `k` is its own `widths[k]`-wide window.
                unsafe { shared[k].slice(r * widths[k]..(r + 1) * widths[k]) }
            });
            f(r, row);
        }
    });
}

/// `h′ = (1 − z) ⊙ n + z ⊙ h` as `affine_const`, two `hadamard`s and an
/// `add` round it.
#[inline]
fn blend(z: f32, n: f32, h: f32) -> f32 {
    let omz = -z + 1.0;
    omz * n + z * h
}

/// Backward of [`blend`] through the candidate's `tanh`:
/// `(dz, d(pre-tanh n), dh)` for upstream `g`.
#[inline]
fn blend_grad(g: f32, z: f32, n: f32, h: f32) -> (f32, f32, f32) {
    let omz = -z + 1.0;
    let dz = g * h + -(g * n);
    (dz, tanh_grad_f(n, g * omz), g * z)
}

/// Outputs of [`lstm_cell`].
pub struct LstmCellOut {
    /// New hidden state `h′ = o ⊙ tanh(c′)`.
    pub h: DeviceMatrix,
    /// New cell state `c′ = f ⊙ c + i ⊙ g`.
    pub c: DeviceMatrix,
    /// Saved for backward: `[i | f | g | o | tanh(c′)]`, `n × 5h`.
    pub saved: DeviceMatrix,
}

/// Fused LSTM gate algebra: from the gate pre-activation halves
/// `gx = x·Wx` and `gh = h·Wh` (`n × 4h`, gate order `[i, f, g, o]`), the
/// bias `b` (`1 × 4h`) and the previous cell state `c` (`n × h`).
pub fn lstm_cell(
    gpu: &mut Gpu,
    stream: StreamId,
    gx: &DeviceMatrix,
    gh: &DeviceMatrix,
    b: &DeviceMatrix,
    c: &DeviceMatrix,
    category: KernelCategory,
) -> Result<LstmCellOut, OomError> {
    let (n, hd) = (c.rows(), c.cols());
    assert_eq!((gx.rows(), gx.cols()), (n, 4 * hd), "gx must be n × 4h");
    assert_eq!((gh.rows(), gh.cols()), (n, 4 * hd), "gh must be n × 4h");
    assert_eq!((b.rows(), b.cols()), (1, 4 * hd), "bias must be 1 × 4h");
    let nh = (n * hd) as u64;
    gpu.launch(
        stream,
        streaming_cost_flops(
            "lstm_cell",
            category,
            9 * nh + 4 * hd as u64,
            7 * nh,
            nh * LSTM_FWD_FLOPS,
        ),
    );
    let mut h_out = Matrix::zeros_in(n, hd);
    let mut c_out = Matrix::zeros_in(n, hd);
    let mut saved = Matrix::zeros_in(n, 5 * hd);
    let (gx, gh, b, c) = (gx.host(), gh.host(), b.host().row(0), c.host());
    for_each_row([&mut h_out, &mut c_out, &mut saved], |r, [h2, c2, sv]| {
        // Block-wise passes over the row rather than one pass over `j`:
        // contiguous loops keep the transcendental calls back to back.
        let (gates, tc) = sv.split_at_mut(4 * hd);
        for (((s, &x), &y), &bv) in gates.iter_mut().zip(gx.row(r)).zip(gh.row(r)).zip(b) {
            *s = (x + y) + bv;
        }
        let (i_f, g_o) = gates.split_at_mut(2 * hd);
        let (g, o) = g_o.split_at_mut(hd);
        i_f.iter_mut()
            .chain(o.iter_mut())
            .for_each(|v| *v = sigmoid_f(*v));
        g.iter_mut().for_each(|v| *v = v.tanh());
        let (i, f) = i_f.split_at(hd);
        for ((((cn, &c), &i), &f), &g) in c2.iter_mut().zip(c.row(r)).zip(i).zip(f).zip(&*g) {
            *cn = f * c + i * g;
        }
        for (t, &cn) in tc.iter_mut().zip(&*c2) {
            *t = cn.tanh();
        }
        for ((h, &o), &t) in h2.iter_mut().zip(&*o).zip(&*tc) {
            *h = o * t;
        }
    });
    let [h, c, saved] = alloc_all(gpu, [h_out, c_out, saved])?;
    Ok(LstmCellOut { h, c, saved })
}

/// Gradients produced by [`lstm_cell_grad`].
pub struct LstmCellGrad {
    /// Gradient of the gate pre-activations (`n × 4h`) — of `gx` and of
    /// `gh` alike, and the matrix whose column sums are the bias gradient.
    pub dgates: DeviceMatrix,
    /// Gradient of the previous cell state, when asked for.
    pub dc: Option<DeviceMatrix>,
}

/// Backward of [`lstm_cell`]: `dh` is the gradient of `h′`, `dc_next` what
/// later consumers of `c′` deposited (absent for the last step of a
/// chain), `c` the forward's previous cell state.
#[allow(clippy::too_many_arguments)]
pub fn lstm_cell_grad(
    gpu: &mut Gpu,
    stream: StreamId,
    saved: &DeviceMatrix,
    c: &DeviceMatrix,
    dh: &DeviceMatrix,
    dc_next: Option<&DeviceMatrix>,
    want_dc: bool,
    category: KernelCategory,
) -> Result<LstmCellGrad, OomError> {
    let (n, hd) = (c.rows(), c.cols());
    assert_eq!((saved.rows(), saved.cols()), (n, 5 * hd), "saved is n × 5h");
    assert_eq!((dh.rows(), dh.cols()), (n, hd), "dh must be n × h");
    let nh = (n * hd) as u64;
    gpu.launch(
        stream,
        streaming_cost_flops(
            "lstm_cell_grad",
            category,
            (7 + dc_next.is_some() as u64) * nh,
            (4 + want_dc as u64) * nh,
            nh * LSTM_BWD_FLOPS,
        ),
    );
    let mut dgates = Matrix::zeros_in(n, 4 * hd);
    let mut dc = Matrix::zeros_in(n, if want_dc { hd } else { 0 });
    let (saved, c, dh) = (saved.host(), c.host(), dh.host());
    let dc_next = dc_next.map(DeviceMatrix::host);
    for_each_row([&mut dgates, &mut dc], |r, [dg, dc]| {
        let (sv, c, dh) = (saved.row(r), c.row(r), dh.row(r));
        let dcn = dc_next.map(|m| m.row(r));
        for j in 0..hd {
            let (i, f, g, o, tc) = (
                sv[j],
                sv[hd + j],
                sv[2 * hd + j],
                sv[3 * hd + j],
                sv[4 * hd + j],
            );
            let through_h = tanh_grad_f(tc, dh[j] * o);
            let gc = match dcn {
                Some(d) => d[j] + through_h,
                None => through_h,
            };
            dg[j] = sigmoid_grad_f(i, gc * g) + 0.0;
            dg[hd + j] = sigmoid_grad_f(f, gc * c[j]) + 0.0;
            dg[2 * hd + j] = tanh_grad_f(g, gc * i) + 0.0;
            dg[3 * hd + j] = sigmoid_grad_f(o, dh[j] * tc) + 0.0;
            if want_dc {
                dc[j] = gc * f;
            }
        }
    });
    let ([dgates], dc) = alloc_all_and(gpu, [dgates], dc, want_dc)?;
    Ok(LstmCellGrad { dgates, dc })
}

/// Outputs of [`gru_cell`].
pub struct GruCellOut {
    /// New hidden state.
    pub h: DeviceMatrix,
    /// Saved for backward: `[r | z | n]`, `n × 3h`.
    pub saved: DeviceMatrix,
}

/// Fused GRU gate algebra: from `gx = x·Wx` and `gh = h·Wh` (`n × 3h`, gate
/// order `[r, z, n]`), the bias `b` (`1 × 3h`, added to `gx`) and the
/// previous hidden state `h`; the candidate is `tanh(nx + r ⊙ nh)`.
pub fn gru_cell(
    gpu: &mut Gpu,
    stream: StreamId,
    gx: &DeviceMatrix,
    gh: &DeviceMatrix,
    b: &DeviceMatrix,
    h: &DeviceMatrix,
    category: KernelCategory,
) -> Result<GruCellOut, OomError> {
    let (n, hd) = (h.rows(), h.cols());
    assert_eq!((gx.rows(), gx.cols()), (n, 3 * hd), "gx must be n × 3h");
    assert_eq!((gh.rows(), gh.cols()), (n, 3 * hd), "gh must be n × 3h");
    assert_eq!((b.rows(), b.cols()), (1, 3 * hd), "bias must be 1 × 3h");
    let nh = (n * hd) as u64;
    gpu.launch(
        stream,
        streaming_cost_flops(
            "gru_cell",
            category,
            7 * nh + 3 * hd as u64,
            4 * nh,
            nh * GRU_FWD_FLOPS,
        ),
    );
    let mut h_out = Matrix::zeros_in(n, hd);
    let mut saved = Matrix::zeros_in(n, 3 * hd);
    let (gx, gh, b, h) = (gx.host(), gh.host(), b.host().row(0), h.host());
    for_each_row([&mut h_out, &mut saved], |row, [h2, sv]| {
        let (gx, gh) = (gx.row(row), gh.row(row));
        let (r_z, n) = sv.split_at_mut(2 * hd);
        for (((s, &x), &bv), &y) in r_z.iter_mut().zip(gx).zip(b).zip(gh) {
            *s = sigmoid_f((x + bv) + y);
        }
        let (r, z) = r_z.split_at(hd);
        let cand = 2 * hd..3 * hd;
        for ((((n, &x), &bv), &y), &r) in n
            .iter_mut()
            .zip(&gx[cand.clone()])
            .zip(&b[cand.clone()])
            .zip(&gh[cand])
            .zip(r)
        {
            *n = ((x + bv) + r * y).tanh();
        }
        for (((h2, &z), &n), &h) in h2.iter_mut().zip(z).zip(&*n).zip(h.row(row)) {
            *h2 = blend(z, n, h);
        }
    });
    let [h, saved] = alloc_all(gpu, [h_out, saved])?;
    Ok(GruCellOut { h, saved })
}

/// Gradients produced by [`gru_cell_grad`].
pub struct GruCellGrad {
    /// Gradient of `gx` (`n × 3h`); its column sums are the bias gradient.
    pub dgx: DeviceMatrix,
    /// Gradient of `gh` — differs from `dgx` in the candidate block, which
    /// the reset gate scales.
    pub dgh: DeviceMatrix,
    /// Gradient of the previous hidden state through the blend, when asked
    /// for (the part through `gh` flows back through its GEMM).
    pub dh: Option<DeviceMatrix>,
}

/// Backward of [`gru_cell`] for upstream `g`; `gh` and `h` are the
/// forward's operands.
#[allow(clippy::too_many_arguments)]
pub fn gru_cell_grad(
    gpu: &mut Gpu,
    stream: StreamId,
    saved: &DeviceMatrix,
    gh: &DeviceMatrix,
    h: &DeviceMatrix,
    g: &DeviceMatrix,
    want_dh: bool,
    category: KernelCategory,
) -> Result<GruCellGrad, OomError> {
    let (n, hd) = (h.rows(), h.cols());
    assert_eq!((saved.rows(), saved.cols()), (n, 3 * hd), "saved is n × 3h");
    assert_eq!((gh.rows(), gh.cols()), (n, 3 * hd), "gh must be n × 3h");
    assert_eq!((g.rows(), g.cols()), (n, hd), "upstream must be n × h");
    let nh = (n * hd) as u64;
    gpu.launch(
        stream,
        streaming_cost_flops(
            "gru_cell_grad",
            category,
            6 * nh, // g, [r z n], gh's candidate block, h
            (6 + want_dh as u64) * nh,
            nh * GRU_BWD_FLOPS,
        ),
    );
    let mut dgx = Matrix::zeros_in(n, 3 * hd);
    let mut dgh = Matrix::zeros_in(n, 3 * hd);
    let mut dh = Matrix::zeros_in(n, if want_dh { hd } else { 0 });
    let (saved, gh, h, g) = (saved.host(), gh.host(), h.host(), g.host());
    for_each_row([&mut dgx, &mut dgh, &mut dh], |row, [dx, dy, dh]| {
        let (sv, gh, h, g) = (saved.row(row), gh.row(row), h.row(row), g.row(row));
        for j in 0..hd {
            let (r, z, n) = (sv[j], sv[hd + j], sv[2 * hd + j]);
            let (dz, dn, dh_j) = blend_grad(g[j], z, n, h[j]);
            let dr = sigmoid_grad_f(r, dn * gh[2 * hd + j]) + 0.0;
            let dz = sigmoid_grad_f(z, dz) + 0.0;
            (dx[j], dy[j]) = (dr, dr);
            (dx[hd + j], dy[hd + j]) = (dz, dz);
            dx[2 * hd + j] = dn + 0.0;
            dy[2 * hd + j] = dn * r + 0.0;
            if want_dh {
                dh[j] = dh_j;
            }
        }
    });
    let ([dgx, dgh], dh) = alloc_all_and(gpu, [dgx, dgh], dh, want_dh)?;
    Ok(GruCellGrad { dgx, dgh, dh })
}

/// `σ(a + b)` in one launch (T-GCN's update and reset gates). Its backward
/// is [`crate::sigmoid_grad_from_out`] on the output: both addends receive
/// that one gradient.
pub fn sigmoid_add(
    gpu: &mut Gpu,
    stream: StreamId,
    a: &DeviceMatrix,
    b: &DeviceMatrix,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    let n = a.host().len() as u64;
    gpu.launch(
        stream,
        streaming_cost_flops("sigmoid_add", category, 2 * n, n, n * SIGMOID_ADD_FLOPS),
    );
    DeviceMatrix::alloc(gpu, a.host().zip(b.host(), |x, y| sigmoid_f(x + y)))
}

/// Outputs of [`gru_blend`].
pub struct GruBlendOut {
    /// New hidden state `(1 − z) ⊙ n + z ⊙ h`.
    pub h: DeviceMatrix,
    /// Saved for backward: the candidate `n = tanh(nx + nh)`.
    pub n: DeviceMatrix,
}

/// The tail of a GRU whose candidate GEMM sits between gates and blend
/// (T-GCN: `nh = (r ⊙ h)·Uₙ`): `h′ = (1 − z) ⊙ tanh(nx + nh) + z ⊙ h`.
pub fn gru_blend(
    gpu: &mut Gpu,
    stream: StreamId,
    z: &DeviceMatrix,
    nx: &DeviceMatrix,
    nh: &DeviceMatrix,
    h: &DeviceMatrix,
    category: KernelCategory,
) -> Result<GruBlendOut, OomError> {
    let shape = z.host().shape();
    for m in [nx, nh, h] {
        assert_eq!(
            m.host().shape(),
            shape,
            "gru_blend operands differ in shape"
        );
    }
    let len = z.host().len() as u64;
    gpu.launch(
        stream,
        streaming_cost_flops(
            "gru_blend",
            category,
            4 * len,
            2 * len,
            len * BLEND_FWD_FLOPS,
        ),
    );
    let mut h_out = Matrix::zeros_in(shape.0, shape.1);
    let mut n_out = Matrix::zeros_in(shape.0, shape.1);
    let (z, nx, nh, h) = (z.host(), nx.host(), nh.host(), h.host());
    for_each_row([&mut h_out, &mut n_out], |r, [h2, n2]| {
        let (z, nx, nh, h) = (z.row(r), nx.row(r), nh.row(r), h.row(r));
        for j in 0..shape.1 {
            let n = (nx[j] + nh[j]).tanh();
            n2[j] = n;
            h2[j] = blend(z[j], n, h[j]);
        }
    });
    let [h, n] = alloc_all(gpu, [h_out, n_out])?;
    Ok(GruBlendOut { h, n })
}

/// Gradients produced by [`gru_blend_grad`].
pub struct GruBlendGrad {
    /// Gradient of the update gate `z`.
    pub dz: DeviceMatrix,
    /// Gradient of the candidate pre-activation — of `nx` and `nh` alike.
    pub dn: DeviceMatrix,
    /// Gradient of the previous hidden state, when asked for.
    pub dh: Option<DeviceMatrix>,
}

/// Backward of [`gru_blend`] for upstream `g`; `n` is the saved candidate.
#[allow(clippy::too_many_arguments)]
pub fn gru_blend_grad(
    gpu: &mut Gpu,
    stream: StreamId,
    z: &DeviceMatrix,
    n: &DeviceMatrix,
    h: &DeviceMatrix,
    g: &DeviceMatrix,
    want_dh: bool,
    category: KernelCategory,
) -> Result<GruBlendGrad, OomError> {
    let (rows, cols) = z.host().shape();
    let len = z.host().len() as u64;
    gpu.launch(
        stream,
        streaming_cost_flops(
            "gru_blend_grad",
            category,
            4 * len,
            (2 + want_dh as u64) * len,
            len * BLEND_BWD_FLOPS,
        ),
    );
    let mut dz = Matrix::zeros_in(rows, cols);
    let mut dn = Matrix::zeros_in(rows, cols);
    let mut dh = Matrix::zeros_in(rows, if want_dh { cols } else { 0 });
    let (z, n, h, g) = (z.host(), n.host(), h.host(), g.host());
    for_each_row([&mut dz, &mut dn, &mut dh], |r, [dz, dn, dh]| {
        let (z, n, h, g) = (z.row(r), n.row(r), h.row(r), g.row(r));
        for j in 0..cols {
            let dh_j;
            (dz[j], dn[j], dh_j) = blend_grad(g[j], z[j], n[j], h[j]);
            if want_dh {
                dh[j] = dh_j;
            }
        }
    });
    let ([dz, dn], dh) = alloc_all_and(gpu, [dz, dn], dh, want_dh)?;
    Ok(GruBlendGrad { dz, dn, dh })
}

#[cfg(test)]
mod tests {
    //! `to_bits` oracle: each fused kernel against the chain of one-op
    //! kernels it replaces, forward and backward, composed the way
    //! `Tape::step_backward` composed them.

    use super::*;
    use crate::elementwise::{
        add, add_bias, scale, sigmoid, sigmoid_grad_from_out, slice_cols, tanh_act,
        tanh_grad_from_out,
    };
    use pipad_gpu_sim::DeviceConfig;
    use pipad_tensor::{seeded_rng, uniform};

    /// The plain product (no accumulate operand), shaped like the other
    /// binary one-op kernels.
    fn hadamard(
        gpu: &mut Gpu,
        s: StreamId,
        a: &DeviceMatrix,
        b: &DeviceMatrix,
        cat: KernelCategory,
    ) -> Result<DeviceMatrix, OomError> {
        crate::elementwise::hadamard(gpu, s, a, b, None, cat)
    }

    const RNN: KernelCategory = KernelCategory::Rnn;
    /// `(rows, hidden)` the workloads issue, plus the degenerate one.
    const SHAPES: [(usize, usize); 6] = [(130, 32), (12_000, 6), (170, 16), (6, 6), (2, 6), (1, 1)];
    const SPECIALS: [f32; 8] = [
        0.0,
        -0.0,
        1e-40,
        -3e-42,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
    ];

    /// One-op kernels on a throwaway device.
    struct Dev(Gpu, StreamId);

    impl Dev {
        fn new() -> Self {
            let gpu = Gpu::new(DeviceConfig::v100());
            let s = gpu.default_stream();
            Dev(gpu, s)
        }
        fn up(&mut self, m: Matrix) -> DeviceMatrix {
            DeviceMatrix::alloc(&mut self.0, m).unwrap()
        }
        /// Random operand; with `specials`, every 7th element is a signed
        /// zero, a subnormal, an infinity or a NaN.
        fn operand(&mut self, seed: u64, rows: usize, cols: usize, specials: bool) -> DeviceMatrix {
            let mut m = uniform(&mut seeded_rng(seed), rows, cols, 1.5);
            if specials {
                for (k, v) in m.as_mut_slice().iter_mut().enumerate().step_by(7) {
                    *v = SPECIALS[(k / 7 + seed as usize) % SPECIALS.len()];
                }
            }
            self.up(m)
        }
        fn bin(
            &mut self,
            f: fn(
                &mut Gpu,
                StreamId,
                &DeviceMatrix,
                &DeviceMatrix,
                KernelCategory,
            ) -> Result<DeviceMatrix, OomError>,
            a: &DeviceMatrix,
            b: &DeviceMatrix,
        ) -> DeviceMatrix {
            f(&mut self.0, self.1, a, b, RNN).unwrap()
        }
        fn un(
            &mut self,
            f: fn(
                &mut Gpu,
                StreamId,
                &DeviceMatrix,
                KernelCategory,
            ) -> Result<DeviceMatrix, OomError>,
            a: &DeviceMatrix,
        ) -> DeviceMatrix {
            f(&mut self.0, self.1, a, RNN).unwrap()
        }
        fn block(&mut self, m: &DeviceMatrix, k: usize, hd: usize) -> DeviceMatrix {
            slice_cols(&mut self.0, self.1, m, k * hd, (k + 1) * hd, RNN).unwrap()
        }
        /// `Σ` of the blocks zero-padded to `n_blocks` wide, accumulated in
        /// the order given — the `slice_cols` backward of the composed path.
        fn pad_sum(&mut self, n_blocks: usize, blocks: &[(usize, &DeviceMatrix)]) -> DeviceMatrix {
            let mut acc: Option<DeviceMatrix> = None;
            for &(k, m) in blocks {
                let (rows, hd) = (m.rows(), m.cols());
                let mut padded = Matrix::zeros(rows, n_blocks * hd);
                for r in 0..rows {
                    padded.row_mut(r)[k * hd..(k + 1) * hd].copy_from_slice(m.host().row(r));
                }
                let padded = self.up(padded);
                acc = Some(match acc {
                    None => padded,
                    Some(prev) => self.bin(add, &prev, &padded),
                });
            }
            acc.unwrap()
        }
    }

    #[track_caller]
    fn assert_same_bits(what: &str, got: &DeviceMatrix, want: &DeviceMatrix) {
        assert_eq!(got.host().shape(), want.host().shape(), "{what}: shape");
        for (k, (g, w)) in got
            .host()
            .as_slice()
            .iter()
            .zip(want.host().as_slice())
            .enumerate()
        {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}[{k}]: fused {g:e} ({:#x}) vs composed {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Every shape × plain/special operands × 1, 2 and 7 pool threads.
    fn sweep(case: impl Fn(usize, usize, bool)) {
        for (n, hd) in SHAPES {
            for specials in [false, true] {
                for threads in [1, 2, 7] {
                    pool::with_threads(threads, || case(n, hd, specials));
                }
            }
        }
    }

    #[test]
    fn lstm_cell_matches_composed_kernels_bit_for_bit() {
        sweep(|n, hd, sp| {
            // With and without a gradient arriving at c′ / wanted for c.
            for chained in [false, true] {
                let mut d = Dev::new();
                let gx = d.operand(1, n, 4 * hd, sp);
                let gh = d.operand(2, n, 4 * hd, sp);
                let b = d.operand(3, 1, 4 * hd, sp);
                let c = d.operand(4, n, hd, sp);
                let dh = d.operand(5, n, hd, sp);
                let dc_next = chained.then(|| d.operand(6, n, hd, sp));

                let gsum = d.bin(add, &gx, &gh);
                let gates = d.bin(add_bias, &gsum, &b);
                let pre: Vec<_> = (0..4).map(|k| d.block(&gates, k, hd)).collect();
                let i = d.un(sigmoid, &pre[0]);
                let f = d.un(sigmoid, &pre[1]);
                let g = d.un(tanh_act, &pre[2]);
                let o = d.un(sigmoid, &pre[3]);
                let fc = d.bin(hadamard, &f, &c);
                let ig = d.bin(hadamard, &i, &g);
                let c2 = d.bin(add, &fc, &ig);
                let tc = d.un(tanh_act, &c2);
                let h2 = d.bin(hadamard, &o, &tc);

                let d_o = d.bin(hadamard, &dh, &tc);
                let d_tc = d.bin(hadamard, &dh, &o);
                let through_h = d.bin(tanh_grad_from_out, &tc, &d_tc);
                let gc = match &dc_next {
                    Some(next) => d.bin(add, next, &through_h),
                    None => through_h,
                };
                let d_i = d.bin(hadamard, &gc, &g);
                let d_g = d.bin(hadamard, &gc, &i);
                let d_f = d.bin(hadamard, &gc, &c);
                let dc = d.bin(hadamard, &gc, &f);
                let p_o = d.bin(sigmoid_grad_from_out, &o, &d_o);
                let p_g = d.bin(tanh_grad_from_out, &g, &d_g);
                let p_f = d.bin(sigmoid_grad_from_out, &f, &d_f);
                let p_i = d.bin(sigmoid_grad_from_out, &i, &d_i);
                let dgates = d.pad_sum(4, &[(3, &p_o), (2, &p_g), (1, &p_f), (0, &p_i)]);

                let out = lstm_cell(&mut d.0, d.1, &gx, &gh, &b, &c, RNN).unwrap();
                assert_same_bits("h'", &out.h, &h2);
                assert_same_bits("c'", &out.c, &c2);
                let grad = lstm_cell_grad(
                    &mut d.0,
                    d.1,
                    &out.saved,
                    &c,
                    &dh,
                    dc_next.as_ref(),
                    chained,
                    RNN,
                )
                .unwrap();
                assert_same_bits("dgates", &grad.dgates, &dgates);
                assert_eq!(grad.dc.is_some(), chained);
                if let Some(got) = &grad.dc {
                    assert_same_bits("dc", got, &dc);
                }
            }
        });
    }

    #[test]
    fn gru_cell_matches_composed_kernels_bit_for_bit() {
        sweep(|n, hd, sp| {
            let mut d = Dev::new();
            let gx0 = d.operand(11, n, 3 * hd, sp);
            let gh = d.operand(12, n, 3 * hd, sp);
            let b = d.operand(13, 1, 3 * hd, sp);
            let h = d.operand(14, n, hd, sp);
            let up = d.operand(15, n, hd, sp);

            let gx = d.bin(add_bias, &gx0, &b);
            let (rx, rh) = (d.block(&gx, 0, hd), d.block(&gh, 0, hd));
            let rsum = d.bin(add, &rx, &rh);
            let r = d.un(sigmoid, &rsum);
            let (zx, zh) = (d.block(&gx, 1, hd), d.block(&gh, 1, hd));
            let zsum = d.bin(add, &zx, &zh);
            let z = d.un(sigmoid, &zsum);
            let (nx, nh) = (d.block(&gx, 2, hd), d.block(&gh, 2, hd));
            let rnh = d.bin(hadamard, &r, &nh);
            let nsum = d.bin(add, &nx, &rnh);
            let cand = d.un(tanh_act, &nsum);
            let (h2, dz, dnsum, dh) = blend_composed(&mut d, &z, &cand, &h, &up);

            let d_r = d.bin(hadamard, &dnsum, &nh);
            let d_nh = d.bin(hadamard, &dnsum, &r);
            let p_z = d.bin(sigmoid_grad_from_out, &z, &dz);
            let p_r = d.bin(sigmoid_grad_from_out, &r, &d_r);
            let dgx = d.pad_sum(3, &[(2, &dnsum), (1, &p_z), (0, &p_r)]);
            let dgh = d.pad_sum(3, &[(2, &d_nh), (1, &p_z), (0, &p_r)]);

            let out = gru_cell(&mut d.0, d.1, &gx0, &gh, &b, &h, RNN).unwrap();
            assert_same_bits("h'", &out.h, &h2);
            let grad = gru_cell_grad(&mut d.0, d.1, &out.saved, &gh, &h, &up, true, RNN).unwrap();
            assert_same_bits("dgx", &grad.dgx, &dgx);
            assert_same_bits("dgh", &grad.dgh, &dgh);
            assert_same_bits("dh", grad.dh.as_ref().unwrap(), &dh);
            let no_dh = gru_cell_grad(&mut d.0, d.1, &out.saved, &gh, &h, &up, false, RNN).unwrap();
            assert_same_bits("dgx without dh", &no_dh.dgx, &dgx);
            assert!(no_dh.dh.is_none());
        });
    }

    /// `(1 − z) ⊙ n + z ⊙ h` and its backward for upstream `up`, one op at
    /// a time: `(h′, dz, d(pre-tanh n), dh)`.
    fn blend_composed(
        d: &mut Dev,
        z: &DeviceMatrix,
        n: &DeviceMatrix,
        h: &DeviceMatrix,
        up: &DeviceMatrix,
    ) -> (DeviceMatrix, DeviceMatrix, DeviceMatrix, DeviceMatrix) {
        let mut omz = scale(&mut d.0, d.1, z, -1.0, RNN).unwrap();
        let plus_one = omz.host().map(|v| v + 1.0);
        omz.store(plus_one);
        let a = d.bin(hadamard, &omz, n);
        let bterm = d.bin(hadamard, z, h);
        let h2 = d.bin(add, &a, &bterm);

        let dz1 = d.bin(hadamard, up, h);
        let dh = d.bin(hadamard, up, z);
        let d_omz = d.bin(hadamard, up, n);
        let d_n = d.bin(hadamard, up, &omz);
        let dz2 = scale(&mut d.0, d.1, &d_omz, -1.0, RNN).unwrap();
        let dz = d.bin(add, &dz1, &dz2);
        let dnsum = d.bin(tanh_grad_from_out, n, &d_n);
        (h2, dz, dnsum, dh)
    }

    #[test]
    fn tgcn_pieces_match_composed_kernels_bit_for_bit() {
        sweep(|n, hd, sp| {
            let mut d = Dev::new();
            let a = d.operand(21, n, hd, sp);
            let b = d.operand(22, n, hd, sp);
            let sum = d.bin(add, &a, &b);
            let want = d.un(sigmoid, &sum);
            let got = sigmoid_add(&mut d.0, d.1, &a, &b, RNN).unwrap();
            assert_same_bits("sigmoid_add", &got, &want);

            let z = d.operand(23, n, hd, sp);
            let h = d.operand(24, n, hd, sp);
            let up = d.operand(25, n, hd, sp);
            let nsum = d.bin(add, &a, &b);
            let cand = d.un(tanh_act, &nsum);
            let (h2, dz, dn, dh) = blend_composed(&mut d, &z, &cand, &h, &up);
            let out = gru_blend(&mut d.0, d.1, &z, &a, &b, &h, RNN).unwrap();
            assert_same_bits("blend h'", &out.h, &h2);
            assert_same_bits("blend n", &out.n, &cand);
            let grad = gru_blend_grad(&mut d.0, d.1, &z, &out.n, &h, &up, true, RNN).unwrap();
            assert_same_bits("blend dz", &grad.dz, &dz);
            assert_same_bits("blend dn", &grad.dn, &dn);
            assert_same_bits("blend dh", grad.dh.as_ref().unwrap(), &dh);
        });
    }

    #[test]
    fn each_fused_kernel_is_one_streaming_launch_with_every_tensor_billed_once() {
        let mut d = Dev::new();
        let (n, hd) = (64, 32);
        let gx = d.operand(31, n, 4 * hd, false);
        let gh = d.operand(32, n, 4 * hd, false);
        let b = d.operand(33, 1, 4 * hd, false);
        let c = d.operand(34, n, hd, false);
        let snap = d.0.profiler().snapshot();
        let out = lstm_cell(&mut d.0, d.1, &gx, &gh, &b, &c, RNN).unwrap();
        let w = d.0.profiler().window(snap);
        assert_eq!(w.kernel_launches, 1);
        // 9·n·h + 4h words read, 7·n·h written, 32 B per transaction.
        let words = (16 * n * hd + 4 * hd) as u64;
        assert_eq!(w.gmem_transactions, (4 * words).div_ceil(32));
        assert!(w.compute_by_category.contains_key("rnn"));

        let snap = d.0.profiler().snapshot();
        lstm_cell_grad(&mut d.0, d.1, &out.saved, &c, &out.h, None, false, RNN).unwrap();
        let w = d.0.profiler().window(snap);
        assert_eq!(w.kernel_launches, 1);
        assert_eq!(w.gmem_transactions, (4 * (11 * n * hd) as u64).div_ceil(32));
    }

    #[test]
    fn an_out_of_memory_on_a_later_output_leaks_nothing() {
        let (n, hd) = (8, 4);
        // Room for the operands and h′, c′ — not for the n × 5h saved gates.
        let operands = 4 * (2 * n * 4 * hd + 4 * hd + n * hd) as u64;
        let mut gpu = Gpu::new(DeviceConfig::with_capacity(
            operands + 4 * (3 * n * hd) as u64,
        ));
        let s = gpu.default_stream();
        let mut up = |r, c| DeviceMatrix::alloc(&mut gpu, Matrix::full(r, c, 0.5)).unwrap();
        let (gx, gh, b, c) = (up(n, 4 * hd), up(n, 4 * hd), up(1, 4 * hd), up(n, hd));
        assert!(lstm_cell(&mut gpu, s, &gx, &gh, &b, &c, RNN).is_err());
        assert_eq!(gpu.mem().in_use(), operands);
    }
}
