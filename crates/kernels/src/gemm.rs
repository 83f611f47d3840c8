//! Dense GEMM device kernels, including PiPAD's locality-optimized weight
//! reuse for the parallel update phase (§4.2).

use crate::device_data::DeviceMatrix;
use crate::elementwise::{acc_elems, fold_acc};
use pipad_gpu_sim::{Gpu, KernelCategory, KernelCost, OomError, StreamId};
use pipad_tensor::{gemm, gemm_nt, gemm_tn_rows};

/// Tile edge assumed by the cost model (32×32 output tiles, k-striped).
const TILE: u64 = 32;

fn gemm_cost(
    name: &'static str,
    category: KernelCategory,
    m: u64,
    k: u64,
    n: u64,
    weight_loads: u64,
    acc_elems: u64,
) -> KernelCost {
    split_k_cost(name, category, m, k, n, weight_loads, acc_elems, 1)
}

/// [`gemm_cost`] with the `k` loop cut into `segments` slices: each slice's
/// partial `m × n` product but the first spills to a workspace and is read
/// back once by the fixed-order fold — one write, one read and one add per
/// element per extra slice, the traffic of the β = 1 chain of per-slice
/// launches it replaces, in one launch.
#[allow(clippy::too_many_arguments)]
fn split_k_cost(
    name: &'static str,
    category: KernelCategory,
    m: u64,
    k: u64,
    n: u64,
    weight_loads: u64,
    acc_elems: u64,
    segments: u64,
) -> KernelCost {
    // Tiled GEMM: A re-read once per output column tile; B (the weight)
    // re-read `weight_loads` times in total (1 after reuse, per-row-tile
    // otherwise). Output written once. An accumulate operand (β = 1) is
    // read once and costs one add per element on the way out.
    let a_elems = m * k * n.div_ceil(TILE).max(1);
    let b_elems = k * n * weight_loads;
    let out_elems = m * n;
    let partials = (segments.max(1) - 1) * out_elems;
    let bytes = 4 * (a_elems + b_elems + out_elems + acc_elems + 2 * partials);
    let transactions = bytes.div_ceil(32);
    let requests = bytes.div_ceil(128);
    let blocks = (m.div_ceil(TILE) * n.div_ceil(TILE)).max(1);
    KernelCost::new(name, category)
        .flops(2 * m * k * n + acc_elems + partials)
        .gmem(requests, transactions)
        .smem(2 * a_elems.min(b_elems.max(1)))
        .uniform_blocks(blocks as usize, k.max(1))
}

/// `C = A × B` on the device. `category` lets callers bill the launch to
/// the right breakdown bucket (Update for FC layers, Rnn for gate GEMMs).
pub fn gemm_device(
    gpu: &mut Gpu,
    stream: StreamId,
    a: &DeviceMatrix,
    b: &DeviceMatrix,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    let (m, k) = (a.rows() as u64, a.cols() as u64);
    let n = b.cols() as u64;
    let cost = gemm_cost("gemm", category, m, k, n, m.div_ceil(TILE).max(1), 0);
    gpu.launch(stream, cost);
    DeviceMatrix::alloc(gpu, gemm(a.host(), b.host()))
}

/// `C = Aᵀ × B (+ acc)` (weight gradients in backward). `acc` is the
/// cuBLAS β = 1 operand: read, never written — the sum is a new buffer.
///
/// `seg` is the height of the row segments `A` and `B` are stacked from
/// (`a.rows()` for a plain product): the `k` loop is split at every segment
/// boundary — a split-K GEMM, one launch — and the partials `Pₜ` are folded
/// **last segment first**, `P₀ + (P₁ + (… + (P_{W−1} + acc)))`: the chain a
/// sweep of one β = 1 launch per segment, in reverse, builds.
pub fn gemm_tn_device(
    gpu: &mut Gpu,
    stream: StreamId,
    a: &DeviceMatrix,
    b: &DeviceMatrix,
    seg: usize,
    acc: Option<&DeviceMatrix>,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    let rows = a.rows();
    let segments = rows.checked_div(seg).unwrap_or(1).max(1);
    assert_eq!(
        segments * seg,
        rows,
        "segments of {seg} rows must tile {rows}"
    );
    let (k, m) = (rows as u64, a.cols() as u64);
    let n = b.cols() as u64;
    let loads = m.div_ceil(TILE).max(1);
    let cost = split_k_cost(
        "gemm_tn",
        category,
        m,
        k,
        n,
        loads,
        acc_elems(acc),
        segments as u64,
    );
    gpu.launch(stream, cost);
    let part = |t: usize| gemm_tn_rows(a.host(), b.host(), t * seg..(t + 1) * seg);
    let last = fold_acc(part(segments - 1), acc);
    let sum = (0..segments - 1).rev().fold(last, |sum, t| {
        let mut p = part(t);
        p.add_assign(&sum);
        sum.recycle();
        p
    });
    DeviceMatrix::alloc(gpu, sum)
}

/// `C = A × Bᵀ (+ acc)` (input gradients in backward); `acc` as in
/// [`gemm_tn_device`].
pub fn gemm_nt_device(
    gpu: &mut Gpu,
    stream: StreamId,
    a: &DeviceMatrix,
    b: &DeviceMatrix,
    acc: Option<&DeviceMatrix>,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    let (m, k) = (a.rows() as u64, a.cols() as u64);
    let n = b.rows() as u64;
    let loads = m.div_ceil(TILE).max(1);
    let cost = gemm_cost("gemm_nt", category, m, k, n, loads, acc_elems(acc));
    gpu.launch(stream, cost);
    DeviceMatrix::alloc(gpu, fold_acc(gemm_nt(a.host(), b.host()), acc))
}

/// `C = A × B` with the weight `B` kept resident in shared memory across
/// all of `A`'s row tiles — PiPAD's locality-optimized weight reuse (§4.2):
/// one launch over a whole partition's vertically stacked features
/// ([`crate::concat_rows`]) pays the weight's global-memory traffic once
/// instead of once per snapshot. Not applicable to EvolveGCN, whose weights
/// evolve along the timeline.
pub fn gemm_device_weight_resident(
    gpu: &mut Gpu,
    stream: StreamId,
    a: &DeviceMatrix,
    b: &DeviceMatrix,
    category: KernelCategory,
) -> Result<DeviceMatrix, OomError> {
    let (m, k) = (a.rows() as u64, a.cols() as u64);
    let n = b.cols() as u64;
    let cost = gemm_cost("gemm_weight_resident", category, m, k, n, 1, 0);
    gpu.launch(stream, cost);
    DeviceMatrix::alloc(gpu, gemm(a.host(), b.host()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementwise::concat_rows;
    use crate::transfer::upload_matrix;
    use pipad_gpu_sim::DeviceConfig;
    use pipad_tensor::{seeded_rng, uniform, Matrix};

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::v100())
    }

    #[test]
    fn gemm_variants_match_reference() {
        let mut g = gpu();
        let s = g.default_stream();
        let a = uniform(&mut seeded_rng(1), 9, 5, 1.0);
        let b = uniform(&mut seeded_rng(2), 5, 7, 1.0);
        let da = upload_matrix(&mut g, s, &a, true).unwrap();
        let db = upload_matrix(&mut g, s, &b, true).unwrap();
        let c = gemm_device(&mut g, s, &da, &db, KernelCategory::Update).unwrap();
        assert!(c.host().approx_eq(&gemm(&a, &b), 1e-4));

        let at = upload_matrix(&mut g, s, &a.transpose(), true).unwrap();
        let c2 = gemm_tn_device(&mut g, s, &at, &db, 5, None, KernelCategory::Update).unwrap();
        assert!(c2.host().approx_eq(&gemm(&a, &b), 1e-4));

        let bt = upload_matrix(&mut g, s, &b.transpose(), true).unwrap();
        let c3 = gemm_nt_device(&mut g, s, &da, &bt, None, KernelCategory::Update).unwrap();
        assert!(c3.host().approx_eq(&gemm(&a, &b), 1e-4));
    }

    #[test]
    fn weight_reuse_moves_fewer_weight_bytes() {
        let w = uniform(&mut seeded_rng(4), 32, 32, 1.0);
        let xs: Vec<Matrix> = (0..8)
            .map(|i| uniform(&mut seeded_rng(20 + i), 64, 32, 1.0))
            .collect();

        // Baseline: one GEMM per snapshot (weight re-read every time).
        let mut g1 = gpu();
        let s1 = g1.default_stream();
        let dw1 = upload_matrix(&mut g1, s1, &w, true).unwrap();
        let mut separate = Vec::new();
        for x in &xs {
            let dx = upload_matrix(&mut g1, s1, x, true).unwrap();
            separate.push(gemm_device(&mut g1, s1, &dx, &dw1, KernelCategory::Update).unwrap());
        }
        let base = g1.profiler().full();

        // The live path: stack the partition, one weight-resident launch.
        let mut g2 = gpu();
        let s2 = g2.default_stream();
        let dw2 = upload_matrix(&mut g2, s2, &w, true).unwrap();
        let dxs: Vec<DeviceMatrix> = xs
            .iter()
            .map(|x| upload_matrix(&mut g2, s2, x, true).unwrap())
            .collect();
        let refs: Vec<&DeviceMatrix> = dxs.iter().collect();
        let stacked = concat_rows(&mut g2, s2, &refs, KernelCategory::Update).unwrap();
        let fused =
            gemm_device_weight_resident(&mut g2, s2, &stacked, &dw2, KernelCategory::Update)
                .unwrap();
        let prof = g2.profiler().full();

        // Stacking rows reorders nothing within a row: same bits.
        let separate: Vec<&Matrix> = separate.iter().map(|y| y.host()).collect();
        assert_eq!(fused.host(), &Matrix::concat_rows(&separate));
        assert!(prof.gmem_transactions < base.gmem_transactions);
        assert_eq!(prof.kernel_launches, 1);
        assert_eq!(base.kernel_launches, 8);
        assert!(prof.compute_total < base.compute_total);
    }
}
