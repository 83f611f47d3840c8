//! The three aggregation kernels and the dimension-aware access planning
//! of PiPAD's parallel GNN (paper §4.2, Algorithm 1).

use crate::device_data::{DeviceCsr, DeviceMatrix, DeviceSliced};
use pipad_gpu_sim::{
    feature_row_access, Gpu, KernelCategory, KernelCost, OomError, StreamId, VectorWidth,
};
use pipad_pool as pool;
use pipad_sparse::balance::{csr_block_work, sliced_block_work};
use pipad_sparse::SlicedCsr;
use pipad_tensor::Matrix;

/// Warps per thread block assumed by the cost model (128 threads).
const WARPS_PER_BLOCK: usize = 4;

/// Minimum `nnz × feature-dim` multiply-add volume before a host-numerics
/// sparse loop fans out to the pool.
const HOST_PAR_THRESHOLD: usize = 1 << 16;

/// Band the slice index space `[0, n_slices)` into `n_bands` contiguous
/// parts whose boundaries never split one row's run of slices — slices of
/// a row share an output row, so a band boundary through the run would
/// let two threads accumulate into the same row. Requires the slice rows
/// to be non-decreasing (true for `SlicedCsr::from_csr*`); returns `None`
/// otherwise so callers fall back to the serial loop.
fn row_aligned_slice_bands(
    sliced: &SlicedCsr,
    n_bands: usize,
) -> Option<Vec<std::ops::Range<usize>>> {
    let n = sliced.n_slices();
    for i in 1..n {
        if sliced.slice(i).0 < sliced.slice(i - 1).0 {
            return None;
        }
    }
    let mut bounds = Vec::with_capacity(n_bands + 1);
    bounds.push(0usize);
    for b in 1..n_bands {
        let mut cut = pool::band_range(n, n_bands, b).start;
        while cut > 0 && cut < n && sliced.slice(cut).0 == sliced.slice(cut - 1).0 {
            cut += 1;
        }
        let prev = *bounds.last().unwrap();
        bounds.push(cut.max(prev));
    }
    bounds.push(n);
    Some(bounds.windows(2).map(|w| w[0]..w[1]).collect())
}

/// The host numerics of the sliced-parallel aggregation:
/// `out[row] += Σ value × x[col]` per slice entry, banded across the pool
/// on row-aligned slice ranges (bit-identical to the serial loop).
fn spmm_sliced_numeric(sliced: &SlicedCsr, x: &Matrix, out: &mut Matrix) {
    let n = x.cols();
    let n_slices = sliced.n_slices();
    let n_bands = if sliced.nnz() * n.max(1) >= HOST_PAR_THRESHOLD {
        pool::bands(n_slices, 1)
    } else {
        1
    };
    let aligned = if n_bands > 1 {
        row_aligned_slice_bands(sliced, n_bands)
    } else {
        None
    };
    match aligned {
        Some(bands) => {
            let shared = pool::DisjointMut::new(out.as_mut_slice());
            pool::parallel_bands(bands.len(), |b| {
                for i in bands[b].clone() {
                    let (row, cols, vals) = sliced.slice(i);
                    let row = row as usize;
                    // SAFETY: row-aligned bands own disjoint output rows.
                    let out_row = unsafe { shared.slice(row * n..(row + 1) * n) };
                    for (&c, &v) in cols.iter().zip(vals) {
                        for (o, &xv) in out_row.iter_mut().zip(x.row(c as usize)) {
                            *o += v * xv;
                        }
                    }
                }
            });
        }
        None => {
            for (row, cols, vals) in sliced.slices() {
                let out_row = out.row_mut(row as usize);
                for (&c, &v) in cols.iter().zip(vals) {
                    for (o, &xv) in out_row.iter_mut().zip(x.row(c as usize)) {
                        *o += v * xv;
                    }
                }
            }
        }
    }
}

/// How PiPAD's dimension-aware parallel aggregation will access memory for
/// a partition of `s_per` snapshots with `feat_dim` features each.
#[derive(Clone, Copy, Debug)]
pub struct PipadAccessPlan {
    /// Row length of the coalescent feature matrix: `s_per × feat_dim`.
    pub coalesced_dim: u32,
    /// Vector load width chosen for the large-dimension path.
    pub vector: VectorWidth,
    /// Thread groups per warp (`coalesce_num`, capped at 4 per the paper so
    /// each TG's access stays within one 32-byte transaction).
    pub coalesce_num: u32,
    /// Resulting active-lane fraction per warp.
    pub warp_efficiency: f64,
}

/// Plan the access strategy for the parallel aggregation (§4.2):
/// small coalesced dimensions get thread-aware slice coalescing; large ones
/// get vector memory instructions.
pub fn pipad_access_plan(s_per: usize, feat_dim: usize) -> PipadAccessPlan {
    assert!(s_per >= 1 && feat_dim >= 1);
    let coalesced_dim = (s_per * feat_dim) as u32;
    let vector = VectorWidth::for_dim(coalesced_dim);
    let coalesce_num = if coalesced_dim < 32 {
        (32 / coalesced_dim).clamp(1, 4)
    } else {
        1
    };
    let active = (coalesced_dim * coalesce_num).min(32);
    PipadAccessPlan {
        coalesced_dim,
        vector,
        coalesce_num,
        warp_efficiency: active as f64 / 32.0,
    }
}

/// PyG-style aggregation: edge-parallel gather + atomic scatter over COO.
///
/// Per nonzero this reads one feature row *and* atomically accumulates one
/// output row, plus 12 bytes of COO indices — the memory-inefficient
/// one-snapshot baseline of §3.2 that PyGT, PyGT-A and PyGT-R all use.
pub fn spmm_coo_scatter(
    gpu: &mut Gpu,
    stream: StreamId,
    adj: &DeviceCsr,
    x: &DeviceMatrix,
) -> Result<DeviceMatrix, OomError> {
    let csr = adj.csr();
    let f = x.cols() as u32;
    let nnz = csr.nnz() as u64;
    let access = feature_row_access(gpu.cfg(), f.max(1), VectorWidth::W1);

    // COO index stream: (row, col, value) per nonzero, warp-coalesced.
    let idx_bytes = 12 * nnz;
    let idx_txn = idx_bytes.div_ceil(32);
    let idx_req = idx_bytes.div_ceil(128);
    // One gather + one atomic scatter per nonzero.
    let requests = idx_req + nnz * 2 * access.requests;
    let transactions = idx_txn + nnz * 2 * access.transactions;
    // Edge-parallel scatter looks embarrassingly balanced, but its atomic
    // accumulations serialize on high-in-degree destination rows — on a
    // power-law graph the hot row is the makespan, just as it is for
    // row-parallel kernels. Model the contention with the same per-row
    // work distribution.
    let cost = KernelCost::new("spmm_coo_scatter", KernelCategory::Aggregation)
        .flops(2 * nnz * f as u64)
        .gmem(requests, transactions)
        .warp_efficiency(access.active_lanes as f64 / 32.0)
        .blocks(csr_block_work(csr, WARPS_PER_BLOCK));
    gpu.launch(stream, cost);

    DeviceMatrix::alloc(gpu, csr.spmm_dense(x.host()))
}

/// GE-SpMM: CSR row-per-warp with shared-memory adjacency caching
/// (Huang et al., SC'20) — the aggregation kernel of PyGT-G.
///
/// Adjacency is loaded once, coalesced, and reused from shared memory
/// across feature column tiles; output is written once per row. Strong on
/// dense graphs; on hypersparse ones (Youtube) the per-row output writes
/// and row-offset scans over empty rows become pure overhead (§5.3).
pub fn spmm_gespmm(
    gpu: &mut Gpu,
    stream: StreamId,
    adj: &DeviceCsr,
    x: &DeviceMatrix,
) -> Result<DeviceMatrix, OomError> {
    let csr = adj.csr();
    let f = x.cols() as u32;
    let n = csr.n_rows() as u64;
    let nnz = csr.nnz() as u64;
    let access = feature_row_access(gpu.cfg(), f.max(1), VectorWidth::W1);

    // Adjacency (offsets + cols + values) loaded once, coalesced.
    let adj_bytes = 4 * (n + 1) + 8 * nnz;
    let adj_txn = adj_bytes.div_ceil(32);
    let adj_req = adj_bytes.div_ceil(128);
    // One gather per nonzero, one output write per row (including empties).
    let requests = adj_req + nnz * access.requests + n * access.requests;
    let transactions = adj_txn + nnz * access.transactions + n * access.transactions;
    // Shared-memory reuse of cached adjacency per feature column tile.
    let col_tiles = (f as u64 * 4).div_ceil(128).max(1);
    let smem = 2 * nnz * col_tiles;

    let cost = KernelCost::new("spmm_gespmm", KernelCategory::Aggregation)
        .flops(2 * nnz * f as u64)
        .gmem(requests, transactions)
        .smem(smem)
        .warp_efficiency(access.active_lanes as f64 / 32.0)
        .blocks(csr_block_work(csr, WARPS_PER_BLOCK));
    gpu.launch(stream, cost);

    DeviceMatrix::alloc(gpu, csr.spmm_dense(x.host()))
}

/// PiPAD's parallel aggregation over the sliced adjacency and a coalescent
/// feature matrix serving a whole snapshot partition (Algorithm 1).
///
/// * rows of `coalesced` have length `s_per × feat_dim`; one pass over the
///   (overlap) topology aggregates **all** snapshots of the partition;
/// * `coalesced_dim < 32` → thread-aware slice coalescing raises active
///   lanes per warp (`coalesce_num` TGs per warp, interleaved smem layout);
/// * `coalesced_dim > 32` → vector memory instructions cut request counts;
/// * slice-grained blocks keep per-warp work bounded (Figure 12).
pub fn spmm_sliced_parallel(
    gpu: &mut Gpu,
    stream: StreamId,
    adj: &DeviceSliced,
    coalesced: &DeviceMatrix,
    s_per: usize,
) -> Result<DeviceMatrix, OomError> {
    let sliced = adj.sliced();
    assert_eq!(
        coalesced.cols() % s_per,
        0,
        "coalescent feature width must be s_per × feat_dim"
    );
    let feat_dim = coalesced.cols() / s_per;
    let plan = pipad_access_plan(s_per, feat_dim.max(1));
    let fprime = plan.coalesced_dim;
    let nnz = sliced.nnz() as u64;
    let n_slices = sliced.n_slices() as u64;
    let access = feature_row_access(gpu.cfg(), fprime.max(1), plan.vector);

    // Sliced adjacency (RI + SO + cols + values) loaded once, coalesced via
    // the interleaved slice-group layout.
    let adj_bytes = 4 * (2 * n_slices + 1) + 8 * nnz;
    let adj_txn = adj_bytes.div_ceil(32);
    let adj_req = adj_bytes.div_ceil(128);
    // One coalescent gather per nonzero; one atomic accumulate per slice.
    let out_shape = feature_row_access(gpu.cfg(), fprime.max(1), VectorWidth::W1);
    let requests = adj_req + nnz * access.requests + n_slices * out_shape.requests;
    let transactions = adj_txn + nnz * access.transactions + n_slices * out_shape.transactions;
    // Slice staging: write to smem then read back per TG iteration.
    let smem = 2 * nnz;
    let slices_per_block = WARPS_PER_BLOCK * plan.coalesce_num as usize;

    let cost = KernelCost::new("spmm_sliced_parallel", KernelCategory::Aggregation)
        .flops(2 * nnz * fprime as u64)
        .gmem(requests, transactions)
        .smem(smem)
        .warp_efficiency(plan.warp_efficiency)
        .blocks(sliced_block_work(sliced, slices_per_block));
    gpu.launch(stream, cost);

    // Numerics: out[row] += Σ value × coalesced[col] per slice entry.
    let mut out = Matrix::zeros_in(sliced.n_rows(), coalesced.cols());
    spmm_sliced_numeric(sliced, coalesced.host(), &mut out);
    DeviceMatrix::alloc(gpu, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::{upload_csr, upload_matrix, upload_sliced};
    use pipad_gpu_sim::DeviceConfig;
    use pipad_sparse::{Csr, SlicedCsr};
    use pipad_tensor::{seeded_rng, uniform};
    use std::rc::Rc;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::v100())
    }

    fn test_graph(n: usize, avg_deg: usize, seed: u64) -> Csr {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let mut edges = Vec::new();
        for _ in 0..n * avg_deg / 2 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                edges.push((u, v));
                edges.push((v, u));
            }
        }
        Csr::from_edges(n, n, &edges)
    }

    #[test]
    fn all_three_kernels_agree_with_dense_reference() {
        let mut g = gpu();
        let s = g.default_stream();
        let csr = Rc::new(test_graph(50, 6, 1));
        let x = uniform(&mut seeded_rng(2), 50, 8, 1.0);
        let expect = csr.spmm_dense(&x);

        let dcsr = upload_csr(&mut g, s, Rc::clone(&csr), true).unwrap();
        let dx = upload_matrix(&mut g, s, &x, true).unwrap();
        let y1 = spmm_coo_scatter(&mut g, s, &dcsr, &dx).unwrap();
        let y2 = spmm_gespmm(&mut g, s, &dcsr, &dx).unwrap();
        assert!(y1.host().approx_eq(&expect, 1e-4));
        assert!(y2.host().approx_eq(&expect, 1e-4));

        let sliced = Rc::new(SlicedCsr::from_csr(&csr));
        let dsl = upload_sliced(&mut g, s, sliced, true).unwrap();
        // s_per = 1 degenerate case: coalesced == plain features
        let y3 = spmm_sliced_parallel(&mut g, s, &dsl, &dx, 1).unwrap();
        assert!(y3.host().approx_eq(&expect, 1e-4));
    }

    #[test]
    fn parallel_kernel_handles_multiple_snapshots_at_once() {
        let mut g = gpu();
        let s = g.default_stream();
        let csr = Rc::new(test_graph(40, 4, 3));
        let xa = uniform(&mut seeded_rng(4), 40, 2, 1.0);
        let xb = uniform(&mut seeded_rng(5), 40, 2, 1.0);
        let coalesced = Matrix::concat_cols(&[&xa, &xb]);

        let sliced = Rc::new(SlicedCsr::from_csr(&csr));
        let dsl = upload_sliced(&mut g, s, Rc::clone(&sliced), true).unwrap();
        let dc = upload_matrix(&mut g, s, &coalesced, true).unwrap();
        let y = spmm_sliced_parallel(&mut g, s, &dsl, &dc, 2).unwrap();
        let parts = y.host().split_cols(2);
        assert!(parts[0].approx_eq(&csr.spmm_dense(&xa), 1e-4));
        assert!(parts[1].approx_eq(&csr.spmm_dense(&xb), 1e-4));
    }

    #[test]
    fn access_plan_follows_algorithm_1() {
        // tiny coalesced dim → coalesce, capped at 4
        let p = pipad_access_plan(2, 2); // F' = 4
        assert_eq!(p.coalesce_num, 4);
        assert!(p.warp_efficiency >= 0.5);
        // mid dim → fewer TGs
        let p = pipad_access_plan(2, 8); // F' = 16
        assert_eq!(p.coalesce_num, 2);
        assert_eq!(p.vector, VectorWidth::W2);
        // large dim → vector loads, no coalescing needed
        let p = pipad_access_plan(4, 16); // F' = 64
        assert_eq!(p.coalesce_num, 1);
        assert_eq!(p.vector, VectorWidth::W4);
        assert_eq!(p.warp_efficiency, 1.0);
    }

    #[test]
    fn coalescing_beats_single_snapshot_efficiency() {
        // §3.2's low-thread-utilization problem: F=2 alone uses 2/32 lanes;
        // 2-snapshot coalescing + 4 TGs uses 16/32.
        let single = pipad_access_plan(1, 2);
        let multi = pipad_access_plan(2, 2);
        assert!(multi.warp_efficiency >= 2.0 * single.warp_efficiency);
    }

    #[test]
    fn parallel_kernel_moves_fewer_transactions_than_n_scatter_calls() {
        let mut g1 = gpu();
        let s1 = g1.default_stream();
        let csr = Rc::new(test_graph(200, 8, 7));
        let xs: Vec<Matrix> = (0..4)
            .map(|i| uniform(&mut seeded_rng(10 + i), 200, 2, 1.0))
            .collect();

        // Baseline: 4 scatter aggregations.
        let dcsr = upload_csr(&mut g1, s1, Rc::clone(&csr), true).unwrap();
        for x in &xs {
            let dx = upload_matrix(&mut g1, s1, x, true).unwrap();
            spmm_coo_scatter(&mut g1, s1, &dcsr, &dx).unwrap();
        }
        let base = g1.profiler().full();

        // PiPAD: one parallel aggregation over the coalesced features.
        let mut g2 = gpu();
        let s2 = g2.default_stream();
        let sliced = Rc::new(SlicedCsr::from_csr(&csr));
        let dsl = upload_sliced(&mut g2, s2, sliced, true).unwrap();
        let refs: Vec<&Matrix> = xs.iter().collect();
        let co = Matrix::concat_cols(&refs);
        let dc = upload_matrix(&mut g2, s2, &co, true).unwrap();
        spmm_sliced_parallel(&mut g2, s2, &dsl, &dc, 4).unwrap();
        let par = g2.profiler().full();

        assert!(
            par.gmem_transactions * 2 < base.gmem_transactions,
            "pipad {} vs scatter {}",
            par.gmem_transactions,
            base.gmem_transactions
        );
        assert!(par.gmem_requests < base.gmem_requests);
        assert!(par.compute_total < base.compute_total);
    }

    #[test]
    fn gespmm_pays_for_empty_rows() {
        // Hypersparse (Youtube-like): 2000 rows, 40 edges.
        let mut edges = Vec::new();
        for i in 0..20u32 {
            edges.push((i * 97 % 2000, i));
            edges.push((i, i * 97 % 2000));
        }
        let sparse = Rc::new(Csr::from_edges(2000, 2000, &edges));
        let x = uniform(&mut seeded_rng(9), 2000, 2, 1.0);

        let mut g1 = gpu();
        let s1 = g1.default_stream();
        let d1 = upload_csr(&mut g1, s1, Rc::clone(&sparse), true).unwrap();
        let dx1 = upload_matrix(&mut g1, s1, &x, true).unwrap();
        spmm_gespmm(&mut g1, s1, &d1, &dx1).unwrap();
        let ge = g1.profiler().full();

        let mut g2 = gpu();
        let s2 = g2.default_stream();
        let sliced = Rc::new(SlicedCsr::from_csr(&sparse));
        let d2 = upload_sliced(&mut g2, s2, sliced, true).unwrap();
        let dx2 = upload_matrix(&mut g2, s2, &x, true).unwrap();
        spmm_sliced_parallel(&mut g2, s2, &d2, &dx2, 1).unwrap();
        let pi = g2.profiler().full();

        // GE-SpMM touches every row (offsets + output); sliced CSR only
        // touches existing slices → vastly fewer transactions here.
        assert!(
            pi.gmem_transactions * 5 < ge.gmem_transactions,
            "pipad {} vs gespmm {}",
            pi.gmem_transactions,
            ge.gmem_transactions
        );
    }

    #[test]
    fn gespmm_beats_scatter_on_dense_graphs() {
        let csr = Rc::new(test_graph(100, 20, 13));
        let x = uniform(&mut seeded_rng(14), 100, 16, 1.0);
        let mut g = gpu();
        let s = g.default_stream();
        let d = upload_csr(&mut g, s, Rc::clone(&csr), true).unwrap();
        let dx = upload_matrix(&mut g, s, &x, true).unwrap();
        let snap0 = g.profiler().snapshot();
        spmm_coo_scatter(&mut g, s, &d, &dx).unwrap();
        let snap1 = g.profiler().snapshot();
        spmm_gespmm(&mut g, s, &d, &dx).unwrap();
        let scatter = g.profiler().between(snap0, snap1);
        let ge = g.profiler().window(snap1);
        assert!(ge.gmem_transactions < scatter.gmem_transactions);
    }
}
