//! Bit-exactness of the host-parallel execution layer.
//!
//! Every host-numerics hot path partitions work by disjoint output rows, so
//! the floating-point accumulation order is identical to the serial code.
//! These tests pin that contract: raw `f32::to_bits` equality (not
//! tolerance) across thread counts {1, 2, 7} — including counts larger than
//! the machine — and across degenerate shapes (empty, one row,
//! band-non-divisible, above the parallel threshold).

use pipad_gpu_sim::{DeviceConfig, Gpu, KernelCategory};
use pipad_kernels as k;
use pipad_kernels::{DeviceMatrix, DeviceSliced};
use pipad_pool::with_threads;
use pipad_sparse::{Csr, SlicedCsr};
use pipad_tensor::{gemm, gemm_nt, gemm_tn, Matrix};
use std::rc::Rc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Deterministic fill (splitmix-style) so inputs are identical everywhere.
fn fill(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let mut z = (r as u64) << 32 | (c as u64) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    })
}

/// Deterministic sparse topology with `salt`-dependent structure.
fn sparse(rows: usize, cols: usize, salt: u64) -> Csr {
    let mut edges = Vec::new();
    for r in 0..rows as u64 {
        let deg = (r.wrapping_mul(salt | 1) % 7) as u32;
        for d in 0..deg {
            let c = (r.wrapping_mul(31).wrapping_add(d as u64 * 17 + salt)) % cols.max(1) as u64;
            edges.push((r as u32, c as u32));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Csr::from_edges(rows, cols, &edges)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Run `f` under every thread count and assert all results are bit-equal to
/// the single-thread baseline.
fn assert_bit_identical(label: &str, f: impl Fn() -> Matrix) {
    let baseline = with_threads(1, &f);
    for &n in &THREAD_COUNTS[1..] {
        let got = with_threads(n, &f);
        assert_eq!(
            got.shape(),
            baseline.shape(),
            "{label}: shape at {n} threads"
        );
        assert_eq!(
            bits(&got),
            bits(&baseline),
            "{label}: bits differ at {n} threads"
        );
    }
}

// (m, k, n) GEMM shapes: empty, one row, band-non-divisible, and three
// above the FLOP-volume parallel threshold (m·k·n > 2^20), where all of
// `gemm`, `gemm_tn` and `gemm_nt` really split into bands: square
// (130·128·128), `n` off every tile width with uneven bands (1001·70·23),
// and the skinny weight-gradient shape of the sparse workload (6 output
// rows, inner dimension 12 000).
const GEMM_SHAPES: [(usize, usize, usize); 7] = [
    (0, 0, 0),
    (1, 5, 3),
    (13, 7, 5),
    (64, 33, 17),
    (130, 128, 128),
    (1001, 70, 23),
    (6, 12_000, 18),
];

#[test]
fn gemm_bit_identical_across_thread_counts() {
    for &(m, kk, n) in &GEMM_SHAPES {
        let a = fill(m, kk, 1);
        let b = fill(kk, n, 2);
        assert_bit_identical(&format!("gemm {m}x{kk}x{n}"), || gemm(&a, &b));
    }
}

#[test]
fn gemm_tn_and_nt_bit_identical_across_thread_counts() {
    for &(m, kk, n) in &GEMM_SHAPES {
        let at = fill(kk, m, 3); // gemm_tn computes Aᵀ·B
        let b = fill(kk, n, 4);
        assert_bit_identical(&format!("gemm_tn {m}x{kk}x{n}"), || gemm_tn(&at, &b));
        let a = fill(m, kk, 5);
        let bt = fill(n, kk, 6); // gemm_nt computes A·Bᵀ
        assert_bit_identical(&format!("gemm_nt {m}x{kk}x{n}"), || gemm_nt(&a, &bt));
    }
}

#[test]
fn spmm_dense_bit_identical_across_thread_counts() {
    for &(rows, cols, feat) in &[
        (0usize, 4usize, 4usize),
        (1, 6, 3),
        (13, 13, 5),
        (700, 700, 32),
    ] {
        let adj = sparse(rows, cols, 11);
        let x = fill(cols, feat, 7);
        assert_bit_identical(&format!("spmm_dense {rows}x{cols}x{feat}"), || {
            adj.spmm_dense(&x)
        });
    }
}

#[test]
fn sliced_spmm_bit_identical_across_thread_counts() {
    for &(rows, feat, s_per) in &[(1usize, 3usize, 1usize), (13, 5, 2), (500, 16, 4)] {
        let adj = Rc::new(SlicedCsr::from_csr(&sparse(rows, rows, 13)));
        let coalesced = fill(rows, feat * s_per, 8);
        assert_bit_identical(&format!("sliced_spmm {rows}x{feat}x{s_per}"), || {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            let s = gpu.default_stream();
            let handle = DeviceSliced::resident(Rc::clone(&adj));
            let d = DeviceMatrix::alloc(&mut gpu, coalesced.clone()).unwrap();
            let out = k::spmm_sliced_parallel(&mut gpu, s, &handle, &d, s_per).unwrap();
            out.free(&mut gpu)
        });
    }
}

#[test]
fn elementwise_add_bias_bit_identical_across_thread_counts() {
    for &(rows, cols) in &[(1usize, 4usize), (13, 7), (600, 64)] {
        let x = fill(rows, cols, 9);
        let bias = fill(1, cols, 10);
        assert_bit_identical(&format!("add_bias {rows}x{cols}"), || {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            let s = gpu.default_stream();
            let dx = DeviceMatrix::alloc(&mut gpu, x.clone()).unwrap();
            let db = DeviceMatrix::alloc(&mut gpu, bias.clone()).unwrap();
            let out = k::add_bias(&mut gpu, s, &dx, &db, KernelCategory::Update).unwrap();
            out.free(&mut gpu)
        });
    }
}

#[test]
fn matrix_map_and_col_sums_bit_identical_across_thread_counts() {
    for &(rows, cols) in &[(0usize, 0usize), (1, 9), (13, 5), (600, 64)] {
        let x = fill(rows, cols, 12);
        assert_bit_identical(&format!("map {rows}x{cols}"), || x.map(|v| v * 1.5 + 0.25));
        let baseline = with_threads(1, || x.col_sums());
        for &n in &THREAD_COUNTS[1..] {
            let got = with_threads(n, || x.col_sums());
            let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = baseline.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, bb, "col_sums {rows}x{cols} at {n} threads");
        }
    }
}
