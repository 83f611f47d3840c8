//! GEMM kernels: one register-tiled micro-kernel behind three packing
//! front-ends, threaded across disjoint output-row bands on the persistent
//! `pipad-pool` workers for large shapes.
//!
//! ## Accumulation-order contract
//!
//! Every output element is `((0 + a₀·b₀) + a₁·b₁) + …` with `p` ascending,
//! each product and each sum rounded separately (no FMA, no reassociation).
//! `gemm` and `gemm_tn` skip the terms whose `A` element is `±0`, so a
//! non-finite `B` entry opposite a zero never reaches the sum; `gemm_nt`
//! skips nothing. Tiling, packing and banding only choose *which* elements
//! a loop computes together, so results are bit-identical at every thread
//! count and to the scalar loops kept as test oracles below. (Which NaN
//! payload survives `NaN + NaN` is the one thing IEEE 754 leaves open and
//! is not part of the contract.)

use crate::bufpool;
use crate::matrix::Matrix;
use pipad_pool as pool;
use std::ops::Range;

/// Minimum `rows × cols × inner` FLOP volume before GEMM uses the pool.
pub const PAR_THRESHOLD: usize = 1 << 20;

/// Minimum output rows per band so each band carries at least
/// `PAR_THRESHOLD` FLOP volume; also forces the serial path (one band)
/// whenever the whole product is below the threshold.
fn min_rows_per_band(n: usize, k: usize) -> usize {
    PAR_THRESHOLD.div_ceil((n * k).max(1)).max(1)
}

/// How the micro-kernel reads its operands. Output element `(i, j)` is
/// `Σ_p a[i·a_row + p·a_stride] · b[p·ldb + j]`; `ldb ≥ n`, and columns
/// `n..ldb` of `b` (packing pad) are computed and dropped.
struct Operands<'a> {
    a: &'a [f32],
    a_row: usize,
    a_stride: usize,
    b: &'a [f32],
    ldb: usize,
    k: usize,
    n: usize,
}

/// The micro-kernel: columns `j0..j0+W` of output rows `rows`, written into
/// `c` (the band holding exactly those rows, `n` wide). The `W`
/// accumulators of a row stay in registers across the whole `p` loop, and
/// a fixed `W` lets the compiler unroll and vectorise the lane loop — lanes
/// are independent sums, so that reorders nothing. Returns `W`.
fn tile<const W: usize, const SKIP_ZERO: bool>(
    op: &Operands,
    rows: Range<usize>,
    j0: usize,
    c: &mut [f32],
) -> usize {
    let Operands {
        a,
        a_row,
        a_stride,
        b,
        ldb,
        k,
        n,
    } = *op;
    if rows.is_empty() || k == 0 {
        return W; // `c` is already the empty sum
    }
    // The two largest indices the loops below form.
    assert!((rows.end - 1) * a_row + (k - 1) * a_stride < a.len());
    assert!((k - 1) * ldb + j0 + W <= b.len());
    let w = W.min(n - j0);
    for (i, c_row) in rows.zip(c.chunks_exact_mut(n)) {
        let mut acc = [0.0f32; W];
        for p in 0..k {
            // SAFETY: `i < rows.end` and `p < k`, so the index is at most
            // the one the first assert above checked.
            let av = unsafe { *a.get_unchecked(i * a_row + p * a_stride) };
            if SKIP_ZERO && av == 0.0 {
                continue;
            }
            // SAFETY: `p < k`, so `p·ldb + j0 + W` is at most the bound the
            // second assert above checked.
            let b_row = unsafe { &*b.as_ptr().add(p * ldb + j0).cast::<[f32; W]>() };
            for l in 0..W {
                acc[l] += av * b_row[l];
            }
        }
        // Constant lane indices only, so `acc` never has to live in memory.
        match c_row[j0..j0 + w].first_chunk_mut::<W>() {
            Some(full) => *full = acc,
            None => {
                for l in 0..W {
                    if l < w {
                        c_row[j0 + l] = acc[l];
                    }
                }
            }
        }
    }
    W
}

/// All of output rows `rows`: tiles outermost, so the width dispatch is
/// paid once per tile and a `k × W` panel of `b` stays cached across rows.
/// Widths are chosen greedily from the columns `b` still has, so padding
/// (`ldb` a multiple of 4) removes the narrow tiles.
fn band<const SKIP_ZERO: bool>(op: &Operands, rows: Range<usize>, c: &mut [f32]) {
    let mut j0 = 0;
    while j0 < op.n {
        j0 += match op.ldb - j0 {
            16.. => tile::<16, SKIP_ZERO>(op, rows.clone(), j0, c),
            8.. => tile::<8, SKIP_ZERO>(op, rows.clone(), j0, c),
            4.. => tile::<4, SKIP_ZERO>(op, rows.clone(), j0, c),
            2.. => tile::<2, SKIP_ZERO>(op, rows.clone(), j0, c),
            _ => tile::<1, SKIP_ZERO>(op, rows.clone(), j0, c),
        };
    }
}

/// Allocate the `m × n` output and fill it band by band.
fn run<const SKIP_ZERO: bool>(m: usize, op: &Operands) -> Matrix {
    let n = op.n;
    let mut out = Matrix::zeros_in(m, n);
    let shared = pool::DisjointMut::new(out.as_mut_slice());
    pool::parallel_for(m, min_rows_per_band(n, op.k), |rows| {
        // SAFETY: bands own disjoint output-row ranges.
        let c = unsafe { shared.slice(rows.start * n..rows.end * n) };
        band::<SKIP_ZERO>(op, rows, c);
    });
    out
}

/// `C = A × B`.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let op = Operands {
        a: a.as_slice(),
        a_row: k,
        a_stride: 1,
        b: b.as_slice(),
        ldb: n,
        k,
        n,
    };
    run::<true>(m, &op)
}

/// `C = Aᵀ × B` (gradient w.r.t. weights: `X ᵀ dY`). `A` is read in place,
/// down its columns.
pub fn gemm_tn(a: &Matrix, b: &Matrix) -> Matrix {
    gemm_tn_rows(a, b, 0..a.rows())
}

/// [`gemm_tn`] over rows `rows` of both operands, read in place: the same
/// bits as `gemm_tn` of the two row blocks copied out (one segment of a
/// split-K weight gradient).
pub fn gemm_tn_rows(a: &Matrix, b: &Matrix, rows: Range<usize>) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "gemm_tn shape mismatch: {:?}ᵀ x {:?}",
        a.shape(),
        b.shape()
    );
    assert!(rows.end <= a.rows(), "gemm_tn row range out of bounds");
    let m = a.cols();
    let n = b.cols();
    let op = Operands {
        a: &a.as_slice()[rows.start * m..rows.end * m],
        a_row: 1,
        a_stride: m,
        b: &b.as_slice()[rows.start * n..rows.end * n],
        ldb: n,
        k: rows.len(),
        n,
    };
    run::<true>(m, &op)
}

/// `C = A × Bᵀ` (gradient w.r.t. inputs: `dY Wᵀ`). `Bᵀ` is packed once per
/// call into a pooled `k × ⌈n/4⌉·4` zero-padded buffer, so the kernel
/// streams unit-stride rows like `gemm` and never needs a narrow tile.
pub fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "gemm_nt shape mismatch: {:?} x {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    let n = b.rows();
    let ldb = n.next_multiple_of(4);
    let mut packed = bufpool::take_buf(k * ldb);
    packed.resize(k * ldb, 0.0);
    for (j, b_row) in b.as_slice().chunks_exact(k.max(1)).enumerate() {
        for (p, &bv) in b_row.iter().enumerate() {
            packed[p * ldb + j] = bv;
        }
    }
    let op = Operands {
        a: a.as_slice(),
        a_row: k,
        a_stride: 1,
        b: &packed,
        ldb,
        k,
        n,
    };
    let out = run::<false>(m, &op);
    bufpool::recycle_buf(packed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{seeded_rng, uniform};

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    #[test]
    fn gemm_matches_naive_small() {
        let mut rng = seeded_rng(7);
        let a = uniform(&mut rng, 13, 17, 1.0);
        let b = uniform(&mut rng, 17, 9, 1.0);
        assert!(gemm(&a, &b).approx_eq(&naive(&a, &b), 1e-4));
    }

    #[test]
    fn gemm_matches_naive_threaded() {
        // big enough to cross PAR_THRESHOLD (m*n*k = 128^3 = 2M)
        let mut rng = seeded_rng(11);
        let a = uniform(&mut rng, 128, 128, 1.0);
        let b = uniform(&mut rng, 128, 128, 1.0);
        assert!(gemm(&a, &b).approx_eq(&naive(&a, &b), 1e-2));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = seeded_rng(3);
        let a = uniform(&mut rng, 6, 6, 1.0);
        assert!(gemm(&a, &Matrix::eye(6)).approx_eq(&a, 1e-6));
        assert!(gemm(&Matrix::eye(6), &a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let mut rng = seeded_rng(5);
        let a = uniform(&mut rng, 10, 7, 1.0);
        let b = uniform(&mut rng, 10, 4, 1.0);
        assert!(gemm_tn(&a, &b).approx_eq(&gemm(&a.transpose(), &b), 1e-4));

        let c = uniform(&mut rng, 6, 7, 1.0);
        let d = uniform(&mut rng, 5, 7, 1.0);
        assert!(gemm_nt(&c, &d).approx_eq(&gemm(&c, &d.transpose()), 1e-4));
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(gemm(&a, &b).shape(), (0, 3));
        let a = Matrix::from_vec(1, 1, vec![2.0]);
        let b = Matrix::from_vec(1, 1, vec![3.0]);
        assert_eq!(gemm(&a, &b)[(0, 0)], 6.0);
    }

    #[test]
    #[should_panic(expected = "gemm shape mismatch")]
    fn mismatched_shapes_panic() {
        let _ = gemm(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    /// The serial loop nests `gemm`/`gemm_tn`/`gemm_nt` were before the
    /// micro-kernel, kept as the bit-level oracle: they *are* the
    /// accumulation-order contract every pinned loss and digest was
    /// recorded under.
    mod reference {
        use crate::matrix::Matrix;

        pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
            let (m, k) = a.shape();
            let n = b.cols();
            let mut out = Matrix::zeros(m, n);
            let (a, b, c) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
            for kk in (0..k).step_by(64) {
                let k_end = (kk + 64).min(k);
                for i in 0..m {
                    let a_row = &a[i * k..(i + 1) * k];
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for p in kk..k_end {
                        let av = a_row[p];
                        if av == 0.0 {
                            continue;
                        }
                        let b_row = &b[p * n..(p + 1) * n];
                        for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                            *cv += av * bv;
                        }
                    }
                }
            }
            out
        }

        pub fn gemm_tn(a: &Matrix, b: &Matrix) -> Matrix {
            let (k, m) = a.shape();
            let n = b.cols();
            let mut out = Matrix::zeros(m, n);
            let (a, b, c) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
            for p in 0..k {
                let a_row = &a[p * m..(p + 1) * m];
                let b_row = &b[p * n..(p + 1) * n];
                for i in 0..m {
                    let av = a_row[i];
                    if av == 0.0 {
                        continue;
                    }
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv += av * bv;
                    }
                }
            }
            out
        }

        pub fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
            let (m, k) = a.shape();
            let n = b.rows();
            let mut out = Matrix::zeros(m, n);
            let (a, b, c) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n..(i + 1) * n];
                for (j, cv) in c_row.iter_mut().enumerate() {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0;
                    for (&av, &bv) in a_row.iter().zip(b_row) {
                        acc += av * bv;
                    }
                    *cv = acc;
                }
            }
            out
        }
    }

    /// `(m, n, k)`: the shapes the four benchmark workloads issue, the
    /// degenerate ones, `n` on every side of the tile widths, and one above
    /// `PAR_THRESHOLD` with rows that do not divide into bands.
    const ORACLE_SHAPES: [(usize, usize, usize); 20] = [
        (130, 128, 32),
        (130, 32, 128),
        (130, 16, 128),
        (32, 128, 130),
        (12000, 6, 18),
        (12000, 18, 6),
        (12000, 2, 6),
        (6, 6, 12000),
        (2, 6, 12000),
        (2720, 16, 48),
        (16, 16, 2720),
        (2, 18, 6),
        (1, 1, 1),
        (0, 5, 3),
        (7, 0, 3),
        (7, 5, 0),
        (7, 5, 3),
        (9, 31, 5),
        (5, 23, 70),
        (130, 128, 128),
    ];

    /// Logical `A (m×k)` and `B (k×n)` seeded with what the contract is
    /// about: `A` has scattered `+0`, `−0` and subnormals and one all-zero
    /// column `p*`; `B` has `−0` and subnormals, and NaN/±Inf in row `p*` —
    /// always opposite a zero of `A`.
    fn oracle_operands(m: usize, n: usize, k: usize) -> (Matrix, Matrix) {
        let mut rng = seeded_rng((m * 31 + n * 17 + k) as u64);
        let p_star = k / 2;
        let mut a = uniform(&mut rng, m, k, 1.0);
        let mut b = uniform(&mut rng, k, n, 1.0);
        for (idx, v) in a.as_mut_slice().iter_mut().enumerate() {
            match idx % 13 {
                3 => *v = 0.0,
                7 => *v = -0.0,
                11 => *v = 1.0e-40,
                _ => {}
            }
            if k >= 2 && idx % k == p_star {
                *v = if idx % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        for (idx, v) in b.as_mut_slice().iter_mut().enumerate() {
            match idx % 11 {
                2 => *v = -0.0,
                5 => *v = -3.0e-41,
                _ => {}
            }
            if k >= 2 && idx / n == p_star && idx % 3 == 0 {
                *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(idx / 3) % 3];
            }
        }
        (a, b)
    }

    /// Bit equality, with any NaN equal to any NaN.
    fn assert_same_bits(label: &str, got: &Matrix, want: &Matrix) {
        assert_eq!(got.shape(), want.shape(), "{label}: shape");
        for (idx, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{label}: element {idx} is {x:e} ({:#x}), reference {y:e} ({:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    #[test]
    fn all_three_match_the_reference_loops_bit_for_bit() {
        for &(m, n, k) in &ORACLE_SHAPES {
            let (a, b) = oracle_operands(m, n, k);
            let (at, bt) = (a.transpose(), b.transpose());
            let want = reference::gemm(&a, &b);
            let want_tn = reference::gemm_tn(&at, &b);
            let want_nt = reference::gemm_nt(&a, &bt);
            // The zero-skip keeps row p* of B out of gemm and gemm_tn;
            // gemm_nt multiplies it in.
            assert!(want.as_slice().iter().all(|v| v.is_finite()));
            assert!(want_tn.as_slice().iter().all(|v| v.is_finite()));
            assert_eq!(
                want_nt.as_slice().iter().any(|v| v.is_nan()),
                m > 0 && n > 0 && k >= 2
            );
            for t in [1usize, 2, 7] {
                let label = |f: &str| format!("{f} m={m} n={n} k={k} threads={t}");
                pool::with_threads(t, || {
                    assert_same_bits(&label("gemm"), &gemm(&a, &b), &want);
                    assert_same_bits(&label("gemm_tn"), &gemm_tn(&at, &b), &want_tn);
                    assert_same_bits(&label("gemm_nt"), &gemm_nt(&a, &bt), &want_nt);
                });
            }
        }
    }

    #[test]
    fn a_row_range_is_the_product_of_the_copied_blocks() {
        for &(m, n, k) in &ORACLE_SHAPES {
            let (a, b) = oracle_operands(m, n, k);
            let at = a.transpose();
            // `at` is k × m, `b` is k × n: cut the shared k rows in three.
            let cuts = [0, k / 3, k / 3 + k / 2, k];
            for w in cuts.windows(2) {
                let want = gemm_tn(&at.slice_rows(w[0], w[1]), &b.slice_rows(w[0], w[1]));
                for t in [1usize, 2, 7] {
                    let got = pool::with_threads(t, || gemm_tn_rows(&at, &b, w[0]..w[1]));
                    let label = format!("gemm_tn_rows m={m} n={n} k={k} {w:?} threads={t}");
                    assert_same_bits(&label, &got, &want);
                }
            }
        }
    }

    #[test]
    fn gemm_nt_returns_its_pack_buffer_to_the_pool() {
        bufpool::with_pool_enabled(true, || {
            let mut rng = seeded_rng(29);
            let a = uniform(&mut rng, 9, 6, 1.0);
            let b = uniform(&mut rng, 5, 6, 1.0);
            gemm_nt(&a, &b).recycle();
            let before = bufpool::pool_stats();
            gemm_nt(&a, &b).recycle();
            let d = bufpool::pool_stats().since(&before);
            assert_eq!((d.misses, d.hits, d.recycled), (0, 2, 2));
        });
    }
}
