//! Row-major dense f32 matrix.

use crate::bufpool;
use pipad_pool as pool;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Minimum elements a band must touch before an elementwise or packing
/// loop fans out to the pool; below this, thread handoff costs more than
/// the loop itself.
const ELEMS_PER_BAND: usize = 1 << 15;

/// Rows per band so each band moves at least [`ELEMS_PER_BAND`] elements.
fn rows_per_band(cols: usize) -> usize {
    ELEMS_PER_BAND.div_ceil(cols.max(1)).max(1)
}

/// A dense `rows × cols` matrix of `f32` in row-major order.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing buffer; `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/buffer mismatch");
        Matrix { rows, cols, data }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// All-zero matrix backed by a pooled buffer. The buffer is fully
    /// zeroed (`resize`), so values never depend on prior contents and
    /// the result is bit-identical to [`Matrix::zeros`].
    pub fn zeros_in(rows: usize, cols: usize) -> Self {
        let n = rows * cols;
        let mut data = bufpool::take_buf(n);
        data.resize(n, 0.0);
        Matrix { rows, cols, data }
    }

    /// Copy `src` (row-major, `rows * cols` elements) into a pooled
    /// buffer.
    pub fn from_slice_in(rows: usize, cols: usize, src: &[f32]) -> Self {
        assert_eq!(src.len(), rows * cols, "shape/buffer mismatch");
        let mut data = bufpool::take_buf(src.len());
        data.extend_from_slice(src);
        Matrix { rows, cols, data }
    }

    /// Clone into a pooled buffer (the pooled counterpart of `Clone`).
    pub fn clone_in(&self) -> Matrix {
        Matrix::from_slice_in(self.rows, self.cols, &self.data)
    }

    /// Consume the matrix and return its backing buffer to the pool.
    pub fn recycle(self) {
        bufpool::recycle_buf(self.data);
    }

    #[inline]
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    /// `(rows, cols)` of the matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline]
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the backing buffer in bytes (what a device transfer moves).
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    #[inline]
    /// As slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    /// As mut slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    /// Column indices of one row.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    /// Row mut.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transposed copy. Written scatter-style straight into the spare
    /// capacity of a pooled buffer — no intermediate zero fill.
    pub fn transpose(&self) -> Matrix {
        let (rows, cols) = (self.rows, self.cols);
        let n = rows * cols;
        let mut data = bufpool::take_buf(n);
        let spare = &mut data.spare_capacity_mut()[..n];
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            for (c, &v) in row.iter().enumerate() {
                spare[c * rows + r] = std::mem::MaybeUninit::new(v);
            }
        }
        // SAFETY: the slots `c * rows + r` for r in 0..rows, c in 0..cols
        // cover 0..n exactly once, so every element is initialized.
        unsafe { data.set_len(n) };
        Matrix {
            rows: cols,
            cols: rows,
            data,
        }
    }

    /// Elementwise map into a new matrix. Banded across the pool for
    /// large buffers; each element is computed independently, so the
    /// result is bit-identical at every thread count.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut data = bufpool::take_buf(self.data.len());
        data.resize(self.data.len(), 0.0);
        let shared = pool::DisjointMut::new(&mut data);
        let src = &self.data;
        pool::parallel_for(src.len(), ELEMS_PER_BAND, |range| {
            // SAFETY: bands own disjoint element ranges.
            let dst = unsafe { shared.slice(range.clone()) };
            for (d, &s) in dst.iter_mut().zip(&src[range]) {
                *d = f(s);
            }
        });
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise combine with another same-shape matrix.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in zip");
        let mut data = bufpool::take_buf(self.data.len());
        data.resize(self.data.len(), 0.0);
        let shared = pool::DisjointMut::new(&mut data);
        let (a_data, b_data) = (&self.data, &other.data);
        pool::parallel_for(a_data.len(), ELEMS_PER_BAND, |range| {
            // SAFETY: bands own disjoint element ranges.
            let dst = unsafe { shared.slice(range.clone()) };
            for ((d, &a), &b) in dst
                .iter_mut()
                .zip(&a_data[range.clone()])
                .zip(&b_data[range])
            {
                *d = f(a, b);
            }
        });
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place elementwise accumulate: `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        let shared = pool::DisjointMut::new(&mut self.data);
        let src = &other.data;
        pool::parallel_for(src.len(), ELEMS_PER_BAND, |range| {
            // SAFETY: bands own disjoint element ranges.
            let dst = unsafe { shared.slice(range.clone()) };
            for (a, b) in dst.iter_mut().zip(&src[range]) {
                *a += b;
            }
        });
    }

    /// Concatenate matrices horizontally (same row count).
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat of nothing");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "row mismatch in concat_cols"
        );
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros_in(rows, cols);
        let shared = pool::DisjointMut::new(&mut out.data);
        pool::parallel_for(rows, rows_per_band(cols), |row_range| {
            for r in row_range {
                // SAFETY: bands own disjoint row ranges.
                let dst = unsafe { shared.slice(r * cols..(r + 1) * cols) };
                let mut off = 0;
                for p in parts {
                    dst[off..off + p.cols].copy_from_slice(p.row(r));
                    off += p.cols;
                }
            }
        });
        out
    }

    /// Concatenate matrices vertically (same column count).
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat of nothing");
        let cols = parts[0].cols;
        assert!(
            parts.iter().all(|p| p.cols == cols),
            "column mismatch in concat_rows"
        );
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = bufpool::take_buf(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Extract the row range `[from, to)` into a new matrix (pooled,
    /// single `extend_from_slice` — no zero fill, no fresh allocation in
    /// the steady state).
    pub fn slice_rows(&self, from: usize, to: usize) -> Matrix {
        assert!(from <= to && to <= self.rows, "row slice out of range");
        Matrix::from_slice_in(
            to - from,
            self.cols,
            &self.data[from * self.cols..to * self.cols],
        )
    }

    /// Extract the column range `[from, to)` into a new matrix.
    pub fn slice_cols(&self, from: usize, to: usize) -> Matrix {
        assert!(from <= to && to <= self.cols, "column slice out of range");
        let width = to - from;
        let mut out = Matrix::zeros_in(self.rows, width);
        let shared = pool::DisjointMut::new(&mut out.data);
        let src = &self.data;
        let cols = self.cols;
        pool::parallel_for(self.rows, rows_per_band(width), |row_range| {
            for r in row_range {
                // SAFETY: bands own disjoint row ranges.
                let dst = unsafe { shared.slice(r * width..(r + 1) * width) };
                dst.copy_from_slice(&src[r * cols + from..r * cols + to]);
            }
        });
        out
    }

    /// Split into equal-width column chunks (inverse of `concat_cols` with
    /// equal parts).
    pub fn split_cols(&self, n_parts: usize) -> Vec<Matrix> {
        assert!(
            n_parts > 0 && self.cols.is_multiple_of(n_parts),
            "uneven split"
        );
        let w = self.cols / n_parts;
        (0..n_parts)
            .map(|i| self.slice_cols(i * w, (i + 1) * w))
            .collect()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Column-wise sums (length `cols`): the bias-gradient reduction.
    /// Banded by *columns*, so each output slot still accumulates rows in
    /// ascending order exactly like the serial loop (bit-identical).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        let shared = pool::DisjointMut::new(&mut out);
        let (rows, cols, data) = (self.rows, self.cols, &self.data);
        let min_cols = ELEMS_PER_BAND.div_ceil(rows.max(1)).max(1);
        pool::parallel_for(cols, min_cols, |col_range| {
            // SAFETY: bands own disjoint column ranges.
            let dst = unsafe { shared.slice(col_range.clone()) };
            for r in 0..rows {
                let row = &data[r * cols..(r + 1) * cols];
                for (o, c) in dst.iter_mut().zip(col_range.clone()) {
                    *o += row[c];
                }
            }
        });
        out
    }

    /// Max absolute difference against another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True when every entry differs by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows <= 8 && self.cols <= 8 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m.bytes(), 24);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn eye_is_identity_under_zip() {
        let i = Matrix::eye(4);
        assert_eq!(i.sum(), 4.0);
        assert_eq!(i[(2, 2)], 1.0);
        assert_eq!(i[(2, 3)], 0.0);
    }

    #[test]
    fn concat_and_split_are_inverses() {
        let a = Matrix::from_fn(4, 2, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(4, 2, |r, c| (r * c) as f32 + 9.0);
        let cat = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(cat.shape(), (4, 4));
        let parts = cat.split_cols(2);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn slice_cols_subset() {
        let m = Matrix::from_fn(2, 5, |_, c| c as f32);
        let s = m.slice_cols(1, 4);
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.norm_sq(), 30.0);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn map_zip_accumulate() {
        let a = Matrix::full(2, 2, 2.0);
        let b = Matrix::full(2, 2, 3.0);
        assert_eq!(a.map(|x| x * x).sum(), 16.0);
        assert_eq!(a.zip(&b, |x, y| x * y).sum(), 24.0);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.sum(), 20.0);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::full(2, 2, 1.0);
        let mut b = a.clone();
        b[(0, 0)] = 1.0005;
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-4));
    }

    #[test]
    #[should_panic(expected = "shape/buffer mismatch")]
    fn bad_from_vec_panics() {
        let _ = Matrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn concat_rows_and_slice_rows_are_inverses() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let b = Matrix::from_fn(3, 3, |r, c| 100.0 + (r * 3 + c) as f32);
        let cat = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(cat.shape(), (5, 3));
        assert_eq!(cat.slice_rows(0, 2), a);
        assert_eq!(cat.slice_rows(2, 5), b);
        assert_eq!(cat.row(2), b.row(0));
    }

    #[test]
    #[should_panic(expected = "row slice out of range")]
    fn bad_row_slice_panics() {
        let _ = Matrix::zeros(2, 2).slice_rows(1, 4);
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn concat_rows_rejects_width_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let _ = Matrix::concat_rows(&[&a, &b]);
    }

    #[test]
    fn pooled_constructors_match_plain_ones() {
        bufpool::with_pool_enabled(true, || {
            // Seed the pool with a dirty buffer so recycled contents
            // would show through any incomplete initialization.
            let mut dirty = Matrix::full(4, 4, f32::NAN);
            dirty.as_mut_slice()[0] = 123.0;
            dirty.recycle();
            assert_eq!(Matrix::zeros_in(3, 4), Matrix::zeros(3, 4));
            let f = |r: usize, c: usize| (r * 7 + c) as f32;
            let m = Matrix::from_fn(2, 6, f);
            assert_eq!(m.clone_in(), m);
            assert_eq!(
                Matrix::from_slice_in(2, 6, m.as_slice()).as_slice(),
                m.as_slice()
            );
        });
    }

    #[test]
    fn transpose_and_slices_are_exact_on_recycled_buffers() {
        bufpool::with_pool_enabled(true, || {
            Matrix::full(6, 6, f32::NAN).recycle();
            let m = Matrix::from_fn(4, 6, |r, c| (r * 100 + c) as f32);
            let t = m.transpose();
            assert_eq!(t.shape(), (6, 4));
            assert_eq!(t.transpose(), m);
            Matrix::full(4, 4, f32::NAN).recycle();
            assert_eq!(m.slice_rows(1, 3).row(0), m.row(1));
            assert_eq!(m.slice_rows(0, 4), m);
        });
    }

    #[test]
    fn pool_off_produces_identical_values() {
        let m = Matrix::from_fn(5, 7, |r, c| (r * 13 + c) as f32 * 0.37);
        let on = bufpool::with_pool_enabled(true, || {
            (m.transpose(), m.slice_rows(1, 4), m.map(|x| x * 2.0))
        });
        let off = bufpool::with_pool_enabled(false, || {
            (m.transpose(), m.slice_rows(1, 4), m.map(|x| x * 2.0))
        });
        assert_eq!(on, off);
    }
}
