//! Compressed Sparse Row adjacency.

use pipad_pool as pool;
use pipad_tensor::Matrix;

/// Minimum `nnz × feature-dim` multiply-add volume before `spmm_dense`
/// fans out to the pool.
const SPMM_PAR_THRESHOLD: usize = 1 << 16;

/// A CSR sparse matrix. For graph adjacency the values are edge weights
/// (1.0 for the plain topology; GCN degree normalization is applied by a
/// separate kernel so that snapshots sharing topology can share one
/// aggregation — see `pipad-kernels`).
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    row_offsets: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Build from an edge list `(src, dst)` with unit weights. Duplicate
    /// edges are collapsed; column indices come out sorted per row.
    pub fn from_edges(n_rows: usize, n_cols: usize, edges: &[(u32, u32)]) -> Self {
        let mut sorted: Vec<(u32, u32)> = edges.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut row_offsets = Vec::with_capacity(n_rows + 1);
        let mut col_indices = Vec::with_capacity(sorted.len());
        row_offsets.push(0u32);
        let mut it = sorted.iter().peekable();
        for r in 0..n_rows as u32 {
            while let Some(&&(src, dst)) = it.peek() {
                if src != r {
                    break;
                }
                assert!((dst as usize) < n_cols, "edge dst {dst} out of range");
                col_indices.push(dst);
                it.next();
            }
            row_offsets.push(col_indices.len() as u32);
        }
        assert!(it.next().is_none(), "edge src out of range");
        let values = vec![1.0; col_indices.len()];
        Csr {
            n_rows,
            n_cols,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Build from raw parts (caller guarantees CSR invariants; checked in
    /// debug builds).
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        row_offsets: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(row_offsets.len(), n_rows + 1);
        debug_assert_eq!(*row_offsets.last().unwrap() as usize, col_indices.len());
        debug_assert_eq!(col_indices.len(), values.len());
        debug_assert!(row_offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(col_indices.iter().all(|&c| (c as usize) < n_cols));
        Csr {
            n_rows,
            n_cols,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Empty matrix with no edges.
    pub fn empty(n_rows: usize, n_cols: usize) -> Self {
        Csr {
            n_rows,
            n_cols,
            row_offsets: vec![0; n_rows + 1],
            col_indices: Vec::new(),
            values: Vec::new(),
        }
    }

    #[inline]
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    #[inline]
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_indices.len()
    }

    #[inline]
    /// The column-index array.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Column indices of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        let (s, e) = (
            self.row_offsets[r] as usize,
            self.row_offsets[r + 1] as usize,
        );
        &self.col_indices[s..e]
    }

    /// Values of row `r`.
    #[inline]
    pub fn row_values(&self, r: usize) -> &[f32] {
        let (s, e) = (
            self.row_offsets[r] as usize,
            self.row_offsets[r + 1] as usize,
        );
        &self.values[s..e]
    }

    /// Out-degree of each row.
    pub fn degrees(&self) -> Vec<u32> {
        self.row_offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Number of rows with no nonzeros (Youtube-style sparsity; these waste
    /// whole warps under row-per-warp CSR kernels).
    pub fn empty_rows(&self) -> usize {
        self.row_offsets.windows(2).filter(|w| w[0] == w[1]).count()
    }

    /// Does the edge `(r, c)` exist? Binary search within the row.
    pub fn contains(&self, r: u32, c: u32) -> bool {
        self.row(r as usize).binary_search(&c).is_ok()
    }

    /// Edge list view.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.n_rows {
            for &c in self.row(r) {
                out.push((r as u32, c));
            }
        }
        out
    }

    /// Transposed copy (CSC of the original). GE-SpMM needs this second
    /// format on-device for backward propagation — the extra transfer the
    /// paper blames for PyGT-G's Youtube regression (§5.2).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0u32; self.n_cols + 1];
        for &c in &self.col_indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let row_offsets = counts.clone();
        let mut col_indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.n_rows {
            for (&c, &v) in self.row(r).iter().zip(self.row_values(r)) {
                let pos = cursor[c as usize] as usize;
                col_indices[pos] = r as u32;
                values[pos] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Structural symmetry check (undirected graph).
    pub fn is_symmetric(&self) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        (0..self.n_rows as u32).all(|r| self.row(r as usize).iter().all(|&c| self.contains(c, r)))
    }

    /// Copy with self-loops added on every vertex (the `∪ {v}` in the GCN
    /// aggregation of Equation 1).
    pub fn with_self_loops(&self) -> Csr {
        assert_eq!(self.n_rows, self.n_cols, "self-loops need a square matrix");
        let mut edges = self.edges();
        edges.extend((0..self.n_rows as u32).map(|v| (v, v)));
        Csr::from_edges(self.n_rows, self.n_cols, &edges)
    }

    /// Extract the row range `[lo, hi)` as a new matrix with local row
    /// indices but the **global** column space — the vertex-partitioned
    /// adjacency a multi-GPU row split works on (the paper's §4.5:
    /// "our sliced CSR offers the convenience to further split the graphs").
    pub fn slice_row_range(&self, lo: usize, hi: usize) -> Csr {
        assert!(lo <= hi && hi <= self.n_rows, "row range out of bounds");
        let start = self.row_offsets[lo] as usize;
        let end = self.row_offsets[hi] as usize;
        let row_offsets: Vec<u32> = self.row_offsets[lo..=hi]
            .iter()
            .map(|&o| o - self.row_offsets[lo])
            .collect();
        Csr {
            n_rows: hi - lo,
            n_cols: self.n_cols,
            row_offsets,
            col_indices: self.col_indices[start..end].to_vec(),
            values: self.values[start..end].to_vec(),
        }
    }

    /// Columns referenced outside `[lo, hi)` — the halo a vertex partition
    /// must fetch from its peers.
    pub fn halo_columns(&self, lo: usize, hi: usize) -> Vec<u32> {
        let mut cols: Vec<u32> = self
            .col_indices
            .iter()
            .copied()
            .filter(|&c| (c as usize) < lo || (c as usize) >= hi)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Dense SpMM reference: `self × dense`. Ground truth for every device
    /// SpMM kernel.
    pub fn spmm_dense(&self, dense: &Matrix) -> Matrix {
        assert_eq!(self.n_cols, dense.rows(), "spmm shape mismatch");
        let n = dense.cols();
        let mut out = Matrix::zeros_in(self.n_rows, n);
        // Bands own disjoint output rows; each row's neighbor accumulation
        // order matches the serial loop exactly, so the result is
        // bit-identical at every thread count.
        let min_rows = if self.nnz() * n.max(1) >= SPMM_PAR_THRESHOLD {
            1
        } else {
            self.n_rows.max(1)
        };
        let shared = pool::DisjointMut::new(out.as_mut_slice());
        pool::parallel_for(self.n_rows, min_rows, |rows| {
            for r in rows {
                // SAFETY: bands own disjoint output-row ranges.
                let out_row = unsafe { shared.slice(r * n..(r + 1) * n) };
                for (&c, &v) in self.row(r).iter().zip(self.row_values(r)) {
                    for (o, &x) in out_row.iter_mut().zip(dense.row(c as usize)) {
                        *o += v * x;
                    }
                }
            }
        });
        out
    }

    /// Storage size in 4-byte words, per the paper's formula:
    /// `2·nnz + #vertices + 1` (column indices + values + row offsets).
    pub fn words(&self) -> u64 {
        2 * self.nnz() as u64 + self.n_rows as u64 + 1
    }

    /// Storage size in bytes (what a device transfer moves).
    pub fn bytes(&self) -> u64 {
        self.words() * 4
    }

    /// Bytes of the same matrix in COO format, `3·nnz` words (row, column
    /// and value per nonzero): what PyG ships (paper §4.1).
    pub fn coo_bytes(&self) -> u64 {
        3 * self.nnz() as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Csr {
        // 4 vertices: 0→{1,2}, 1→{0}, 2→{}, 3→{3}
        Csr::from_edges(4, 4, &[(0, 1), (0, 2), (1, 0), (3, 3)])
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let c = Csr::from_edges(3, 3, &[(1, 2), (1, 0), (1, 2), (0, 1)]);
        assert_eq!(c.nnz(), 3);
        assert_eq!(c.row(1), &[0, 2]);
        assert_eq!(c.row(2), &[] as &[u32]);
    }

    #[test]
    fn degrees_and_empty_rows() {
        let c = tiny();
        assert_eq!(c.degrees(), vec![2, 1, 0, 1]);
        assert_eq!(c.empty_rows(), 1);
        assert!(c.contains(0, 2));
        assert!(!c.contains(2, 0));
    }

    #[test]
    fn transpose_round_trip() {
        let c = tiny();
        let t = c.transpose();
        assert_eq!(t.transpose(), c);
        assert!(t.contains(1, 0));
        assert!(t.contains(2, 0));
        assert!(!t.contains(0, 1) || c.contains(1, 0));
    }

    #[test]
    fn symmetry_detection() {
        let asym = tiny();
        assert!(!asym.is_symmetric());
        let sym = Csr::from_edges(3, 3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        assert!(sym.is_symmetric());
    }

    #[test]
    fn self_loops_added_once() {
        let c = Csr::from_edges(3, 3, &[(0, 0), (0, 1)]);
        let l = c.with_self_loops();
        assert_eq!(l.nnz(), 4); // (0,0) not duplicated; adds (1,1),(2,2)
        assert!(l.contains(2, 2));
    }

    #[test]
    fn spmm_dense_reference() {
        let c = Csr::from_edges(2, 3, &[(0, 0), (0, 2), (1, 1)]);
        let x = Matrix::from_fn(3, 2, |r, _| r as f32 + 1.0);
        let y = c.spmm_dense(&x);
        // row0 = x[0]+x[2] = 1+3 = 4; row1 = x[1] = 2
        assert_eq!(y[(0, 0)], 4.0);
        assert_eq!(y[(1, 0)], 2.0);
    }

    #[test]
    fn space_formula_matches_paper() {
        let c = tiny();
        // 2*4 + 4 + 1 = 13 words
        assert_eq!(c.words(), 13);
        assert_eq!(c.bytes(), 52);
    }

    #[test]
    fn row_range_slicing_keeps_global_columns() {
        let c = Csr::from_edges(4, 4, &[(0, 3), (1, 0), (1, 2), (3, 1)]);
        let mid = c.slice_row_range(1, 3);
        assert_eq!(mid.n_rows(), 2);
        assert_eq!(mid.n_cols(), 4);
        assert_eq!(mid.row(0), &[0, 2]); // old row 1
        assert_eq!(mid.row(1), &[] as &[u32]); // old row 2
                                               // concatenating the splits reassembles the matrix
        let top = c.slice_row_range(0, 1);
        let bot = c.slice_row_range(3, 4);
        let total = top.nnz() + mid.nnz() + bot.nnz();
        assert_eq!(total, c.nnz());
    }

    #[test]
    fn halo_columns_are_the_remote_references() {
        let c = Csr::from_edges(4, 4, &[(0, 3), (1, 0), (1, 2), (3, 1)]);
        let part = c.slice_row_range(0, 2); // rows 0..2
        assert_eq!(part.halo_columns(0, 2), vec![2, 3]);
        let whole = c.slice_row_range(0, 4);
        assert!(whole.halo_columns(0, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edges_panic() {
        let _ = Csr::from_edges(2, 2, &[(0, 5)]);
    }
}
