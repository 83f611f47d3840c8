//! Sliced CSR — the paper's §4.1 graph representation.
//!
//! Each CSR row is cut into *slices* of at most `slice_cap` nonzeros. The
//! original `Row Offsets` array becomes `Row Indices` (the owning row of
//! every slice) and a new `Slice Offsets` array locates each slice inside
//! the column-index/value arrays. Compared to CSR's coarse, tightly-ordered
//! rows, slices give:
//!
//! * a fine, stable unit for overlap extraction between adjacent snapshots;
//! * bounded per-warp work, so skewed degree distributions no longer create
//!   one monster warp per hub vertex (Figure 12's load balance win);
//! * the `slice group` unit that thread-aware coalescing assigns to warps
//!   (Algorithm 1).

use crate::csr::Csr;

/// The paper sets a single slice to hold at most 32 nonzeros.
pub const DEFAULT_SLICE_CAP: usize = 32;

/// Sliced CSR sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct SlicedCsr {
    n_rows: usize,
    n_cols: usize,
    slice_cap: usize,
    /// Owning row of each slice (`RI` in Figure 6).
    row_indices: Vec<u32>,
    /// Start of each slice in `col_indices`; length `n_slices + 1`
    /// (`SO` in Figure 6).
    slice_offsets: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl SlicedCsr {
    /// Slice a CSR matrix with the default 32-nnz cap.
    pub fn from_csr(csr: &Csr) -> Self {
        Self::from_csr_with_cap(csr, DEFAULT_SLICE_CAP)
    }

    /// Slice a CSR matrix with an explicit per-slice nnz cap.
    pub fn from_csr_with_cap(csr: &Csr, slice_cap: usize) -> Self {
        assert!(slice_cap > 0, "slice cap must be positive");
        let mut row_indices = Vec::new();
        let mut slice_offsets = vec![0u32];
        let mut col_indices = Vec::with_capacity(csr.nnz());
        let mut values = Vec::with_capacity(csr.nnz());
        for r in 0..csr.n_rows() {
            let cols = csr.row(r);
            let vals = csr.row_values(r);
            for (cchunk, vchunk) in cols.chunks(slice_cap).zip(vals.chunks(slice_cap)) {
                row_indices.push(r as u32);
                col_indices.extend_from_slice(cchunk);
                values.extend_from_slice(vchunk);
                slice_offsets.push(col_indices.len() as u32);
            }
        }
        SlicedCsr {
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            slice_cap,
            row_indices,
            slice_offsets,
            col_indices,
            values,
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
    /// Number of slices.
    pub fn n_slices(&self) -> usize {
        self.row_indices.len()
    }

    #[inline]
    /// Maximum nonzeros per slice.
    pub fn slice_cap(&self) -> usize {
        self.slice_cap
    }

    /// `(owning_row, columns, values)` of slice `i`.
    #[inline]
    pub fn slice(&self, i: usize) -> (u32, &[u32], &[f32]) {
        let (s, e) = (
            self.slice_offsets[i] as usize,
            self.slice_offsets[i + 1] as usize,
        );
        (
            self.row_indices[i],
            &self.col_indices[s..e],
            &self.values[s..e],
        )
    }

    /// Iterate all slices.
    pub fn slices(&self) -> impl Iterator<Item = (u32, &[u32], &[f32])> + '_ {
        (0..self.n_slices()).map(move |i| self.slice(i))
    }

    /// nnz per slice — the work distribution fed to the block scheduler.
    pub fn slice_sizes(&self) -> Vec<u32> {
        self.slice_offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Storage size in 4-byte words, per the paper's formula:
    /// `2·nnz + 2·#slices + 1` (cols + values + RI + SO).
    pub fn words(&self) -> u64 {
        2 * self.nnz() as u64 + 2 * self.n_slices() as u64 + 1
    }

    /// Storage size in bytes.
    pub fn bytes(&self) -> u64 {
        self.words() * 4
    }

    /// Reassemble the CSR matrix. Slices of one row are stored contiguously
    /// and in order, so concatenation restores the original layout.
    pub fn to_csr(&self) -> Csr {
        let mut row_offsets = vec![0u32; self.n_rows + 1];
        for (i, &r) in self.row_indices.iter().enumerate() {
            let len = self.slice_offsets[i + 1] - self.slice_offsets[i];
            row_offsets[r as usize + 1] += len;
        }
        for i in 0..self.n_rows {
            row_offsets[i + 1] += row_offsets[i];
        }
        Csr::from_parts(
            self.n_rows,
            self.n_cols,
            row_offsets,
            self.col_indices.clone(),
            self.values.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> Csr {
        // row 0 has 70 nnz, row 1 has 3, row 2 empty, row 3 has 32.
        let mut edges = Vec::new();
        for c in 0..70u32 {
            edges.push((0, c));
        }
        for c in 0..3u32 {
            edges.push((1, c));
        }
        for c in 0..32u32 {
            edges.push((3, c));
        }
        Csr::from_edges(4, 70, &edges)
    }

    #[test]
    fn slicing_respects_cap() {
        let s = SlicedCsr::from_csr(&skewed());
        assert_eq!(s.slice_cap(), 32);
        // row0: 32+32+6 → 3 slices; row1: 1; row2: 0; row3: 1.
        assert_eq!(s.n_slices(), 5);
        assert!(s.slice_sizes().iter().all(|&n| n as usize <= 32));
        let (row, cols, vals) = s.slice(2);
        assert_eq!(row, 0);
        assert_eq!(cols.len(), 6);
        assert_eq!(vals.len(), 6);
    }

    #[test]
    fn round_trip_csr() {
        let c = skewed();
        for cap in [1, 2, 7, 32, 100] {
            let s = SlicedCsr::from_csr_with_cap(&c, cap);
            assert_eq!(s.to_csr(), c, "cap={cap}");
        }
    }

    #[test]
    fn space_formula_matches_paper() {
        let c = skewed();
        let s = SlicedCsr::from_csr(&c);
        let nnz = c.nnz() as u64;
        assert_eq!(s.words(), 2 * nnz + 2 * 5 + 1);
        // and sits between CSR and COO for this shape (paper §4.1)
        assert!(s.bytes() >= c.bytes().min(c.coo_bytes()));
        assert!(s.bytes() <= c.bytes().max(c.coo_bytes()));
    }

    #[test]
    fn sliced_beats_csr_on_hypersparse_graphs() {
        // Youtube-like: many empty rows. CSR pays #vertices+1 offsets;
        // sliced CSR pays only 2 words per *existing* slice.
        let edges: Vec<(u32, u32)> = (0..10u32).map(|i| (i * 97, i)).collect();
        let c = Csr::from_edges(1000, 1000, &edges);
        let s = SlicedCsr::from_csr(&c);
        assert!(
            s.words() < c.words(),
            "sliced={} csr={}",
            s.words(),
            c.words()
        );
    }

    #[test]
    fn empty_matrix() {
        let c = Csr::empty(5, 5);
        let s = SlicedCsr::from_csr(&c);
        assert_eq!(s.n_slices(), 0);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.to_csr(), c);
    }

    #[test]
    fn slices_iterator_covers_all_nnz() {
        let s = SlicedCsr::from_csr(&skewed());
        let total: usize = s.slices().map(|(_, c, _)| c.len()).sum();
        assert_eq!(total, s.nnz());
    }
}
