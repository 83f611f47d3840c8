//! Overlap extraction across a snapshot group (§4.1 "Overlap-aware data
//! organization").
//!
//! PiPAD regroups the adjacency matrices of the snapshots in a partition as
//! **one overlap part** (edges present in *every* member) plus **one
//! exclusive part per snapshot** (its remaining edges). The overlap part is
//! transferred and aggregated once for the whole partition; the exclusives
//! are small per-snapshot remainders.

use crate::csr::Csr;

/// Result of splitting a snapshot group into overlap + exclusives.
#[derive(Clone, Debug)]
pub struct OverlapSplit {
    /// Edges present in every snapshot of the group.
    pub overlap: Csr,
    /// Per-snapshot remainders, in input order.
    pub exclusives: Vec<Csr>,
}

impl OverlapSplit {
    /// Reconstruct snapshot `i`'s full adjacency (overlap ∪ exclusive).
    pub fn reassemble(&self, i: usize) -> Csr {
        let mut edges = self.overlap.edges();
        edges.extend(self.exclusives[i].edges());
        Csr::from_edges(self.overlap.n_rows(), self.overlap.n_cols(), &edges)
    }

    /// Bytes to transfer the whole split (overlap once + all exclusives).
    pub fn transfer_bytes(&self) -> u64 {
        self.overlap.bytes() + self.exclusives.iter().map(Csr::bytes).sum::<u64>()
    }
}

/// Split a snapshot group into its common overlap and per-snapshot
/// exclusive parts. All snapshots must share dimensions.
///
/// Runs one k-way sorted merge per row — `O(Σ nnz)`; this is the operation
/// the sliced layout keeps cheap enough to run online during the preparing
/// epochs.
pub fn extract_overlap(snaps: &[&Csr]) -> OverlapSplit {
    assert!(!snaps.is_empty(), "overlap of an empty group");
    let n_rows = snaps[0].n_rows();
    let n_cols = snaps[0].n_cols();
    assert!(
        snaps
            .iter()
            .all(|s| s.n_rows() == n_rows && s.n_cols() == n_cols),
        "snapshot dimension mismatch"
    );
    if snaps.len() == 1 {
        return OverlapSplit {
            overlap: snaps[0].clone(),
            exclusives: vec![Csr::empty(n_rows, n_cols)],
        };
    }

    let mut overlap_edges = Vec::new();
    let mut exclusive_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); snaps.len()];
    for r in 0..n_rows {
        // Intersect the sorted column lists of this row across all members.
        let first = snaps[0].row(r);
        'cols: for &c in first {
            for s in &snaps[1..] {
                if s.row(r).binary_search(&c).is_err() {
                    continue 'cols;
                }
            }
            overlap_edges.push((r as u32, c));
        }
        // Exclusive = row minus overlap-of-this-row (overlap cols for row r
        // are a sorted subsequence of `first`).
        let row_overlap_start = overlap_edges
            .iter()
            .rposition(|&(rr, _)| rr != r as u32)
            .map(|p| p + 1)
            .unwrap_or(0);
        let row_overlap: Vec<u32> = overlap_edges[row_overlap_start..]
            .iter()
            .map(|&(_, c)| c)
            .collect();
        for (i, s) in snaps.iter().enumerate() {
            for &c in s.row(r) {
                if row_overlap.binary_search(&c).is_err() {
                    exclusive_edges[i].push((r as u32, c));
                }
            }
        }
    }

    OverlapSplit {
        overlap: Csr::from_edges(n_rows, n_cols, &overlap_edges),
        exclusives: exclusive_edges
            .into_iter()
            .map(|e| Csr::from_edges(n_rows, n_cols, &e))
            .collect(),
    }
}

/// Topology overlap rate of a snapshot group: shared edges over the mean
/// edge count. This is the `OR` statistic the dynamic tuner buckets on
/// (§4.4, Figure 9a).
pub fn overlap_rate(snaps: &[&Csr]) -> f64 {
    if snaps.len() < 2 {
        return 1.0;
    }
    let split = extract_overlap(snaps);
    let mean_edges: f64 = snaps.iter().map(|s| s.nnz() as f64).sum::<f64>() / snaps.len() as f64;
    if mean_edges == 0.0 {
        1.0
    } else {
        (split.overlap.nnz() as f64 / mean_edges).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(edges: &[(u32, u32)]) -> Csr {
        Csr::from_edges(5, 5, edges)
    }

    #[test]
    fn overlap_of_identical_snapshots_is_total() {
        let a = snap(&[(0, 1), (1, 2), (3, 4)]);
        let split = extract_overlap(&[&a, &a, &a]);
        assert_eq!(split.overlap, a);
        assert!(split.exclusives.iter().all(|e| e.nnz() == 0));
        assert_eq!(overlap_rate(&[&a, &a]), 1.0);
    }

    #[test]
    fn overlap_is_exact_intersection() {
        let a = snap(&[(0, 1), (1, 2), (3, 4)]);
        let b = snap(&[(0, 1), (1, 3), (3, 4)]);
        let c = snap(&[(0, 1), (2, 2), (3, 4)]);
        let split = extract_overlap(&[&a, &b, &c]);
        assert_eq!(split.overlap.edges(), vec![(0, 1), (3, 4)]);
        assert_eq!(split.exclusives[0].edges(), vec![(1, 2)]);
        assert_eq!(split.exclusives[1].edges(), vec![(1, 3)]);
        assert_eq!(split.exclusives[2].edges(), vec![(2, 2)]);
    }

    #[test]
    fn reassembly_restores_each_snapshot() {
        let a = snap(&[(0, 1), (1, 2), (3, 4), (4, 0)]);
        let b = snap(&[(0, 1), (1, 2), (2, 3)]);
        let split = extract_overlap(&[&a, &b]);
        assert_eq!(split.reassemble(0), a);
        assert_eq!(split.reassemble(1), b);
    }

    #[test]
    fn overlap_shrinks_transfer_volume() {
        // 90% shared topology → split ships far fewer edge words than two
        // full snapshots.
        let shared: Vec<(u32, u32)> = (0..90u32).map(|i| (i % 5, (i * 7) % 5)).collect();
        let mut ea = shared.clone();
        ea.push((0, 4));
        let mut eb = shared.clone();
        eb.push((4, 0));
        let (a, b) = (snap(&ea), snap(&eb));
        let split = extract_overlap(&[&a, &b]);
        assert!(split.transfer_bytes() < a.bytes() + b.bytes());
    }

    #[test]
    fn overlap_rate_reflects_change() {
        let a = snap(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let b = snap(&[(0, 1), (1, 2), (2, 4), (4, 3)]);
        let or = overlap_rate(&[&a, &b]);
        assert!((or - 0.5).abs() < 1e-9, "or={or}");
    }

    #[test]
    fn single_snapshot_split_is_trivial() {
        let a = snap(&[(0, 1)]);
        let split = extract_overlap(&[&a]);
        assert_eq!(split.overlap, a);
        assert_eq!(split.exclusives.len(), 1);
        assert_eq!(split.exclusives[0].nnz(), 0);
    }
}
