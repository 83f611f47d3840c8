//! Per-thread-block work distributions for the load-balance analysis
//! (Figure 12). A CSR kernel binds warps to whole rows, so hub vertices
//! produce monster blocks; the sliced layout caps per-slice work at
//! `slice_cap` nonzeros.

use crate::csr::Csr;
use crate::sliced::SlicedCsr;

/// Fixed work units charged per scheduled row/slice even when empty —
/// models the warp-scheduling overhead that makes Youtube's empty rows
/// expensive under row-per-warp kernels.
pub const ROW_OVERHEAD: u64 = 1;

/// Work per thread block for a row-per-warp CSR kernel: `rows_per_block`
/// consecutive rows per block, each row costing `nnz + ROW_OVERHEAD`.
pub fn csr_block_work(csr: &Csr, rows_per_block: usize) -> Vec<u64> {
    assert!(rows_per_block > 0);
    let degrees = csr.degrees();
    degrees
        .chunks(rows_per_block)
        .map(|chunk| chunk.iter().map(|&d| d as u64 + ROW_OVERHEAD).sum())
        .collect()
}

/// Work per thread block for a slice-grained kernel: `slices_per_block`
/// consecutive slices per block. Slice sizes are capped, so the resulting
/// distribution is near-uniform regardless of degree skew.
pub fn sliced_block_work(sliced: &SlicedCsr, slices_per_block: usize) -> Vec<u64> {
    assert!(slices_per_block > 0);
    sliced
        .slice_sizes()
        .chunks(slices_per_block)
        .map(|chunk| chunk.iter().map(|&n| n as u64 + ROW_OVERHEAD).sum())
        .collect()
}

/// Per-row aggregation work of one snapshot: `nnz + ROW_OVERHEAD` per row
/// (the same cost model as [`csr_block_work`], at row granularity). Summed
/// across a dynamic graph's snapshots this is the load a vertex partition
/// must balance.
pub fn csr_row_work(csr: &Csr) -> Vec<u64> {
    csr.degrees()
        .iter()
        .map(|&d| d as u64 + ROW_OVERHEAD)
        .collect()
}

/// Split rows `0..row_work.len()` into at most `parts` contiguous ranges
/// with near-equal total work (greedy prefix split): each part's boundary
/// is advanced while doing so brings its accumulated work strictly closer
/// to the *recomputed* target `remaining_work / remaining_parts`, always
/// reserving at least one row per remaining part.
///
/// Guarantees: ranges are disjoint, contiguous, cover every row, and each
/// is nonempty (degenerate inputs with fewer rows than parts yield fewer
/// ranges). The worst-case overshoot of any part is half the largest
/// single row's work, so for graphs whose hubs are small relative to
/// `total/parts` the imbalance factor stays tight.
///
/// Stability: the split is a pure function of `row_work`, so callers that
/// sum work over *all* snapshots of a dynamic graph get one partition for
/// the whole run — bounded inter-snapshot edge churn perturbs the sums
/// only slightly and moves boundaries by at most a few rows.
pub fn partition_rows_balanced(row_work: &[u64], parts: usize) -> Vec<(usize, usize)> {
    assert!(parts >= 1);
    let n = row_work.len();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0usize;
    let mut remaining: u64 = row_work.iter().sum();
    for p in 0..parts {
        let parts_left = parts - p;
        if parts_left == 1 {
            out.push((lo, n));
            return out;
        }
        let target = remaining / parts_left as u64;
        // Leave at least one row for each of the remaining parts.
        let max_hi = n - (parts_left - 1);
        let mut hi = lo;
        let mut acc = 0u64;
        while hi < max_hi {
            let w = row_work[hi];
            if hi > lo {
                let without = acc.abs_diff(target);
                let with = (acc + w).abs_diff(target);
                if with > without {
                    break;
                }
            }
            acc += w;
            hi += 1;
        }
        out.push((lo, hi));
        remaining -= acc;
        lo = hi;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::schedule_blocks;

    fn skewed() -> Csr {
        // one hub with 512 out-edges plus 63 degree-1 vertices
        let mut edges: Vec<(u32, u32)> = (0..512u32).map(|c| (0, c % 600)).collect();
        edges.extend((1..64u32).map(|r| (r, r)));
        Csr::from_edges(64, 600, &edges)
    }

    #[test]
    fn csr_work_reflects_degree_skew() {
        let w = csr_block_work(&skewed(), 1);
        assert_eq!(w.len(), 64);
        assert!(w[0] > 100 * w[1]);
    }

    #[test]
    fn sliced_work_is_capped() {
        let s = SlicedCsr::from_csr(&skewed());
        let w = sliced_block_work(&s, 1);
        assert!(w.iter().all(|&x| x <= 32 + ROW_OVERHEAD));
    }

    #[test]
    fn sliced_layout_balances_better() {
        let csr = skewed();
        let sliced = SlicedCsr::from_csr(&csr);
        let f_csr = schedule_blocks(&csr_block_work(&csr, 1), 8).factor();
        let f_sliced = schedule_blocks(&sliced_block_work(&sliced, 1), 8).factor();
        assert!(
            f_sliced < f_csr,
            "sliced={f_sliced:.2} should beat csr={f_csr:.2}"
        );
    }

    #[test]
    fn balanced_partition_covers_rows_disjointly() {
        let work = vec![1u64; 10];
        let parts = partition_rows_balanced(&work, 3);
        assert_eq!(parts.first().unwrap().0, 0);
        assert_eq!(parts.last().unwrap().1, 10);
        for w in parts.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous and disjoint");
        }
        assert!(parts.iter().all(|&(lo, hi)| lo < hi));
        // degenerate: more parts than rows → one singleton per row
        let tiny = partition_rows_balanced(&[1, 1, 1], 8);
        assert_eq!(tiny, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(partition_rows_balanced(&[], 4).is_empty());
    }

    #[test]
    fn balanced_partition_tracks_work_not_rows() {
        // One hub row with the weight of 60 normal rows: an equal-row split
        // into 2 parts puts 90 units in part 0 vs 30 in part 1; the
        // work-aware split hands part 0 far fewer rows.
        let mut work = vec![1u64; 60];
        work[0] = 60;
        let parts = partition_rows_balanced(&work, 2);
        assert_eq!(parts.len(), 2);
        let sums: Vec<u64> = parts
            .iter()
            .map(|&(lo, hi)| work[lo..hi].iter().sum())
            .collect();
        let max = *sums.iter().max().unwrap() as f64;
        let mean = work.iter().sum::<u64>() as f64 / 2.0;
        assert!(max / mean < 1.10, "imbalance {:.3}", max / mean);
        assert!(parts[0].1 - parts[0].0 < parts[1].1 - parts[1].0);
    }

    #[test]
    fn balanced_beats_naive_on_skewed_graph() {
        let work = csr_row_work(&skewed());
        let naive_max: u64 = {
            // contiguous equal-count halves
            let mid = work.len() / 2;
            work[..mid]
                .iter()
                .sum::<u64>()
                .max(work[mid..].iter().sum())
        };
        let balanced_max: u64 = partition_rows_balanced(&work, 2)
            .iter()
            .map(|&(lo, hi)| work[lo..hi].iter().sum())
            .max()
            .unwrap();
        assert!(
            balanced_max < naive_max,
            "balanced {balanced_max} vs naive {naive_max}"
        );
    }

    #[test]
    fn empty_rows_still_cost_scheduling() {
        let c = Csr::empty(100, 100);
        let w = csr_block_work(&c, 4);
        assert_eq!(w.len(), 25);
        assert!(w.iter().all(|&x| x == 4 * ROW_OVERHEAD));
        // sliced CSR schedules nothing for empty rows
        let s = SlicedCsr::from_csr(&c);
        assert!(sliced_block_work(&s, 4).is_empty());
    }
}
