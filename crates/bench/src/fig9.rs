//! Figure 9: the offline analysis of the parallel GNN that feeds the
//! dynamic tuner — speedup of `S_per ∈ {2,4,8}` multi-snapshot execution
//! over one-snapshot execution, as (a) the topology overlap rate and
//! (b) the feature dimension vary.
//!
//! Snapshot groups with a controlled overlap rate are constructed directly:
//! `OR × E` shared edges plus `(1 − OR) × E` fresh exclusive edges per
//! member (the paper "randomly selects snapshot groups that satisfy the
//! target overlap requirements"). Each group runs one GCN layer —
//! aggregation, then the FC update — through the executor `train_pipad`
//! trains with ([`run_gnn_frame`]): once with the preparing epochs' options
//! (`S_per = 1`, no weight reuse) and once with the steady epochs'
//! (`S_per`, weight reuse). Both launch eagerly, so the ratio isolates
//! parallelism; what CUDA graphs add is Ablation C's row.
//!
//! Panel (a) is printed beside the tuner's `OfflineTable::default()` with a
//! computed verdict on whether the two agree.

use crate::util::{header, pad, run_gnn_frame, Staging};
use pipad::tuner::OR_BUCKETS;
use pipad::OfflineTable;
use pipad_dyngraph::{DynamicGraph, Snapshot};
use pipad_sparse::Csr;
use pipad_tensor::{glorot_uniform, seeded_rng, uniform, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write;

pub const S_PER: [usize; 3] = [2, 4, 8];
pub const OR_SWEEP: [f64; 6] = [0.30, 0.45, 0.60, 0.75, 0.85, 0.95];
pub const DIM_SWEEP: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// A measured speedup agrees with the tuner's table when it lies within
/// this fraction of the table's entry.
const AGREE_WITHIN: f64 = 0.10;

/// Build a snapshot group with the target overlap rate.
fn group_with_or(rng: &mut StdRng, n: usize, edges_per: usize, s: usize, or: f64) -> Vec<Csr> {
    let shared_count = (edges_per as f64 * or) as usize;
    let excl_count = edges_per - shared_count;
    let sample = |count: usize, rng: &mut StdRng| -> Vec<(u32, u32)> {
        let mut e = Vec::with_capacity(count * 2);
        let mut seen = std::collections::HashSet::new();
        while seen.len() < count {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v && seen.insert((u.min(v), u.max(v))) {}
        }
        for (u, v) in seen {
            e.push((u, v));
            e.push((v, u));
        }
        e
    };
    let shared = sample(shared_count, rng);
    (0..s)
        .map(|_| {
            let mut edges = shared.clone();
            edges.extend(sample(excl_count, rng));
            Csr::from_edges(n, n, &edges)
        })
        .collect()
}

/// One measured point of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct Fig9Point {
    pub s_per: usize,
    pub or: f64,
    pub dim: usize,
    pub speedup: f64,
}

fn measure_point(rng: &mut StdRng, s_per: usize, or: f64, dim: usize) -> Fig9Point {
    let n = 8_000;
    let edges = 48_000;
    let group = group_with_or(rng, n, edges, s_per, or);
    let snapshots = group
        .into_iter()
        .map(|adj| Snapshot::new(adj, uniform(rng, n, dim, 1.0)))
        .collect();
    let graph = DynamicGraph::new("fig9", snapshots);
    let w = glorot_uniform(rng, dim, dim.max(4));
    let b = Matrix::zeros(1, w.cols());
    let time = |s_per, weight_reuse| {
        let staging = Staging::Pipad {
            s_per,
            weight_reuse,
        };
        run_gnn_frame(&graph, staging, Some((&w, &b))).0
    };
    let t1 = time(1, false);
    let tp = time(s_per, true);
    Fig9Point {
        s_per,
        or,
        dim,
        speedup: t1.as_nanos() as f64 / tp.as_nanos().max(1) as f64,
    }
}

/// Figure 9a sweep: speedup vs OR (feature dim fixed at 16).
pub fn sweep_or() -> Vec<Fig9Point> {
    let mut rng = seeded_rng(909);
    let mut out = Vec::new();
    for &s in &S_PER {
        for &or in &OR_SWEEP {
            out.push(measure_point(&mut rng, s, or, 16));
        }
    }
    out
}

/// Figure 9b sweep: speedup vs feature dimension (OR fixed at 0.85).
pub fn sweep_dim() -> Vec<Fig9Point> {
    let mut rng = seeded_rng(910);
    let mut out = Vec::new();
    for &s in &S_PER {
        for &d in &DIM_SWEEP {
            out.push(measure_point(&mut rng, s, 0.85, d));
        }
    }
    out
}

/// Whether every point beats each point with a smaller `S_per` at the same
/// overlap rate and dimension.
fn larger_s_per_wins(points: &[Fig9Point]) -> bool {
    points.iter().all(|p| {
        points
            .iter()
            .filter(|q| q.or == p.or && q.dim == p.dim && q.s_per < p.s_per)
            .all(|q| p.speedup > q.speedup)
    })
}

/// Panel (a) beside `OfflineTable::default()`, the table the tuner decides
/// from: per `S_per` × overlap-rate bucket, the mean measured speedup and
/// the table's entry (dim 16 is its unscaled dimension bucket). Returns the
/// rendering, the cells within `AGREE_WITHIN` of the table and all cells.
fn table_comparison(a: &[Fig9Point]) -> (String, usize, usize) {
    let table = OfflineTable::default();
    let mut out = header("Figure 9a beside the tuner's OfflineTable::default() (measured / table)");
    write!(out, "{}", pad("OR", 12)).unwrap();
    for &s in &S_PER {
        write!(out, "{:>14}", format!("S_per={s}")).unwrap();
    }
    let (mut agreeing, mut cells) = (0, 0);
    for (k, &lo) in OR_BUCKETS.iter().enumerate() {
        let hi = OR_BUCKETS.get(k + 1).copied().unwrap_or(f64::INFINITY);
        let bucket: Vec<&Fig9Point> = a.iter().filter(|p| p.or >= lo && p.or < hi).collect();
        if bucket.is_empty() {
            continue;
        }
        write!(out, "\n{}", pad(&format!("{lo:.2}..{hi:.2}"), 12)).unwrap();
        for &s in &S_PER {
            let speedups: Vec<f64> = bucket
                .iter()
                .filter(|p| p.s_per == s)
                .map(|p| p.speedup)
                .collect();
            let measured = speedups.iter().sum::<f64>() / speedups.len() as f64;
            let listed = table.lookup(s, lo, 16);
            agreeing += usize::from((measured - listed).abs() <= AGREE_WITHIN * listed);
            cells += 1;
            write!(out, "{:>14}", format!("{measured:.2} / {listed:.2}")).unwrap();
        }
    }
    out.push('\n');
    (out, agreeing, cells)
}

/// Append one panel: a row per swept value (`row` labels a point with it),
/// a column per `S_per`. The sweeps are `S_per`-major, so the first
/// `S_per`'s points give the rows in sweep order.
fn panel(
    out: &mut String,
    title: &str,
    axis: &str,
    points: &[Fig9Point],
    row: fn(&Fig9Point) -> String,
) {
    out.push_str(&header(title));
    write!(out, "{}", pad(axis, 8)).unwrap();
    for &s in &S_PER {
        write!(out, "{:>10}", format!("S_per={s}")).unwrap();
    }
    for label in points.iter().filter(|p| p.s_per == S_PER[0]).map(row) {
        write!(out, "\n{}", pad(&label, 8)).unwrap();
        for p in points.iter().filter(|p| row(p) == label) {
            write!(out, "{:>10.2}", p.speedup).unwrap();
        }
    }
    out.push('\n');
}

/// Render both panels, then panel (a) beside the tuner's table.
pub fn run() -> String {
    let (a, b) = (sweep_or(), sweep_dim());
    let mut out = String::new();
    let title = "Figure 9a: Parallel-GNN speedup vs overlap rate (dim = 16)";
    panel(&mut out, title, "OR", &a, |p| format!("{:.2}", p.or));
    let title = "Figure 9b: Parallel-GNN speedup vs feature dimension (OR = 0.85)";
    panel(&mut out, title, "dim", &b, |p| p.dim.to_string());
    let (comparison, agreeing, cells) = table_comparison(&a);
    out.push_str(&comparison);
    let wins = larger_s_per_wins(&a) && larger_s_per_wins(&b);
    writeln!(
        out,
        "\nLarger S_per {} at every overlap rate and dimension (the paper's key takeaway);\n\
         {agreeing} of {cells} cells lie within {:.0} % of the tuner's OfflineTable::default(), \
         so the table {} these measurements.",
        if wins { "wins" } else { "does not win" },
        AGREE_WITHIN * 100.0,
        if agreeing == cells {
            "reproduces"
        } else {
            "does not reproduce"
        },
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_s_per_wins_at_high_or() {
        let mut rng = seeded_rng(1);
        let p2 = measure_point(&mut rng, 2, 0.9, 16);
        let p8 = measure_point(&mut rng, 8, 0.9, 16);
        assert!(p8.speedup > p2.speedup, "p8 {p8:?} vs p2 {p2:?}");
        assert!(p2.speedup > 1.0, "{p2:?}");
    }

    #[test]
    fn higher_or_wins_at_fixed_s_per() {
        let mut rng = seeded_rng(2);
        let lo = measure_point(&mut rng, 4, 0.3, 16);
        let hi = measure_point(&mut rng, 4, 0.95, 16);
        assert!(hi.speedup > lo.speedup, "hi {hi:?} vs lo {lo:?}");
    }

    #[test]
    fn controlled_or_groups_hit_target() {
        let mut rng = seeded_rng(3);
        let group = group_with_or(&mut rng, 500, 2000, 4, 0.7);
        let refs: Vec<&Csr> = group.iter().collect();
        let measured = pipad_sparse::overlap_rate(&refs);
        assert!((measured - 0.7).abs() < 0.1, "measured {measured}");
    }
}
