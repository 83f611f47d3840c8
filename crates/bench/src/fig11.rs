//! Figure 11 and the §5.3 thread-utilization experiment: the detailed
//! analysis of the parallel GNN with inter-frame reuse disabled.
//!
//! * 11a — GNN execution-time speedup over PyGT (and PyGT-G) plus the
//!   reduction in global-memory requests/transactions against PyGT-G;
//! * 11b — dimension sensitivity on the small-scale datasets;
//! * thread utilization — warp execution efficiency of the GNN kernels,
//!   PyGT-G vs PiPAD, with all dimensions forced to 2/6.
//!
//! Every arm stages and aggregates through the executor its trainer runs
//! ([`run_gnn_frame`]).

use crate::util::{dataset, header, pad, run_gnn_frame, Staging};
use pipad_baselines::BaselineKind;
use pipad_dyngraph::{DatasetId, DynamicGraph, Scale, Snapshot, ALL_DATASETS};
use pipad_gpu_sim::{Breakdown, SimNanos};
use pipad_tensor::{seeded_rng, uniform};
use std::fmt::Write;

const PYGT: Staging = Staging::Baseline(BaselineKind::Pygt);
const PYGT_G: Staging = Staging::Baseline(BaselineKind::PygtG);

/// PiPAD's parallel aggregation over partitions of `s_per`, with weight
/// reuse as its trainer runs it.
fn pipad(s_per: usize) -> Staging {
    Staging::Pipad {
        s_per,
        weight_reuse: true,
    }
}

/// Profile a 1-layer GNN (aggregation only, reuse disabled) over a window
/// of snapshots with the given staging; returns (kernel execution time,
/// breakdown). Figure 11 compares *kernel* time — the paper analyzes the
/// algorithm level separately from transfers ("since the data transfer
/// greatly impacts the end-to-end training time ... this section specially
/// analyzes our algorithm-level optimization", §5.3).
pub fn profile_gnn(
    graph: &DynamicGraph,
    window: usize,
    dim_override: Option<usize>,
    staging: Staging,
) -> (SimNanos, Breakdown) {
    let mut rng = seeded_rng(1111);
    let snapshots = graph.snapshots[..window]
        .iter()
        .map(|s| match dim_override {
            Some(d) => Snapshot::new(s.adj.clone(), uniform(&mut rng, graph.n(), d, 1.0)),
            None => s.clone(),
        })
        .collect();
    let frame = DynamicGraph::new(graph.name.as_str(), snapshots);
    let (_, b) = run_gnn_frame(&frame, staging, None);
    (b.compute_total, b)
}

fn pipad_s_per(id: DatasetId) -> usize {
    // §5.2: memory limits large datasets to 2-snapshot parallelism.
    if id.is_small_scale() {
        8
    } else {
        2
    }
}

/// Render Figure 11a.
pub fn run_fig11a(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&header(
        "Figure 11a: GNN execution speedup and memory-access reduction",
    ));
    writeln!(
        out,
        "{} {:>12} {:>12} {:>10} {:>10}",
        pad("Dataset", 17),
        "vs PyGT",
        "vs PyGT-G",
        "req red.",
        "txn red."
    )
    .unwrap();
    let window = 8;
    let mut sp_pygt = Vec::new();
    let mut sp_ge = Vec::new();
    let mut req_red = Vec::new();
    let mut txn_red = Vec::new();
    for id in ALL_DATASETS {
        let g = dataset(id, scale);
        let (t_pygt, _) = profile_gnn(&g, window, None, PYGT);
        let (t_ge, b_ge) = profile_gnn(&g, window, None, PYGT_G);
        let (t_pi, b_pi) = profile_gnn(&g, window, None, pipad(pipad_s_per(id)));
        let s1 = t_pygt.as_nanos() as f64 / t_pi.as_nanos().max(1) as f64;
        let s2 = t_ge.as_nanos() as f64 / t_pi.as_nanos().max(1) as f64;
        let rr = 1.0 - b_pi.gmem_requests as f64 / b_ge.gmem_requests.max(1) as f64;
        let tr = 1.0 - b_pi.gmem_transactions as f64 / b_ge.gmem_transactions.max(1) as f64;
        writeln!(
            out,
            "{} {:>11.2}x {:>11.2}x {:>9.1}% {:>9.1}%",
            pad(id.name(), 17),
            s1,
            s2,
            rr * 100.0,
            tr * 100.0
        )
        .unwrap();
        sp_pygt.push(s1);
        sp_ge.push(s2);
        req_red.push(rr);
        txn_red.push(tr);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    writeln!(
        out,
        "\nmean: {:.1}x over PyGT (paper 5.6x), {:.1}x over PyGT-G (paper 3.1x);\n\
         mean request reduction {:.0}% (paper 57%), transaction reduction {:.0}% (paper 45%).",
        mean(&sp_pygt),
        mean(&sp_ge),
        mean(&req_red) * 100.0,
        mean(&txn_red) * 100.0
    )
    .unwrap();
    out
}

/// Render Figure 11b (dimension sensitivity, small-scale datasets).
pub fn run_fig11b(scale: Scale) -> String {
    let dims = [2usize, 8, 16, 32, 64, 128];
    let small = [
        DatasetId::HepTh,
        DatasetId::Covid19England,
        DatasetId::Pems08,
    ];
    let mut out = String::new();
    out.push_str(&header(
        "Figure 11b: Parallel-GNN speedup over PyGT vs feature dimension",
    ));
    write!(out, "{}", pad("Dataset", 17)).unwrap();
    for d in dims {
        write!(out, "{:>9}", format!("d={d}")).unwrap();
    }
    out.push('\n');
    for id in small {
        let g = dataset(id, scale);
        write!(out, "{}", pad(id.name(), 17)).unwrap();
        for d in dims {
            // Larger dims consume more memory → lower feasible parallelism
            // (the paper's memory-consumption caveat in §5.3).
            let s_per = if d <= 16 { 8 } else { 4 };
            let (t_base, _) = profile_gnn(&g, 8, Some(d), PYGT);
            let (t_pi, _) = profile_gnn(&g, 8, Some(d), pipad(s_per));
            write!(
                out,
                "{:>8.2}x",
                t_base.as_nanos() as f64 / t_pi.as_nanos().max(1) as f64
            )
            .unwrap();
        }
        out.push('\n');
    }
    out
}

/// The §5.3 thread-utilization experiment: warp execution efficiency with
/// every dataset forced to input dim 2 (paper: PyGT-G 57.2% → PiPAD 64.9%).
pub fn run_thread_util(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&header(
        "Thread utilization (warp_execution_efficiency), input dim forced to 2",
    ));
    writeln!(
        out,
        "{} {:>10} {:>10}",
        pad("Dataset", 17),
        "PyGT-G",
        "PiPAD"
    )
    .unwrap();
    let mut ge_total = 0.0;
    let mut pi_total = 0.0;
    for id in ALL_DATASETS {
        let g = dataset(id, scale);
        let (_, b_ge) = profile_gnn(&g, 8, Some(2), PYGT_G);
        let (_, b_pi) = profile_gnn(&g, 8, Some(2), pipad(4));
        let ge = b_ge.warp_efficiency() * 100.0;
        let pi = b_pi.warp_efficiency() * 100.0;
        writeln!(out, "{} {:>9.1}% {:>9.1}%", pad(id.name(), 17), ge, pi).unwrap();
        ge_total += ge;
        pi_total += pi;
    }
    writeln!(
        out,
        "\nmean: PyGT-G {:.1}% vs PiPAD {:.1}%  (paper: 57.2% vs 64.9%)",
        ge_total / 7.0,
        pi_total / 7.0
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipad_gnn_beats_both_baselines_on_dense_small_dim() {
        let g = dataset(DatasetId::Flickr, Scale::Tiny);
        let (t_pygt, _) = profile_gnn(&g, 4, None, PYGT);
        let (t_ge, _) = profile_gnn(&g, 4, None, PYGT_G);
        let (t_pi, _) = profile_gnn(&g, 4, None, pipad(4));
        assert!(t_pi < t_pygt, "pipad {t_pi} vs pygt {t_pygt}");
        assert!(t_pi < t_ge, "pipad {t_pi} vs pygt-g {t_ge}");
    }

    #[test]
    fn memory_reductions_vs_gespmm_are_positive_on_small_dims() {
        let g = dataset(DatasetId::Youtube, Scale::Tiny);
        let (_, b_ge) = profile_gnn(&g, 4, None, PYGT_G);
        let (_, b_pi) = profile_gnn(&g, 4, None, pipad(4));
        assert!(b_pi.gmem_transactions < b_ge.gmem_transactions);
        assert!(b_pi.gmem_requests < b_ge.gmem_requests);
    }

    #[test]
    fn slice_coalescing_raises_warp_efficiency() {
        let g = dataset(DatasetId::Epinions, Scale::Tiny);
        let (_, b_ge) = profile_gnn(&g, 4, Some(2), PYGT_G);
        let (_, b_pi) = profile_gnn(&g, 4, Some(2), pipad(4));
        assert!(
            b_pi.warp_efficiency() > b_ge.warp_efficiency(),
            "pipad {:.3} vs gespmm {:.3}",
            b_pi.warp_efficiency(),
            b_ge.warp_efficiency()
        );
    }
}
