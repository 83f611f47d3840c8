//! Figure 5: global-memory requests (#R) and transactions (#T) of the
//! standard row-per-warp aggregation as the feature dimension sweeps —
//! the §3.2 bandwidth-unsaturation / request-burst experiment.
//!
//! A single-kernel micro-benchmark by design: the figure is about one
//! kernel's access shape, so it launches that kernel directly instead of
//! going through a trainer's executor as Figures 9 and 11 do.

use crate::util::{check_consistency, header, pad};
use pipad_gpu_sim::{DeviceConfig, Gpu};
use pipad_kernels::{spmm_gespmm, upload_csr, upload_matrix};
use pipad_sparse::Csr;
use pipad_tensor::{seeded_rng, uniform};
use rand::Rng;
use std::fmt::Write;
use std::rc::Rc;

/// Feature dimensions swept (the paper's x-axis).
pub const DIMS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Point {
    pub dim: usize,
    pub requests: u64,
    pub transactions: u64,
}

/// HepTh-flavored random graph for the sweep.
fn sweep_graph(n: usize, avg_deg: usize) -> Csr {
    let mut rng = seeded_rng(505);
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

/// Run the sweep: one GE-SpMM-style aggregation per dimension.
pub fn measure() -> Vec<Fig5Point> {
    let csr = Rc::new(sweep_graph(2000, 8));
    let mut rng = seeded_rng(506);
    DIMS.iter()
        .map(|&dim| {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            let s = gpu.default_stream();
            let adj = upload_csr(&mut gpu, s, Rc::clone(&csr), true).unwrap();
            let x = upload_matrix(&mut gpu, s, &uniform(&mut rng, 2000, dim, 1.0), true).unwrap();
            let snap = gpu.profiler().snapshot();
            spmm_gespmm(&mut gpu, s, &adj, &x).unwrap();
            let w = gpu.profiler().window(snap);
            check_consistency(&gpu);
            Fig5Point {
                dim,
                requests: w.gmem_requests,
                transactions: w.gmem_transactions,
            }
        })
        .collect()
}

/// Render Figure 5.
pub fn run() -> String {
    let points = measure();
    let mut out = String::new();
    out.push_str(&header(
        "Figure 5: Global Memory Requests (#R) and Transactions (#T) vs Feature Dim",
    ));
    writeln!(
        out,
        "{} {:>12} {:>14} {:>10} {:>10}",
        pad("dim", 5),
        "#R",
        "#T",
        "R/R(1)",
        "T/T(1)"
    )
    .unwrap();
    let (r0, t0) = (points[0].requests as f64, points[0].transactions as f64);
    for p in &points {
        writeln!(
            out,
            "{} {:>12} {:>14} {:>10.2} {:>10.2}",
            pad(&p.dim.to_string(), 5),
            p.requests,
            p.transactions,
            p.requests as f64 / r0,
            p.transactions as f64 / t0,
        )
        .unwrap();
    }
    out.push_str(
        "\n#T stays flat below dim 8 (each transaction moves 32 B regardless — bandwidth\n\
         unsaturation) and rises past it; #R stays flat until dim exceeds 32 (one warp\n\
         request covers 128 B) and then bursts — exactly the two knees of §3.2.\n",
    );
    out
}

/// The two knees the paper identifies, as a checkable property.
pub fn knees_hold(points: &[Fig5Point]) -> bool {
    let at = |d: usize| points.iter().find(|p| p.dim == d).unwrap();
    // flat T through dim 8, rising after
    let flat_t = at(8).transactions < at(1).transactions * 11 / 10;
    let rising_t = at(32).transactions > at(8).transactions * 2;
    // flat R through dim 32, rising after
    let flat_r = at(32).requests < at(1).requests * 11 / 10;
    let rising_r = at(128).requests > at(32).requests * 2;
    flat_t && rising_t && flat_r && rising_r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_knees_reproduce() {
        let points = measure();
        assert!(knees_hold(&points), "{points:?}");
    }

    #[test]
    fn output_mentions_both_counters() {
        let s = run();
        assert!(s.contains("#R"));
        assert!(s.contains("#T"));
    }
}
