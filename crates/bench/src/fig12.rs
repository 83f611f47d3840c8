//! Figure 12: the sliced-CSR analysis — load balance of the GNN kernels
//! (Balanced = ideal latency under perfect distribution vs Actual) and the
//! overall training speedup of the sliced format over plain CSR with every
//! other PiPAD mechanism unchanged.
//!
//! The load-balance half is a single-kernel micro-benchmark by design: it
//! launches one aggregation kernel per format directly. The overall
//! speedup trains through `train_pipad`.

use crate::util::{check_consistency, dataset, default_training_config, header, pad};
use pipad::{train_pipad, PipadConfig};
use pipad_dyngraph::{DatasetId, Scale, ALL_DATASETS};
use pipad_gpu_sim::{DeviceConfig, Gpu, SimNanos};
use pipad_kernels::{spmm_gespmm, spmm_sliced_parallel, upload_csr, upload_matrix, upload_sliced};
use pipad_models::{normalize_snapshot, ModelKind};
use pipad_sparse::SlicedCsr;
use std::fmt::Write;
use std::rc::Rc;

/// Load-balance measurement of one aggregation kernel.
#[derive(Clone, Copy, Debug)]
pub struct BalancePoint {
    /// Actual kernel time (with the measured imbalance).
    pub actual: SimNanos,
    /// Ideal time under perfect load balance.
    pub balanced: SimNanos,
}

impl BalancePoint {
    pub fn imbalance(&self) -> f64 {
        self.actual.as_nanos() as f64 / self.balanced.as_nanos().max(1) as f64
    }
}

/// Measure CSR-kernel vs sliced-kernel load balance on one snapshot.
pub fn measure_balance(id: DatasetId, scale: Scale) -> (BalancePoint, BalancePoint) {
    let g = dataset(id, scale);
    let snap0 = &g.snapshots[0];
    let norm = normalize_snapshot(&snap0.adj);

    let csr_point = {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let adj = upload_csr(&mut gpu, s, Rc::clone(&norm.adj_hat), true).unwrap();
        let x = upload_matrix(&mut gpu, s, &snap0.features, true).unwrap();
        let p = gpu.profiler().snapshot();
        spmm_gespmm(&mut gpu, s, &adj, &x).unwrap();
        let w = gpu.profiler().window(p);
        check_consistency(&gpu);
        BalancePoint {
            actual: w.compute_total,
            balanced: w.compute_balanced,
        }
    };
    let sliced_point = {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let sliced = Rc::new(SlicedCsr::from_csr(&norm.adj_hat));
        let adj = upload_sliced(&mut gpu, s, sliced, true).unwrap();
        let x = upload_matrix(&mut gpu, s, &snap0.features, true).unwrap();
        let p = gpu.profiler().snapshot();
        spmm_sliced_parallel(&mut gpu, s, &adj, &x, 1).unwrap();
        let w = gpu.profiler().window(p);
        check_consistency(&gpu);
        BalancePoint {
            actual: w.compute_total,
            balanced: w.compute_balanced,
        }
    };
    (csr_point, sliced_point)
}

/// End-to-end speedup of sliced PiPAD over the CSR-variant PiPAD.
pub fn overall_speedup(id: DatasetId, model: ModelKind, scale: Scale) -> f64 {
    let g = dataset(id, scale);
    let cfg = default_training_config();
    let run = |use_sliced: bool| {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let report = train_pipad(
            &mut gpu,
            model,
            &g,
            id.hidden_dim(),
            &cfg,
            &PipadConfig {
                use_sliced,
                ..Default::default()
            },
        )
        .expect("fig12 run failed");
        check_consistency(&gpu);
        report
    };
    let csr = run(false);
    let sliced = run(true);
    csr.steady_epoch_time.as_nanos() as f64 / sliced.steady_epoch_time.as_nanos().max(1) as f64
}

/// One dataset's measured Figure 12 row.
struct Row {
    id: DatasetId,
    csr: BalancePoint,
    sliced: BalancePoint,
    /// Overall speedup per model, in [`ModelKind::ALL`] order.
    speedup: [f64; 3],
}

impl Row {
    fn measure(id: DatasetId, scale: Scale) -> Row {
        let (csr, sliced) = measure_balance(id, scale);
        let speedup = ModelKind::ALL.map(|m| overall_speedup(id, m, scale));
        Row {
            id,
            csr,
            sliced,
            speedup,
        }
    }

    /// How far the sliced layout pulls the imbalance factor down.
    fn imbalance_drop(&self) -> f64 {
        self.csr.imbalance() - self.sliced.imbalance()
    }

    /// The row's largest speedup and the model it belongs to.
    fn best(&self) -> (f64, &'static str) {
        let (model, speedup) = ModelKind::ALL
            .into_iter()
            .zip(self.speedup)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("three models");
        (speedup, model.name())
    }
}

/// Render Figure 12.
pub fn run(scale: Scale) -> String {
    let rows: Vec<Row> = ALL_DATASETS
        .into_iter()
        .map(|id| Row::measure(id, scale))
        .collect();

    let mut out = String::new();
    out.push_str(&header(
        "Figure 12: Load Balance and Overall Performance of the Sliced CSR",
    ));
    writeln!(
        out,
        "{} {:>16} {:>16} {:>12} {:>12}",
        pad("Dataset", 17),
        "CSR actual",
        "CSR balanced",
        "CSR imbal.",
        "Sliced imbal."
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{} {:>16} {:>16} {:>11.2}x {:>12.2}x",
            pad(r.id.name(), 17),
            r.csr.actual.to_string(),
            r.csr.balanced.to_string(),
            r.csr.imbalance(),
            r.sliced.imbalance(),
        )
        .unwrap();
    }

    out.push_str(
        "\nOverall training speedup, sliced CSR over plain CSR (PiPAD otherwise unchanged):\n",
    );
    write!(out, "{}", pad("Dataset", 17)).unwrap();
    for m in ModelKind::ALL {
        write!(out, "{:>11}", m.name()).unwrap();
    }
    out.push('\n');
    for r in &rows {
        write!(out, "{}", pad(r.id.name(), 17)).unwrap();
        for s in r.speedup {
            write!(out, "{s:>10.2}x").unwrap();
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str(&caption(&rows));
    out
}

/// The caption, read off the measured rows: whether sliced narrows the CSR
/// imbalance everywhere, where it falls most, where the end-to-end gain is
/// largest, and whether that matches the paper's claim (Youtube).
fn caption(rows: &[Row]) -> String {
    let not_narrowed: Vec<&str> = rows
        .iter()
        .filter(|r| r.imbalance_drop() <= 0.0)
        .map(|r| r.id.name())
        .collect();
    let most_drop = rows
        .iter()
        .max_by(|a, b| a.imbalance_drop().total_cmp(&b.imbalance_drop()))
        .expect("Figure 12 measures every dataset");
    let most_gain = rows
        .iter()
        .max_by(|a, b| a.best().0.total_cmp(&b.best().0))
        .expect("Figure 12 measures every dataset");
    let youtube = rows
        .iter()
        .find(|r| r.id == DatasetId::Youtube)
        .expect("the paper's claim names Youtube, which Figure 12 measures");

    let mut out = if not_narrowed.is_empty() {
        "Sliced CSR narrows the Balanced/Actual gap on every dataset".to_string()
    } else {
        format!(
            "Sliced CSR narrows the Balanced/Actual gap on {} of {} datasets (not on {})",
            rows.len() - not_narrowed.len(),
            rows.len(),
            not_narrowed.join(", ")
        )
    };
    let (gain, model) = most_gain.best();
    let (yt_gain, yt_model) = youtube.best();
    writeln!(
        out,
        ";\nthe CSR imbalance falls most on {} ({:.2}x → {:.2}x).\n\
         The largest end-to-end gain is on {}: {gain:.2}x for {model}.\n\
         The paper finds the gain most prominent on hypersparse Youtube; here Youtube's\n\
         best is {yt_gain:.2}x ({yt_model}), so this measurement {}.",
        most_drop.id.name(),
        most_drop.csr.imbalance(),
        most_drop.sliced.imbalance(),
        most_gain.id.name(),
        if most_gain.id == DatasetId::Youtube {
            "agrees"
        } else {
            "does not agree"
        }
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_improves_balance_on_skewed_graphs() {
        // A hub-heavy graph large enough that the kernel has more blocks
        // than SM slots (the regime Figure 12 measures).
        use pipad_gpu_sim::schedule_blocks;
        use pipad_sparse::balance::{csr_block_work, sliced_block_work};
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for hub in 0..8u32 {
            for k in 0..4000u32 {
                let v = 8 + (k * 17 + hub * 911) % 40_000;
                edges.push((hub, v));
                edges.push((v, hub));
            }
        }
        for v in 8..40_000u32 {
            edges.push((v, (v + 1) % 40_000));
        }
        let csr = pipad_sparse::Csr::from_edges(40_008, 40_008, &edges);
        let sliced = pipad_sparse::SlicedCsr::from_csr(&csr);
        let f_csr = schedule_blocks(&csr_block_work(&csr, 4), 640).factor();
        let f_sliced = schedule_blocks(&sliced_block_work(&sliced, 16), 640).factor();
        assert!(f_sliced < f_csr, "sliced {f_sliced:.2} vs csr {f_csr:.2}");
    }

    #[test]
    fn caption_names_the_measured_leaders() {
        // Balanced time is 100 ns throughout, so `actual / 100` is the
        // imbalance factor.
        let point = |actual| BalancePoint {
            actual: SimNanos::from_nanos(actual),
            balanced: SimNanos::from_nanos(100),
        };
        let row = |id, csr, sliced, speedup| Row {
            id,
            csr: point(csr),
            sliced: point(sliced),
            speedup,
        };
        let mut rows = [
            row(DatasetId::Flickr, 1480, 663, [1.21, 1.69, 1.0]),
            row(DatasetId::Youtube, 233, 175, [1.09, 1.13, 1.0]),
            row(DatasetId::HepTh, 100, 120, [1.0, 1.0, 1.0]),
        ];
        let c = caption(&rows);
        for want in [
            "gap on 2 of 3 datasets (not on HepTh)",
            "falls most on Flickr (14.80x → 6.63x)",
            "gain is on Flickr: 1.69x for MPNN-LSTM",
            "best is 1.13x (MPNN-LSTM), so this measurement does not agree",
        ] {
            assert!(c.contains(want), "caption lacks {want:?}:\n{c}");
        }
        rows[1].speedup[0] = 2.0;
        assert!(caption(&rows).contains("(EvolveGCN), so this measurement agrees"));
    }

    #[test]
    fn sliced_variant_at_least_matches_csr_end_to_end() {
        let s = overall_speedup(DatasetId::Youtube, ModelKind::EvolveGcn, Scale::Tiny);
        assert!(s > 0.95, "sliced should not lose: {s:.2}x");
    }
}
