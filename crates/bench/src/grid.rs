//! Figure 10 (end-to-end training speedup over PyGT) and Table 2 (GPU
//! utilization) — the main evaluation grid: 5 methods × 3 models × 7
//! datasets, each on a fresh simulated V100.

use crate::util::{dataset, default_training_config, header, pad, Method};
use pipad_dyngraph::{DatasetId, Scale, ALL_DATASETS};
use pipad_models::{ModelKind, TrainReport};
use std::fmt::Write;

/// All measurements of the grid.
pub struct GridResults {
    /// `results[model][dataset][method]` in the iteration orders of
    /// `ModelKind::ALL`, `ALL_DATASETS`, `Method::ALL`.
    pub reports: Vec<Vec<Vec<TrainReport>>>,
    pub scale: Scale,
}

/// Run the full grid (the expensive step — every figure-10/table-2 number).
pub fn measure(scale: Scale) -> GridResults {
    let cfg = default_training_config();
    let mut reports = Vec::new();
    for model in ModelKind::ALL {
        let mut per_model = Vec::new();
        for id in ALL_DATASETS {
            let g = dataset(id, scale);
            let per_dataset: Vec<TrainReport> = Method::ALL
                .iter()
                .map(|m| m.run(model, &g, id.hidden_dim(), &cfg))
                .collect();
            per_model.push(per_dataset);
        }
        reports.push(per_model);
    }
    GridResults { reports, scale }
}

impl GridResults {
    pub fn report(&self, model: ModelKind, id: DatasetId, method: Method) -> &TrainReport {
        let mi = ModelKind::ALL.iter().position(|&m| m == model).unwrap();
        let di = ALL_DATASETS.iter().position(|&d| d == id).unwrap();
        let me = Method::ALL.iter().position(|&m| m == method).unwrap();
        &self.reports[mi][di][me]
    }

    /// Steady-state speedup of `method` over PyGT.
    pub fn speedup_over_pygt(&self, model: ModelKind, id: DatasetId, method: Method) -> f64 {
        let base = self.report(model, id, Method::Pygt).steady_epoch_time;
        let m = self.report(model, id, method).steady_epoch_time;
        base.as_nanos() as f64 / m.as_nanos().max(1) as f64
    }

    /// PiPAD's mean speedup over PyGT for one model (the paper's headline
    /// per-model averages: 4.71 / 3.98 / 5.18).
    pub fn mean_pipad_speedup(&self, model: ModelKind) -> f64 {
        let v: Vec<f64> = ALL_DATASETS
            .iter()
            .map(|&d| self.speedup_over_pygt(model, d, Method::Pipad))
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Render Figure 10.
pub fn render_fig10(g: &GridResults) -> String {
    let mut out = String::new();
    out.push_str(&header("Figure 10: Training Speedup over PyGT"));
    writeln!(out, "(dataset scale: {})", g.scale.label()).unwrap();
    for model in ModelKind::ALL {
        writeln!(out, "\n[{}]", model.name()).unwrap();
        write!(out, "{}", pad("Dataset", 17)).unwrap();
        for m in Method::ALL {
            write!(out, "{:>9}", m.name()).unwrap();
        }
        out.push('\n');
        for id in ALL_DATASETS {
            write!(out, "{}", pad(id.name(), 17)).unwrap();
            for m in Method::ALL {
                write!(out, "{:>8.2}x", g.speedup_over_pygt(model, id, m)).unwrap();
            }
            out.push('\n');
        }
        writeln!(
            out,
            "mean PiPAD speedup: {:.2}x  (paper: {})",
            g.mean_pipad_speedup(model),
            match model {
                ModelKind::EvolveGcn => "4.71x",
                ModelKind::MpnnLstm => "3.98x",
                ModelKind::TGcn => "5.18x",
            }
        )
        .unwrap();
    }
    out
}

/// Render Table 2.
pub fn render_table2(g: &GridResults) -> String {
    let mut out = String::new();
    out.push_str(&header(
        "Table 2: GPU Utilization (%) of Different Methods (memcpy counted, as nvidia-smi)",
    ));
    for model in ModelKind::ALL {
        writeln!(out, "\n[{}]", model.name()).unwrap();
        write!(out, "{}", pad("Method", 8)).unwrap();
        for id in ALL_DATASETS {
            write!(out, "{:>7}", id.abbrev()).unwrap();
        }
        out.push('\n');
        for m in Method::ALL {
            write!(out, "{}", pad(m.name(), 8)).unwrap();
            for id in ALL_DATASETS {
                let util = g.report(model, id, m).steady.sm_utilization_with_memcpy() * 100.0;
                write!(out, "{util:>7.1}").unwrap();
            }
            out.push('\n');
        }
    }
    out.push_str(
        "\nLow values on the small-scale datasets (HT/CE/PE) come from the relatively\n\
         larger CPU-side latency, as the paper's Table 2 caption notes.\n",
    );
    out
}

/// Machine-readable dump of the grid (JSON, hand-rolled like every emitter
/// in the workspace).
pub fn render_json(g: &GridResults) -> String {
    let mut out = String::from("{\n  \"scale\": \"");
    out.push_str(g.scale.label());
    out.push_str("\",\n  \"runs\": [\n");
    let mut first = true;
    for model in ModelKind::ALL {
        for id in ALL_DATASETS {
            for m in Method::ALL {
                let r = g.report(model, id, m);
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                write!(
                    out,
                    "    {{\"model\": \"{}\", \"dataset\": \"{}\", \"method\": \"{}\",                      \"steady_epoch_ns\": {}, \"speedup_over_pygt\": {:.4},                      \"h2d_bytes\": {}, \"sm_util\": {:.4}, \"peak_mem\": {},                      \"final_loss\": {:.6}}}",
                    model.name(),
                    id.name(),
                    m.name(),
                    r.steady_epoch_time.as_nanos(),
                    g.speedup_over_pygt(model, id, m),
                    r.steady.h2d_bytes,
                    r.steady.sm_utilization_with_memcpy(),
                    r.peak_mem,
                    r.losses().last().copied().unwrap_or(f32::NAN),
                )
                .unwrap();
            }
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Check the paper's headline ordering on a grid: PiPAD wins everywhere
/// over PyGT, and speedups are larger on the small-scale datasets.
pub fn headline_shape_holds(g: &GridResults) -> Result<(), String> {
    for model in ModelKind::ALL {
        for id in ALL_DATASETS {
            let s = g.speedup_over_pygt(model, id, Method::Pipad);
            if s <= 1.0 {
                return Err(format!(
                    "PiPAD slower than PyGT on {}/{}: {s:.2}x",
                    model.name(),
                    id.name()
                ));
            }
        }
        let small_mean: f64 = ALL_DATASETS
            .iter()
            .filter(|d| d.is_small_scale())
            .map(|&d| g.speedup_over_pygt(model, d, Method::Pipad))
            .sum::<f64>()
            / 3.0;
        let large_mean: f64 = ALL_DATASETS
            .iter()
            .filter(|d| !d.is_small_scale())
            .map(|&d| g.speedup_over_pygt(model, d, Method::Pipad))
            .sum::<f64>()
            / 4.0;
        if small_mean < large_mean {
            return Err(format!(
                "{}: small-scale mean {small_mean:.2}x below large-scale {large_mean:.2}x",
                model.name()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full 105-run grid lives in the `repro` binary (release mode);
    // the test checks the headline ordering on a representative sub-grid.
    #[test]
    fn tiny_subgrid_reproduces_figure_10_ordering() {
        use crate::util::{dataset, default_training_config};
        let cfg = default_training_config();
        for model in [ModelKind::TGcn, ModelKind::EvolveGcn] {
            for id in [DatasetId::Covid19England, DatasetId::Youtube] {
                let g = dataset(id, Scale::Tiny);
                let base = Method::Pygt.run(model, &g, id.hidden_dim(), &cfg);
                let ours = Method::Pipad.run(model, &g, id.hidden_dim(), &cfg);
                let s = base.steady_epoch_time.as_nanos() as f64
                    / ours.steady_epoch_time.as_nanos().max(1) as f64;
                assert!(
                    s > 1.0,
                    "PiPAD must beat PyGT on {}/{}: {s:.2}x",
                    model.name(),
                    id.name()
                );
            }
        }
    }
}
