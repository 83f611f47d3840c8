//! Figures 3 and 4: PyGT's latency breakdown, SM utilization and GPU
//! computation-time breakdown — the motivation experiments of §3.1/§3.2.

use crate::util::{dataset, default_training_config, header, pad, Method};
use pipad_dyngraph::{Scale, ALL_DATASETS};
use pipad_models::{ModelKind, TrainReport};
use std::fmt::Write;

/// One dataset × model measurement of the PyGT baseline.
pub struct BreakdownRow {
    pub dataset: &'static str,
    pub model: ModelKind,
    /// Shares of the end-to-end steady-state time, in percent.
    pub transfer_pct: f64,
    pub compute_pct: f64,
    pub other_pct: f64,
    /// SM utilization (kernel-resident fraction), percent.
    pub sm_util_pct: f64,
    /// Computation split by category, percent of compute time.
    pub agg_pct: f64,
    pub update_pct: f64,
    pub rnn_pct: f64,
    pub misc_pct: f64,
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn row_from_report(dataset: &'static str, model: ModelKind, r: &TrainReport) -> BreakdownRow {
    let b = &r.steady;
    let span = b.span.as_nanos().max(1);
    let transfer = b.transfer_time().as_nanos();
    let compute = b.compute_total.as_nanos();
    // "Other" is everything the span covers beyond (serialized) transfer
    // and compute: host-side preparation, launch gaps, pipeline stalls.
    let other = span.saturating_sub(transfer + compute);
    let norm = (transfer + compute + other).max(1);

    let cat = |k: &str| {
        b.compute_by_category
            .get(k)
            .map(|t| t.as_nanos())
            .unwrap_or(0)
    };
    let agg = cat("aggregation");
    let upd = cat("update");
    let rnn = cat("rnn");
    let misc = compute.saturating_sub(agg + upd + rnn);
    BreakdownRow {
        dataset,
        model,
        transfer_pct: pct(transfer, norm),
        compute_pct: pct(compute, norm),
        other_pct: pct(other, norm),
        sm_util_pct: b.sm_utilization() * 100.0,
        agg_pct: pct(agg, compute.max(1)),
        update_pct: pct(upd, compute.max(1)),
        rnn_pct: pct(rnn, compute.max(1)),
        misc_pct: pct(misc, compute.max(1)),
    }
}

/// Measure PyGT across the full grid.
pub fn measure(scale: Scale) -> Vec<BreakdownRow> {
    let cfg = default_training_config();
    let mut rows = Vec::new();
    for model in ModelKind::ALL {
        for id in ALL_DATASETS {
            let g = dataset(id, scale);
            let r = Method::Pygt.run(model, &g, id.hidden_dim(), &cfg);
            rows.push(row_from_report(id.name(), model, &r));
        }
    }
    rows
}

/// Render Figure 3 (latency breakdown + SM utilization).
pub fn render_fig3(rows: &[BreakdownRow]) -> String {
    let mut out = String::new();
    out.push_str(&header(
        "Figure 3: Latency Breakdown and SM Utilization of DGNN Training (PyGT)",
    ));
    writeln!(
        out,
        "{} {} {:>10} {:>10} {:>8} {:>8}",
        pad("Model", 11),
        pad("Dataset", 17),
        "transfer%",
        "compute%",
        "other%",
        "SM-util%"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{} {} {:>10.1} {:>10.1} {:>8.1} {:>8.1}",
            pad(r.model.name(), 11),
            pad(r.dataset, 17),
            r.transfer_pct,
            r.compute_pct,
            r.other_pct,
            r.sm_util_pct
        )
        .unwrap();
    }
    let mean_transfer: f64 =
        rows.iter().map(|r| r.transfer_pct).sum::<f64>() / rows.len().max(1) as f64;
    let mean_util: f64 = rows.iter().map(|r| r.sm_util_pct).sum::<f64>() / rows.len().max(1) as f64;
    writeln!(
        out,
        "\nmean transfer share: {mean_transfer:.1}%   (paper: 38.7%)\nmean SM utilization: {mean_util:.1}%   (paper: < 41.2%)"
    )
    .unwrap();
    out
}

/// Render Figure 4 (GPU computation-time breakdown).
pub fn render_fig4(rows: &[BreakdownRow]) -> String {
    let mut out = String::new();
    out.push_str(&header(
        "Figure 4: Breakdown of GPU Computation Time in DGNN Training (PyGT)",
    ));
    writeln!(
        out,
        "{} {} {:>8} {:>8} {:>8} {:>8}",
        pad("Model", 11),
        pad("Dataset", 17),
        "agg%",
        "update%",
        "rnn%",
        "other%"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{} {} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            pad(r.model.name(), 11),
            pad(r.dataset, 17),
            r.agg_pct,
            r.update_pct,
            r.rnn_pct,
            r.misc_pct
        )
        .unwrap();
    }
    out.push_str(
        "\nGNN work (aggregation + update) is the major computation burden; MPNN-LSTM's\n\
         RNN share grows with vertex count (its LSTMs run over all vertices — §5.2).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::dataset;
    use pipad_dyngraph::DatasetId;

    #[test]
    fn shares_are_sane_percentages() {
        let cfg = default_training_config();
        let g = dataset(DatasetId::Covid19England, Scale::Tiny);
        let r = Method::Pygt.run(ModelKind::TGcn, &g, 8, &cfg);
        let row = row_from_report("Covid", ModelKind::TGcn, &r);
        let total = row.transfer_pct + row.compute_pct + row.other_pct;
        assert!((total - 100.0).abs() < 1.0, "total {total}");
        assert!(row.transfer_pct > 0.0);
        assert!((0.0..=100.0).contains(&row.sm_util_pct));
        let cat_total = row.agg_pct + row.update_pct + row.rnn_pct + row.misc_pct;
        assert!((cat_total - 100.0).abs() < 1.0, "cat total {cat_total}");
        assert!(row.rnn_pct > 0.0, "T-GCN has RNN work");
    }
}
