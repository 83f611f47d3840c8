//! Hardware-sensitivity ablations of the dynamic tuner (§4.4): sweep the
//! three factors the paper says govern the `S_per` decision — device
//! memory, parallel-GNN speedup (via overlap/dimension) and the
//! transfer/compute overlap — and watch the decisions and end-to-end times
//! respond. Also ablates PiPAD's mechanisms one at a time on a mid-size
//! dataset (the DESIGN.md per-mechanism attribution).

use crate::util::{check_consistency, dataset, default_training_config, header, pad};
use pipad::{train_pipad, PipadConfig};
use pipad_dyngraph::{DatasetId, Scale};
use pipad_gpu_sim::{DeviceConfig, Gpu};
use pipad_models::{ModelKind, TrainReport};
use std::fmt::Write;

fn run_with_device(
    device: DeviceConfig,
    pcfg: &PipadConfig,
    id: DatasetId,
    model: ModelKind,
    scale: Scale,
) -> Option<TrainReport> {
    let g = dataset(id, scale);
    let cfg = default_training_config();
    let mut gpu = Gpu::new(device);
    // A device too small for even a one-snapshot frame (the whole frame's
    // intermediates must fit) is a legitimate sweep outcome.
    let r = train_pipad(&mut gpu, model, &g, id.hidden_dim(), &cfg, pcfg).ok()?;
    check_consistency(&gpu);
    Some(r)
}

/// PCIe-bandwidth sweep: a slower link should push the tuner toward the
/// stall-rejection path and widen PiPAD's advantage over transfer-bound
/// baselines.
pub fn pcie_sweep(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&header(
        "Ablation A: PCIe bandwidth sweep (EvolveGCN on Epinions)",
    ));
    writeln!(
        out,
        "{} {:>14} {:>14} {:>12}",
        pad("pinned GB/s", 12),
        "steady epoch",
        "H2D/epoch",
        "transfer %"
    )
    .unwrap();
    for gbps in [48u64, 12, 3, 1] {
        let mut dev = DeviceConfig::v100();
        dev.pcie_pinned_bytes_per_us = gbps * 1_000;
        dev.pcie_pageable_bytes_per_us = gbps * 500;
        let r = run_with_device(
            dev,
            &PipadConfig::default(),
            DatasetId::Epinions,
            ModelKind::EvolveGcn,
            scale,
        );
        let r = r.expect("PCIe sweep never exhausts memory");
        let share = 100.0 * r.steady.transfer_time().as_nanos() as f64
            / r.steady.span.as_nanos().max(1) as f64;
        writeln!(
            out,
            "{} {:>14} {:>11.1} KiB {:>11.1}",
            pad(&gbps.to_string(), 12),
            r.steady_epoch_time.to_string(),
            r.steady.h2d_bytes as f64 / 1024.0 / 2.0,
            share
        )
        .unwrap();
    }
    out.push_str(
        "\nA slower link raises the transfer share; the tuner's stall-rejection caps\n\
         S_per rather than letting partition transfers stall the pipeline.\n",
    );
    out
}

/// Capacity sweep: the tuner's memory upper bound `U` must shrink with the
/// device.
pub fn capacity_sweep(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&header(
        "Ablation B: device-capacity sweep (T-GCN on HepTh)",
    ));
    writeln!(
        out,
        "{} {:>14} {:>14}",
        pad("capacity", 12),
        "steady epoch",
        "peak mem"
    )
    .unwrap();
    for cap_mb in [16_384u64, 512, 64, 16] {
        let dev = DeviceConfig::with_capacity(cap_mb << 20);
        let r = run_with_device(
            dev,
            &PipadConfig::default(),
            DatasetId::HepTh,
            ModelKind::TGcn,
            scale,
        );
        match r {
            Some(r) => writeln!(
                out,
                "{} {:>14} {:>11.1} MiB",
                pad(&format!("{cap_mb} MiB"), 12),
                r.steady_epoch_time.to_string(),
                r.peak_mem as f64 / (1 << 20) as f64
            )
            .unwrap(),
            None => writeln!(
                out,
                "{} {:>14} {:>11}",
                pad(&format!("{cap_mb} MiB"), 12),
                "OOM",
                "—"
            )
            .unwrap(),
        }
    }
    out.push_str(
        "\nSmaller devices force smaller partitions (U = capacity / frame peak); below\nthe floor where one frame's intermediates no longer fit at all, the run\nreports OOM instead of mis-training.\n",
    );
    out
}

/// Mechanism ablation: switch PiPAD's pieces off one at a time.
pub fn mechanism_ablation(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&header(
        "Ablation C: PiPAD mechanisms one at a time (MPNN-LSTM on Epinions)",
    ));
    let variants: [(&str, PipadConfig); 5] = [
        ("full PiPAD", PipadConfig::default()),
        (
            "- inter-frame reuse",
            PipadConfig {
                inter_frame_reuse: false,
                ..Default::default()
            },
        ),
        (
            "- CUDA graph",
            PipadConfig {
                cuda_graph: false,
                ..Default::default()
            },
        ),
        (
            "- sliced CSR",
            PipadConfig {
                use_sliced: false,
                ..Default::default()
            },
        ),
        (
            "- parallelism (S_per = 1)",
            PipadConfig {
                force_s_per: Some(1),
                ..Default::default()
            },
        ),
    ];
    writeln!(
        out,
        "{} {:>14} {:>10}",
        pad("variant", 28),
        "steady epoch",
        "slowdown"
    )
    .unwrap();
    let mut base = None;
    let mut slowdowns = Vec::new();
    for (name, pcfg) in variants {
        let r = run_with_device(
            DeviceConfig::v100(),
            &pcfg,
            DatasetId::Epinions,
            ModelKind::MpnnLstm,
            scale,
        );
        let t = r
            .expect("V100 never exhausts memory at this scale")
            .steady_epoch_time;
        let b = *base.get_or_insert(t);
        let slowdown = t.as_nanos() as f64 / b.as_nanos().max(1) as f64;
        writeln!(
            out,
            "{} {:>14} {:>9.2}x",
            pad(name, 28),
            t.to_string(),
            slowdown
        )
        .unwrap();
        if let Some(mechanism) = name.strip_prefix("- ") {
            slowdowns.push((mechanism, slowdown));
        }
    }
    out.push('\n');
    out.push_str(&mechanism_verdict(&slowdowns));
    out.push_str("Numerics are unchanged in all variants (asserted by tests/ablations.rs).\n");
    out
}

/// The sentence under Ablation C, derived from the table it sits under:
/// which mechanisms cost at least 1 % of the steady epoch when removed,
/// and which do not at this scale.
fn mechanism_verdict(slowdowns: &[(&str, f64)]) -> String {
    let (matter, idle): (Vec<_>, Vec<_>) = slowdowns.iter().partition(|(_, s)| *s >= 1.01);
    let names = |v: &[&(&str, f64)]| v.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ");
    let mut out = String::new();
    if !matter.is_empty() {
        writeln!(
            out,
            "Removing costs >= 1 % of the steady epoch: {}.",
            names(&matter)
        )
        .unwrap();
    }
    if !idle.is_empty() {
        writeln!(out, "Removing costs < 1 % at this scale: {}.", names(&idle)).unwrap();
    }
    out
}

/// Render all three panels.
pub fn run(scale: Scale) -> String {
    let mut s = pcie_sweep(scale);
    s.push_str(&capacity_sweep(scale));
    s.push_str(&mechanism_ablation(scale));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_names_only_the_mechanisms_whose_removal_costs_something() {
        let v = mechanism_verdict(&[("reuse", 1.02), ("graph", 7.7), ("parallelism", 1.0)]);
        assert_eq!(
            v,
            "Removing costs >= 1 % of the steady epoch: reuse, graph.\n\
             Removing costs < 1 % at this scale: parallelism.\n"
        );
        assert_eq!(
            mechanism_verdict(&[("a", 1.5)]),
            "Removing costs >= 1 % of the steady epoch: a.\n"
        );
    }

    #[test]
    fn slow_pcie_increases_transfer_share() {
        let fast = {
            let r = run_with_device(
                DeviceConfig::v100(),
                &PipadConfig::default(),
                DatasetId::Epinions,
                ModelKind::EvolveGcn,
                Scale::Tiny,
            );
            let r = r.unwrap();
            r.steady.transfer_time().as_nanos() as f64 / r.steady.span.as_nanos().max(1) as f64
        };
        let slow = {
            let mut dev = DeviceConfig::v100();
            dev.pcie_pinned_bytes_per_us = 500;
            dev.pcie_pageable_bytes_per_us = 250;
            let r = run_with_device(
                dev,
                &PipadConfig::default(),
                DatasetId::Epinions,
                ModelKind::EvolveGcn,
                Scale::Tiny,
            );
            let r = r.unwrap();
            r.steady.transfer_time().as_nanos() as f64 / r.steady.span.as_nanos().max(1) as f64
        };
        assert!(slow > fast, "slow {slow:.3} vs fast {fast:.3}");
    }

    #[test]
    fn small_capacity_still_completes() {
        let dev = DeviceConfig::with_capacity(8 << 20);
        let r = run_with_device(
            dev,
            &PipadConfig::default(),
            DatasetId::Covid19England,
            ModelKind::TGcn,
            Scale::Tiny,
        );
        assert!(r.unwrap().losses().iter().all(|l| l.is_finite()));
    }
}
