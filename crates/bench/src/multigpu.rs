//! `repro multigpu` — data-parallel scaling demonstration (the paper's
//! §4.5 future-work extension).
//!
//! Trains all three DGNN models data-parallel at 1, 2 and 4 simulated
//! devices and reports, per run: steady-epoch time, scaling factor over its
//! own one-device run and the same epoch against the single-device
//! `train_pipad` (`vs PiPAD`, above 1 is slower than one PiPAD device),
//! halo bytes (input features plus hidden-activation exchange, forward and
//! backward), ring-allreduce bytes and time, per-device steady-window SM
//! utilization and peak memory, the preparing phase's simulated time, and
//! kernel launches per steady epoch on one device beside one PiPAD
//! device's (the launch count is what bounds a tiny-scale steady epoch).
//! The virtual-shard design makes the loss
//! trajectory a pure function of the workload — `measure` asserts the final
//! loss is bit-identical across device counts, and `run` asserts the whole
//! artifact is identical in every
//! [`HOST_MATRIX`](crate::util::HOST_MATRIX) cell.

use crate::util::{dataset, default_training_config, host_invariant, Artifact, Method};
use pipad::{train_data_parallel_devices, MultiGpuConfig, MultiTrainReport};
use pipad_dyngraph::{DatasetId, Scale};
use pipad_gpu_sim::{ratio_milli, validate_json, Gpu};
use pipad_metrics::analyze;
use pipad_models::ModelKind;
use std::fmt::Write as _;

const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];
const HIDDEN: usize = 16;

/// One data-parallel run and the devices it ran on.
pub(crate) fn run_one(
    model: ModelKind,
    scale: Scale,
    n_gpus: usize,
) -> (MultiTrainReport, Vec<Gpu>) {
    let graph = dataset(DatasetId::Covid19England, scale);
    let cfg = default_training_config();
    let mcfg = MultiGpuConfig {
        n_gpus,
        ..Default::default()
    };
    train_data_parallel_devices(model, &graph, HIDDEN, &cfg, &mcfg).expect("multi-GPU training")
}

/// `1234` → `1.23`.
fn fmt_milli(milli: u64) -> String {
    format!("{}.{:02}", milli / 1000, (milli % 1000) / 10)
}

fn measure(scale: Scale) -> Artifact {
    let mut json = String::from("{\"experiment\":\"multigpu\"");
    let _ = write!(json, ",\"scale\":{:?},\"models\":[", scale.label());
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "multigpu: COVID-19-England ({}), devices {:?}, virtual shards {}",
        scale.label(),
        DEVICE_COUNTS,
        MultiGpuConfig::default().virtual_shards
    );
    let _ = writeln!(
        summary,
        "  {:<10} {:>5} {:>14} {:>8} {:>9} {:>12} {:>12} {:>12} {:>8} {:>14} {:>8} {:>8}",
        "model",
        "gpus",
        "epoch(ns)",
        "scaling",
        "vs PiPAD",
        "halo(B)",
        "ar(B)",
        "ar(ns)",
        "sm_util",
        "prep(ns)",
        "launches",
        "PiPAD"
    );

    for (mi, model) in ModelKind::ALL.iter().enumerate() {
        if mi > 0 {
            json.push(',');
        }
        // The yardstick: the single-device trainer on the same workload.
        let graph = dataset(DatasetId::Covid19England, scale);
        let cfg = default_training_config();
        let preparing = cfg.preparing_epochs.min(cfg.epochs - 1);
        let steady_epochs = (cfg.epochs - preparing) as u64;
        let pipad = Method::Pipad.run(*model, &graph, HIDDEN, &cfg);
        let pipad_epoch_ns = pipad.steady_epoch_time.as_nanos();
        let pipad_launches = pipad.steady.kernel_launches / steady_epochs;
        let _ = write!(
            json,
            "{{\"model\":{:?},\"pipad_steady_epoch_ns\":{pipad_epoch_ns},\
             \"pipad_launches_per_steady_epoch\":{pipad_launches},\"runs\":[",
            model.name()
        );
        let mut base_epoch_ns = 0u64;
        let mut base_loss_bits = 0u32;
        for (ni, &n_gpus) in DEVICE_COUNTS.iter().enumerate() {
            let (r, gpus) = run_one(*model, scale, n_gpus);
            let epoch_ns = r.steady_epoch_time.as_nanos();
            let prep_ns: u64 = r.epochs[..preparing]
                .iter()
                .map(|e| e.sim_time.as_nanos())
                .sum();
            let steady = gpus.iter().map(|g| analyze(g.trace(), g.profiler()).steady);
            let launches: u64 = steady
                .map(|w| w.expect("steady epochs").kernel_launches)
                .sum();
            let launches = launches / (gpus.len() as u64 * steady_epochs);
            let final_loss = r.epochs.last().expect("epochs").mean_loss;
            if ni == 0 {
                base_epoch_ns = epoch_ns;
                base_loss_bits = final_loss.to_bits();
            } else {
                assert_eq!(
                    final_loss.to_bits(),
                    base_loss_bits,
                    "{model:?}: n_gpus={n_gpus} diverged from the single-device loss"
                );
            }
            let scaling_milli = ratio_milli(base_epoch_ns, epoch_ns);
            let vs_pipad_milli = ratio_milli(epoch_ns, pipad_epoch_ns);
            let sm_milli: Vec<u64> = r
                .per_device_sm_util
                .iter()
                .map(|&u| (u * 1000.0).round() as u64)
                .collect();
            if ni > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"n_gpus\":{},\"steady_epoch_ns\":{},\"scaling_milli\":{},\
                 \"vs_pipad_milli\":{vs_pipad_milli},\"halo_bytes_per_epoch\":{},\"allreduce_bytes_per_epoch\":{},\
                 \"allreduce_ns_per_epoch\":{},\"final_loss_bits\":{},\
                 \"sm_util_milli\":{:?},\"peak_bytes\":{:?},\"preparing_ns\":{prep_ns},\
                 \"steady_launches_per_device_epoch\":{launches}}}",
                r.n_gpus,
                epoch_ns,
                scaling_milli,
                r.halo_bytes_per_epoch,
                r.allreduce_bytes_per_epoch,
                r.allreduce_time_per_epoch.as_nanos(),
                final_loss.to_bits(),
                sm_milli,
                r.per_device_peak,
            );
            let mean_sm = if sm_milli.is_empty() {
                0
            } else {
                sm_milli.iter().sum::<u64>() / sm_milli.len() as u64
            };
            let _ = writeln!(
                summary,
                "  {:<10} {:>5} {:>14} {:>7}x {:>8}x {:>12} {:>12} {:>12} {:>7}% {:>14} {:>8} {:>8}",
                model.name(),
                r.n_gpus,
                epoch_ns,
                fmt_milli(scaling_milli),
                fmt_milli(vs_pipad_milli),
                r.halo_bytes_per_epoch,
                r.allreduce_bytes_per_epoch,
                r.allreduce_time_per_epoch.as_nanos(),
                // per-mille → percent with one decimal: whole percents
                // print the tiny-scale utilization (1‰) as 0.
                format!("{}.{}", mean_sm / 10, mean_sm % 10),
                prep_ns,
                launches,
                pipad_launches,
            );
        }
        json.push_str("]}");
        let _ = writeln!(
            summary,
            "  {:<10} final loss bit-identical across device counts",
            model.name()
        );
    }
    json.push_str("]}");
    validate_json(&json).expect("multigpu report is not well-formed JSON");
    let _ = writeln!(
        summary,
        "loss trajectories are a pure function of the workload (virtual shards)"
    );
    let _ = writeln!(
        summary,
        "vs PiPAD: epoch / single-device train_pipad steady epoch (same model, dataset, \
         scale); above 1.00x is slower than one PiPAD device; sm_util: steady epochs only"
    );
    let _ = writeln!(
        summary,
        "prep: preparing epochs' simulated time; launches: kernel launches per steady epoch \
         on one device; PiPAD: the same on train_pipad's one device"
    );
    Artifact { json, summary }
}

/// Run the scaling experiment (`results/multigpu.{json,txt}`) under the
/// host-determinism contract.
pub fn run(scale: Scale) -> Artifact {
    host_invariant("multigpu report", || measure(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run: host determinism is `tests/multigpu_equivalence.rs`'s gate.
    #[test]
    fn tiny_multigpu_artifact_is_complete() {
        let art = measure(Scale::Tiny);
        assert!(art.json.starts_with("{\"experiment\":\"multigpu\""));
        for model in ModelKind::ALL {
            assert!(art.json.contains(&format!("{:?}", model.name())));
        }
        for n in DEVICE_COUNTS {
            assert!(art.json.contains(&format!("\"n_gpus\":{n}")));
        }
        assert!(art.summary.contains("bit-identical"));
        // Every run carries the preparing phase and the steady launch
        // counts, each of them nonzero.
        let values = |key: &str| -> Vec<u64> {
            let pat = format!("\"{key}\":");
            let found = art.json.match_indices(&pat).map(|(i, _)| {
                let rest = &art.json[i + pat.len()..];
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                rest[..end].parse().expect("an integer")
            });
            found.collect()
        };
        let runs = ModelKind::ALL.len() * DEVICE_COUNTS.len();
        for (key, n) in [
            ("preparing_ns", runs),
            ("steady_launches_per_device_epoch", runs),
            ("pipad_launches_per_steady_epoch", ModelKind::ALL.len()),
        ] {
            let found = values(key);
            assert_eq!(found.len(), n, "{key}");
            assert!(found.iter().all(|&v| v > 0), "{key}: {found:?}");
        }
    }
}
