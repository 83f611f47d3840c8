//! `repro trace` — export a Chrome-trace-format timeline of one
//! representative PiPAD pipeline run (the Figure 11 configuration:
//! T-GCN on COVID-19-England, the paper's frame size).
//!
//! The artifact is loadable in `chrome://tracing` or Perfetto: one
//! "process" per simulated GPU, one "thread" per stream / copy engine /
//! controller lane. Because every timestamp is simulated nanoseconds,
//! the exported bytes are a pure function of the workload — the command
//! re-runs the workload and re-exports in every
//! [`HOST_MATRIX`](crate::util::HOST_MATRIX) cell to prove byte-identity
//! before writing.

use crate::util::{dataset, default_training_config, host_invariant, Artifact, Method};
use pipad_dyngraph::{DatasetId, Scale};
use pipad_gpu_sim::{export_chrome_trace, trace_text_summary, validate_json, DeviceConfig, Gpu};
use pipad_models::ModelKind;
use std::fmt::Write as _;

/// One trace-producing pipeline run; returns the exported JSON and the
/// text summary. The exported trace is checked against the profiler's
/// independent accounting before being returned.
fn run_once(scale: Scale) -> Artifact {
    let graph = dataset(DatasetId::Covid19England, scale);
    let cfg = default_training_config();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let report = Method::Pipad.run_on(&mut gpu, ModelKind::TGcn, &graph, 16, &cfg);

    let json = export_chrome_trace(gpu.trace(), 0);
    validate_json(&json).expect("exported trace is not well-formed JSON");

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "trace: T-GCN / COVID-19-England ({}), window {}, {} epochs",
        scale.label(),
        cfg.window,
        cfg.epochs
    );
    let final_loss = report.epochs.last().map(|e| e.mean_loss).unwrap_or(0.0);
    let _ = writeln!(
        summary,
        "final loss {:.6}, steady epoch {} ns",
        final_loss,
        report.steady_epoch_time.as_nanos()
    );
    summary.push_str(&trace_text_summary(gpu.trace()));
    Artifact { json, summary }
}

/// The one artifact compared on its JSON alone: the text summary prints
/// the run's buffer-pool hit counters by design (DESIGN §3.13), and those
/// are zero in the pool-off cell.
#[derive(Debug)]
struct JsonOnly(Artifact);

impl PartialEq for JsonOnly {
    fn eq(&self, other: &Self) -> bool {
        self.0.json == other.0.json
    }
}

/// Run the trace experiment (`results/trace_fig11.{json,txt}`) under the
/// host-determinism contract.
pub fn run(scale: Scale) -> Artifact {
    host_invariant("trace export", || JsonOnly(run_once(scale))).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_trace_is_deterministic_and_well_formed() {
        let art = run(Scale::Tiny);
        assert!(art.json.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(art.summary.contains("device_mem_in_use"));
    }
}
