//! `repro profile` — unified metrics registry + pipeline-health analysis.
//!
//! Three legs populate one [`MetricsRegistry`]:
//!
//! 1. **train** — T-GCN on COVID-19-England under PiPAD and the strongest
//!    baseline (PyGT-A); the post-hoc analyzer turns each device's trace +
//!    profiler into overlap fractions, bubble/stall attribution, per-kernel
//!    duration histograms, device-allocation counts and reuse-tier hit
//!    rates, beside the run's prologue (run start → first epoch start),
//!    its preparing phase (→ first steady epoch start), when its partition
//!    catalog was ready (→ the last overlap extraction's end) and each
//!    phase's eager launches, all labeled by `method`.
//! 2. **multigpu** — 2-device data-parallel run; halo and ring-allreduce
//!    traffic, the allreduce time fraction, the preparing phase and each
//!    phase's eager launches over both devices and, per device, the
//!    analyzer's steady-window bubble, overlap and SM utilization.
//! 3. **serve** — checkpoint-restore into the serving engine and an
//!    open-loop replay; per-request latencies land in a log2 histogram,
//!    beside the engine's CUDA-graph capture and replay counts and the
//!    clock at which the restored engine was ready.
//!
//! The registry renders three ways (Prometheus text, JSON, human table) —
//! all three are pure functions of the simulated clock, and `run` asserts
//! byte-identity in every [`HOST_MATRIX`](crate::util::HOST_MATRIX) cell.
//! `tests/metrics_layer.rs` pins every key of a tiny-scale run against
//! `tests/golden/profile_tiny.*` and names each one that drifts.

use crate::experiments::Output;
use crate::util::{dataset, default_training_config, host_invariant, Method, ScratchDir};
use pipad_dyngraph::{DatasetId, Scale};
use pipad_gpu_sim::{validate_json, DeviceConfig, Gpu, SimNanos};
use pipad_metrics::{analyze, to_json, to_prometheus, to_table, MetricsRegistry, PipelineHealth};
use pipad_models::{EpochReport, ModelKind};
use std::collections::BTreeMap;

/// Hidden dimension of the training leg (the other legs share the
/// `multigpu` and `serve` experiments' runs, also at 16).
const HIDDEN: usize = 16;

/// Everything `repro profile` produces.
#[derive(Debug, PartialEq)]
pub struct ProfileArtifact {
    /// Metrics-registry JSON export (`results/profile.json`).
    pub json: String,
    /// Human-readable table (`results/profile.txt`).
    pub table: String,
    /// Prometheus text exposition (`results/profile.prom`).
    pub prom: String,
    /// Flat `key → value` map ([`MetricsRegistry::flat`]).
    pub flat: BTreeMap<String, f64>,
}

impl ProfileArtifact {
    /// The three files `repro profile` writes.
    pub fn outputs(&self) -> Vec<Output> {
        vec![
            Output::new("profile.txt", self.table.clone()),
            Output::new("profile.json", self.json.clone()),
            Output::new("profile.prom", self.prom.clone()),
        ]
    }
}

/// Leg 1: train under `method`, analyze the pipeline, register everything
/// under a `method` label.
fn train_leg(reg: &mut MetricsRegistry, method: Method, scale: Scale) {
    let graph = dataset(DatasetId::Covid19England, scale);
    let cfg = default_training_config();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let report = method.run_on(&mut gpu, ModelKind::TGcn, &graph, HIDDEN, &cfg);

    let health = analyze(gpu.trace(), gpu.profiler());
    health.register_into(reg, &[("method", method.name())]);
    reg.set_gauge_with(
        "pipad_steady_epoch_ns",
        &[("method", method.name())],
        report.steady_epoch_time.as_nanos() as f64,
    );
    // Run start → first epoch start: the epochs run back to back, so the
    // run's time outside them is the prologue.
    let epochs: SimNanos = report.epochs.iter().map(|e| e.sim_time).sum();
    reg.set_gauge_with(
        "pipad_prologue_ns",
        &[("method", method.name())],
        (report.total_time - epochs).as_nanos() as f64,
    );
    // Run start → the last overlap extraction's end: when the tuner could
    // first read the catalog (PiPAD only; the baselines extract nothing).
    let events = gpu.trace().events();
    let extracted = events
        .iter()
        .filter(|e| e.name == pipad::prep::EXTRACTION_OP);
    if let Some(ready) = extracted.map(|e| e.end()).max() {
        let epoch0 = events.iter().find(|e| e.name == "epoch").map(|e| e.ts);
        let run_t0 = epoch0.expect("a run with epochs") - (report.total_time - epochs);
        reg.set_gauge_with(
            "pipad_catalog_ready_ns",
            &[("method", method.name())],
            (ready - run_t0).as_nanos() as f64,
        );
    }
    let (preparing_ns, eager) = phases(&report.epochs, &health);
    reg.set_gauge_with(
        "pipad_preparing_ns",
        &[("method", method.name())],
        preparing_ns as f64,
    );
    for (phase, launches) in eager {
        let labels = [("method", method.name()), ("phase", phase)];
        reg.inc_counter_with("pipad_eager_launches", &labels, launches);
    }

    // Reuse-tier hit rates from the trainer's run-level metadata (PiPAD
    // only; the baselines have no reuse tiers and publish no meta).
    let meta: BTreeMap<&str, u64> = gpu.trace().meta().collect();
    for tier in ["cpu", "gpu"] {
        let hits = meta
            .get(format!("reuse_{tier}_hits").as_str())
            .copied()
            .unwrap_or(0);
        let misses = meta
            .get(format!("reuse_{tier}_misses").as_str())
            .copied()
            .unwrap_or(0);
        if hits + misses == 0 {
            continue;
        }
        let labels = [("method", method.name()), ("tier", tier)];
        reg.inc_counter_with("pipad_reuse_hits", &labels, hits);
        reg.inc_counter_with("pipad_reuse_misses", &labels, misses);
        reg.set_gauge_with(
            "pipad_reuse_hit_rate_milli",
            &labels,
            (hits * 1000 / (hits + misses)) as f64,
        );
    }
}

/// First epoch start → first steady epoch start, and each phase's launches
/// outside a CUDA graph (the analyzer read every epoch's phase off its
/// `epoch` span).
fn phases(epochs: &[EpochReport], health: &PipelineHealth) -> (u64, [(&'static str, u64); 2]) {
    let mut preparing_ns = 0;
    let mut eager = [("preparing", 0), ("steady", 0)];
    for (e, h) in epochs.iter().zip(&health.epochs) {
        eager[usize::from(!h.preparing)].1 += e.eager_launches;
        if h.preparing {
            preparing_ns += e.sim_time.as_nanos();
        }
    }
    (preparing_ns, eager)
}

/// Leg 2: 2-device data parallelism — communication volumes and shares,
/// and each device's steady window next to the single-device ones.
fn multigpu_leg(reg: &mut MetricsRegistry, scale: Scale) {
    let (r, gpus) = crate::multigpu::run_one(ModelKind::TGcn, scale, 2);

    let labels = [("gpus", "2")];
    reg.inc_counter_with(
        "pipad_mgpu_halo_bytes_per_epoch",
        &labels,
        r.halo_bytes_per_epoch,
    );
    reg.inc_counter_with(
        "pipad_mgpu_allreduce_bytes_per_epoch",
        &labels,
        r.allreduce_bytes_per_epoch,
    );
    reg.inc_counter_with(
        "pipad_mgpu_allreduce_ns_per_epoch",
        &labels,
        r.allreduce_time_per_epoch.as_nanos(),
    );
    reg.set_gauge_with(
        "pipad_mgpu_steady_epoch_ns",
        &labels,
        r.steady_epoch_time.as_nanos() as f64,
    );
    reg.set_gauge_with(
        "pipad_mgpu_allreduce_fraction_milli",
        &labels,
        (r.allreduce_time_per_epoch.as_nanos() * 1000 / r.steady_epoch_time.as_nanos().max(1))
            as f64,
    );
    let healths: Vec<PipelineHealth> = gpus
        .iter()
        .map(|gpu| analyze(gpu.trace(), gpu.profiler()))
        .collect();
    // Every device's trace carries the same epoch spans; each epoch's
    // eager launches are summed over the devices.
    let (preparing_ns, eager) = phases(&r.epochs, &healths[0]);
    reg.set_gauge_with("pipad_mgpu_preparing_ns", &labels, preparing_ns as f64);
    for (phase, launches) in eager {
        let labels = [("gpus", "2"), ("phase", phase)];
        reg.inc_counter_with("pipad_mgpu_eager_launches", &labels, launches);
    }
    for (i, health) in healths.into_iter().enumerate() {
        let device = i.to_string();
        let labels = [("gpus", "2"), ("device", device.as_str())];
        let steady = health
            .steady
            .expect("the device trace carries steady epoch spans");
        reg.inc_counter_with("pipad_mgpu_bubble_ns", &labels, steady.bubble_ns);
        reg.inc_counter_with("pipad_mgpu_overlap_ns", &labels, steady.overlap_ns);
        reg.set_gauge_with(
            "pipad_mgpu_overlap_fraction_milli",
            &labels,
            steady.overlap_fraction_milli() as f64,
        );
        reg.set_gauge_with(
            "pipad_mgpu_sm_utilization_milli",
            &labels,
            (r.per_device_sm_util[i] * 1000.0).round(),
        );
    }
}

/// Leg 3: checkpoint → serving engine → open-loop replay; latency,
/// service-time and device-queue-wait histograms and admission counters.
fn serve_leg(reg: &mut MetricsRegistry, scale: Scale) {
    let dir = ScratchDir::new("profile");
    let report = crate::serve::train_and_serve(scale, ModelKind::TGcn, dir.path());

    for rec in &report.records {
        if let Some(lat) = rec.latency() {
            reg.observe("pipad_serve_latency_ns", lat.as_nanos());
        }
        if let Some(service) = rec.service() {
            reg.observe("pipad_serve_service_ns", service.as_nanos());
        }
        if let Some(queue) = rec.device_queue() {
            reg.observe("pipad_serve_device_queue_ns", queue.as_nanos());
        }
    }
    reg.inc_counter("pipad_serve_served_total", report.served as u64);
    reg.inc_counter(
        "pipad_serve_rejected_total",
        (report.rejected_queue_full + report.rejected_fault + report.rejected_poisoned) as u64,
    );
    reg.inc_counter("pipad_serve_batches_total", report.batches as u64);
    reg.inc_counter(
        "pipad_serve_graph_captures_total",
        report.graph_captures as u64,
    );
    reg.inc_counter("pipad_serve_graph_replays_total", report.graph_replays);
    reg.set_gauge(
        "pipad_serve_queue_high_water",
        report.queue_high_water as f64,
    );
    reg.set_gauge(
        "pipad_serve_engine_ready_ns",
        report.engine_ready.as_nanos() as f64,
    );
}

/// Run all three legs once and render the three exports.
pub fn measure(scale: Scale) -> ProfileArtifact {
    let mut reg = MetricsRegistry::new();
    for method in [Method::Pipad, Method::PygtA] {
        train_leg(&mut reg, method, scale);
    }
    multigpu_leg(&mut reg, scale);
    serve_leg(&mut reg, scale);

    let json = to_json(&reg);
    validate_json(&json).expect("profile JSON export is not well-formed");
    let mut table = format!(
        "profile: T-GCN / COVID-19-England ({}), PiPAD vs PyGT-A + 2-GPU + serving\n",
        scale.label()
    );
    table.push_str(&to_table(&reg));
    ProfileArtifact {
        json,
        table,
        prom: to_prometheus(&reg),
        flat: reg.flat(),
    }
}

/// Run the profile experiment (`results/profile.{txt,json,prom}`) under
/// the host-determinism contract.
pub fn run(scale: Scale) -> ProfileArtifact {
    host_invariant("profile exports", || measure(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_beats_baseline_and_allocs_are_flat() {
        let art = measure(Scale::Tiny);
        let pipad = art.flat["pipad_overlap_fraction_milli{method=\"PiPAD\",window=\"steady\"}"];
        let pygta = art.flat["pipad_overlap_fraction_milli{method=\"PyGT-A\",window=\"steady\"}"];
        assert!(
            pipad > pygta,
            "PiPAD steady overlap {pipad} must exceed PyGT-A {pygta}"
        );
        let allocs = art.flat["pipad_device_allocs{method=\"PiPAD\",window=\"steady\"}"];
        let prep = art.flat["pipad_device_allocs{method=\"PiPAD\",window=\"run\"}"];
        assert!(
            allocs < prep,
            "steady-window allocations ({allocs}) must undercut the whole run ({prep})"
        );
    }
}
