//! `repro serve` — online-serving latency/throughput demonstration.
//!
//! For each paper model (EvolveGCN, MPNN-LSTM, T-GCN) the experiment
//! trains on COVID-19-England with checkpointing, then boots a fresh
//! device, restores the newest checkpoint into a [`pipad_serve`] engine
//! and replays a seeded open-loop request plan through the dynamic
//! micro-batcher: p50/p95/p99 latency and the p50/p99 of its service
//! part (batch close → completion) and of service's two parts (the wait
//! for the device, then the forward), throughput, the batch-size
//! histogram, the admission-queue high-water mark, backpressure counters
//! and the GPU reuse-tier hit rate all come out of the simulated clock;
//! the engine's CUDA-graph captures and replays show that served forwards
//! replay.
//! A CRC-32 of every served logit's bit pattern pins value determinism
//! into the report itself.
//!
//! Everything is a pure function of the workload: `run` re-measures in
//! every [`HOST_MATRIX`](crate::util::HOST_MATRIX) cell and asserts
//! identical artifacts. Checkpoints live in a [`ScratchDir`] that never
//! appears in the artifacts.

use crate::util::{
    check_consistency, dataset, default_training_config, host_invariant, Artifact, ScratchDir,
};
use pipad::{train_pipad, PipadConfig};
use pipad_ckpt::{crc32, CheckpointPolicy};
use pipad_dyngraph::{DatasetId, Scale};
use pipad_gpu_sim::{validate_json, DeviceConfig, Gpu};
use pipad_models::ModelKind;
use pipad_serve::{
    serve_open_loop, BatchPolicy, EngineConfig, RequestGenConfig, ServeEngine, ServeReport,
    ServeSimConfig,
};
use std::fmt::Write as _;
use std::path::Path;

/// Checkpoint cadence for the training leg.
const EVERY_EPOCHS: usize = 2;
/// Hidden dimension for every model.
const HIDDEN: usize = 16;

fn sim_config(scale: Scale) -> ServeSimConfig {
    let n_requests = match scale {
        Scale::Tiny => 24,
        Scale::Laptop => 96,
    };
    ServeSimConfig {
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_ns: 250_000,
            queue_capacity: 8,
        },
        gen: RequestGenConfig {
            seed: 11,
            n_requests,
            mean_interarrival_ns: 150_000,
            max_targets: 8,
            snapshot_period_ns: 400_000,
        },
    }
}

/// Train `model` with checkpointing into `base`, restore the newest
/// checkpoint into a serving engine on a fresh device and replay the
/// standard request plan. Shared with `repro profile`'s serving leg.
pub(crate) fn train_and_serve(scale: Scale, model: ModelKind, base: &Path) -> ServeReport {
    let graph = dataset(DatasetId::Covid19England, scale);
    let cfg = default_training_config();
    let dir = base.join(model.name());

    let mut tg = Gpu::new(DeviceConfig::v100());
    let pcfg = PipadConfig {
        checkpoint: Some(CheckpointPolicy::new(dir.clone(), EVERY_EPOCHS)),
        ..PipadConfig::default()
    };
    train_pipad(&mut tg, model, &graph, HIDDEN, &cfg, &pcfg).expect("training leg failed");
    check_consistency(&tg);

    let mut gpu = Gpu::new(DeviceConfig::v100());
    let ecfg = EngineConfig { hidden: HIDDEN };
    let mut engine = ServeEngine::from_latest(&mut gpu, &dir, model, &graph, &cfg, &ecfg)
        .expect("engine failed to restore the checkpoint");
    let report =
        serve_open_loop(&mut gpu, &mut engine, &sim_config(scale)).expect("serving run failed");
    check_consistency(&gpu);
    report
}

/// Run every row once and render both artifacts.
fn measure(scale: Scale) -> Artifact {
    let base = ScratchDir::new("serve");
    let scfg = sim_config(scale);
    let rows: Vec<(ModelKind, ServeReport)> = ModelKind::ALL
        .iter()
        .map(|&m| (m, train_and_serve(scale, m, base.path())))
        .collect();

    let mut json = String::from("{\"experiment\":\"serve\"");
    let _ = write!(
        json,
        ",\"scale\":{:?},\"max_batch\":{},\"max_delay_ns\":{},\"queue_capacity\":{},\
         \"requests\":{},\"rows\":[",
        scale.label(),
        scfg.batch.max_batch,
        scfg.batch.max_delay_ns,
        scfg.batch.queue_capacity,
        scfg.gen.n_requests,
    );
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "serve: COVID-19-England ({}), {} open-loop requests, batch ≤{} / {} µs delay / queue {}",
        scale.label(),
        scfg.gen.n_requests,
        scfg.batch.max_batch,
        scfg.batch.max_delay_ns / 1000,
        scfg.batch.queue_capacity,
    );
    for (i, (model, r)) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let logits_crc = crc32(&r.served_logit_bytes());
        let _ = write!(
            json,
            "{{\"model\":{:?},\"trained_epochs\":{},\"requests\":{},\"served\":{},\
             \"rejected_queue_full\":{},\"rejected_fault\":{},\"rejected_poisoned\":{},\
             \"batches\":{},\"queue_high_water\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\
             \"max_ns\":{},\"service_p50_ns\":{},\"service_p99_ns\":{},\
             \"device_queue_p50_ns\":{},\"device_queue_p99_ns\":{},\"forward_p50_ns\":{},\
             \"forward_p99_ns\":{},\"throughput_rps\":{:.3},\"batch_size_histogram\":{{",
            model.name(),
            r.trained_epochs,
            r.records.len(),
            r.served,
            r.rejected_queue_full,
            r.rejected_fault,
            r.rejected_poisoned,
            r.batches,
            r.queue_high_water,
            r.latency.p50.as_nanos(),
            r.latency.p95.as_nanos(),
            r.latency.p99.as_nanos(),
            r.latency.max.as_nanos(),
            r.service.p50.as_nanos(),
            r.service.p99.as_nanos(),
            r.device_queue.p50.as_nanos(),
            r.device_queue.p99.as_nanos(),
            r.forward.p50.as_nanos(),
            r.forward.p99.as_nanos(),
            r.throughput_rps,
        );
        for (j, (size, count)) in r.batch_size_histogram.iter().enumerate() {
            if j > 0 {
                json.push(',');
            }
            let _ = write!(json, "\"{size}\":{count}");
        }
        let _ = write!(
            json,
            "}},\"gpu_reuse_hits\":{},\"gpu_reuse_misses\":{},\"graph_captures\":{},\
             \"graph_replays\":{},\"logits_crc\":{}}}",
            r.gpu_reuse_hits, r.gpu_reuse_misses, r.graph_captures, r.graph_replays, logits_crc,
        );
        let hist: Vec<String> = r
            .batch_size_histogram
            .iter()
            .map(|(size, count)| format!("{size}x{count}"))
            .collect();
        let _ = writeln!(
            summary,
            "  {:<10} served {:>3}/{:<3} in {:>2} batches [{}]: p50 {:>7} ns, p99 {:>7} ns \
             (service p50 {:>7} ns, p99 {:>7} ns; its device queue p50 {:>7} ns, p99 {:>7} ns; \
             its forward p50 {:>7} ns, p99 {:>7} ns), {:>8.2} req/s, queue hw {}, \
             reuse {}/{} hits, graphs {} captured / {} replayed, crc {:08x}",
            model.name(),
            r.served,
            r.records.len(),
            r.batches,
            hist.join(" "),
            r.latency.p50.as_nanos(),
            r.latency.p99.as_nanos(),
            r.service.p50.as_nanos(),
            r.service.p99.as_nanos(),
            r.device_queue.p50.as_nanos(),
            r.device_queue.p99.as_nanos(),
            r.forward.p50.as_nanos(),
            r.forward.p99.as_nanos(),
            r.throughput_rps,
            r.queue_high_water,
            r.gpu_reuse_hits,
            r.gpu_reuse_hits + r.gpu_reuse_misses,
            r.graph_captures,
            r.graph_replays,
            logits_crc,
        );
    }
    json.push_str("]}");
    validate_json(&json).expect("serve report is not well-formed JSON");
    let _ = writeln!(
        summary,
        "served logits are bit-identical to the training forward (gated by tests/serve_equivalence.rs)"
    );
    Artifact { json, summary }
}

/// Run the serving experiment (`results/serve.{json,txt}`) under the
/// host-determinism contract.
pub fn run(scale: Scale) -> Artifact {
    host_invariant("serve report", || measure(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_serve_is_deterministic_across_threads_and_pool() {
        let art = run(Scale::Tiny);
        assert!(art.json.starts_with("{\"experiment\":\"serve\""));
        for needle in ["\"EvolveGCN\"", "\"MPNN-LSTM\"", "\"T-GCN\"", "p50_ns"] {
            assert!(art.json.contains(needle), "missing {needle}");
        }
        assert!(
            !art.json.contains("tmp"),
            "temp paths leaked into the report"
        );
        assert!(art.summary.contains("req/s"));
    }
}
