//! The serving simulation: an event loop on the simulated clock that
//! asks the micro-batcher for the next batch, runs it as batched forwards
//! on the simulated device, and feeds the device's free time back into the
//! batcher — with per-request tracing and latency accounting.
//!
//! Faults are recovered per batch, mirroring the trainer's ladder
//! (DESIGN.md §3.9): the first OOM evicts the reuse store's device tier
//! and retries; a second OOM or an exhausted-transfer fault rolls the
//! batch's allocations back and rejects its requests with a typed
//! [`RejectReason::DeviceFault`]; non-finite logits reject the batch and
//! purge its frame from the reuse store so the poison cannot be
//! re-served; a crash fault ends the run with a typed [`ServeError`].
//! Every recovery decision lands in the trace as a `recovery` instant on
//! the control lane — serving never panics under a seeded fault plan.

use crate::batcher::{Batch, BatchPolicy, Batcher};
use crate::engine::ServeEngine;
use crate::request::{generate_requests, Request, RequestGenConfig};
use crate::{RejectReason, ServeError};
use pipad_gpu_sim::{ArgValue, DeviceFault, Gpu, Lane, SimNanos, TraceKind};
use pipad_tensor::Matrix;
use std::collections::BTreeMap;

/// Everything one serving simulation needs besides the engine.
#[derive(Clone, Debug, Default)]
pub struct ServeSimConfig {
    /// Micro-batching policy.
    pub batch: BatchPolicy,
    /// Request-plan generation.
    pub gen: RequestGenConfig,
}

/// What happened to one request.
#[derive(Clone, Debug)]
pub enum RequestOutcome {
    /// Served: logit rows for the request's target nodes.
    Served {
        /// Batch sequence number that carried it.
        batch: usize,
        /// Size of that batch.
        batch_size: usize,
        /// When that batch closed: the forward is issued no earlier.
        closed: SimNanos,
        /// When the device took the batch up: the later of its close and
        /// the previous batch's completion.
        started: SimNanos,
        /// Completion time on the simulated clock.
        completed: SimNanos,
        /// `targets × d_out` logit rows, bit-exact training-forward output.
        logits: Matrix,
    },
    /// Rejected with a typed reason (backpressure, fault, poison).
    Rejected {
        /// The typed rejection.
        reason: RejectReason,
    },
}

/// One request's full record.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// The request as generated.
    pub request: Request,
    /// Its outcome.
    pub outcome: RequestOutcome,
}

impl RequestRecord {
    /// Enqueue-to-completion latency (served requests only): the wait for
    /// its batch to close plus its service time.
    pub fn latency(&self) -> Option<SimNanos> {
        let (_, _, completed) = self.served_times()?;
        Some(completed - self.request.arrival)
    }

    /// Batch-close-to-completion service time (served requests only): its
    /// device-queue wait plus its forward.
    pub fn service(&self) -> Option<SimNanos> {
        let (closed, _, completed) = self.served_times()?;
        Some(completed - closed)
    }

    /// Batch close to the device taking the batch up (served requests
    /// only): the wait behind earlier batches' forwards.
    pub fn device_queue(&self) -> Option<SimNanos> {
        let (closed, started, _) = self.served_times()?;
        Some(started - closed)
    }

    /// The device taking the batch up to this request's completion
    /// (served requests only): the batch's own forwards.
    pub fn forward(&self) -> Option<SimNanos> {
        let (_, started, completed) = self.served_times()?;
        Some(completed - started)
    }

    /// `(closed, started, completed)` of a served request.
    fn served_times(&self) -> Option<(SimNanos, SimNanos, SimNanos)> {
        match self.outcome {
            RequestOutcome::Served {
                closed,
                started,
                completed,
                ..
            } => Some((closed, started, completed)),
            RequestOutcome::Rejected { .. } => None,
        }
    }
}

/// Nearest-rank latency percentiles over the served requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median.
    pub p50: SimNanos,
    /// 95th percentile.
    pub p95: SimNanos,
    /// 99th percentile.
    pub p99: SimNanos,
    /// Worst case.
    pub max: SimNanos,
}

impl LatencySummary {
    /// Nearest-rank percentiles of `latencies`. The math lives in
    /// [`pipad_metrics::Percentiles`] (shared with the bench harness);
    /// this wrapper only converts to and from [`SimNanos`].
    pub fn from_latencies(latencies: Vec<SimNanos>) -> Self {
        let ns: Vec<u64> = latencies.iter().map(|l| l.as_nanos()).collect();
        let p = pipad_metrics::Percentiles::from_samples(&ns);
        LatencySummary {
            p50: SimNanos::from_nanos(p.p50),
            p95: SimNanos::from_nanos(p.p95),
            p99: SimNanos::from_nanos(p.p99),
            max: SimNanos::from_nanos(p.max),
        }
    }
}

/// The serving run's full result.
pub struct ServeReport {
    /// Per-request records in request-id order.
    pub records: Vec<RequestRecord>,
    /// Batches executed (including rejected ones).
    pub batches: usize,
    /// Requests served. This and the three rejection counts are folded
    /// from `records`.
    pub served: usize,
    /// Requests rejected at admission (queue full).
    pub rejected_queue_full: usize,
    /// Requests rejected by a device fault.
    pub rejected_fault: usize,
    /// Requests rejected for non-finite logits.
    pub rejected_poisoned: usize,
    /// Admission-queue high-water mark.
    pub queue_high_water: usize,
    /// Batch-size histogram (size → batches), folded from the batches.
    pub batch_size_histogram: BTreeMap<usize, usize>,
    /// Latency percentiles over served requests.
    pub latency: LatencySummary,
    /// Service-time (batch close → completion) percentiles over served
    /// requests: latency without the batch wait.
    pub service: LatencySummary,
    /// Device-queue-wait (batch close → device takes it up) percentiles
    /// over served requests: the part of service spent behind earlier
    /// batches.
    pub device_queue: LatencySummary,
    /// Forward (device takes the batch up → completion) percentiles over
    /// served requests: service without the device-queue wait.
    pub forward: LatencySummary,
    /// Served requests per second of simulated horizon.
    pub throughput_rps: f64,
    /// GPU reuse-tier hits observed during serving.
    pub gpu_reuse_hits: u64,
    /// GPU reuse-tier misses observed during serving.
    pub gpu_reuse_misses: u64,
    /// CUDA graphs the serving device captured: the first, eager forward
    /// of each distinct plan key ([`Gpu::graph_captures`]).
    pub graph_captures: usize,
    /// Forwards that replayed a captured graph ([`Gpu::graph_replays`]).
    pub graph_replays: u64,
    /// Epochs the restored checkpoint had completed (provenance).
    pub trained_epochs: usize,
    /// The device-and-host clock when serving began, i.e. when the engine
    /// restore's work was done. Arrivals before it wait for the restore.
    pub engine_ready: SimNanos,
}

impl ServeReport {
    /// Concatenated little-endian logit bits of every served request, in
    /// request order — the value-determinism digest the reports pin.
    pub fn served_logit_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in &self.records {
            if let RequestOutcome::Served { logits, .. } = &r.outcome {
                for row in 0..logits.rows() {
                    for col in 0..logits.cols() {
                        out.extend_from_slice(&logits[(row, col)].to_bits().to_le_bytes());
                    }
                }
            }
        }
        out
    }
}

/// Slice the target rows of a full-graph prediction into a dense
/// `targets × d` response matrix.
fn slice_targets(pred: &Matrix, targets: &[usize]) -> Matrix {
    Matrix::from_fn(targets.len(), pred.cols(), |r, c| pred[(targets[r], c)])
}

/// Run the open-loop serving simulation as an event loop on the simulated
/// clock: the batcher closes each batch knowing when the device finished
/// the previous one. Deterministic in (engine state, config):
/// byte-identical traces and reports across host thread counts and
/// buffer-pool settings.
pub fn serve_open_loop(
    gpu: &mut Gpu,
    engine: &mut ServeEngine<'_>,
    cfg: &ServeSimConfig,
) -> Result<ServeReport, ServeError> {
    let requests = generate_requests(&cfg.gen, engine.n_frames(), engine.graph().n());
    let mut batcher = Batcher::new(&requests, &cfg.batch);
    let mut outcomes: BTreeMap<u64, RequestOutcome> = BTreeMap::new();
    let mut batches = 0;
    let mut batch_size_histogram = BTreeMap::new();

    // The engine restore leaves work on the device: the first batch finds
    // it free only once that work is done.
    let engine_ready = gpu.now_with_host();
    let mut device_free = engine_ready;
    while let Some(batch) = batcher.next(device_free) {
        // Backpressure rejections, in arrival order: each bounced off the
        // queue of the batch that has just closed, before its close.
        for (r, reason) in batcher.take_rejected() {
            reject_at_admission(gpu, &r, &reason);
            outcomes.insert(r.id, RequestOutcome::Rejected { reason });
        }
        run_batch(gpu, engine, &batch, &mut outcomes)?;
        if let Some(c) = gpu.take_crash() {
            return Err(ServeError::Device(DeviceFault::Crash(c)));
        }
        device_free = gpu.now_with_host();
        batches += 1;
        *batch_size_histogram
            .entry(batch.requests.len())
            .or_insert(0) += 1;
    }
    let queue_high_water = batcher.queue_high_water();
    debug_assert!(
        batcher.take_rejected().is_empty(),
        "a rejection needs a full queue, which closes into a later batch"
    );

    let records: Vec<RequestRecord> = requests
        .into_iter()
        .map(|request| {
            let outcome = outcomes
                .remove(&request.id)
                .expect("every request has an outcome");
            RequestRecord { request, outcome }
        })
        .collect();

    let summary = |part: fn(&RequestRecord) -> Option<SimNanos>| {
        LatencySummary::from_latencies(records.iter().filter_map(part).collect())
    };
    let served = records.iter().filter(|r| r.latency().is_some()).count();
    let (mut rejected_queue_full, mut rejected_fault, mut rejected_poisoned) = (0, 0, 0);
    for r in &records {
        if let RequestOutcome::Rejected { reason } = &r.outcome {
            match reason {
                RejectReason::QueueFull { .. } => rejected_queue_full += 1,
                RejectReason::DeviceFault { .. } => rejected_fault += 1,
                RejectReason::PoisonedOutput => rejected_poisoned += 1,
            }
        }
    }
    let first_arrival = records
        .first()
        .map(|r| r.request.arrival)
        .unwrap_or(SimNanos::ZERO);
    let last_completion = records
        .iter()
        .filter_map(|r| match &r.outcome {
            RequestOutcome::Served { completed, .. } => Some(*completed),
            RequestOutcome::Rejected { .. } => None,
        })
        .max()
        .unwrap_or(first_arrival);
    let horizon_ns = (last_completion - first_arrival).as_nanos().max(1);
    let throughput_rps = served as f64 * 1e9 / horizon_ns as f64;
    let reuse = engine.reuse.stats();

    Ok(ServeReport {
        latency: summary(RequestRecord::latency),
        service: summary(RequestRecord::service),
        device_queue: summary(RequestRecord::device_queue),
        forward: summary(RequestRecord::forward),
        records,
        batches,
        served,
        rejected_queue_full,
        rejected_fault,
        rejected_poisoned,
        queue_high_water,
        batch_size_histogram,
        throughput_rps,
        gpu_reuse_hits: reuse.gpu_hits,
        gpu_reuse_misses: reuse.gpu_misses,
        graph_captures: gpu.graph_captures(),
        graph_replays: gpu.graph_replays(),
        trained_epochs: engine.trained_epochs(),
        engine_ready,
    })
}

/// The `enqueue` instant of a request rejected at admission, at the
/// arrival it bounced.
fn reject_at_admission(gpu: &mut Gpu, r: &Request, reason: &RejectReason) {
    gpu.trace_mut().instant(
        "enqueue",
        Lane::Control,
        r.arrival,
        vec![
            ("request", ArgValue::U64(r.id)),
            ("frame", ArgValue::U64(r.frame as u64)),
            ("admitted", ArgValue::Bool(false)),
            ("reason", ArgValue::Str(reason.to_string())),
        ],
    );
}

/// Execute one formed batch: enqueue spans for its members, a
/// `batch_form` instant, then one `serve_forward` span per distinct frame
/// (members are FIFO and frames nondecreasing, so frame groups are
/// consecutive runs).
fn run_batch(
    gpu: &mut Gpu,
    engine: &mut ServeEngine<'_>,
    batch: &Batch,
    outcomes: &mut BTreeMap<u64, RequestOutcome>,
) -> Result<(), ServeError> {
    for r in &batch.requests {
        gpu.trace_mut().span(
            "enqueue",
            TraceKind::Span,
            Lane::Control,
            r.arrival,
            batch.formed_at,
            vec![
                ("request", ArgValue::U64(r.id)),
                ("frame", ArgValue::U64(r.frame as u64)),
                ("admitted", ArgValue::Bool(true)),
                ("batch", ArgValue::U64(batch.seq as u64)),
            ],
        );
    }
    gpu.trace_mut().instant(
        "batch_form",
        Lane::Control,
        batch.formed_at,
        vec![
            ("batch", ArgValue::U64(batch.seq as u64)),
            ("size", ArgValue::U64(batch.requests.len() as u64)),
        ],
    );

    // The forwards are issued no earlier than the batch closed: the host
    // clock moves to the close, and the engine holds every device op of a
    // forward to the host clock. Nothing has moved the clocks since the
    // previous batch completed, so the device takes this one up at the
    // later of its close and that completion.
    gpu.host_wait(batch.formed_at);
    let started = gpu.now_with_host();
    let batch_size = batch.requests.len();
    for group in batch.requests.chunk_by(|a, b| a.frame == b.frame) {
        let frame = group[0].frame;
        let t0 = gpu.now_with_host();
        let mut attempt = 0u32;
        let result = loop {
            let mark = gpu.mem_mark();
            match engine.forward_frame(gpu, frame) {
                Ok(pred) => break Ok(pred),
                Err(DeviceFault::Crash(c)) => {
                    return Err(ServeError::Device(DeviceFault::Crash(c)));
                }
                Err(fault) => {
                    gpu.release_since(mark);
                    if attempt > 0 || !matches!(fault, DeviceFault::Oom(_)) {
                        break Err(fault);
                    }
                    engine.reuse.evict_device(gpu);
                    recovery(gpu, "serve_oom_evict_retry", batch.seq, frame, None);
                    attempt += 1;
                }
            }
        };

        let (policy, reason) = match result {
            Ok(pred) if pred_is_finite(&pred) => {
                gpu.synchronize();
                let t1 = gpu.now_with_host();
                gpu.trace_mut().span(
                    "serve_forward",
                    TraceKind::Span,
                    Lane::Control,
                    t0,
                    t1,
                    vec![
                        ("batch", ArgValue::U64(batch.seq as u64)),
                        ("frame", ArgValue::U64(frame as u64)),
                        ("requests", ArgValue::U64(group.len() as u64)),
                    ],
                );
                for r in group {
                    outcomes.insert(
                        r.id,
                        RequestOutcome::Served {
                            batch: batch.seq,
                            batch_size,
                            closed: batch.formed_at,
                            started,
                            completed: t1,
                            logits: slice_targets(&pred, &r.targets),
                        },
                    );
                }
                continue;
            }
            // Non-finite logits: never serve them. Purge the frame from
            // the reuse store (the deposit path may have cached poisoned
            // aggregations) and reject the group once the device is idle.
            Ok(_poisoned) => {
                engine.reuse.purge(gpu, frame..frame + engine.window());
                gpu.synchronize();
                ("serve_nan_reject", RejectReason::PoisonedOutput)
            }
            Err(fault) => {
                let detail = fault.to_string();
                ("serve_reject_batch", RejectReason::DeviceFault { detail })
            }
        };
        let fault = match &reason {
            RejectReason::DeviceFault { detail } => Some(detail.clone()),
            _ => None,
        };
        recovery(gpu, policy, batch.seq, frame, fault);
        for r in group {
            outcomes.insert(
                r.id,
                RequestOutcome::Rejected {
                    reason: reason.clone(),
                },
            );
        }
    }
    Ok(())
}

/// One `recovery` instant on the control lane, now, naming the policy and
/// the batch and frame it acted on (and the fault, when one ended the
/// forward).
fn recovery(gpu: &mut Gpu, policy: &str, batch: usize, frame: usize, fault: Option<String>) {
    let mut args = vec![
        ("policy", ArgValue::Str(policy.to_string())),
        ("batch", ArgValue::U64(batch as u64)),
        ("frame", ArgValue::U64(frame as u64)),
    ];
    args.extend(fault.map(|f| ("fault", ArgValue::Str(f))));
    let t = gpu.now_with_host();
    gpu.trace_mut().instant("recovery", Lane::Control, t, args);
}

/// Whether every logit is finite.
fn pred_is_finite(pred: &Matrix) -> bool {
    (0..pred.rows()).all(|r| (0..pred.cols()).all(|c| pred[(r, c)].is_finite()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use pipad::{train_pipad, PipadConfig};
    use pipad_ckpt::CheckpointPolicy;
    use pipad_dyngraph::{DatasetId, Scale};
    use pipad_gpu_sim::DeviceConfig;
    use pipad_models::{ModelKind, TrainingConfig};

    #[test]
    fn serve_end_to_end_from_trained_checkpoint() {
        let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
        let cfg = TrainingConfig {
            window: 8,
            epochs: 4,
            preparing_epochs: 2,
            lr: 0.01,
            seed: 3,
        };
        let dir = std::env::temp_dir().join(format!("pipad-serve-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tg = Gpu::new(DeviceConfig::v100());
        let pcfg = PipadConfig {
            checkpoint: Some(CheckpointPolicy::new(dir.clone(), 2)),
            ..Default::default()
        };
        train_pipad(&mut tg, ModelKind::TGcn, &graph, 8, &cfg, &pcfg).unwrap();

        let mut gpu = Gpu::new(DeviceConfig::v100());
        let ecfg = EngineConfig { hidden: 8 };
        let mut engine =
            ServeEngine::from_latest(&mut gpu, &dir, ModelKind::TGcn, &graph, &cfg, &ecfg).unwrap();
        let scfg = ServeSimConfig {
            gen: RequestGenConfig {
                n_requests: 12,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = serve_open_loop(&mut gpu, &mut engine, &scfg).unwrap();
        assert_eq!(report.records.len(), 12);
        assert_eq!(
            report.served
                + report.rejected_queue_full
                + report.rejected_fault
                + report.rejected_poisoned,
            12
        );
        assert!(report.served > 0, "a clean run must serve requests");
        assert!(report.latency.p50 <= report.latency.p95);
        assert!(report.latency.p95 <= report.latency.p99);
        assert!(report.throughput_rps > 0.0);
        // Latency decomposes exactly: batch wait, then service, which is
        // the device-queue wait and then the forward.
        for r in &report.records {
            let RequestOutcome::Served { closed, .. } = r.outcome else {
                continue;
            };
            let wait = closed - r.request.arrival;
            let (queue, forward) = (r.device_queue().unwrap(), r.forward().unwrap());
            assert_eq!(Some(wait + queue + forward), r.latency());
            assert_eq!(Some(queue + forward), r.service());
        }
        assert!(report.service.p50 <= report.latency.p50);
        assert!(report.forward.p50 <= report.service.p50);
        assert!(!report.served_logit_bytes().is_empty());

        // Trace schema: every request produced an enqueue event, batches
        // produced batch_form and serve_forward.
        let names: Vec<&str> = gpu.trace().events().iter().map(|e| e.name).collect();
        for needle in ["enqueue", "batch_form", "serve_forward"] {
            assert!(names.contains(&needle), "missing {needle} in trace");
        }

        // A mismatched fingerprint is a typed error, not a panic.
        let bad = TrainingConfig { seed: 99, ..cfg };
        let mut g2 = Gpu::new(DeviceConfig::v100());
        let err =
            match ServeEngine::from_latest(&mut g2, &dir, ModelKind::TGcn, &graph, &bad, &ecfg) {
                Err(e) => e,
                Ok(_) => panic!("wrong seed must be rejected"),
            };
        assert!(matches!(err, ServeError::Ckpt(_)), "{err}");

        // An empty directory is a typed error too.
        let empty = dir.join("nope");
        std::fs::create_dir_all(&empty).unwrap();
        let mut g3 = Gpu::new(DeviceConfig::v100());
        let err =
            match ServeEngine::from_latest(&mut g3, &empty, ModelKind::TGcn, &graph, &cfg, &ecfg) {
                Err(e) => e,
                Ok(_) => panic!("empty dir has nothing to serve"),
            };
        assert!(matches!(err, ServeError::NoCheckpoint(_)), "{err}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
