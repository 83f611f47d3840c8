//! Chaos properties: training under an arbitrary *seeded* fault plan
//! either completes or fails with a typed [`DeviceFault`] — it never
//! panics — and the entire run, structured trace included, is a pure
//! function of the plan: byte-identical Chrome exports across repeats,
//! across host thread counts and with the buffer pool off.
//!
//! Plans come from [`FaultPlan::seeded`], so each proptest case covers a
//! different random mix of one-shot OOMs, usage thresholds, transient
//! transfer faults, straggler windows and poisoned launches.
//!
//! The same contract extends to online serving: a checkpoint-restored
//! [`ServeEngine`] replaying requests under a seeded plan never panics,
//! every request either completes with finite logits or is rejected with
//! a typed reason, device-fault rejections leave `recovery` events in the
//! trace, and the whole run is thread-invariant. Faults never change a
//! served answer beyond rounding: each served request's logits equal a
//! fault-free serve's bit for bit, except under a plan that poisons a
//! launch. There `serve_nan_reject` purges the frame's snapshots, and
//! aggregating them again (overlap plus exclusive sums in the serving
//! frame's partitions) rounds differently from the training-time bits the
//! CPU tier was warm-started with — by at most 1e-6.

use pipad::{train_pipad, PipadConfig};
use pipad_ckpt::CheckpointPolicy;
use pipad_dyngraph::{DatasetId, Scale};
use pipad_gpu_sim::{export_chrome_trace, ArgValue, DeviceConfig, FaultPlan, Gpu, SimNanos};
use pipad_models::{ModelKind, TrainingConfig};
use pipad_pool::with_threads;
use pipad_repro::serve::{
    serve_open_loop, BatchPolicy, EngineConfig, RejectReason, RequestGenConfig, RequestOutcome,
    ServeEngine, ServeError, ServeReport, ServeSimConfig,
};
use pipad_tensor::with_pool_enabled;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// One full training run under `plan`: the loss bit-patterns (or the typed
/// error's message) plus the Chrome-trace export.
fn run_once(plan: &FaultPlan) -> (Result<Vec<u32>, String>, String) {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let cfg = TrainingConfig {
        window: 8,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 7,
    };
    let mut gpu = Gpu::new(DeviceConfig::v100());
    gpu.install_faults(plan.clone());
    let res = train_pipad(
        &mut gpu,
        ModelKind::TGcn,
        &graph,
        16,
        &cfg,
        &PipadConfig::default(),
    );
    let outcome = match res {
        Ok(r) => Ok(r.losses().iter().map(|l| l.to_bits()).collect()),
        Err(e) => Err(e.to_string()),
    };
    (outcome, export_chrome_trace(gpu.trace(), 0))
}

fn serve_cfg() -> TrainingConfig {
    TrainingConfig {
        window: 8,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 7,
    }
}

const CHECKPOINT_DIR_PREFIX: &str = "pipad-serve-chaos-";

/// Remove the checkpoint directories of test processes that have exited.
/// A process never drops the statics naming its own, so the next one
/// sweeps them. Liveness is read off `/proc`; without it nothing goes.
fn sweep_exited_checkpoint_dirs() {
    let proc = Path::new("/proc");
    if !proc.join("self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix(CHECKPOINT_DIR_PREFIX))
            .and_then(|rest| rest.rsplit('-').next())
            .filter(|pid| pid.parse::<u32>().is_ok());
        if pid.is_some_and(|pid| !proc.join(pid).exists()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Train `model` once per process (fault-free, with checkpoints) and
/// share the checkpoint directory across every chaos case.
fn shared_checkpoint_dir(model: ModelKind) -> &'static PathBuf {
    static DIRS: [OnceLock<PathBuf>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let i = ModelKind::ALL.iter().position(|&m| m == model).unwrap();
    DIRS[i].get_or_init(|| {
        sweep_exited_checkpoint_dirs();
        let dir = std::env::temp_dir().join(format!(
            "{CHECKPOINT_DIR_PREFIX}{}-{}",
            model.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let pcfg = PipadConfig {
            checkpoint: Some(CheckpointPolicy::new(dir.clone(), 2)),
            ..PipadConfig::default()
        };
        train_pipad(&mut gpu, model, &graph, 8, &serve_cfg(), &pcfg)
            .expect("fault-free training leg failed");
        dir
    })
}

/// Per request, in request order: its served logit bits, or `None` if it
/// was rejected.
type ServedLogits = Vec<Option<Vec<u32>>>;

/// Serve the shared T-GCN checkpoint's 12-request plan on a fresh device
/// with `plan` installed; the device is returned beside the outcome so its
/// trace can be read.
fn serve_on_device(plan: &FaultPlan) -> (Gpu, Result<ServeReport, ServeError>) {
    let (gpu, res) = serve_model_on_device(ModelKind::TGcn, 12, plan);
    (gpu, res.map(|(_, report)| report))
}

/// Serve `n_requests` from `model`'s shared checkpoint on a fresh device
/// with `plan` installed. A report comes with the device clock at which
/// serving started, after the engine restore.
fn serve_model_on_device(
    model: ModelKind,
    n_requests: usize,
    plan: &FaultPlan,
) -> (Gpu, Result<(SimNanos, ServeReport), ServeError>) {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let cfg = serve_cfg();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    gpu.install_faults(plan.clone());
    let ecfg = EngineConfig { hidden: 8 };
    let scfg = ServeSimConfig {
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_ns: 250_000,
            queue_capacity: 16,
        },
        gen: RequestGenConfig {
            seed: 5,
            n_requests,
            mean_interarrival_ns: 200_000,
            max_targets: 4,
            snapshot_period_ns: 500_000,
        },
    };
    let res = (|| {
        let mut engine = ServeEngine::from_latest(
            &mut gpu,
            shared_checkpoint_dir(model),
            model,
            &graph,
            &cfg,
            &ecfg,
        )?;
        let start = gpu.now_with_host();
        Ok((start, serve_open_loop(&mut gpu, &mut engine, &scfg)?))
    })();
    (gpu, res)
}

/// Serving outcome under `plan`: per-request disposition counts plus the
/// served logit bits, or the typed error's message; and the trace export.
#[allow(clippy::type_complexity)]
fn serve_once(
    plan: &FaultPlan,
) -> (
    Result<(usize, usize, usize, usize, ServedLogits), String>,
    String,
) {
    let (gpu, res) = serve_on_device(plan);
    let outcome = match res {
        Ok(r) => Ok((
            r.served,
            r.rejected_fault,
            r.rejected_poisoned,
            r.rejected_queue_full,
            r.records
                .iter()
                .map(|rec| match &rec.outcome {
                    RequestOutcome::Served { logits, .. } => {
                        Some(logits.as_slice().iter().map(|v| v.to_bits()).collect())
                    }
                    RequestOutcome::Rejected { .. } => None,
                })
                .collect(),
        )),
        Err(e) => Err(e.to_string()),
    };
    (outcome, export_chrome_trace(gpu.trace(), 0))
}

/// Every request's logits from a fault-free serve, built once per process.
fn reference_logits() -> &'static ServedLogits {
    static REFERENCE: OnceLock<ServedLogits> = OnceLock::new();
    REFERENCE.get_or_init(|| match serve_once(&FaultPlan::default()).0 {
        Ok((12, 0, 0, 0, logits)) => logits,
        Ok((served, ..)) => panic!("a fault-free serve served {served} of 12 requests"),
        Err(e) => panic!("the fault-free serve failed: {e}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn seeded_serving_never_panics_and_requests_are_accounted_for(seed in 0u64..u64::MAX) {
        let plan = FaultPlan::seeded(seed);
        // Returning at all — a report or a typed ServeError — IS the
        // no-panic property.
        let (r1, t1) = with_threads(1, || serve_once(&plan));
        let (r4, t4) = with_threads(4, || serve_once(&plan));
        prop_assert_eq!(&r1, &r4, "serving outcome differs across host thread counts (seed {})", seed);
        prop_assert_eq!(&t1, &t4, "serving trace differs across host thread counts (seed {})", seed);

        match r1 {
            Ok((served, faulted, poisoned, queue_full, logits)) => {
                // Every request completed or was rejected with a typed
                // reason — none vanished.
                prop_assert_eq!(served + faulted + poisoned + queue_full, 12,
                    "requests lost under chaos (seed {})", seed);
                // Served logits are never poisoned — non-finite outputs
                // must have been rejected, not served — and are the
                // fault-free answer, up to rounding where a poisoned
                // launch made a frame aggregate again.
                let rounds = !plan.poison_launches.is_empty();
                for (id, (got, want)) in logits.iter().zip(reference_logits()).enumerate() {
                    let (Some(got), Some(want)) = (got, want) else { continue };
                    prop_assert_eq!(got.len(), want.len());
                    for (&g, &w) in got.iter().zip(want) {
                        let (g, w) = (f32::from_bits(g), f32::from_bits(w));
                        prop_assert!(g.is_finite(), "served a non-finite logit (seed {})", seed);
                        if rounds {
                            prop_assert!((g - w).abs() <= 1e-6,
                                "request {} served {} for {} (seed {})", id, g, w, seed);
                        } else {
                            prop_assert!(g.to_bits() == w.to_bits(),
                                "request {} served {} for {} (seed {})", id, g, w, seed);
                        }
                    }
                }
                // Device-fault rejections go through the recovery ladder,
                // which documents itself in the trace.
                if faulted > 0 {
                    prop_assert!(t1.contains("serve_reject_batch"),
                        "fault rejections left no recovery event (seed {})", seed);
                }
                if faulted > 0 || poisoned > 0 {
                    prop_assert!(t1.contains("recovery"),
                        "rejections left no recovery event (seed {})", seed);
                }
            }
            // Engine construction can also hit injected faults; that too
            // must surface as a typed, rendered error.
            Err(msg) => prop_assert!(!msg.is_empty(), "typed error must render a message"),
        }
    }

    #[test]
    fn seeded_plans_never_panic_and_runs_are_thread_invariant(seed in 0u64..u64::MAX) {
        let plan = FaultPlan::seeded(seed);
        // `run_once` returning at all — Ok or a typed error — IS the
        // no-panic property: any panic fails the test.
        let (r1, t1) = with_threads(1, || run_once(&plan));
        let (r4, t4) = with_threads(4, || run_once(&plan));
        let (r1b, t1b) = with_threads(1, || run_once(&plan));
        let (r4off, t4off) = with_pool_enabled(false, || with_threads(4, || run_once(&plan)));

        // Identical plan => byte-identical trace, at 1 or 4 host threads,
        // across repeats and with the buffer pool off — so recovery's
        // rollback, eviction and retry recycle buffers invisibly.
        prop_assert_eq!(&r1, &r4, "outcome differs across host thread counts (seed {})", seed);
        prop_assert_eq!(&r1, &r1b, "outcome differs across repeats (seed {})", seed);
        prop_assert_eq!(&r1, &r4off, "outcome differs with the buffer pool off (seed {})", seed);
        prop_assert_eq!(&t1, &t4, "chrome trace differs across host thread counts (seed {})", seed);
        prop_assert_eq!(&t1, &t1b, "chrome trace differs across repeats (seed {})", seed);
        prop_assert_eq!(&t1, &t4off, "chrome trace differs with the buffer pool off (seed {})", seed);

        match r1 {
            Ok(losses) => prop_assert!(!losses.is_empty(), "completed run must report losses"),
            // A failing run surfaces a typed DeviceFault whose Display
            // carries the fault detail (OOM attribution label, transfer op
            // index, ...) — never an empty or panicky message.
            Err(msg) => prop_assert!(!msg.is_empty(), "typed error must render a message"),
        }
    }
}

/// Serving's three recovery paths, pinned. Seed 91's plan OOMs batch 0's
/// forward once (`serve_oom_evict_retry`), and its retry then exhausts a
/// transfer's retry budget (`serve_reject_batch`); one poisoned launch,
/// placed by probing the clean run's 512 launches, makes the last batch's
/// logits non-finite (`serve_nan_reject`). Every `recovery` instant's time and arguments and
/// every request's outcome kind are exact, so a change to the reject arms
/// that moves a timestamp, a count or an attribution fails here.
#[test]
fn serving_fault_paths_are_pinned() {
    let mut plan = FaultPlan::seeded(91);
    plan.poison_launches.push(448);
    plan.normalize();
    let (gpu, res) = serve_on_device(&plan);
    let report = res.expect("the plan's faults are all recoverable per batch");

    let recoveries: Vec<String> = gpu
        .trace()
        .events()
        .iter()
        .filter(|e| e.name == "recovery")
        .map(|e| {
            let args: Vec<String> = e.args.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
            format!("{} {}", e.ts.as_nanos(), args.join(" "))
        })
        .collect();
    let outcomes: String = report
        .records
        .iter()
        .map(|r| match &r.outcome {
            RequestOutcome::Served { .. } => 'S',
            RequestOutcome::Rejected { reason } => match reason {
                RejectReason::QueueFull { .. } => 'Q',
                RejectReason::DeviceFault { .. } => 'F',
                RejectReason::PoisonedOutput => 'P',
            },
        })
        .collect();
    assert_eq!(
        recoveries,
        [
            r#"1409293 policy=Str("serve_oom_evict_retry") batch=U64(0) frame=U64(1)"#,
            concat!(
                r#"1409293 policy=Str("serve_reject_batch") batch=U64(0) frame=U64(1) "#,
                r#"fault=Str("transfer failed: h2d copy of 10240 B (op #4) after 4 attempt(s)")"#
            ),
            r#"3128121 policy=Str("serve_nan_reject") batch=U64(6) frame=U64(5)"#,
        ]
    );
    assert_eq!(outcomes, "SFSSSSSSSSPP");
    assert_eq!(
        (
            report.served,
            report.rejected_fault,
            report.rejected_poisoned,
            report.rejected_queue_full
        ),
        (9, 1, 2, 0)
    );
}

/// Serving is an event loop on the simulated clock, for every model,
/// fault-free and under a seeded plan: a request that reaches an idle
/// device closes its batch on arrival (no batch wait); the device takes
/// each batch up at the later of its close and the end of the previous
/// batch; served requests complete in request order; and no latency is
/// below its service time.
#[test]
fn served_batches_close_when_the_device_is_idle_and_complete_in_order() {
    for model in ModelKind::ALL {
        for (what, plan) in [
            ("fault-free", FaultPlan::default()),
            ("seed 91", FaultPlan::seeded(91)),
        ] {
            let name = model.name();
            let (gpu, res) = serve_model_on_device(model, 64, &plan);
            let (serve_start, report) = res.unwrap_or_else(|e| panic!("{name} {what}: {e}"));
            // When the device finished each batch: its last served
            // completion or its last `recovery` instant, whichever is later.
            let mut finished: BTreeMap<u64, SimNanos> = BTreeMap::new();
            let mut finish = |batch: u64, t: SimNanos| {
                let end = finished.entry(batch).or_insert(t);
                *end = (*end).max(t);
            };
            for r in &report.records {
                if let RequestOutcome::Served {
                    batch, completed, ..
                } = r.outcome
                {
                    finish(batch as u64, completed);
                }
            }
            for e in gpu.trace().events().iter().filter(|e| e.name == "recovery") {
                let batch = e.args.iter().find_map(|(k, v)| match (*k, v) {
                    ("batch", ArgValue::U64(b)) => Some(*b),
                    _ => None,
                });
                finish(batch.expect("a recovery names its batch"), e.ts);
            }

            let (mut last_completed, mut idle_arrivals) = (SimNanos::ZERO, 0);
            for r in &report.records {
                let RequestOutcome::Served {
                    batch,
                    closed,
                    started,
                    completed,
                    ..
                } = r.outcome
                else {
                    continue;
                };
                let id = r.request.id;
                let device_free = match batch {
                    0 => serve_start,
                    b => finished[&(b as u64 - 1)],
                };
                assert_eq!(
                    started,
                    closed.max(device_free),
                    "{name} {what}: request {id}"
                );
                if r.request.arrival >= device_free {
                    idle_arrivals += 1;
                    assert_eq!(
                        closed, r.request.arrival,
                        "{name} {what}: request {id} reached an idle device and still waited"
                    );
                }
                assert!(
                    completed >= last_completed,
                    "{name} {what}: request {id} completed before an earlier request"
                );
                last_completed = completed;
                assert!(r.latency().unwrap() >= r.service().unwrap());
            }
            assert!(
                idle_arrivals > 0,
                "{name} {what}: no request found the device idle"
            );
        }
    }
}

/// A served forward is issued when its batch closes: every kernel, graph
/// launch and copy recorded after a `batch_form` instant starts at or
/// after that instant, for every model, fault-free and under a seeded
/// plan. A forward whose compute stream ran ahead of the host clock used
/// to start device work on an idle device before its batch existed.
#[test]
fn no_served_device_op_starts_before_its_batch_closes() {
    use pipad_gpu_sim::TraceKind;
    for model in ModelKind::ALL {
        for (what, plan) in [
            ("fault-free", FaultPlan::default()),
            ("seed 91", FaultPlan::seeded(91)),
        ] {
            let (gpu, res) = serve_model_on_device(model, 64, &plan);
            let (_, report) = res.unwrap_or_else(|e| panic!("{} {what}: {e}", model.name()));
            assert!(report.served > 0, "{} {what}", model.name());
            let (mut closed, mut ops, mut early, mut worst) = (None, 0, 0, 0);
            for e in gpu.trace().events().iter() {
                if e.name == "batch_form" {
                    closed = Some(e.ts);
                    continue;
                }
                let device_op = matches!(e.kind, TraceKind::Kernel | TraceKind::Memcpy)
                    || e.name == "cuda_graph_launch";
                let (true, Some(closed)) = (device_op, closed) else {
                    continue;
                };
                ops += 1;
                if e.ts < closed {
                    early += 1;
                    worst = worst.max((closed - e.ts).as_nanos());
                }
            }
            assert!(ops > 0, "{} {what}: no served device op", model.name());
            assert_eq!(
                early,
                0,
                "{} {what}: {early} of {ops} device ops start before their batch closes, \
                 up to {} early",
                model.name(),
                SimNanos::from_nanos(worst)
            );
        }
    }
}
