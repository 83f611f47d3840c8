//! The single-device epoch driver: the one preparing→steady epoch loop
//! (Figure 8) behind `train_pipad` and the four PyGT baselines, and the one
//! training step (`train_step`) every frame of either runs.
//!
//! The paper's comparison systems are PiPAD's own mechanisms switched on
//! one at a time, all running the same epoch schedule. [`run_epochs`] owns
//! that schedule — streams, model construction, restore-on-start, the
//! epoch × frame iteration, the steady-window boundary, the crash poll,
//! rollback of a failed run's allocations, the `epoch` span, checkpoint
//! writes and the [`TrainReport`] — and an [`EpochPolicy`] supplies what
//! genuinely differs between trainers: the name, where the preparing phase
//! ends, the per-frame body, a few epoch-boundary hooks and any extra
//! checkpoint state.
//!
//! Not routed through here, on purpose: `multigpu::train_data_parallel`
//! drives a vector of devices with per-device clocks and one tape per
//! virtual shard, and `pipad-serve` iterates request batches, not epochs.
//! The data-parallel loop still closes each epoch with `close_epoch`, so
//! both write the same `epoch` span and [`EpochReport`].

use crate::checkpoint::{self, CkptExtra};
use pipad_autograd::Tape;
use pipad_ckpt::{latest_checkpoint, write_checkpoint, Checkpoint, CheckpointPolicy};
use pipad_dyngraph::{DynamicGraph, Frame, FrameIter};
use pipad_gpu_sim::{ArgValue, DeviceFault, Gpu, Lane, OomError, SimNanos, StreamId, TraceKind};
use pipad_models::{
    build_model, DgnnModel, EpochReport, GnnExecutor, HostAllocStats, ModelKind, TrainReport,
    TrainingConfig,
};
use pipad_tensor::Matrix;

/// Everything a policy needs from the run it is plugged into.
pub struct RunCx<'a> {
    /// The simulated device.
    pub gpu: &'a mut Gpu,
    /// The dynamic graph being trained on.
    pub graph: &'a DynamicGraph,
    /// Shared training hyper-parameters.
    pub cfg: &'a TrainingConfig,
    /// The model under training (already built on `gpu`).
    pub model: Box<dyn DgnnModel>,
    /// The device's default (compute) stream.
    pub compute: StreamId,
    /// A dedicated copy stream.
    pub copy: StreamId,
}

impl RunCx<'_> {
    /// An eager `train_step` over a frame `exec` has already staged, on a
    /// fresh tape that is torn down afterwards. Returns the loss.
    pub fn step(&mut self, exec: &mut dyn GnnExecutor, frame: &Frame<'_>) -> Result<f32, OomError> {
        let mut tape = Tape::new(self.compute);
        let target = self.graph.target_for(frame.last_index());
        let model = self.model.as_ref();
        let loss = train_step(self.gpu, model, &mut tape, exec, target, self.cfg.lr, false)?;
        tape.finish(self.gpu);
        Ok(loss)
    }
}

/// The training step: forward the frame `exec` has staged, take the MSE
/// loss against `target`, backward, and step SGD on `tape`'s stream.
/// Returns the loss.
///
/// A `replayed` step is captured into a CUDA graph, which cannot branch on
/// the loss: its SGD is always launched and reads the loss's finite flag,
/// leaving every parameter as it was on NaN. An eager step checks the loss
/// on the host and skips the launch when it is not finite.
pub(crate) fn train_step(
    gpu: &mut Gpu,
    model: &dyn DgnnModel,
    tape: &mut Tape,
    exec: &mut dyn GnnExecutor,
    target: &Matrix,
    lr: f32,
    replayed: bool,
) -> Result<f32, OomError> {
    let out = model.forward_frame(gpu, tape, exec)?;
    let loss = tape.mse_loss(gpu, out.pred, target);
    tape.backward_mse(gpu, out.pred, target)?;
    let finite = loss.is_finite();
    if replayed || finite {
        out.binder.apply_sgd(gpu, tape.stream(), tape, lr, finite);
    }
    Ok(loss)
}

/// What one trainer contributes to [`run_epochs`].
pub trait EpochPolicy {
    /// Trainer name — lands in the report and the run fingerprint, so a
    /// checkpoint of one trainer never restores into another.
    fn trainer(&self) -> &'static str;

    /// Index of the first steady epoch. PiPAD needs at least one profiling
    /// epoch (`max(1).min(epochs)`); the one-snapshot trainers only need the
    /// steady window to be non-empty (`min(epochs.saturating_sub(1))`).
    /// Both are 0 for a run of zero epochs.
    fn preparing(&self) -> usize;

    /// Trainer state saved on top of the common sections. Only consulted
    /// when the run has a [`CheckpointPolicy`].
    fn ckpt(&mut self) -> &mut dyn CkptExtra;

    /// Runs after the epoch's start timestamp `t0` is taken.
    fn begin_epoch(&mut self, _cx: &mut RunCx<'_>, _epoch: usize, _t0: SimNanos) {}

    /// Train on one frame — staging, forward, backward, optimizer step,
    /// plus whatever per-frame recovery the trainer implements — and
    /// return the frame's loss. An `Err` aborts the run: the driver rolls
    /// the device back to the model's standing allocations and propagates.
    fn frame(
        &mut self,
        cx: &mut RunCx<'_>,
        epoch: usize,
        fi: usize,
        frame: &Frame<'_>,
    ) -> Result<f32, DeviceFault>;

    /// Runs after the epoch's last frame, before its end timestamp.
    fn end_epoch(&mut self, _cx: &mut RunCx<'_>, _epoch: usize) {}

    /// Runs once after the last epoch, before the run's end timestamp.
    fn finish(&mut self, _cx: &mut RunCx<'_>) {}
}

/// Where an epoch's report counts from: its start time, and the host
/// allocator's and the devices' eager-launch counters at that time.
pub(crate) struct EpochStart {
    t0: SimNanos,
    alloc: HostAllocStats,
    eager_launches: u64,
}

impl EpochStart {
    /// The epoch that starts at `t0` on `gpus`.
    pub(crate) fn capture(gpus: &[Gpu], t0: SimNanos) -> Self {
        EpochStart {
            t0,
            alloc: HostAllocStats::capture(),
            eager_launches: eager_launches(gpus),
        }
    }
}

fn eager_launches(gpus: &[Gpu]) -> u64 {
    gpus.iter().map(|g| g.op_counters().eager_launches).sum()
}

/// Close the epoch that ran from `start` to `t1` with these frame `losses`:
/// write its `epoch` span on every device and return its report. One span
/// schema for every trainer, so the pipeline analyzer (pipad-metrics)
/// windows all of them identically.
pub(crate) fn close_epoch(
    gpus: &mut [Gpu],
    epoch: usize,
    preparing: bool,
    losses: &[f32],
    start: EpochStart,
    t1: SimNanos,
) -> EpochReport {
    let t0 = start.t0;
    let mean_loss = losses.iter().sum::<f32>() / losses.len().max(1) as f32;
    let eager = eager_launches(gpus) - start.eager_launches;
    for gpu in gpus {
        let args = vec![
            ("epoch", ArgValue::U64(epoch as u64)),
            ("preparing", ArgValue::Bool(preparing)),
            ("mean_loss", ArgValue::F64(mean_loss as f64)),
            ("sim_time_ns", ArgValue::U64((t1 - t0).as_nanos())),
        ];
        gpu.trace_mut()
            .span("epoch", TraceKind::Span, Lane::Control, t0, t1, args);
    }
    EpochReport {
        epoch,
        mean_loss,
        sim_time: t1 - t0,
        alloc: HostAllocStats::capture().since(&start.alloc),
        eager_launches: eager,
    }
}

/// Train `model_kind` on `graph` for `cfg.epochs` epochs under `policy`
/// (built by `make_policy` once the streams and the model exist, so its
/// one-off preparation lands on the run's timeline).
///
/// With a `checkpoint` policy the run restores from the newest checkpoint
/// in the directory before the first epoch and writes one every
/// `every_epochs` epochs; a run killed by a `crash` fault (polled at every
/// frame boundary and abandoned as-is, like a process kill) and resumed
/// this way lands on the original run's exact simulated timeline.
pub fn run_epochs<P: EpochPolicy>(
    gpu: &mut Gpu,
    model_kind: ModelKind,
    graph: &DynamicGraph,
    hidden: usize,
    cfg: &TrainingConfig,
    checkpoint: Option<&CheckpointPolicy>,
    make_policy: impl FnOnce(&mut RunCx<'_>) -> P,
) -> Result<TrainReport, DeviceFault> {
    let compute = gpu.default_stream();
    let copy = gpu.create_stream();
    let model = build_model(gpu, model_kind, graph.feature_dim(), hidden, cfg.seed)?;
    // Everything allocated past this mark belongs to the run, not the
    // model: a propagated fault releases it all.
    let standing = gpu.mem_mark();
    let run_t0 = gpu.synchronize();
    let mut cx = RunCx {
        gpu,
        graph,
        cfg,
        model,
        compute,
        copy,
    };
    let mut policy = make_policy(&mut cx);
    let preparing = policy.preparing();
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut steady_t0 = SimNanos::ZERO;
    let mut steady_snap = None;

    // ---- restore-on-start --------------------------------------------------
    // The prologue above rebuilt the model and the policy's one-off state
    // exactly as the original run did (all deterministic in the seed and
    // the graph), on the same timeline. Restoring overwrites parameter
    // values in place, refills the policy's checkpointed state, and finally
    // rewinds the device clock (host lane included) — erasing the
    // prologue's only side effects on the timeline (alloc-counter advances
    // and early-timestamp events), so the resumed epochs land on the
    // original run's exact simulated timeline.
    let fingerprint =
        checkpoint::run_fingerprint(policy.trainer(), model_kind, &graph.name, hidden, cfg);
    let mut start_epoch = 0usize;
    if let Some((ck_epoch, path)) =
        checkpoint.and_then(|p| latest_checkpoint(&p.dir).expect("checkpoint directory unreadable"))
    {
        let ckpt = Checkpoint::read(&path)
            .unwrap_or_else(|e| panic!("checkpoint {} is unreadable: {e}", path.display()));
        let restored =
            checkpoint::restore_run(&ckpt, &fingerprint, cx.model.as_ref(), policy.ckpt())
                .unwrap_or_else(|e| panic!("checkpoint {} failed to restore: {e}", path.display()));
        steady_t0 = restored.steady_t0;
        epochs = restored.epochs_done;
        start_epoch = restored.next_epoch;
        // Emitted at the *prologue* timestamp, i.e. before the clock
        // rewind below: the marker stays outside every epoch's trace
        // window, keeping windowed exports comparable across runs.
        let t = cx.gpu.now_with_host();
        cx.gpu.trace_mut().instant(
            "checkpoint_restore",
            Lane::Control,
            t,
            vec![
                ("epoch", ArgValue::U64(ck_epoch as u64)),
                ("next_epoch", ArgValue::U64(start_epoch as u64)),
            ],
        );
        cx.gpu.restore_clock(&restored.clock);
    }

    for epoch in start_epoch..cfg.epochs {
        cx.gpu.synchronize();
        let t0 = cx.gpu.now_with_host();
        let start = EpochStart::capture(std::slice::from_ref(&*cx.gpu), t0);
        if epoch == preparing {
            steady_snap = Some(cx.gpu.profiler().snapshot());
            steady_t0 = t0;
        }
        policy.begin_epoch(&mut cx, epoch, t0);

        let mut losses = Vec::new();
        for (fi, frame) in FrameIter::new(graph, cfg.window).enumerate() {
            match policy.frame(&mut cx, epoch, fi, &frame) {
                Ok(loss) => losses.push(loss),
                Err(fault) => {
                    cx.gpu.release_since(standing);
                    return Err(fault);
                }
            }
            // Crash faults model a process kill: polled at the frame
            // boundary, the run is abandoned as-is — no cleanup, no
            // checkpoint — and recovery is a fresh process restoring the
            // newest on-disk checkpoint.
            if let Some(c) = cx.gpu.take_crash() {
                return Err(DeviceFault::Crash(c));
            }
        }
        policy.end_epoch(&mut cx, epoch);

        cx.gpu.synchronize();
        let t1 = cx.gpu.now_with_host();
        let gpus = std::slice::from_mut(&mut *cx.gpu);
        epochs.push(close_epoch(
            gpus,
            epoch,
            epoch < preparing,
            &losses,
            start,
            t1,
        ));

        if let Some(ck) = checkpoint.filter(|p| p.should_write(epoch)) {
            let writer = checkpoint::encode_checkpoint(
                &cx,
                &fingerprint,
                epoch + 1,
                steady_t0,
                &epochs,
                policy.ckpt(),
            );
            let (_, bytes) =
                write_checkpoint(&ck.dir, epoch, writer, ck.keep).expect("checkpoint write failed");
            // `bytes` is deterministic (every encoded field is), so the
            // instant survives byte-exact trace comparison across
            // uninterrupted and resumed runs.
            cx.gpu.trace_mut().instant(
                "checkpoint_write",
                Lane::Control,
                t1,
                vec![
                    ("epoch", ArgValue::U64(epoch as u64)),
                    ("bytes", ArgValue::U64(bytes)),
                ],
            );
        }
    }

    policy.finish(&mut cx);
    let gpu = cx.gpu;
    gpu.synchronize();
    let run_t1 = gpu.now_with_host();
    // The profiler renders the trace's kernel, copy and host-op records as
    // samples; debug builds check after every run that both renderings of
    // each record agree.
    #[cfg(debug_assertions)]
    gpu.profiler()
        .consistency_check(gpu.trace())
        .expect("profiler and trace diverged over this training run");
    let steady_snap = steady_snap.unwrap_or_else(|| gpu.profiler().snapshot());
    let steady = gpu.profiler().window(steady_snap);
    let steady_epochs = cfg.epochs.saturating_sub(preparing).max(1);
    Ok(TrainReport {
        trainer: policy.trainer().to_string(),
        model: model_kind,
        dataset: graph.name.clone(),
        epochs,
        total_time: run_t1 - run_t0,
        steady_epoch_time: SimNanos::from_nanos(
            (run_t1 - steady_t0).as_nanos() / steady_epochs as u64,
        ),
        steady,
        peak_mem: gpu.mem().peak_ever(),
    })
}
