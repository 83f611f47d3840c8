//! `repro resume` — kill-and-resume determinism demonstration.
//!
//! For each paper model (EvolveGCN, MPNN-LSTM, T-GCN) the experiment runs
//! the PiPAD trainer three times on COVID-19-England with checkpointing
//! every 2 epochs:
//!
//! 1. **reference** — never interrupted;
//! 2. **killed** — an injected `crash` fault aborts the run at ~70% of
//!    the reference's kernel-launch stream (mid steady epoch);
//! 3. **resumed** — a fresh device restores the killed run's newest
//!    checkpoint and finishes the schedule.
//!
//! The resumed run must reproduce the reference **bit for bit**: identical
//! loss bits for every epoch and a byte-identical Chrome-trace export of
//! the final steady epoch's window. A fourth row repeats the exercise for
//! the PyGT-R baseline (losses + per-epoch simulated time; the baselines
//! keep no epoch spans to window a trace by).
//!
//! Everything is a pure function of the workload: `run` re-measures in
//! every [`HOST_MATRIX`](crate::util::HOST_MATRIX) cell and asserts
//! identical artifacts. Checkpoints live in a [`ScratchDir`] that never
//! appears in the artifacts.

use crate::util::{
    check_consistency, dataset, default_training_config, host_invariant, Artifact, RunScale,
    ScratchDir,
};
use pipad::{train_pipad, PipadConfig};
use pipad_baselines::{train_baseline_resumable, BaselineKind};
use pipad_ckpt::{latest_checkpoint, CheckpointPolicy};
use pipad_dyngraph::DatasetId;
use pipad_gpu_sim::{
    export_chrome_trace_window, last_span_window, validate_json, CrashCounter, CrashPoint,
    DeviceConfig, DeviceFault, FaultPlan, Gpu,
};
use pipad_models::{ModelKind, TrainReport, TrainingConfig};
use std::fmt::Write as _;
use std::path::Path;

/// Checkpoint cadence used by every run of the experiment.
const EVERY_EPOCHS: usize = 2;
/// Crash point as a fraction of the reference run's launch stream.
const CRASH_NUM: u64 = 7;
const CRASH_DEN: u64 = 10;

/// One trainer×model row of the report.
struct Row {
    trainer: &'static str,
    model: &'static str,
    epochs: usize,
    crash_at_launches: u64,
    resume_from_epoch: usize,
    ckpt_bytes: u64,
    losses_bitwise_match: bool,
    trace_check: &'static str,
    trace_match: bool,
    trace_window_bytes: usize,
}

fn crash_plan(at: u64) -> FaultPlan {
    FaultPlan {
        crash: Some(CrashPoint {
            counter: CrashCounter::Launches,
            at,
        }),
        ..FaultPlan::default()
    }
}

fn loss_bits(r: &TrainReport) -> Vec<u32> {
    r.losses().iter().map(|l| l.to_bits()).collect()
}

/// Newest checkpoint in `dir`: (first epoch the resumed run executes,
/// file size in bytes).
fn newest_ckpt(dir: &Path) -> (usize, u64) {
    let (epoch, path) = latest_checkpoint(dir)
        .expect("checkpoint directory unreadable")
        .expect("killed run left no checkpoint");
    let bytes = std::fs::metadata(&path)
        .expect("checkpoint unreadable")
        .len();
    (epoch + 1, bytes)
}

/// The reference / killed / resumed triple every row is built from.
struct KillAndResume {
    /// Device and report of the uninterrupted run.
    reference: (Gpu, TrainReport),
    /// Device and report of the run resumed from the killed run's newest
    /// checkpoint.
    resumed: (Gpu, TrainReport),
    crash_at: u64,
    resume_from: usize,
    ckpt_bytes: u64,
}

/// Run `train` three times with checkpoints under `dir` — uninterrupted,
/// killed at ~70% of the reference's launch stream, resumed on a fresh
/// device — and assert the resumed losses match the reference bit for bit.
fn kill_and_resume(
    what: &str,
    dir: &Path,
    train: impl Fn(&mut Gpu, CheckpointPolicy) -> Result<TrainReport, DeviceFault>,
) -> KillAndResume {
    let policy_for = |sub: &str| CheckpointPolicy::new(dir.join(sub), EVERY_EPOCHS);

    let mut g1 = Gpu::new(DeviceConfig::v100());
    let reference = train(&mut g1, policy_for("ref"))
        .unwrap_or_else(|e| panic!("{what}: reference run failed: {e}"));
    let crash_at = g1.op_counters().launches * CRASH_NUM / CRASH_DEN;

    let mut g2 = Gpu::new(DeviceConfig::v100());
    g2.install_faults(crash_plan(crash_at));
    let err = train(&mut g2, policy_for("killed")).expect_err("crash fault must abort the run");
    assert!(matches!(err, DeviceFault::Crash(_)), "{what}: {err}");
    let (resume_from, ckpt_bytes) = newest_ckpt(&dir.join("killed"));

    let mut g3 = Gpu::new(DeviceConfig::v100());
    let resumed = train(&mut g3, policy_for("killed"))
        .unwrap_or_else(|e| panic!("{what}: resumed run failed: {e}"));

    assert!(
        loss_bits(&reference) == loss_bits(&resumed),
        "{what}: resume changed the losses"
    );
    check_consistency(&g1);
    check_consistency(&g3);
    KillAndResume {
        reference: (g1, reference),
        resumed: (g3, resumed),
        crash_at,
        resume_from,
        ckpt_bytes,
    }
}

fn pipad_row(scale: RunScale, model: ModelKind, cfg: &TrainingConfig, base: &Path) -> Row {
    let graph = dataset(DatasetId::Covid19England, scale);
    let k = kill_and_resume(model.name(), &base.join(model.name()), |gpu, policy| {
        let pcfg = PipadConfig {
            checkpoint: Some(policy),
            ..PipadConfig::default()
        };
        train_pipad(gpu, model, &graph, 16, cfg, &pcfg)
    });

    let (g1, g3) = (&k.reference.0, &k.resumed.0);
    let wa = last_span_window(g1.trace(), "epoch").expect("reference has no epoch span");
    let wb = last_span_window(g3.trace(), "epoch").expect("resumed run has no epoch span");
    let ea = export_chrome_trace_window(g1.trace(), 1, wa.0, wa.1);
    let eb = export_chrome_trace_window(g3.trace(), 1, wb.0, wb.1);
    let trace_match = wa == wb && ea == eb;
    assert!(trace_match, "{}: final epoch trace differs", model.name());

    Row {
        trainer: "PiPAD",
        model: model.name(),
        epochs: cfg.epochs,
        crash_at_launches: k.crash_at,
        resume_from_epoch: k.resume_from,
        ckpt_bytes: k.ckpt_bytes,
        losses_bitwise_match: true,
        trace_check: "final_epoch_trace_window",
        trace_match,
        trace_window_bytes: ea.len(),
    }
}

fn baseline_row(scale: RunScale, cfg: &TrainingConfig, base: &Path) -> Row {
    let graph = dataset(DatasetId::Covid19England, scale);
    let model = ModelKind::TGcn;
    let kind = BaselineKind::PygtR;
    let k = kill_and_resume(kind.name(), &base.join(kind.name()), |gpu, policy| {
        train_baseline_resumable(gpu, kind, model, &graph, 16, cfg, Some(&policy))
    });

    let times_match = (k.reference.1.epochs.iter())
        .zip(&k.resumed.1.epochs)
        .all(|(a, b)| a.sim_time == b.sim_time);
    assert!(times_match, "baseline resume left the simulated timeline");

    Row {
        trainer: kind.name(),
        model: model.name(),
        epochs: cfg.epochs,
        crash_at_launches: k.crash_at,
        resume_from_epoch: k.resume_from,
        ckpt_bytes: k.ckpt_bytes,
        losses_bitwise_match: true,
        trace_check: "epoch_sim_times",
        trace_match: times_match,
        trace_window_bytes: 0,
    }
}

/// Run every row once and render both artifacts.
fn measure(scale: RunScale) -> Artifact {
    // 2 preparing + 4 steady epochs → checkpoints at epochs 1, 3, 5; the
    // 70% crash lands mid-steady, past at least one steady checkpoint.
    let cfg = TrainingConfig {
        epochs: 6,
        ..default_training_config(scale)
    };
    let base = ScratchDir::new("resume");

    let mut rows = Vec::new();
    for model in [ModelKind::EvolveGcn, ModelKind::MpnnLstm, ModelKind::TGcn] {
        rows.push(pipad_row(scale, model, &cfg, base.path()));
    }
    rows.push(baseline_row(scale, &cfg, base.path()));

    let mut json = String::from("{\"experiment\":\"resume\"");
    let _ = write!(
        json,
        ",\"scale\":{:?},\"epochs\":{},\"every_epochs\":{},\"rows\":[",
        scale.label(),
        cfg.epochs,
        EVERY_EPOCHS
    );
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "resume: COVID-19-England ({}), {} epochs, checkpoint every {}, crash at {}0% of launches",
        scale.label(),
        cfg.epochs,
        EVERY_EPOCHS,
        CRASH_NUM
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"trainer\":{:?},\"model\":{:?},\"epochs\":{},\"crash_at_launches\":{},\
             \"resume_from_epoch\":{},\"ckpt_bytes\":{},\"losses_bitwise_match\":{},\
             \"trace_check\":{:?},\"trace_match\":{},\"trace_window_bytes\":{}}}",
            r.trainer,
            r.model,
            r.epochs,
            r.crash_at_launches,
            r.resume_from_epoch,
            r.ckpt_bytes,
            r.losses_bitwise_match,
            r.trace_check,
            r.trace_match,
            r.trace_window_bytes
        );
        let _ = writeln!(
            summary,
            "  {:<7} {:<10} crash@{:>6} launches, resumed from epoch {}, ckpt {:>6} B: \
             losses bit-identical, {} match",
            r.trainer,
            r.model,
            r.crash_at_launches,
            r.resume_from_epoch,
            r.ckpt_bytes,
            r.trace_check
        );
    }
    json.push_str("]}");
    validate_json(&json).expect("resume report is not well-formed JSON");
    let _ = writeln!(
        summary,
        "all rows reproduce the uninterrupted run bit for bit after kill-and-resume"
    );
    Artifact { json, summary }
}

/// Run the resume experiment (`results/resume.{json,txt}`) under the
/// host-determinism contract.
pub fn run(scale: RunScale) -> Artifact {
    host_invariant("resume report", || measure(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_resume_is_deterministic_across_threads_and_pool() {
        let art = run(RunScale::Tiny);
        assert!(art.json.starts_with("{\"experiment\":\"resume\""));
        for needle in ["\"EvolveGCN\"", "\"MPNN-LSTM\"", "\"T-GCN\"", "\"PyGT-R\""] {
            assert!(art.json.contains(needle), "missing {needle}");
        }
        assert!(
            !art.json.contains("tmp"),
            "temp paths leaked into the report"
        );
        assert!(art.summary.contains("bit for bit"));
    }
}
