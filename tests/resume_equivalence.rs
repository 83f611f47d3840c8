//! Kill-and-resume equivalence gate (the checkpoint subsystem's headline
//! contract).
//!
//! For every paper model, in every `pipad_bench::HOST_MATRIX` cell (host
//! threads × buffer pool on/off), a PiPAD run killed mid-steady-epoch by
//! an injected `crash` fault and resumed from its newest checkpoint must
//! reproduce the uninterrupted run **bit for bit**: identical loss bits
//! for every epoch, identical reuse-store counters in the trace meta, and a
//! byte-identical Chrome-trace export of the final steady epoch's window —
//! and all of them must be the same in every cell.

use pipad::{train_pipad, PipadConfig};
use pipad_bench::host_invariant;
use pipad_bench::util::ScratchDir;
use pipad_repro::ckpt::{latest_checkpoint, CheckpointPolicy};
use pipad_repro::dyngraph::{DatasetId, Scale};
use pipad_repro::gpu_sim::{
    export_chrome_trace_window, last_span_window, CrashCounter, CrashPoint, DeviceConfig,
    DeviceFault, FaultPlan, Gpu,
};
use pipad_repro::models::{ModelKind, TrainingConfig};
use std::path::Path;

fn cfg() -> TrainingConfig {
    // 2 preparing + 4 steady epochs → checkpoints at epochs 1, 3, 5.
    TrainingConfig {
        window: 8,
        epochs: 6,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 3,
    }
}

/// Launches issued by a prefix run of `preparing_epochs + 2` epochs, which
/// ends where the full run writes its first steady checkpoint. Checkpoint
/// writes launch nothing, so the probe runs without them.
fn first_steady_checkpoint_launches(model: ModelKind) -> u64 {
    let g = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let cfg = cfg();
    let prefix_cfg = TrainingConfig {
        epochs: cfg.preparing_epochs + 2,
        ..cfg
    };
    let mut g0 = Gpu::new(DeviceConfig::v100());
    train_pipad(&mut g0, model, &g, 8, &prefix_cfg, &PipadConfig::default())
        .unwrap_or_else(|e| panic!("{}: prefix run failed: {e}", model.name()));
    g0.op_counters().launches
}

/// Returns what the resumed run reproduced (loss bits, final-epoch trace
/// export) so the caller can also compare it across host configurations.
fn assert_kill_and_resume_is_invisible(
    model: ModelKind,
    prefix_launches: u64,
    base: &Path,
) -> (Vec<u32>, String) {
    let g = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let cfg = cfg();
    let pcfg_for = |dir: &str| PipadConfig {
        checkpoint: Some(CheckpointPolicy::new(base.join(dir), 2)),
        ..PipadConfig::default()
    };

    // Reference: never interrupted (checkpointing on, so both runs emit
    // identical checkpoint_write instants).
    let mut g1 = Gpu::new(DeviceConfig::v100());
    let reference = train_pipad(&mut g1, model, &g, 8, &cfg, &pcfg_for("ref"))
        .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", model.name()));

    // The crash is placed by probe: halfway from the first steady
    // checkpoint's launch count to the full run's is mid-steady, past that
    // checkpoint.
    let crash_at = (prefix_launches + g1.op_counters().launches) / 2;

    let mut g2 = Gpu::new(DeviceConfig::v100());
    g2.install_faults(FaultPlan {
        crash: Some(CrashPoint {
            counter: CrashCounter::Launches,
            at: crash_at,
        }),
        ..FaultPlan::default()
    });
    let err = train_pipad(&mut g2, model, &g, 8, &cfg, &pcfg_for("killed"))
        .expect_err("crash fault must abort the run");
    assert!(matches!(err, DeviceFault::Crash(_)), "{err}");
    let (newest, _) = latest_checkpoint(&base.join("killed"))
        .expect("checkpoint directory readable")
        .expect("the killed run left a checkpoint");
    assert!(
        newest >= cfg.preparing_epochs,
        "{}: the crash at launch {crash_at} left only the epoch-{newest} checkpoint, \
         so the steady-state restore path went untested",
        model.name()
    );

    // Resumed: fresh device, restore from the killed run's checkpoint.
    let mut g3 = Gpu::new(DeviceConfig::v100());
    let resumed = train_pipad(&mut g3, model, &g, 8, &cfg, &pcfg_for("killed"))
        .unwrap_or_else(|e| panic!("{}: resumed run failed: {e}", model.name()));

    let a: Vec<u32> = reference.losses().iter().map(|l| l.to_bits()).collect();
    let b: Vec<u32> = resumed.losses().iter().map(|l| l.to_bits()).collect();
    assert_eq!(a, b, "{}: kill-and-resume changed the losses", model.name());

    // The reuse counters continue the killed run's; the `pool_*` keys are
    // host-side and differ by design.
    let reuse_meta = |gpu: &Gpu| -> Vec<(&'static str, u64)> {
        let meta = gpu.trace().meta();
        meta.filter(|(k, _)| k.starts_with("reuse_")).collect()
    };
    assert_eq!(reuse_meta(&g1).len(), 4, "{}", model.name());
    assert_eq!(
        reuse_meta(&g1),
        reuse_meta(&g3),
        "{}: kill-and-resume lost reuse counters",
        model.name()
    );

    let wa = last_span_window(g1.trace(), "epoch").unwrap();
    let wb = last_span_window(g3.trace(), "epoch").unwrap();
    assert_eq!(wa, wb, "{}: final epoch timeline drifted", model.name());
    let ea = export_chrome_trace_window(g1.trace(), 1, wa.0, wa.1);
    let eb = export_chrome_trace_window(g3.trace(), 1, wb.0, wb.1);
    assert_eq!(ea, eb, "{}: final epoch trace window differs", model.name());
    (b, eb)
}

#[test]
fn kill_and_resume_is_bit_identical_for_all_models_pool_on_and_off() {
    for model in [ModelKind::EvolveGcn, ModelKind::MpnnLstm, ModelKind::TGcn] {
        let prefix_launches = first_steady_checkpoint_launches(model);
        host_invariant(model.name(), || {
            let dir = ScratchDir::new("resume-equivalence");
            assert_kill_and_resume_is_invisible(model, prefix_launches, dir.path())
        });
    }
}
