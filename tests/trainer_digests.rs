//! Trainer digests: one golden file pinning what every single-device
//! trainer produces at tiny scale — `train_pipad` and the four
//! `BaselineKind`s, for every `ModelKind`.
//!
//! Per run: per-epoch loss bits, per-epoch simulated time, and the CRC-32
//! of the full exported Chrome trace. PiPAD and PyGT-R run with a
//! `CheckpointPolicy`, and additionally pin CRC-32 + length of the newest
//! checkpoint *file* — both of an uninterrupted run and of a run killed
//! mid-steady-epoch and resumed (the two must agree: a resumed run
//! continues the original's statistics).
//!
//! The golden was recorded before the trainers were folded onto the shared
//! epoch driver; it is the gate that the refactor moved no loss bit, no
//! trace byte and no checkpoint byte. Rerun with `UPDATE_GOLDEN=1` only
//! for an intentional behaviour change, and review the diff.
//!
//! `train_data_parallel` has its own rows, `<model>/DP-<devices>` for the
//! three paper models at 1, 2 and 4 devices over the default four virtual
//! shards: the same loss bits and epoch times, one trace CRC per device.
//!
//! Every row's devices also pass `Profiler::consistency_check` against their
//! trace (each kernel, copy and host-op record renders the same as a sample
//! and as an exported span): the trainers run it themselves only under
//! `debug_assertions`, and `scripts/check.sh` runs this file `--release` as
//! well.
//!
//! The same trainer table drives the failure contract: a propagated fault
//! leaves only the model's parameters on the device.

use pipad::{
    train_data_parallel, train_data_parallel_devices, train_pipad, MultiGpuConfig, PipadConfig,
};
use pipad_ckpt::{crc32, latest_checkpoint, CheckpointPolicy};
use pipad_dyngraph::{DatasetId, DynamicGraph, Scale};
use pipad_gpu_sim::{
    export_chrome_trace, CrashCounter, CrashPoint, DeviceConfig, DeviceFault, FaultPlan, Gpu,
};
use pipad_models::{build_model, ModelKind, TrainReport, TrainingConfig};
use pipad_repro::baselines::{train_baseline_resumable, BaselineKind};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const HIDDEN: usize = 8;

fn cfg() -> TrainingConfig {
    TrainingConfig {
        window: 8,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 7,
    }
}

/// A checkpoint directory unique per call (pid + process-wide counter).
fn temp_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pipad-digests-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The single-device trainers, one variant per public entry point (the
/// baseline kinds share `train_baseline`).
#[derive(Clone, Copy)]
enum Trainer {
    Pipad,
    Baseline(BaselineKind),
}

impl Trainer {
    const ALL: [Trainer; 5] = [
        Trainer::Pipad,
        Trainer::Baseline(BaselineKind::Pygt),
        Trainer::Baseline(BaselineKind::PygtA),
        Trainer::Baseline(BaselineKind::PygtR),
        Trainer::Baseline(BaselineKind::PygtG),
    ];

    fn name(self) -> &'static str {
        match self {
            Trainer::Pipad => "PiPAD",
            Trainer::Baseline(k) => k.name(),
        }
    }

    fn run(
        self,
        gpu: &mut Gpu,
        model: ModelKind,
        graph: &DynamicGraph,
        cfg: &TrainingConfig,
        policy: Option<&CheckpointPolicy>,
    ) -> Result<TrainReport, DeviceFault> {
        match self {
            Trainer::Pipad => {
                let pcfg = PipadConfig {
                    checkpoint: policy.cloned(),
                    ..Default::default()
                };
                train_pipad(gpu, model, graph, HIDDEN, cfg, &pcfg)
            }
            Trainer::Baseline(kind) => {
                train_baseline_resumable(gpu, kind, model, graph, HIDDEN, cfg, policy)
            }
        }
    }
}

/// `"<crc>, <len>"` of the newest checkpoint file. The CRC covers the file
/// *without* its trailing 4-byte `file_crc`: CRC-32 of a message followed
/// by its own CRC is the constant residue 0x2144DF1C for every file, which
/// would pin nothing.
fn newest_checkpoint_digest(policy: &CheckpointPolicy) -> String {
    let (_, path) = latest_checkpoint(&policy.dir)
        .expect("checkpoint dir readable")
        .expect("at least one checkpoint written");
    let bytes = std::fs::read(path).expect("read checkpoint");
    format!("{}, {}", crc32(&bytes[..bytes.len() - 4]), bytes.len())
}

/// The profiler is a view of the trace's records; its samples must agree
/// with the exported spans in the profile the digests are checked in.
fn consistent(gpu: &Gpu, trainer: &str, model: ModelKind) {
    gpu.profiler()
        .consistency_check(gpu.trace())
        .unwrap_or_else(|e| {
            panic!(
                "{trainer} {}: profiler and trace diverged: {e}",
                model.name()
            )
        });
}

/// One golden line for `trainer` × `model`.
fn digest(trainer: Trainer, model: ModelKind, graph: &DynamicGraph) -> String {
    // PiPAD and PyGT-R exercise the checkpoint codec (the latter with its
    // optional `reuse_cpu` section).
    let checkpoints = matches!(
        trainer,
        Trainer::Pipad | Trainer::Baseline(BaselineKind::PygtR)
    );
    let dir = temp_dir();
    let policy = checkpoints.then(|| CheckpointPolicy::new(dir.join("ref"), 2));
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let report = trainer
        .run(&mut gpu, model, graph, &cfg(), policy.as_ref())
        .unwrap_or_else(|e| panic!("{} {}: {e}", trainer.name(), model.name()));
    assert_eq!(report.trainer, trainer.name());
    consistent(&gpu, trainer.name(), model);

    let join = |it: &mut dyn Iterator<Item = String>| it.collect::<Vec<_>>().join(", ");
    let mut line = format!(
        "  \"{}/{}\": {{\"loss_bits\": [{}], \"sim_ns\": [{}], \"trace_crc\": {}",
        model.name(),
        trainer.name(),
        join(
            &mut report
                .epochs
                .iter()
                .map(|e| e.mean_loss.to_bits().to_string())
        ),
        join(
            &mut report
                .epochs
                .iter()
                .map(|e| e.sim_time.as_nanos().to_string())
        ),
        crc32(export_chrome_trace(gpu.trace(), 0).as_bytes()),
    );

    if let Some(policy) = &policy {
        write!(
            line,
            ", \"ckpt_crc_len\": [{}]",
            newest_checkpoint_digest(policy)
        )
        .unwrap();

        // Kill at ~70 % of the launch stream (mid steady epoch), resume in
        // a fresh "process" from the killed run's newest checkpoint.
        let killed = CheckpointPolicy::new(dir.join("killed"), 2);
        let mut g2 = Gpu::new(DeviceConfig::v100());
        g2.install_faults(FaultPlan {
            crash: Some(CrashPoint {
                counter: CrashCounter::Launches,
                at: gpu.op_counters().launches * 7 / 10,
            }),
            ..Default::default()
        });
        let err = trainer
            .run(&mut g2, model, graph, &cfg(), Some(&killed))
            .expect_err("crash fault must abort the run");
        assert!(matches!(err, DeviceFault::Crash(_)), "{err}");
        let mut g3 = Gpu::new(DeviceConfig::v100());
        let resumed = trainer
            .run(&mut g3, model, graph, &cfg(), Some(&killed))
            .expect("resumed run");
        consistent(&g3, trainer.name(), model);
        write!(
            line,
            ", \"resumed_loss_bits\": [{}], \"resumed_ckpt_crc_len\": [{}]",
            join(
                &mut resumed
                    .epochs
                    .iter()
                    .map(|e| e.mean_loss.to_bits().to_string())
            ),
            newest_checkpoint_digest(&killed)
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).expect("cleanup checkpoints");
    }
    line.push('}');
    line
}

/// One golden line for the data-parallel trainer on `n_gpus` devices.
fn dp_digest(model: ModelKind, n_gpus: usize, graph: &DynamicGraph) -> String {
    let mcfg = MultiGpuConfig {
        n_gpus,
        ..Default::default()
    };
    let (report, gpus) = train_data_parallel_devices(model, graph, HIDDEN, &cfg(), &mcfg)
        .unwrap_or_else(|e| panic!("DP-{n_gpus} {}: {e}", model.name()));
    gpus.iter().for_each(|g| consistent(g, "DP", model));
    let join = |it: &mut dyn Iterator<Item = String>| it.collect::<Vec<_>>().join(", ");
    let epochs = report.epochs.iter();
    format!(
        "  \"{}/DP-{n_gpus}\": {{\"loss_bits\": [{}], \"sim_ns\": [{}], \"trace_crc\": [{}]}}",
        model.name(),
        join(&mut epochs.clone().map(|e| e.mean_loss.to_bits().to_string())),
        join(&mut epochs.map(|e| e.sim_time.as_nanos().to_string())),
        join(
            &mut report
                .traces
                .iter()
                .map(|t| crc32(t.as_bytes()).to_string())
        ),
    )
}

#[test]
fn every_trainer_matches_its_recorded_digest() {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let mut lines = Vec::new();
    // `ALL` back to front is the order the rows were first recorded in.
    for model in ModelKind::ALL.into_iter().rev() {
        for trainer in Trainer::ALL {
            lines.push(digest(trainer, model, &graph));
        }
    }
    for model in ModelKind::ALL.into_iter().rev() {
        for n_gpus in [1, 2, 4] {
            lines.push(dp_digest(model, n_gpus, &graph));
        }
    }
    let got = format!("{{\n{}\n}}\n", lines.join(",\n"));
    pipad_gpu_sim::validate_json(&got).expect("well-formed");

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/trainer_digests.json"
        );
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = include_str!("golden/trainer_digests.json");
    assert_eq!(
        got, want,
        "a trainer's losses, simulated timeline, trace bytes or checkpoint \
         bytes moved (tests/golden/trainer_digests.json); if intentional, \
         rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// A fault that propagates out of any trainer leaves exactly the model's
/// parameters on the device — not the failed frame's staging — and a
/// device too small for the model itself leaves nothing. (Crash faults are the deliberate exception: they model a
/// process kill and abandon the device as-is.)
#[test]
fn propagated_oom_leaves_only_the_model_resident() {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let model = ModelKind::TGcn;
    let model_bytes = {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        build_model(&mut gpu, model, graph.feature_dim(), HIDDEN, cfg().seed).expect("build");
        gpu.mem().in_use()
    };
    // (capacity, bytes resident after the failure)
    let cases = [(model_bytes + (256 << 10), model_bytes), (64, 0)];
    for trainer in Trainer::ALL {
        for (capacity, resident) in cases {
            let mut gpu = Gpu::new(DeviceConfig::with_capacity(capacity));
            let err = trainer
                .run(&mut gpu, model, &graph, &cfg(), None)
                .expect_err("capacity is too small to train");
            assert!(
                matches!(err, DeviceFault::Oom(_)),
                "{}: {err}",
                trainer.name()
            );
            assert_eq!(
                gpu.mem().in_use(),
                resident,
                "{} at capacity {capacity} leaked device memory",
                trainer.name()
            );
        }
    }
}

/// `epochs: 0` asks for nothing and gets an empty report from every
/// trainer — the epoch loops already cope with zero iterations (a resume
/// from the final checkpoint runs none), so the arithmetic around them must.
#[test]
fn zero_epochs_is_an_empty_report() {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let zero = TrainingConfig { epochs: 0, ..cfg() };
    for model in ModelKind::ALL {
        for trainer in Trainer::ALL {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            let report = trainer
                .run(&mut gpu, model, &graph, &zero, None)
                .unwrap_or_else(|e| panic!("{} {}: {e}", trainer.name(), model.name()));
            assert!(report.epochs.is_empty(), "{}", trainer.name());
        }
        let report = train_data_parallel(model, &graph, HIDDEN, &zero, &MultiGpuConfig::default())
            .unwrap_or_else(|e| panic!("DP {}: {e}", model.name()));
        assert!(report.epochs.is_empty(), "DP {}", model.name());
    }
}
