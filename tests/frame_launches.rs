//! One launch per frame for the work that used to launch once per timestep
//! or once per parameter, and a steady frame that is one graph replay from
//! forward to optimiser step: the launch census of a frame, the eager
//! launches of a preparing and of a steady epoch, what a captured or
//! replayed step does when the loss it guards is not finite, and a served
//! frame that replays its capture.

use pipad_repro::autograd::Tape;
use pipad_repro::ckpt::{checkpoint_path, Checkpoint, CheckpointPolicy};
use pipad_repro::dyngraph::{DatasetId, DynamicGraph, FrameIter, Scale};
use pipad_repro::gpu_sim::{
    ArgValue, DeviceConfig, FaultPlan, Gpu, KernelCategory, SampleKind, TraceEvent, TraceKind,
};
use pipad_repro::models::{build_model, DirectExecutor, ModelKind, TrainingConfig};
use pipad_repro::pipad::{train_pipad, PipadConfig};
use pipad_repro::serve::{EngineConfig, ServeEngine};
use pipad_repro::sparse::Csr;
use pipad_repro::tensor::{seeded_rng, uniform, Matrix};

fn covid() -> DynamicGraph {
    DatasetId::Covid19England.gen_config(Scale::Tiny).generate()
}

/// One training frame of every model through the tape: MPNN-LSTM projects
/// each LSTM's inputs in one GEMM per frame (two, where one per LSTM and
/// timestep made `2W`), and every model steps its optimiser in one launch
/// (one per parameter before).
#[test]
fn a_frame_projects_each_lstm_once_and_steps_the_optimiser_once() {
    let (n, window, dim, hidden) = (6, 5, 3, 4);
    let mut rng = seeded_rng(31);
    let ring: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|v| [(v, (v + 1) % n as u32), ((v + 1) % n as u32, v)])
        .collect();
    let frame: Vec<(Csr, Matrix)> = (0..window)
        .map(|_| (Csr::from_edges(n, n, &ring), uniform(&mut rng, n, dim, 1.0)))
        .collect();
    for kind in ModelKind::ALL {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let stream = gpu.default_stream();
        let model = build_model(&mut gpu, kind, dim, hidden, 3).unwrap();
        let target = uniform(&mut rng, n, model.out_dim(), 0.5);
        let slots: Vec<(&Csr, &Matrix)> = frame.iter().map(|(a, f)| (a, f)).collect();
        let mut exec = DirectExecutor::new(&slots);
        let mut tape = Tape::new(stream);
        let out = model.forward_frame(&mut gpu, &mut tape, &mut exec).unwrap();
        let forward: Vec<_> = gpu.profiler().samples().iter().collect();
        tape.backward_mse(&mut gpu, out.pred, &target).unwrap();
        let swept = gpu.profiler().snapshot();
        out.binder.apply_sgd(&mut gpu, stream, &tape, 0.01, true);
        let step: Vec<&str> = gpu
            .profiler()
            .samples()
            .since(swept)
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(step, ["sgd_step"], "{kind:?}");
        assert!(out.binder.bindings().len() > 1, "{kind:?}");

        if kind == ModelKind::MpnnLstm {
            let rnn_gemms = forward
                .iter()
                .filter(|s| s.name == "gemm")
                .filter(|s| matches!(s.kind, SampleKind::Kernel(k) if k.category == KernelCategory::Rnn))
                .count();
            // One `h·Wh` per LSTM and timestep; the rest project inputs.
            assert_eq!(
                rnn_gemms - 2 * window,
                2,
                "input-projection GEMMs per frame"
            );
        }
        tape.finish(&mut gpu);
    }
}

fn tiny_cfg(epochs: usize) -> TrainingConfig {
    TrainingConfig {
        window: 8,
        epochs,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 3,
    }
}

/// The steady frame's whole kernel stream — forward, loss, backward and
/// optimiser step — is one graph replay: a steady epoch of `train_pipad`
/// pays the eager launch overhead for nothing, for every model.
#[test]
fn a_steady_epoch_launches_nothing_outside_a_graph() {
    let graph = covid();
    let pcfg = PipadConfig::default();
    for kind in ModelKind::ALL {
        let counters = |epochs| {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            train_pipad(&mut gpu, kind, &graph, 8, &tiny_cfg(epochs), &pcfg).unwrap();
            gpu.op_counters()
        };
        // The same two preparing epochs, then one steady epoch or none.
        let (prep, run) = (counters(2), counters(3));
        assert!(
            prep.eager_launches > 0,
            "{kind:?}: preparing epochs launch eagerly"
        );
        assert!(
            run.launches > prep.launches,
            "{kind:?}: the steady epoch ran"
        );
        assert_eq!(
            run.eager_launches - prep.eager_launches,
            0,
            "{kind:?}: eager launches in the steady epoch"
        );
    }
}

/// A preparing epoch replays what it captured: the second of two
/// preparing epochs finds every snapshot's layer-1 aggregation in the CPU
/// reuse tier, so all its frames share one topology, and only its first
/// frame, the capture, launches eagerly.
#[test]
fn a_preparing_epoch_launches_eagerly_only_its_captures() {
    let graph = covid();
    let cfg = tiny_cfg(2);
    let frames = FrameIter::count_frames(&graph, cfg.window) as u64;
    for kind in ModelKind::ALL {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let r = train_pipad(&mut gpu, kind, &graph, 8, &cfg, &PipadConfig::default()).unwrap();
        let epoch = gpu.trace().events().iter().filter(|e| e.name == "epoch");
        let last = epoch.last().unwrap();
        let events = gpu.trace().events();
        let kernels = events.iter().filter(|e| e.kind == TraceKind::Kernel);
        let launches = kernels.filter(|e| e.ts >= last.ts && e.end() <= last.end());
        let eager = r.epochs[1].eager_launches;
        assert!(eager > 0, "{kind:?}: the capture launches eagerly");
        assert_eq!(launches.count() as u64, frames * eager, "{kind:?}");
    }
}

fn recovery_policies(gpu: &Gpu) -> Vec<(ArgValue, ArgValue)> {
    let arg = |e: &TraceEvent, key: &str| e.args.iter().find(|(k, _)| *k == key).unwrap().1.clone();
    let events = gpu.trace().events().iter().filter(|e| e.name == "recovery");
    events
        .map(|e| (arg(&e, "policy"), arg(&e, "epoch")))
        .collect()
}

/// A captured step cannot branch on the loss the host has not read: it is
/// launched anyway and reads the loss's device-side finite flag. With one
/// frame per epoch, a steady frame whose prediction is poisoned must leave
/// the parameters of the checkpoint before it bit for bit, launch its step
/// all the same, and record the `nan_skip` the eager path records.
#[test]
fn a_poisoned_loss_launches_its_step_and_writes_nothing() {
    let graph = covid();
    let cfg = TrainingConfig {
        window: graph.len() - 1,
        ..tiny_cfg(3)
    };
    let kernels = |gpu: &Gpu| -> Vec<&'static str> {
        let samples = gpu.profiler().samples().iter();
        let kernels = samples.filter(|s| matches!(s.kind, SampleKind::Kernel(_)));
        kernels.map(|s| s.name).collect()
    };
    for kind in ModelKind::ALL {
        let dir = std::env::temp_dir().join(format!(
            "pipad-frame-launches-{kind:?}-{}",
            std::process::id()
        ));
        let run = |plan: FaultPlan| {
            let _ = std::fs::remove_dir_all(&dir);
            let pcfg = PipadConfig {
                checkpoint: Some(CheckpointPolicy::new(&dir, 1)),
                ..Default::default()
            };
            let mut gpu = Gpu::new(DeviceConfig::v100());
            gpu.install_faults(plan);
            train_pipad(&mut gpu, kind, &graph, 8, &cfg, &pcfg).unwrap();
            let params = |epoch| {
                let ckpt = Checkpoint::read(&checkpoint_path(&dir, epoch)).unwrap();
                ckpt.section("params").unwrap().to_vec()
            };
            let (prepared, stepped) = (params(1), params(2));
            std::fs::remove_dir_all(&dir).unwrap();
            (gpu, prepared, stepped)
        };
        let (clean, prepared, stepped) = run(FaultPlan::default());
        assert_ne!(prepared, stepped, "{kind:?}: a clean steady frame steps");
        assert!(recovery_policies(&clean).is_empty(), "{kind:?}");

        // Poison the prediction: the steady frame's last bias add before
        // backward seeds its gradient.
        let launched = kernels(&clean);
        let seed = launched.iter().rposition(|&k| k == "mse_grad").unwrap();
        let pred = launched[..seed].iter().rposition(|&k| k == "add_bias");
        let plan = FaultPlan {
            poison_launches: vec![pred.unwrap() as u64],
            ..Default::default()
        };
        let (gpu, before, after) = run(plan);
        assert_eq!(before, prepared, "{kind:?}");
        assert_eq!(after, before, "{kind:?}: the skipped step wrote parameters");
        assert_eq!(
            recovery_policies(&gpu),
            [(ArgValue::Str("nan_skip".into()), ArgValue::U64(2))],
            "{kind:?}"
        );
        // One step per frame, the poisoned one's included.
        let steps = |launched: &[&str]| launched.iter().filter(|&&k| k == "sgd_step").count();
        assert_eq!(steps(&kernels(&gpu)), steps(&launched), "{kind:?}");
        assert_eq!(steps(&launched), 3, "{kind:?}");
    }
}

/// A preparing frame's step is captured, or replayed, with its SGD launch
/// in it, as a steady frame's is. With one frame per epoch and three
/// preparing epochs, epoch 1's frame captures the all-cached topology and
/// epoch 2's replays it: a poisoned prediction in either leaves the
/// parameters of the epoch before bit for bit and records one `nan_skip`.
#[test]
fn a_poisoned_preparing_frame_writes_nothing_captured_or_replayed() {
    let graph = covid();
    let cfg = TrainingConfig {
        window: graph.len() - 1,
        preparing_epochs: 3,
        ..tiny_cfg(3)
    };
    let kernels = |gpu: &Gpu| -> Vec<&'static str> {
        let samples = gpu.profiler().samples().iter();
        let kernels = samples.filter(|s| matches!(s.kind, SampleKind::Kernel(_)));
        kernels.map(|s| s.name).collect()
    };
    for kind in ModelKind::ALL {
        let dir = std::env::temp_dir().join(format!(
            "pipad-preparing-nan-{kind:?}-{}",
            std::process::id()
        ));
        let run = |plan: FaultPlan| {
            let _ = std::fs::remove_dir_all(&dir);
            let pcfg = PipadConfig {
                checkpoint: Some(CheckpointPolicy {
                    keep: 0,
                    ..CheckpointPolicy::new(&dir, 1)
                }),
                ..Default::default()
            };
            let mut gpu = Gpu::new(DeviceConfig::v100());
            gpu.install_faults(plan);
            let r = train_pipad(&mut gpu, kind, &graph, 8, &cfg, &pcfg).unwrap();
            assert!(r.epochs.iter().all(|e| e.epoch < 3));
            let params: Vec<Vec<u8>> = (0..3)
                .map(|epoch| {
                    let ckpt = Checkpoint::read(&checkpoint_path(&dir, epoch)).unwrap();
                    ckpt.section("params").unwrap().to_vec()
                })
                .collect();
            std::fs::remove_dir_all(&dir).unwrap();
            (gpu, params)
        };
        let (clean, clean_params) = run(FaultPlan::default());
        assert_ne!(
            clean_params[1], clean_params[2],
            "{kind:?}: a clean frame steps"
        );
        let launched = kernels(&clean);
        let seeds: Vec<usize> = (0..launched.len())
            .filter(|&i| launched[i] == "mse_grad")
            .collect();
        assert_eq!(seeds.len(), 3, "{kind:?}: one frame per epoch");

        for (epoch, replayed) in [(1, false), (2, true)] {
            // Poison the prediction: the frame's last bias add before
            // backward seeds its gradient.
            let pred = launched[..seeds[epoch]]
                .iter()
                .rposition(|&k| k == "add_bias");
            let plan = FaultPlan {
                poison_launches: vec![pred.unwrap() as u64],
                ..Default::default()
            };
            let (gpu, params) = run(plan);
            assert_eq!(
                params[epoch],
                params[epoch - 1],
                "{kind:?}: the skipped step of epoch {epoch} wrote parameters"
            );
            assert_eq!(
                recovery_policies(&gpu),
                [(
                    ArgValue::Str("nan_skip".into()),
                    ArgValue::U64(epoch as u64)
                )],
                "{kind:?}"
            );
            // The capture launches its step all the same, so that its
            // replays launch the same kernels.
            let steps = |launched: &[&str]| launched.iter().filter(|&&k| k == "sgd_step").count();
            assert_eq!(steps(&kernels(&gpu)), steps(&launched), "{kind:?}");
            let graphs = gpu
                .trace()
                .events()
                .iter()
                .filter(|e| e.name == "cuda_graph_launch");
            let mut epochs = gpu.trace().events().iter().filter(|e| e.name == "epoch");
            let span = epochs.nth(epoch).unwrap();
            let in_epoch = graphs.filter(|g| g.ts >= span.ts && g.end() <= span.end());
            assert_eq!(
                in_epoch.count(),
                usize::from(replayed),
                "{kind:?} epoch {epoch}"
            );
        }
    }
}

/// A served frame is captured once and replayed after: its first forward
/// launches eagerly, every later one launches nothing outside a graph —
/// the same kernels, to the same logit bits — and another frame is a
/// capture of its own.
#[test]
fn a_served_frame_is_captured_once_and_then_replays() {
    let graph = covid();
    let cfg = tiny_cfg(4);
    let dir = std::env::temp_dir().join(format!("pipad-serve-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pcfg = PipadConfig {
        checkpoint: Some(CheckpointPolicy::new(&dir, 2)),
        ..Default::default()
    };
    let mut tg = Gpu::new(DeviceConfig::v100());
    train_pipad(&mut tg, ModelKind::TGcn, &graph, 8, &cfg, &pcfg).unwrap();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let ecfg = EngineConfig { hidden: 8 };
    let mut engine =
        ServeEngine::from_latest(&mut gpu, &dir, ModelKind::TGcn, &graph, &cfg, &ecfg).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // (launches, eager launches, logit bits) of one forward.
    let forward = |engine: &mut ServeEngine<'_>, gpu: &mut Gpu, frame| {
        let before = gpu.op_counters();
        let pred = engine.forward_frame(gpu, frame).unwrap();
        let after = gpu.op_counters();
        let bits: Vec<u32> = pred.as_slice().iter().map(|v| v.to_bits()).collect();
        let launched = after.launches - before.launches;
        (launched, after.eager_launches - before.eager_launches, bits)
    };
    let (captured, eager, bits) = forward(&mut engine, &mut gpu, 0);
    assert!(eager > 0, "the capture launches eagerly");
    assert_eq!(eager, captured);
    for _ in 0..2 {
        assert_eq!(
            forward(&mut engine, &mut gpu, 0),
            (captured, 0, bits.clone())
        );
    }
    assert_eq!((gpu.graph_captures(), gpu.graph_replays()), (1, 2));

    let (launched, eager, _) = forward(&mut engine, &mut gpu, 1);
    assert_eq!(eager, launched, "another frame is another capture");
    assert_eq!((gpu.graph_captures(), gpu.graph_replays()), (2, 2));
}
