//! Differential serving-vs-training gate (the `pipad-serve` headline
//! contract).
//!
//! For every paper model, a checkpoint-restored serving engine must emit
//! logits that are **bit-identical** to the train-time forward for the
//! same frame with the same parameters — batched through the dynamic
//! micro-batcher or served one request at a time, in every
//! `pipad_bench::HOST_MATRIX` cell (host threads × buffer pool on/off),
//! and the served bytes must be the same in every cell. The reference forward is rebuilt here from the public
//! training machinery ([`GraphAnalyzer`], [`PartitionCatalog`],
//! [`PipadExecutor`], the model's own `forward_frame`) rather than
//! through `pipad-serve`, so the two sides cannot share a bug.
//!
//! A second gate pins checkpoint rotation: restoring an *older* rotated
//! checkpoint serves that epoch's exact parameter bits, not the newest
//! ones.

use pipad::exec::{ExecOptions, PipadExecutor};
use pipad::{
    restore_checkpoint, run_fingerprint, train_pipad, GraphAnalyzer, InterFrameReuse,
    PartitionCatalog, PipadConfig,
};
use pipad_autograd::Tape;
use pipad_bench::host_invariant;
use pipad_bench::util::ScratchDir;
use pipad_ckpt::{latest_checkpoint, list_checkpoints, Checkpoint, CheckpointPolicy};
use pipad_dyngraph::{DatasetId, DynamicGraph, Scale};
use pipad_gpu_sim::{DeviceConfig, Gpu};
use pipad_models::{build_model, ModelKind, TrainingConfig};
use pipad_repro::serve::{
    serve_open_loop, BatchPolicy, EngineConfig, RequestGenConfig, RequestOutcome, ServeEngine,
    ServeReport, ServeSimConfig,
};
use pipad_tensor::Matrix;
use std::collections::BTreeMap;
use std::path::Path;

const HIDDEN: usize = 8;

fn graph() -> DynamicGraph {
    DatasetId::Covid19England.gen_config(Scale::Tiny).generate()
}

fn cfg(epochs: usize) -> TrainingConfig {
    TrainingConfig {
        window: 8,
        epochs,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 3,
    }
}

/// Train `model` with rotating checkpoints into `dir`.
fn train_into(dir: &Path, model: ModelKind, graph: &DynamicGraph, cfg: &TrainingConfig) {
    let _ = std::fs::remove_dir_all(dir);
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let pcfg = PipadConfig {
        checkpoint: Some(CheckpointPolicy::new(dir.to_path_buf(), 2)),
        ..PipadConfig::default()
    };
    train_pipad(&mut gpu, model, graph, HIDDEN, cfg, &pcfg)
        .unwrap_or_else(|e| panic!("{}: training leg failed: {e}", model.name()));
}

/// The train-path forward, rebuilt without `pipad-serve`: restore the
/// checkpoint at `path` onto a fresh device and run one frame through the
/// exact steady-epoch execution pipeline. Returns the host prediction
/// matrix (all nodes × output dim).
fn reference_forward(
    path: &Path,
    model: ModelKind,
    graph: &DynamicGraph,
    cfg: &TrainingConfig,
    frame_start: usize,
) -> Matrix {
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let ckpt = Checkpoint::read(path).expect("read checkpoint");
    let fp = run_fingerprint("PiPAD", model, &graph.name, HIDDEN, cfg);
    let m = build_model(&mut gpu, model, graph.feature_dim(), HIDDEN, cfg.seed)
        .expect("build reference model");
    let mut host = gpu.host_now();
    let analyzer = GraphAnalyzer::run(&mut gpu, graph, &mut host);
    let catalog = PartitionCatalog::build(&mut gpu, &analyzer, &mut host);
    let mut reuse = InterFrameReuse::new(0);
    restore_checkpoint(&ckpt, &fp, m.as_ref(), &mut reuse).expect("restore");
    reuse.grow_budget(8 << 20);
    let compute = gpu.default_stream();
    let copy = gpu.create_stream();
    let feats: Vec<&Matrix> = graph.snapshots[frame_start..frame_start + cfg.window]
        .iter()
        .map(|s| &s.features)
        .collect();
    let opts = ExecOptions {
        s_per: 4,
        needs_adjacency_when_cached: m.needs_hidden_aggregation(),
        weight_reuse: m.supports_weight_reuse(),
        use_sliced: true,
    };
    let mut exec = PipadExecutor::stage(
        &mut gpu,
        &analyzer,
        &catalog,
        &feats,
        frame_start,
        opts,
        Some(&mut reuse),
        compute,
        copy,
    )
    .expect("stage reference frame");
    let mut tape = Tape::new(compute);
    let out = m
        .forward_frame(&mut gpu, &mut tape, &mut exec)
        .expect("reference forward");
    let pred = tape.host(out.pred);
    tape.finish(&mut gpu);
    exec.finish(&mut gpu);
    pred
}

/// Serve the standard request plan from the newest checkpoint in `dir`.
fn serve(
    dir: &Path,
    model: ModelKind,
    graph: &DynamicGraph,
    cfg: &TrainingConfig,
    max_batch: usize,
) -> ServeReport {
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let ecfg = EngineConfig { hidden: HIDDEN };
    let mut engine = ServeEngine::from_latest(&mut gpu, dir, model, graph, cfg, &ecfg)
        .unwrap_or_else(|e| panic!("{}: engine restore failed: {e}", model.name()));
    serve_open_loop(&mut gpu, &mut engine, &sim_cfg(max_batch))
        .unwrap_or_else(|e| panic!("{}: serving failed: {e}", model.name()))
}

fn sim_cfg(max_batch: usize) -> ServeSimConfig {
    ServeSimConfig {
        // Queue capacity is generous so every request is admitted and the
        // bit-identity check covers the full plan.
        batch: BatchPolicy {
            max_batch,
            max_delay_ns: 250_000,
            queue_capacity: 64,
        },
        gen: RequestGenConfig {
            seed: 5,
            n_requests: 10,
            mean_interarrival_ns: 200_000,
            max_targets: 4,
            snapshot_period_ns: 500_000,
        },
    }
}

/// Every served logit of `report` must equal the reference forward of the
/// checkpoint at `path`, bit for bit, at the request's target rows.
fn assert_report_matches_reference(
    report: &ServeReport,
    path: &Path,
    model: ModelKind,
    graph: &DynamicGraph,
    cfg: &TrainingConfig,
) {
    let mut preds: BTreeMap<usize, Matrix> = BTreeMap::new();
    assert!(!report.records.is_empty());
    for rec in &report.records {
        let RequestOutcome::Served { logits, .. } = &rec.outcome else {
            panic!("{}: request {} was rejected", model.name(), rec.request.id);
        };
        let frame = rec.request.frame;
        let pred = preds
            .entry(frame)
            .or_insert_with(|| reference_forward(path, model, graph, cfg, frame));
        assert_eq!(logits.rows(), rec.request.targets.len());
        assert_eq!(logits.cols(), pred.cols());
        for (r, &node) in rec.request.targets.iter().enumerate() {
            for c in 0..logits.cols() {
                assert_eq!(
                    logits[(r, c)].to_bits(),
                    pred[(node, c)].to_bits(),
                    "{}: request {} frame {frame} node {node} col {c} drifted from the training forward",
                    model.name(),
                    rec.request.id,
                );
            }
        }
    }
}

/// Returns the served logit bytes so the caller can also compare them
/// across host configurations.
fn assert_serving_matches_training(model: ModelKind, base: &Path) -> Vec<u8> {
    let graph = graph();
    let cfg = cfg(4);
    let dir = base.join(model.name());
    train_into(&dir, model, &graph, &cfg);
    let (_, latest) = latest_checkpoint(&dir)
        .expect("scan checkpoint dir")
        .expect("training wrote a checkpoint");

    // Batched and one-at-a-time serving agree with each other...
    let batched = serve(&dir, model, &graph, &cfg, 4);
    let single = serve(&dir, model, &graph, &cfg, 1);
    assert_eq!(
        batched.served,
        batched.records.len(),
        "a request was rejected"
    );
    assert!(batched.batch_size_histogram.keys().any(|&s| s > 1));
    assert!(single.batch_size_histogram.keys().all(|&s| s == 1));
    assert_eq!(
        batched.served_logit_bytes(),
        single.served_logit_bytes(),
        "{}: batching changed the served bits",
        model.name()
    );

    // ...and both with the independently rebuilt train-time forward.
    assert_report_matches_reference(&batched, &latest, model, &graph, &cfg);
    batched.served_logit_bytes()
}

fn in_every_host_cell(model: ModelKind) {
    host_invariant(model.name(), || {
        let dir = ScratchDir::new("serve-equivalence");
        assert_serving_matches_training(model, dir.path())
    });
}

#[test]
fn served_logits_match_training_forward_evolvegcn() {
    in_every_host_cell(ModelKind::EvolveGcn);
}

#[test]
fn served_logits_match_training_forward_mpnn_lstm() {
    in_every_host_cell(ModelKind::MpnnLstm);
}

#[test]
fn served_logits_match_training_forward_tgcn() {
    in_every_host_cell(ModelKind::TGcn);
}

/// Restoring an older rotated checkpoint must serve *that* epoch's exact
/// forward bits — and those must differ from the newest checkpoint's
/// (SGD moved the parameters between rotations).
#[test]
fn rotated_checkpoint_serves_that_epochs_exact_bits() {
    let model = ModelKind::TGcn;
    let graph = graph();
    let cfg = cfg(6); // checkpoints rotate at epochs 1, 3, 5
    let base = ScratchDir::new("serve-rotated");
    let dir = base.path().join(model.name());
    train_into(&dir, model, &graph, &cfg);

    let ckpts = list_checkpoints(&dir).expect("scan checkpoint dir");
    assert!(
        ckpts.len() >= 2,
        "rotation kept {} checkpoints",
        ckpts.len()
    );
    let (old_epoch, old_path) = ckpts.first().cloned().expect("oldest checkpoint");
    let (new_epoch, _) = ckpts.last().cloned().expect("newest checkpoint");
    assert!(old_epoch < new_epoch);

    let serve_from = |path: &Path| -> ServeReport {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let ecfg = EngineConfig { hidden: HIDDEN };
        let mut engine =
            ServeEngine::from_checkpoint_path(&mut gpu, path, model, &graph, &cfg, &ecfg)
                .expect("engine restore failed");
        assert_eq!(
            engine.trained_epochs(),
            engine.trained_epochs().min(cfg.epochs)
        );
        serve_open_loop(&mut gpu, &mut engine, &sim_cfg(4)).expect("serving failed")
    };

    let old_report = serve_from(&old_path);
    let latest_report = serve(&dir, model, &graph, &cfg, 4);

    // The rotated restore serves its own epoch's bits...
    assert_report_matches_reference(&old_report, &old_path, model, &graph, &cfg);
    // ...which are not the newest epoch's bits.
    assert_ne!(
        old_report.served_logit_bytes(),
        latest_report.served_logit_bytes(),
        "epoch-{old_epoch} and epoch-{new_epoch} checkpoints served identical logits"
    );
}
