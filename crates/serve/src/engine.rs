//! The serving engine: checkpoint-loaded parameters + the training-path
//! forward on the simulated device.
//!
//! The engine deliberately reuses the exact machinery of `train_pipad`'s
//! steady epochs — [`GraphAnalyzer`], [`PartitionCatalog`],
//! [`PipadExecutor`] staged with the same [`ExecOptions`], and the model's
//! own `forward_frame` — so a served logit is **bit-identical** to what
//! the trainer would have computed for the same frame with the same
//! parameters (the contract `tests/serve_equivalence.rs` pins).
//!
//! Parameter loading goes through [`pipad::restore_checkpoint`]: the
//! checkpoint's fingerprint must match the (trainer, model, dataset,
//! hyper-parameter) identity this engine was configured for, and any
//! mismatch surfaces as a typed [`ServeError::Ckpt`] — never a panic.
//! Restoring also warm-starts the reuse store's CPU tier from the
//! checkpoint, so the first requests already skip aggregation work the
//! training run paid for (the device tier fills as frames are served).
//!
//! The restore slices the graph and extracts no overlap split: the
//! catalog starts empty, and a forward extracts a partition's plan, on the
//! host lane, only when it stages that partition's adjacency. A model whose
//! layer 1 is served from the warm tier and that aggregates no hidden
//! features (T-GCN) never pays for one.
//!
//! Like a steady `train_pipad` frame, a served forward is a CUDA-graph
//! replay (§4.2). A plan's key is the frame's start plus, per partition,
//! whether reuse covers its layer-1 aggregation
//! ([`PipadExecutor::layer1_cached`]): the two fix the kernel sequence.
//! The first forward of a key runs eagerly and is its capture — recorded,
//! with its launch count, only when it returns `Ok`, so an attempt that
//! hit an OOM is not one — and every later forward of that key runs inside
//! [`Gpu::graph_scope`]. A replayed forward still allocates inside the
//! graph, as the trainer's steady frames do; a real CUDA graph fixes its
//! addresses at capture.
//!
//! The host issues every forward: its compute stream waits for the host
//! clock before anything is staged or launched, so a caller that moves the
//! host clock to a batch's close (`serve::sim`) starts no device work
//! before that batch exists.

use crate::ServeError;
use pipad::exec::{ExecOptions, PipadExecutor};
use pipad::{
    restore_checkpoint, run_fingerprint, GraphAnalyzer, InterFrameReuse, PartitionCatalog,
};
use pipad_autograd::Tape;
use pipad_ckpt::{latest_checkpoint, Checkpoint};
use pipad_dyngraph::{DynamicGraph, FrameIter};
use pipad_gpu_sim::{DeviceFault, Gpu, StreamId};
use pipad_models::{build_model, DgnnModel, ModelKind, TrainingConfig};
use pipad_tensor::Matrix;
use std::collections::HashMap;
use std::path::Path;

/// What the serving engine must be told about the checkpointed model.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Hidden dimension the checkpointed model was trained with (part of
    /// the fingerprint — a mismatch is a typed restore error).
    pub hidden: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { hidden: 16 }
    }
}

/// Snapshots-per-partition of the staged forward.
const S_PER: usize = 4;

/// Byte budget granted to the reuse store's device tier on top of whatever
/// the checkpoint restored (the budget only grows).
const GPU_CACHE_BUDGET: u64 = 8 << 20;

/// A captured plan: the frame's start and, per partition, whether it skips
/// its aggregation kernels.
type PlanKey = (usize, Vec<bool>);

/// A loaded model ready to serve frames of one dynamic graph.
pub struct ServeEngine<'g> {
    graph: &'g DynamicGraph,
    model: Box<dyn DgnnModel>,
    analyzer: GraphAnalyzer,
    catalog: PartitionCatalog,
    pub(crate) reuse: InterFrameReuse,
    window: usize,
    compute: StreamId,
    copy: StreamId,
    /// Epochs the restored checkpoint had completed (provenance).
    trained_epochs: usize,
    /// Each captured plan's launch count.
    captured: HashMap<PlanKey, u64>,
    /// Forwards that replayed a captured plan.
    replays: u64,
}

impl<'g> ServeEngine<'g> {
    /// Load the newest checkpoint in `dir`. Typed errors: an empty or
    /// unreadable directory, a malformed file, or a fingerprint mismatch.
    pub fn from_latest(
        gpu: &mut Gpu,
        dir: &Path,
        model_kind: ModelKind,
        graph: &'g DynamicGraph,
        train_cfg: &TrainingConfig,
        ecfg: &EngineConfig,
    ) -> Result<Self, ServeError> {
        let (_, path) =
            latest_checkpoint(dir)?.ok_or_else(|| ServeError::NoCheckpoint(dir.to_path_buf()))?;
        Self::from_checkpoint_path(gpu, &path, model_kind, graph, train_cfg, ecfg)
    }

    /// Load a specific checkpoint file (rotated/older checkpoints serve
    /// that epoch's exact parameters).
    pub fn from_checkpoint_path(
        gpu: &mut Gpu,
        path: &Path,
        model_kind: ModelKind,
        graph: &'g DynamicGraph,
        train_cfg: &TrainingConfig,
        ecfg: &EngineConfig,
    ) -> Result<Self, ServeError> {
        let ckpt = Checkpoint::read(path)?;
        let fingerprint = run_fingerprint("PiPAD", model_kind, &graph.name, ecfg.hidden, train_cfg);
        let model = build_model(
            gpu,
            model_kind,
            graph.feature_dim(),
            ecfg.hidden,
            train_cfg.seed,
        )?;
        let mut host = gpu.host_now();
        let analyzer = GraphAnalyzer::run(gpu, graph, &mut host);
        // Plans are extracted by the first forward that stages a partition's
        // adjacency; a model served from the warm reuse tier may need none.
        let catalog = PartitionCatalog::new(analyzer.len());
        let mut reuse = InterFrameReuse::new(0);
        let restored = restore_checkpoint(&ckpt, &fingerprint, model.as_ref(), &mut reuse)?;
        reuse.grow_budget(GPU_CACHE_BUDGET);
        // Serving runs on its own timeline: the clock is NOT rewound to the
        // training run's — requests arrive on a fresh device.
        Ok(ServeEngine {
            graph,
            model,
            analyzer,
            catalog,
            reuse,
            window: train_cfg.window,
            compute: gpu.default_stream(),
            copy: gpu.create_stream(),
            trained_epochs: restored.next_epoch,
            captured: HashMap::new(),
            replays: 0,
        })
    }

    /// The graph being served.
    pub fn graph(&self) -> &'g DynamicGraph {
        self.graph
    }

    /// Frame window size (from the training config).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of servable frames.
    pub fn n_frames(&self) -> usize {
        FrameIter::count_frames(self.graph, self.window)
    }

    /// Epochs the restored checkpoint had completed.
    pub fn trained_epochs(&self) -> usize {
        self.trained_epochs
    }

    /// Plans captured so far: one per distinct (frame, cached partitions).
    pub fn graph_captures(&self) -> usize {
        self.captured.len()
    }

    /// Forwards so far that replayed a captured plan.
    pub fn graph_replays(&self) -> u64 {
        self.replays
    }

    /// One full-frame forward through the training execution path; returns
    /// the host-side `n × hidden_out` prediction matrix. Fresh layer-1
    /// aggregations are deposited in the reuse store, which keeps the
    /// frame's device-resident (budget permitting) so later frames sharing
    /// snapshots skip both the kernels and the PCIe upload. A plan seen
    /// before is a graph replay; a new one is launched eagerly and captured.
    pub fn forward_frame(
        &mut self,
        gpu: &mut Gpu,
        frame_start: usize,
    ) -> Result<Matrix, DeviceFault> {
        assert!(
            frame_start + self.window < self.graph.len() + 1,
            "frame {frame_start} out of range"
        );
        // The host issues this forward: nothing on the device starts before
        // the host clock, which the caller has moved to the batch close.
        let issued = gpu.host_now();
        gpu.stream_wait_host(self.compute, issued);
        // Entries below the stream's current window never recur (frames
        // only advance): slide to this frame before staging it — nothing to
        // keep yet — so device memory serves live snapshots.
        self.reuse.slide(gpu, frame_start..frame_start);
        let feats: Vec<&Matrix> = self.graph.snapshots[frame_start..frame_start + self.window]
            .iter()
            .map(|s| &s.features)
            .collect();
        let opts = ExecOptions {
            s_per: S_PER,
            needs_adjacency_when_cached: self.model.needs_hidden_aggregation(),
            weight_reuse: self.model.supports_weight_reuse(),
            use_sliced: true,
        };
        let mut exec = PipadExecutor::stage(
            gpu,
            &self.analyzer,
            &self.catalog,
            &feats,
            frame_start,
            opts,
            Some(&mut self.reuse),
            self.compute,
            self.copy,
        )?;
        let plan = (frame_start, exec.layer1_cached().collect());
        // The capture's launch count, if this plan was captured before.
        let replay = self.captured.get(&plan).copied();
        let launches = gpu.op_counters().launches;
        let mut tape = Tape::new(self.compute);
        let model = self.model.as_ref();
        let mut forward = |gpu: &mut Gpu| model.forward_frame(gpu, &mut tape, &mut exec);
        let out = match replay {
            Some(_) => gpu.graph_scope(self.compute, forward)?,
            None => forward(gpu)?,
        };
        let launched = gpu.op_counters().launches - launches;
        match replay {
            Some(n) => {
                debug_assert_eq!(launched, n, "a replay of {plan:?} launched a new sequence");
                self.replays += 1;
            }
            None => {
                self.captured.insert(plan, launched);
            }
        }
        let pred = tape.host(out.pred);
        tape.finish(gpu);
        exec.finish(gpu);

        // The same frame, or one that shares most of it, is what the next
        // request asks for.
        self.reuse
            .slide(gpu, frame_start..frame_start + self.window);
        Ok(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad::{train_pipad, PipadConfig};
    use pipad_ckpt::CheckpointPolicy;
    use pipad_dyngraph::{DatasetId, Scale};
    use pipad_gpu_sim::{DeviceConfig, Lane, OpCounters};

    fn tiny_cfg() -> TrainingConfig {
        TrainingConfig {
            window: 8,
            epochs: 4,
            preparing_epochs: 2,
            lr: 0.01,
            seed: 3,
        }
    }

    /// Train `model` with checkpoints and restore an engine from the last
    /// one on a fresh device.
    fn restored<'g>(
        model: ModelKind,
        graph: &'g DynamicGraph,
        tag: &str,
    ) -> (Gpu, ServeEngine<'g>) {
        let cfg = tiny_cfg();
        let dir = std::env::temp_dir().join(format!("pipad-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pcfg = PipadConfig {
            checkpoint: Some(CheckpointPolicy::new(dir.clone(), 2)),
            ..Default::default()
        };
        train_pipad(
            &mut Gpu::new(DeviceConfig::v100()),
            model,
            graph,
            8,
            &cfg,
            &pcfg,
        )
        .unwrap();
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let ecfg = EngineConfig { hidden: 8 };
        let engine = ServeEngine::from_latest(&mut gpu, &dir, model, graph, &cfg, &ecfg).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (gpu, engine)
    }

    fn serve_64(gpu: &mut Gpu, engine: &mut ServeEngine<'_>) {
        let scfg = crate::ServeSimConfig {
            gen: crate::RequestGenConfig {
                n_requests: 64,
                ..Default::default()
            },
            ..Default::default()
        };
        crate::serve_open_loop(gpu, engine, &scfg).unwrap();
    }

    fn extractions(gpu: &Gpu) -> usize {
        let events = gpu.trace().events();
        let op = pipad::prep::EXTRACTION_OP;
        events.iter().filter(|e| e.name == op).count()
    }

    /// T-GCN served from the warm CPU tier stages no adjacency, so it never
    /// pays for an overlap split: the restore ends with graph slicing, and
    /// no forward extracts a plan.
    #[test]
    fn a_warm_tgcn_engine_extracts_no_plan() {
        let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
        let (mut gpu, mut engine) = restored(ModelKind::TGcn, &graph, "warm-tgcn");
        let slicing_end = gpu
            .trace()
            .events()
            .iter()
            .filter(|e| e.name == "graph_slicing")
            .map(|e| e.end())
            .max()
            .unwrap();
        assert_eq!(gpu.host_now(), slicing_end);
        serve_64(&mut gpu, &mut engine);
        assert_eq!(extractions(&gpu), 0);
        assert!(engine.catalog.is_empty());
    }

    /// MPNN-LSTM aggregates hidden features, so every forward stages
    /// adjacency: plans are extracted as frames first need them, each once.
    #[test]
    fn a_served_plan_is_extracted_at_most_once() {
        let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
        let (mut gpu, mut engine) = restored(ModelKind::MpnnLstm, &graph, "mpnn-plans");
        assert_eq!(extractions(&gpu), 0, "the restore extracts nothing");
        serve_64(&mut gpu, &mut engine);
        let extracted = extractions(&gpu);
        assert!(extracted > 0);
        assert_eq!(extracted, engine.catalog.len());
    }

    /// Purging a frame's snapshots makes its partitions aggregate again:
    /// a new plan, captured eagerly with the aggregation kernels on top of
    /// the all-cached plan's launches. That forward deposits them again, so
    /// the next one finds every partition cached and replays that plan.
    #[test]
    fn a_purged_frame_is_captured_anew_then_replays_its_cached_plan() {
        let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
        let (mut gpu, mut engine) = restored(ModelKind::TGcn, &graph, "plans");

        let frame = 2;
        let forward = |engine: &mut ServeEngine<'_>, gpu: &mut Gpu| -> OpCounters {
            let before = gpu.op_counters();
            engine.forward_frame(gpu, frame).unwrap();
            let after = gpu.op_counters();
            OpCounters {
                launches: after.launches - before.launches,
                eager_launches: after.eager_launches - before.eager_launches,
                ..Default::default()
            }
        };
        // The restore warm-started every partition: the all-cached plan.
        let cached = forward(&mut engine, &mut gpu);
        assert_eq!(cached.eager_launches, cached.launches);
        assert_eq!((engine.graph_captures(), engine.graph_replays()), (1, 0));

        engine.reuse.purge(&mut gpu, frame..frame + engine.window());
        let computed = forward(&mut engine, &mut gpu);
        assert_eq!(computed.eager_launches, computed.launches, "a new plan");
        assert!(
            computed.launches > cached.launches,
            "{computed:?} vs {cached:?}"
        );
        assert_eq!((engine.graph_captures(), engine.graph_replays()), (2, 0));

        let snap = gpu.profiler().snapshot();
        let replayed = forward(&mut engine, &mut gpu);
        assert_eq!(replayed.eager_launches, 0, "the all-cached plan replays");
        let events = gpu.trace().events().since(snap);
        let host_ops: Vec<&str> = events
            .iter()
            .filter(|e| e.lane == Lane::Host)
            .map(|e| e.name)
            .collect();
        assert!(
            host_ops.is_empty(),
            "an all-cached replay ships nothing: {host_ops:?}"
        );
        assert_eq!(replayed.launches, cached.launches);
        assert_eq!((engine.graph_captures(), engine.graph_replays()), (2, 1));
    }
}
