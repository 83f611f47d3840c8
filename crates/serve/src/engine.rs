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
        let catalog = PartitionCatalog::build(gpu, &analyzer, &mut host);
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

    /// One full-frame forward through the training execution path; returns
    /// the host-side `n × hidden_out` prediction matrix. Fresh layer-1
    /// aggregations are deposited in the reuse store, which keeps the
    /// frame's device-resident (budget permitting) so later frames sharing
    /// snapshots skip both the kernels and the PCIe upload.
    pub fn forward_frame(
        &mut self,
        gpu: &mut Gpu,
        frame_start: usize,
    ) -> Result<Matrix, DeviceFault> {
        assert!(
            frame_start + self.window < self.graph.len() + 1,
            "frame {frame_start} out of range"
        );
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
        let mut tape = Tape::new(self.compute);
        let out = self.model.forward_frame(gpu, &mut tape, &mut exec)?;
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
