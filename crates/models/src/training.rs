//! Shared training types: the model trait, configuration and reports used
//! by both the baseline trainers and PiPAD.

use crate::evolve_gcn::EvolveGcn;
use crate::executor::GnnExecutor;
use crate::mpnn_lstm::MpnnLstm;
use crate::tgcn::TGcn;
use pipad_autograd::{Tape, Var};
use pipad_gpu_sim::{Breakdown, Gpu, OomError, SimNanos};
use pipad_tensor::seeded_rng;

/// The three evaluation models (§2.1 / Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Mpnn Lstm.
    MpnnLstm,
    /// Evolve Gcn.
    EvolveGcn,
    /// TGcn.
    TGcn,
}

impl ModelKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::MpnnLstm => "MPNN-LSTM",
            ModelKind::EvolveGcn => "EvolveGCN",
            ModelKind::TGcn => "T-GCN",
        }
    }

    /// The paper's evaluation set (§2.1).
    pub const ALL: [ModelKind; 3] = [ModelKind::EvolveGcn, ModelKind::MpnnLstm, ModelKind::TGcn];
}

/// Result of one frame forward: the prediction plus the parameter bindings
/// the optimizer needs.
pub struct ForwardOutput {
    /// The pred.
    pub pred: Var,
    /// The binder.
    pub binder: crate::params::Binder,
}

/// A DGNN model trainable over frames through any [`GnnExecutor`].
pub trait DgnnModel {
    /// See the type-level documentation.
    fn kind(&self) -> ModelKind;

    /// Forward one frame; prediction has shape `n × out_dim`.
    fn forward_frame(
        &self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        exec: &mut dyn GnnExecutor,
    ) -> Result<ForwardOutput, OomError>;

    /// Each slot's first-layer activation `H¹`, computed exactly as
    /// [`DgnnModel::forward_frame`] computes it, and nothing after it: the
    /// rows a vertex shard reads of its peers in its layer-2 aggregation.
    /// `None` for a model that never aggregates hidden features.
    fn hidden_activations(
        &self,
        _gpu: &mut Gpu,
        _tape: &mut Tape,
        _exec: &mut dyn GnnExecutor,
    ) -> Result<Option<Vec<Var>>, OomError> {
        Ok(None)
    }

    /// All trainable parameters (for counting/reporting).
    fn params(&self) -> Vec<&crate::params::Param>;

    /// Output dimension (equals the input feature dimension — models
    /// predict the next snapshot's features).
    fn out_dim(&self) -> usize;

    /// Whether the FC update phase may share weights across snapshots
    /// (false for EvolveGCN, whose weights evolve along the timeline).
    fn supports_weight_reuse(&self) -> bool;

    /// Number of GCN layers whose *input* is the raw features (and whose
    /// aggregation is therefore cacheable by inter-frame reuse). T-GCN's
    /// gates all share one such aggregation; a 2-layer GCN has exactly one.
    fn needs_hidden_aggregation(&self) -> bool;
}

/// Build a model for a dataset's dimensions, seeded deterministically.
pub fn build_model(
    gpu: &mut Gpu,
    kind: ModelKind,
    in_dim: usize,
    hidden: usize,
    seed: u64,
) -> Result<Box<dyn DgnnModel>, OomError> {
    let mut rng = seeded_rng(seed);
    Ok(match kind {
        ModelKind::MpnnLstm => Box::new(MpnnLstm::new(gpu, &mut rng, in_dim, hidden)?),
        ModelKind::EvolveGcn => Box::new(EvolveGcn::new(gpu, &mut rng, in_dim, hidden)?),
        ModelKind::TGcn => Box::new(TGcn::new(gpu, &mut rng, in_dim, hidden)?),
    })
}

/// Training hyper-parameters shared by every trainer.
#[derive(Clone, Debug)]
pub struct TrainingConfig {
    /// Sliding-window size (paper: 16).
    pub window: usize,
    /// Total epochs to simulate.
    pub epochs: usize,
    /// Preparing epochs (profiling + slicing; paper: ~2).
    pub preparing_epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Model-init seed.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            window: 16,
            epochs: 6,
            preparing_epochs: 2,
            lr: 0.01,
            seed: 7,
        }
    }
}

/// Host heap and buffer-pool counters measured over one epoch. Heap
/// figures stay zero unless the counting allocator is installed (the
/// `repro` binary and the allocation-budget test install it); pool
/// figures stay zero with `PIPAD_NO_POOL=1`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostAllocStats {
    /// Heap allocator calls.
    pub heap_allocs: u64,
    /// Heap bytes requested.
    pub heap_bytes: u64,
    /// Buffer-pool takes served from a freelist.
    pub pool_hits: u64,
    /// Buffer-pool takes that fell through to the heap.
    pub pool_misses: u64,
}

impl HostAllocStats {
    /// Capture the current cumulative heap and pool counters; subtract
    /// two captures with [`HostAllocStats::since`] to get a per-epoch
    /// delta.
    pub fn capture() -> HostAllocStats {
        let (heap_allocs, heap_bytes) = pipad_tensor::heap_counters();
        let pool = pipad_tensor::pool_stats();
        HostAllocStats {
            heap_allocs,
            heap_bytes,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
        }
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &HostAllocStats) -> HostAllocStats {
        HostAllocStats {
            heap_allocs: self.heap_allocs.saturating_sub(earlier.heap_allocs),
            heap_bytes: self.heap_bytes.saturating_sub(earlier.heap_bytes),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
        }
    }
}

/// Per-epoch record.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// The epoch.
    pub epoch: usize,
    /// The mean loss.
    pub mean_loss: f32,
    /// Simulated wall time of this epoch.
    pub sim_time: SimNanos,
    /// Host heap/pool activity during this epoch.
    pub alloc: HostAllocStats,
}

/// Full training-run record.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// The trainer.
    pub trainer: String,
    /// The model.
    pub model: ModelKind,
    /// The dataset.
    pub dataset: String,
    /// Per-epoch loss and simulated-time records.
    pub epochs: Vec<EpochReport>,
    /// Simulated wall time of the whole run.
    pub total_time: SimNanos,
    /// Mean simulated time of the post-preparation (steady-state) epochs.
    pub steady_epoch_time: SimNanos,
    /// Profiler aggregate over the steady-state epochs.
    pub steady: Breakdown,
    /// Peak device memory over the run, bytes.
    pub peak_mem: u64,
}

impl TrainReport {
    /// Losses per epoch, for convergence checks.
    pub fn losses(&self) -> Vec<f32> {
        self.epochs.iter().map(|e| e.mean_loss).collect()
    }

    /// End-to-end speedup of this run relative to `other` (steady-state).
    pub fn speedup_over(&self, other: &TrainReport) -> f64 {
        other.steady_epoch_time.as_nanos() as f64 / self.steady_epoch_time.as_nanos().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::DirectExecutor;
    use pipad_gpu_sim::DeviceConfig;
    use pipad_sparse::Csr;
    use pipad_tensor::{uniform, Matrix};

    #[test]
    fn model_factory_builds_all_kinds() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        for kind in ModelKind::ALL {
            let m = build_model(&mut gpu, kind, 4, 8, 1).unwrap();
            assert_eq!(m.kind(), kind);
            assert_eq!(m.out_dim(), 4);
            assert!(!m.params().is_empty());
        }
    }

    #[test]
    fn all_lists_every_variant() {
        // No wildcard: a new variant does not compile until it has an arm,
        // and the arm has to name the variant's position in `ALL`.
        let position = |kind: ModelKind| match kind {
            ModelKind::EvolveGcn => 0,
            ModelKind::MpnnLstm => 1,
            ModelKind::TGcn => 2,
        };
        let variants = [ModelKind::EvolveGcn, ModelKind::MpnnLstm, ModelKind::TGcn];
        assert_eq!(ModelKind::ALL.len(), variants.len());
        for kind in variants {
            assert_eq!(ModelKind::ALL.get(position(kind)), Some(&kind));
        }
    }

    #[test]
    fn weight_reuse_support_matches_paper() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        // §4.2: weight reuse "can not be applied to EvolveGCN since it
        // updates the weights along the timeline".
        assert!(!build_model(&mut gpu, ModelKind::EvolveGcn, 4, 8, 1)
            .unwrap()
            .supports_weight_reuse());
        assert!(build_model(&mut gpu, ModelKind::MpnnLstm, 4, 8, 1)
            .unwrap()
            .supports_weight_reuse());
        assert!(build_model(&mut gpu, ModelKind::TGcn, 4, 8, 1)
            .unwrap()
            .supports_weight_reuse());
    }

    /// A [`DirectExecutor`] that keeps the values `forward_frame` hands
    /// `aggregate_hidden`.
    struct Recording {
        inner: DirectExecutor,
        hidden_inputs: Vec<Matrix>,
    }

    impl GnnExecutor for Recording {
        fn frame_len(&self) -> usize {
            self.inner.frame_len()
        }

        fn aggregate_inputs(
            &mut self,
            gpu: &mut Gpu,
            tape: &mut Tape,
        ) -> Result<Vec<Var>, OomError> {
            self.inner.aggregate_inputs(gpu, tape)
        }

        fn aggregate_hidden(
            &mut self,
            gpu: &mut Gpu,
            tape: &mut Tape,
            xs: &[Var],
        ) -> Result<Vec<Var>, OomError> {
            self.hidden_inputs = xs.iter().map(|&x| tape.host(x)).collect();
            self.inner.aggregate_hidden(gpu, tape, xs)
        }
    }

    #[test]
    fn hidden_activations_are_what_forward_frame_aggregates() {
        // A model that aggregates hidden features but kept the default
        // `None` would only fail inside data-parallel training.
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let mut rng = seeded_rng(4);
        let adj = Csr::from_edges(5, 5, &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]);
        let feats: Vec<Matrix> = (0..3).map(|_| uniform(&mut rng, 5, 4, 1.0)).collect();
        let frame: Vec<(&Csr, &Matrix)> = feats.iter().map(|f| (&adj, f)).collect();
        let bits = |ms: &[Matrix]| -> Vec<Vec<u32>> {
            let row = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
            ms.iter().map(row).collect()
        };
        for kind in ModelKind::ALL {
            let model = build_model(&mut gpu, kind, 4, 8, 1).unwrap();
            let mut exec = Recording {
                inner: DirectExecutor::new(&frame),
                hidden_inputs: Vec::new(),
            };
            let mut tape = Tape::new(s);
            model.forward_frame(&mut gpu, &mut tape, &mut exec).unwrap();
            tape.finish(&mut gpu);

            let mut tape = Tape::new(s);
            let h1 = model
                .hidden_activations(&mut gpu, &mut tape, &mut DirectExecutor::new(&frame))
                .unwrap();
            assert_eq!(h1.is_some(), model.needs_hidden_aggregation(), "{kind:?}");
            let h1: Vec<Matrix> = h1.iter().flatten().map(|&h| tape.host(h)).collect();
            tape.finish(&mut gpu);
            assert_eq!(bits(&h1), bits(&exec.hidden_inputs), "{kind:?}");
        }
    }

    #[test]
    fn hidden_aggregation_need_matches_paper() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        // §5.2: with reuse, T-GCN "behaves like only owning one GCN" (no
        // aggregation left), while EvolveGCN/MPNN-LSTM still aggregate in
        // their second layer.
        assert!(!build_model(&mut gpu, ModelKind::TGcn, 4, 8, 1)
            .unwrap()
            .needs_hidden_aggregation());
        assert!(build_model(&mut gpu, ModelKind::EvolveGcn, 4, 8, 1)
            .unwrap()
            .needs_hidden_aggregation());
        assert!(build_model(&mut gpu, ModelKind::MpnnLstm, 4, 8, 1)
            .unwrap()
            .needs_hidden_aggregation());
    }
}
