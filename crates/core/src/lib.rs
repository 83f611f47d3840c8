#![warn(missing_docs)]
//! # pipad
//!
//! **PiPAD: Pipelined and Parallel Dynamic GNN Training** — the paper's
//! primary contribution (PPoPP'23), reproduced end to end on the simulated
//! GPU substrate of `pipad-gpu-sim`.
//!
//! The framework reorganizes DTDG training from the canonical
//! one-snapshot-at-a-time paradigm into a partition-grained, pipelined,
//! multi-snapshot one:
//!
//! * **Overlap-aware data organization** ([`analyzer`], [`prep`]) — every
//!   snapshot is converted online to the sliced CSR format (§4.1); for each
//!   candidate partition the shared topology is extracted once as `A_over`
//!   plus small per-snapshot exclusives, shrinking both transfer volume and
//!   aggregation work.
//! * **Intra-frame parallelism** ([`exec`]) — one dimension-aware parallel
//!   aggregation serves all snapshots of a partition (Algorithm 1: thread-
//!   aware slice coalescing for small dimensions, vector loads for large
//!   ones), and the FC update runs with locality-optimized weight reuse.
//! * **Inter-frame reuse** ([`reuse`]) — one store caches layer-1
//!   aggregation results CPU-side and, for the snapshots the next frames
//!   share, in a budgeted device-side tier evicted in next-use order,
//!   eliminating redundant transfer *and* computation (§4.4).
//! * **Pipeline execution** ([`driver`] + [`trainer`]) — one epoch driver
//!   shared with the baseline trainers runs the preparing→steady schedule
//!   and PiPAD plugs in as its policy: CPU preparation, PCIe transfer
//!   and GPU compute advance on separate lanes; partition *k+1* is prepared
//!   and shipped while partition *k* computes (Figure 8), with the non-GNN
//!   kernel sequences launched in CUDA-graph mode.
//! * **Dynamic tuning** ([`tuner`]) — the snapshots-per-partition setting
//!   `S_per` is chosen per frame from (1) a memory upper bound derived from
//!   preparing-epoch profiling, (2) an offline speedup table of the parallel
//!   GNN indexed by overlap rate × feature dimension (Figure 9), and (3) a
//!   pipeline-stall rejection test.
//!
//! The quickest way in is [`train_pipad`]:
//!
//! ```
//! use pipad::{train_pipad, PipadConfig};
//! use pipad_dyngraph::{DatasetId, Scale};
//! use pipad_gpu_sim::{DeviceConfig, Gpu};
//! use pipad_models::{ModelKind, TrainingConfig};
//!
//! let mut gpu = Gpu::new(DeviceConfig::v100());
//! let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
//! let cfg = TrainingConfig { window: 8, epochs: 3, preparing_epochs: 1, ..Default::default() };
//! let report = train_pipad(
//!     &mut gpu,
//!     ModelKind::TGcn,
//!     &graph,
//!     8,
//!     &cfg,
//!     &PipadConfig::default(),
//! )
//! .unwrap();
//! assert!(report.losses().iter().all(|l| l.is_finite()));
//! ```

pub mod analyzer;
pub mod checkpoint;
pub mod driver;
pub mod exec;
pub mod multigpu;
pub mod prep;
pub mod reuse;
pub mod trainer;
pub mod tuner;

pub use analyzer::GraphAnalyzer;
pub use checkpoint::{
    restore_checkpoint, run_fingerprint, CkptExtra, RestoredState, RunFingerprint,
};
pub use driver::{run_epochs, EpochPolicy, RunCx};
pub use exec::PipadExecutor;
pub use multigpu::{
    train_data_parallel, train_data_parallel_devices, MultiGpuConfig, MultiTrainReport,
};
pub use prep::{PartitionCatalog, PartitionPlan};
pub use reuse::InterFrameReuse;
pub use trainer::{train_pipad, PipadConfig};
pub use tuner::{DynamicTuner, FrameProfile, OfflineTable, SperDecision};
