#![warn(missing_docs)]
//! # pipad-models
//!
//! The three representative DGNN models of the PiPAD paper (§2.1), built on
//! the autodiff tape so forward *and* backward run as accounted device
//! kernels:
//!
//! * [`MpnnLstm`] — a 2-layer GCN stacked with two LSTMs (stacked DGNN);
//! * [`EvolveGcn`] — two layers of {1-layer GCN + GRU over the GCN weight
//!   matrix} (integrated DGNN; weights evolve along the timeline, which is
//!   why PiPAD's weight-reuse update does not apply to it);
//! * [`TGcn`] — a GRU whose input transforms are 1-layer GCNs over the raw
//!   node features (the input-side aggregation is therefore shared by all
//!   three gates and fully cacheable across frames/epochs).
//!
//! Models express all graph work through the [`GnnExecutor`] trait, which
//! is where the training frameworks differ:
//!
//! * the baselines (PyGT family) plug in one-snapshot-at-a-time executors
//!   with PyG-style or GE-SpMM kernels;
//! * PiPAD plugs in a partition-parallel executor that aggregates a whole
//!   snapshot group in one kernel and updates with weight reuse.
//!
//! The numerics are identical across executors (tests assert it); only the
//! kernel organization — and therefore the simulated cost — changes. This
//! mirrors the paper's claim that PiPAD is a pure performance optimization.

mod cells;
mod evolve_gcn;
mod executor;
mod gcn;
mod mpnn_lstm;
mod params;
mod tgcn;
mod training;

pub use cells::{GruCell, LstmCell};
pub use evolve_gcn::EvolveGcn;
pub use executor::{DirectExecutor, GnnExecutor};
pub use gcn::{normalize_snapshot, GcnLayer, NormalizedAdj};
pub use mpnn_lstm::MpnnLstm;
pub use params::{Binder, Linear, Param, ParamBinding};
pub use tgcn::TGcn;
pub use training::{
    build_model, DgnnModel, EpochReport, ForwardOutput, HostAllocStats, ModelKind, TrainReport,
    TrainingConfig,
};
