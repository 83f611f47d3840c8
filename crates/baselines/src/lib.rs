#![warn(missing_docs)]
//! # pipad-baselines
//!
//! The four comparison systems of the paper's evaluation (§5.1), re-built
//! on the same models, autodiff tape and simulated GPU as PiPAD itself:
//!
//! | trainer | transfer | aggregation kernel | inter-frame reuse |
//! |---|---|---|---|
//! | **PyGT** | synchronous, pageable, COO wire format | PyG scatter | — |
//! | **PyGT-A** | asynchronous, pinned, COO | PyG scatter | — |
//! | **PyGT-R** | asynchronous, pinned, COO | PyG scatter | layer-1 aggregation cache |
//! | **PyGT-G** | asynchronous, pinned, CSR **+ CSC** (GE-SpMM's backward requirement) | GE-SpMM | layer-1 aggregation cache |
//!
//! All four follow the canonical **one-snapshot-at-a-time** paradigm: every
//! snapshot of every frame is shipped and aggregated individually, which is
//! exactly the redundancy PiPAD removes. They are policies of PiPAD's own
//! epoch driver ([`pipad::run_epochs`]) — the preparing→steady schedule,
//! checkpoint/restore and failure rollback are shared, only the per-frame
//! body differs — and PyGT-R/G's reuse store is PiPAD's CPU tier
//! ([`pipad::CpuAggStore`]) without the GPU tier above it.

mod executor;
mod trainer;

pub use executor::{BaselineExecutor, StageOptions};
pub use trainer::{train_baseline, train_baseline_resumable, BaselineKind};
