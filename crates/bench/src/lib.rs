//! # pipad-bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation (§5), each regenerating the same rows/series the paper
//! reports — on the simulated V100, at a configurable dataset scale —
//! plus the extension experiments. [`EXPERIMENTS`] is the one list of
//! them: what each reproduces, the names the `repro` binary accepts and
//! the files it writes (`repro --help` prints it).
//!
//! ```text
//! cargo run --release -p pipad-bench --bin repro -- all --scale laptop
//! ```
//!
//! Every artifact is a pure function of the workload;
//! [`util::HOST_MATRIX`] states that host-determinism contract and
//! [`util::host_invariant`] enforces it.

pub mod ablation;
pub mod breakdown;
pub mod experiments;
pub mod fig11;
pub mod fig12;
pub mod fig5;
pub mod fig9;
pub mod grid;
pub mod multigpu;
pub mod profile;
pub mod serve;
pub mod table1;
pub mod trace;
pub mod util;

pub use experiments::{Experiment, Output, EXPERIMENTS};
pub use util::{default_training_config, host_invariant, Method, HOST_MATRIX};
