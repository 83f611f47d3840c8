//! # pipad-bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation (§5), each regenerating the same rows/series the paper
//! reports — on the simulated V100, at a configurable dataset scale.
//!
//! | module | reproduces |
//! |---|---|
//! | [`table1`] | Table 1 — dataset statistics (paper values + our synthetic analogues) |
//! | [`breakdown`] | Figure 3 — PyGT latency breakdown & SM utilization; Figure 4 — GPU computation-time breakdown |
//! | [`fig5`] | Figure 5 — global-memory requests/transactions vs feature dimension |
//! | [`fig9`] | Figure 9 — offline parallel-GNN analysis (speedup vs overlap rate / feature dimension) |
//! | [`grid`] | Figure 10 — end-to-end speedup over PyGT; Table 2 — GPU utilization |
//! | [`fig11`] | Figure 11 — parallel-GNN speedup, memory-efficiency and dimension sensitivity; §5.3 thread utilization |
//! | [`fig12`] | Figure 12 — load balance and overall speedup of the sliced CSR |
//! | [`ablation`] | extension: hardware-sensitivity and per-mechanism ablations |
//! | [`trace`] | extension: Chrome-trace timeline of one pipelined run (open in Perfetto) |
//! | [`chaos`] | extension: deterministic fault injection + recovery demonstration |
//! | [`resume`] | extension: kill-and-resume determinism (checkpoint/restore bit-identity) |
//! | [`alloc`] | extension: host allocation profile — heap/pool counters per preparing vs steady epoch |
//! | [`multigpu`] | extension: data-parallel scaling — halo traffic, allreduce cost, per-device utilization (§4.5) |
//! | [`serve`] | extension: online inference serving — latency percentiles, throughput, batching (§3.16) |
//! | [`profile`] | extension: unified metrics registry + pipeline-health analysis + regression sentinel (§3.17) |
//!
//! Run everything with the `repro` binary:
//!
//! ```text
//! cargo run --release -p pipad-bench --bin repro -- all --scale laptop
//! ```

pub mod ablation;
pub mod alloc;
pub mod breakdown;
pub mod chaos;
pub mod fig11;
pub mod fig12;
pub mod fig5;
pub mod fig9;
pub mod grid;
pub mod multigpu;
pub mod profile;
pub mod resume;
pub mod serve;
pub mod table1;
pub mod trace;
pub mod util;

pub use util::{default_training_config, Method, RunScale};
