#![warn(missing_docs)]
//! # pipad-tensor
//!
//! Dense f32 matrix math for the PiPAD reproduction: the numerical engine
//! behind every "device" kernel in `pipad-kernels`. The simulated GPU
//! accounts for *cost*; this crate produces the actual *values*, so training
//! genuinely converges.
//!
//! Matrices are row-major `Vec<f32>` with `rows × cols` shape. GEMM is one
//! register-tiled micro-kernel behind `gemm`/`gemm_tn`/`gemm_nt` and splits
//! disjoint output-row bands across the persistent `pipad-pool` workers for
//! large shapes; every output element keeps one fixed accumulation order,
//! so results are bit-identical at every thread count (see `PIPAD_THREADS`).

mod bufpool;
mod count_alloc;
mod init;
mod matrix;
mod ops;

pub use bufpool::{
    pool_enabled, pool_stats, recycle_buf, recycle_byte_buf, reset_pool, take_buf, take_byte_buf,
    with_pool_enabled, PoolStats,
};
pub use count_alloc::{heap_counters, CountingAllocator};
pub use init::{glorot_uniform, seeded_rng, uniform};
pub use matrix::Matrix;
pub use ops::{gemm, gemm_nt, gemm_tn, gemm_tn_rows, PAR_THRESHOLD};
