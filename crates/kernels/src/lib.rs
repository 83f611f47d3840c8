#![warn(missing_docs)]
//! # pipad-kernels
//!
//! "Device" kernels for the PiPAD reproduction. Every function here does two
//! things at once:
//!
//! 1. **computes real values** on the host CPU (via `pipad-tensor` /
//!    `pipad-sparse`), so models genuinely train; and
//! 2. **accounts simulated cost** on the `pipad-gpu-sim` timeline — FLOPs,
//!    global-memory requests/transactions, shared-memory traffic, warp
//!    efficiency and per-block work — using the transaction model of the
//!    paper's §3.2.
//!
//! ## The three aggregation kernels
//!
//! | kernel | used by | access pattern |
//! |---|---|---|
//! | [`spmm_coo_scatter`] | PyGT / PyGT-A / PyGT-R | PyG-style edge-parallel gather + atomic scatter over COO; one feature-row read *and* one output-row atomic write per nonzero |
//! | [`spmm_gespmm`] | PyGT-G | GE-SpMM: CSR row-per-warp with shared-memory adjacency caching; one output write per row — wins on dense graphs, pays for empty rows on hypersparse ones (the paper's Youtube case) |
//! | [`spmm_sliced_parallel`] | PiPAD | the paper's Algorithm 1: slice-grained work units, thread-group coalescing for small dimensions, vector loads for large ones, and **one pass over the overlap topology serving all snapshots of a partition** |
//!
//! Aggregation uses unit-weight adjacency plus a separate [`row_scale`]
//! normalization kernel, so snapshots sharing topology can share one
//! aggregation launch (and, the graphs being symmetric, the backward pass
//! reuses the forward operator).

mod device_data;
mod elementwise;
mod gemm;
mod rnn;
mod spmm;
mod transfer;

pub use device_data::{DeviceCsr, DeviceMatrix, DeviceSliced};
pub use elementwise::{
    add, add_bias, col_sums, concat_rows, gather, hadamard, mse_grad_denom, mse_loss, relu,
    relu_grad_mask, row_scale, row_scale_multi, scale, sgd_step, sigmoid, sigmoid_grad_from_out,
    slice_cols, slice_rows, sse_loss, tanh_act, tanh_grad_from_out, Axis,
};
pub use gemm::{gemm_device, gemm_device_weight_resident, gemm_nt_device, gemm_tn_device};
pub use rnn::{
    gru_blend, gru_blend_grad, gru_cell, gru_cell_grad, lstm_cell, lstm_cell_grad, sigmoid_add,
    GruBlendGrad, GruBlendOut, GruCellGrad, GruCellOut, LstmCellGrad, LstmCellOut,
};
pub use spmm::{
    pipad_access_plan, spmm_coo_scatter, spmm_gespmm, spmm_sliced_parallel, PipadAccessPlan,
};
pub use transfer::{
    download_matrix, upload_coo, upload_csr, upload_csr_with_csc, upload_matrix, upload_sliced,
};
