#![warn(missing_docs)]
//! # pipad-autograd
//!
//! Tape-based reverse-mode automatic differentiation whose forward **and**
//! backward passes run as accounted device kernels on the simulated GPU.
//! Every DGNN model in the reproduction (MPNN-LSTM, EvolveGCN, T-GCN) trains
//! through this tape, so the profiler sees the full kernel stream of a real
//! training iteration — forward aggregation/update/RNN work, the loss pair,
//! and the mirrored backward kernels.
//!
//! ## Design
//!
//! * A [`Tape`] is an arena of nodes; [`Var`] is an index into it.
//! * Leaf nodes are [`Tape::input`] (no gradient) or shared parameters
//!   registered with [`Tape::param`] (gradient accumulated on the tape and
//!   read back by the optimizer).
//! * Aggregation ops require **symmetric** adjacency (the generators produce
//!   undirected graphs), so the backward SpMM reuses the forward operator —
//!   PiPAD's overlap sharing then works identically in both directions.
//!   GE-SpMM instead keeps a CSC copy resident (see
//!   `pipad_kernels::upload_csr_with_csc`), matching the paper's note that
//!   this costs PyGT-G extra transfer volume.
//! * The recurrent gate algebra is four fused ops — [`Tape::lstm_cell`],
//!   [`Tape::gru_cell`], [`Tape::sigmoid_add`], [`Tape::gru_blend`] — one
//!   pointwise launch forward and one backward each, bit-identical to the
//!   one-op chains they replaced (the `rnn_oracle` tests keep those chains
//!   as the reference). Gradients are reference-counted so one buffer can
//!   be several parents' gradient without a copy launch.
//! * A second or later contribution to a node's gradient is accumulated
//!   where it is produced: the four kernels that feed every accumulation in
//!   the three models (`gemm_nt`, `gemm_tn`, `hadamard`, `col_sums`) take
//!   the gradient so far as a read-only operand (`D = prev + A·B`) and
//!   write the sum to a new buffer — bit-identical to the product followed
//!   by an `add` launch (the `acc_oracle` tests keep that pair as the
//!   reference). Only a contribution that arrives as an existing shared
//!   buffer still costs an `add`.
//! * [`Tape::split_rows`] / [`Tape::split_cols`] hand a stacked or
//!   coalescent result back per snapshot as free views, and their backward
//!   is concat — one gather launch per split over the gradients present,
//!   whatever the number of parts (the `split_oracle` tests keep the
//!   zero-padded sum it replaced as the reference).
//! * [`Tape::matmul_segments`] multiplies a frame's stacked timesteps in one
//!   GEMM; its weight gradient is one split-K launch whose per-timestep
//!   partials fold in the order one product per timestep accumulated them
//!   (the `seg_oracle` tests keep that sweep as the reference).
//! * [`Tape::finish`] frees every device allocation the tape made; leaked
//!   simulated memory would corrupt the tuner's peak statistics, so tests
//!   assert the device returns to its pre-tape footprint.

#[cfg(test)]
mod acc_oracle;
#[cfg(test)]
mod rnn_oracle;
#[cfg(test)]
mod seg_oracle;
#[cfg(test)]
mod split_oracle;
mod tape;

pub use tape::{AggregationKernel, SharedParam, Tape, Var};
