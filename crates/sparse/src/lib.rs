#![warn(missing_docs)]
//! # pipad-sparse
//!
//! Sparse graph representations for the PiPAD reproduction:
//!
//! * [`Csr`] — compressed sparse row, the standard aggregation format;
//! * [`SlicedCsr`] — the paper's §4.1 contribution: every row is cut into
//!   slices holding at most `slice_cap` (default 32) nonzeros, stored with
//!   `Row Indices` + `Slice Offsets` arrays. Slices give (a) a fine, stable
//!   granularity for extracting the topology overlap shared by adjacent
//!   snapshots and (b) bounded per-warp work for load balance;
//! * [`overlap`] — slice-friendly overlap/exclusive splitting of a snapshot
//!   group;
//! * [`balance`] — per-thread-block work distributions for the Figure 12
//!   load-balance analysis.
//!
//! Space accounting follows the paper exactly: CSR costs
//! `2·nnz + #vertices + 1` words, sliced CSR `2·nnz + 2·#slices + 1`, COO
//! `3·nnz` (§4.1 "Space overhead"). COO is what PyG(T) ships to the device;
//! only its size is needed, so it is a byte count ([`Csr::coo_bytes`]), not
//! a type.

pub mod balance;
mod csr;
pub mod overlap;
mod sliced;

pub use balance::{csr_row_work, partition_rows_balanced};
pub use csr::Csr;
pub use overlap::{extract_overlap, overlap_rate, OverlapSplit};
pub use sliced::{SlicedCsr, DEFAULT_SLICE_CAP};
