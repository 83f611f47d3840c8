//! # pipad-serve
//!
//! Online inference serving for PiPAD-trained dynamic GNNs (DESIGN.md
//! §3.16): the inference half of the north star, built from the training
//! machinery the first six PRs grew.
//!
//! A serving run is a deterministic open-loop simulation on the
//! [`pipad_gpu_sim`] clock:
//!
//! * a **seeded request generator** ([`request`]) produces arrivals and
//!   per-request target-node sets over a `dyngraph` snapshot stream — the
//!   stream publishes one new snapshot per period, so the servable frame
//!   advances monotonically with simulated time;
//! * a **dynamic micro-batcher** ([`batcher`]) with a max-batch-size /
//!   max-delay policy and a bounded admission queue: overflowing arrivals
//!   are rejected with a typed reason and counted as backpressure, and a
//!   batch closes as soon as the device is idle;
//! * a **serving engine** ([`engine`]) that loads model parameters from a
//!   [`pipad_ckpt`] checkpoint (fingerprint-validated, typed errors on
//!   mismatch) and runs batched forwards through the same
//!   [`pipad::PipadExecutor`] + [`pipad_models`] path the trainer uses —
//!   so served logits are bit-identical to the train-time forward — and,
//!   like the trainer's steady frames, replays each forward plan as a CUDA
//!   graph once its first forward has captured it;
//! * **inter-snapshot reuse** via [`pipad::InterFrameReuse`], driven by
//!   the same calls the trainer makes: a restore warm-starts its CPU tier,
//!   freshly computed layer-1 aggregations are deposited there, and each
//!   served frame's stay device-resident inside the store's budget, so
//!   steady-state requests skip both the aggregation kernels and the
//!   redundant PCIe uploads.
//!
//! The serving loop ([`sim`]) is an event loop on the simulated clock:
//! it asks the batcher for the next batch, runs it, and feeds the device's
//! free time back into the batcher. It emits
//! `enqueue`/`batch_form`/`serve_forward` trace spans for every request,
//! and reports p50/p95/p99 latency, throughput, the batch-size histogram,
//! the admission-queue high-water mark and the graph captures and
//! replays. Everything is a pure function of (checkpoint, graph, config):
//! byte-identical across `PIPAD_THREADS` and with the host buffer pool
//! disabled.

pub mod batcher;
pub mod engine;
pub mod request;
pub mod sim;

pub use batcher::{form_batches, Batch, BatchPolicy, Batcher};
pub use engine::{EngineConfig, ServeEngine};
pub use request::{generate_requests, Request, RequestGenConfig};
pub use sim::{
    serve_open_loop, LatencySummary, RequestOutcome, RequestRecord, ServeReport, ServeSimConfig,
};

use pipad_ckpt::CkptError;
use pipad_gpu_sim::DeviceFault;
use std::path::PathBuf;

/// Typed serving failures: everything that can stop a serving run (as
/// opposed to per-request rejections, which are [`RejectReason`]s).
#[derive(Debug)]
pub enum ServeError {
    /// The checkpoint directory holds no checkpoint to serve from.
    NoCheckpoint(PathBuf),
    /// The checkpoint is unreadable, malformed, or its fingerprint does
    /// not match the run this engine was configured for.
    Ckpt(CkptError),
    /// An unrecoverable device fault (e.g. a crash) ended the run.
    Device(DeviceFault),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoCheckpoint(dir) => {
                write!(f, "no checkpoint to serve from in {}", dir.display())
            }
            ServeError::Ckpt(e) => write!(f, "checkpoint rejected: {e}"),
            ServeError::Device(e) => write!(f, "device fault ended the serving run: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CkptError> for ServeError {
    fn from(e: CkptError) -> Self {
        ServeError::Ckpt(e)
    }
}

impl From<DeviceFault> for ServeError {
    fn from(e: DeviceFault) -> Self {
        ServeError::Device(e)
    }
}

impl From<pipad_gpu_sim::OomError> for ServeError {
    fn from(e: pipad_gpu_sim::OomError) -> Self {
        ServeError::Device(DeviceFault::Oom(e))
    }
}

/// Why a request was not served. Every rejected request carries one; the
/// chaos contract is that faults turn into these, never into panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission queue was at capacity when the request arrived.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The batch's forward failed with a device fault that survived the
    /// recovery ladder; `detail` is the fault's rendered message.
    DeviceFault {
        /// Rendered [`DeviceFault`] message.
        detail: String,
    },
    /// The forward produced non-finite logits (poisoned launch); the
    /// frame's reuse deposits were purged and the batch rejected.
    PoisonedOutput,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            RejectReason::DeviceFault { detail } => write!(f, "device fault: {detail}"),
            RejectReason::PoisonedOutput => write!(f, "non-finite logits (poisoned output)"),
        }
    }
}
