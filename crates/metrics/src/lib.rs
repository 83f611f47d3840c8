//! Unified deterministic metrics layer for the PiPAD reproduction.
//!
//! PiPAD's performance claims are statements about pipeline health —
//! transfer/compute overlap, stall attribution, per-kernel efficiency —
//! but raw traces don't make those numbers comparable across runs or
//! catchable in CI. This crate turns the simulator's [`Tracer`] and
//! [`Profiler`] output into aggregate metrics with a hard determinism
//! contract, in three layers:
//!
//! * [`MetricsRegistry`] — counters, gauges and fixed-log2-bucket
//!   [`Log2Histogram`]s keyed by name + labels, `BTreeMap`-ordered so
//!   every export is byte-identical across runs, `PIPAD_THREADS`
//!   settings and buffer-pool state (no wall clock, no randomness, no
//!   interior mutability).
//! * [`mod@analyze`] — the pipeline-health analyzer: per-epoch overlap
//!   fractions, bubble/stall attribution, per-kernel duration tables,
//!   typed recovery/fault counters and device-allocation counts, derived
//!   purely from the simulated timeline.
//! * [`to_prometheus`] / [`to_json`] / [`to_table`] — three exporters
//!   over one registry; `tests/metrics_layer.rs` pins all three
//!   byte-for-byte and names every JSON key that drifts.
//!
//! The crate is dependency-free beyond `pipad-gpu-sim` (for the trace
//! types) — the same no-external-deps policy as the rest of the
//! workspace.
//!
//! [`Tracer`]: pipad_gpu_sim::Tracer
//! [`Profiler`]: pipad_gpu_sim::Profiler

#![warn(missing_docs)]

pub mod analyze;
pub mod export;
pub mod hist;
pub mod registry;
pub mod summary;

pub use analyze::{analyze, EpochHealth, KernelAgg, PipelineHealth, StreamHealth, WindowHealth};
pub use export::{to_json, to_prometheus, to_table};
pub use hist::{bucket_index, bucket_lower_bound, bucket_upper_bound, Log2Histogram, LOG2_BUCKETS};
pub use pipad_gpu_sim::Json;
pub use registry::{MetricKey, MetricsRegistry};
pub use summary::{percentile_nearest_rank, Percentiles};
