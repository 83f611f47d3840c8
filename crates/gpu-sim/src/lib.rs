#![warn(missing_docs)]
//! # pipad-gpu-sim
//!
//! A deterministic, discrete-event software model of a CUDA-class GPU and its
//! PCIe link. This crate is the hardware substitute for the NVIDIA V100 used
//! by the PiPAD paper (PPoPP'23): every quantity the paper's evaluation
//! reports — latency breakdowns, global-memory request/transaction counts,
//! warp execution efficiency, SM utilization, load balance, transfer/compute
//! overlap — is produced by this model instead of real silicon.
//!
//! The model is intentionally *transaction-level*, not cycle-accurate:
//!
//! * global memory moves in 32-byte transactions; a warp issues at most one
//!   128-byte request per instruction ([`DeviceConfig::transaction_bytes`],
//!   [`DeviceConfig::max_request_bytes`]), which is exactly the mechanism
//!   behind the paper's "bandwidth unsaturation" (feature dim < 8 floats) and
//!   "request burst" (feature dim > 32 floats) inefficiencies (§3.2, Fig. 5);
//! * a kernel's duration is `launch + max(mem, compute, smem) × imbalance`,
//!   where the imbalance factor comes from greedily scheduling the kernel's
//!   per-thread-block work onto the SMs (Figure 12's "Balanced vs Actual");
//! * kernels are serialized on the compute lane while host→device and
//!   device→host copies run on independent copy-engine lanes, so CUDA-stream
//!   style transfer/compute overlap behaves as on real hardware (Figure 8);
//! * all arithmetic is integer nanoseconds — runs are bit-for-bit
//!   reproducible;
//! * every kernel launch, copy and host op is one record in the device's
//!   [`Tracer`], the only timeline log, which stores each fact once: a
//!   kernel's cost is one interned [`KernelArgs`], a copy's bytes live in
//!   its args, and counter high-water marks are folded from the counter
//!   records. The exported trace ([`Events`]) and the [`Profiler`]'s
//!   samples ([`Samples`]) are two renderings of one [`Records`] view.
//!
//! The numerical work of a kernel is performed by the caller (see
//! `pipad-kernels`); this crate only accounts for its cost and its position
//! on the simulated timeline.
//!
//! ## Quick example
//!
//! ```
//! use pipad_gpu_sim::{DeviceConfig, Gpu, KernelCategory, KernelCost};
//!
//! let mut gpu = Gpu::new(DeviceConfig::v100());
//! let s = gpu.create_stream();
//! let buf = gpu.alloc(1 << 20).unwrap();
//! gpu.h2d(s, 1 << 20, true); // 1 MiB pinned host-to-device copy
//! gpu.launch(
//!     s,
//!     KernelCost::new("axpy", KernelCategory::Elementwise)
//!         .flops(1 << 18)
//!         .gmem(1 << 13, 1 << 13)
//!         .uniform_blocks(64, 4096),
//! );
//! gpu.free(buf);
//! assert!(gpu.now().as_nanos() > 0);
//! ```

mod config;
mod cost;
mod device;
mod faults;
mod intern;
mod json;
mod memory;
mod profiler;
mod schedule;
mod time;
mod trace;

pub use config::DeviceConfig;
pub use cost::{feature_row_access, AccessShape, KernelCategory, KernelCost, VectorWidth};
pub use device::{DeviceClock, Event, Gpu, StreamId, TransferDir};
pub use faults::{
    CrashCounter, CrashError, CrashPoint, DeviceFault, FaultPlan, FaultStats, OpCounters,
    StragglerRange, TransferError, TransferFault,
};
pub use json::{validate_json, Json};
pub use memory::{BufferId, DeviceMemory, OomError};
pub use profiler::{
    total_ns, union_intervals, Breakdown, ProfSnapshot, Profiler, Sample, SampleKind, Samples,
    SamplesIter,
};
pub use schedule::{ratio_milli, schedule_blocks, BalanceReport};
pub use time::SimNanos;
pub use trace::{
    export_chrome_trace, export_chrome_trace_window, json_escape, last_span_window,
    trace_text_summary, ArgValue, Events, EventsIter, KernelArgs, Lane, Records, RecordsIter,
    TraceEvent, TraceKind, Tracer,
};
