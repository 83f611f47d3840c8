//! Device parameterization. The default profile mirrors the NVIDIA Tesla
//! V100 (16 GB HBM2) used by the paper's testbed, with PCIe 3.0 x16.

/// Hardware parameters of the simulated GPU and its host link.
///
/// All bandwidths use bytes-per-microsecond so that timeline math stays in
/// exact integer nanoseconds (see [`crate::SimNanos::from_bytes`]).
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Human-readable device name (reporting only).
    pub name: String,
    /// Number of streaming multiprocessors. V100: 80.
    pub num_sms: u32,
    /// Threads per warp. 32 on every mainstream NVIDIA part.
    pub warp_size: u32,
    /// Resident thread blocks per SM used by the load-balance scheduler.
    pub blocks_per_sm: u32,
    /// HBM bandwidth, bytes per microsecond. V100: ~900 GB/s = 900_000.
    pub hbm_bytes_per_us: u64,
    /// Minimum global-memory transaction size in bytes (32 on NVIDIA).
    pub transaction_bytes: u32,
    /// Maximum bytes one warp can fetch with a single request (32 threads ×
    /// 4 bytes = 128 without vector instructions).
    pub max_request_bytes: u32,
    /// Shared-memory transactions served per nanosecond (aggregate).
    pub smem_txn_per_ns: u64,
    /// Peak FP32 throughput, FLOPs per nanosecond. V100: ~14 TFLOP/s.
    pub flops_per_ns: u64,
    /// Device memory capacity in bytes. V100 in the paper: 16 GiB.
    pub capacity_bytes: u64,
    /// PCIe bandwidth from pinned host memory, bytes/us (~12 GB/s).
    pub pcie_pinned_bytes_per_us: u64,
    /// PCIe bandwidth from pageable host memory, bytes/us (~6 GB/s).
    pub pcie_pageable_bytes_per_us: u64,
    /// Fixed latency per PCIe transfer, nanoseconds.
    pub pcie_latency_ns: u64,
    /// Fixed driver overhead per individually-launched kernel, nanoseconds.
    /// This is the overhead CUDA Graphs amortize (§4.2 of the paper).
    pub kernel_launch_ns: u64,
    /// Per-kernel overhead when launched as part of a captured CUDA graph.
    pub graph_kernel_ns: u64,
    /// Fixed overhead for replaying a whole CUDA graph, nanoseconds.
    pub graph_launch_ns: u64,
    /// Fixed host-side (framework/Python) overhead per prepared snapshot or
    /// host operation, nanoseconds. Dominates on tiny graphs — the paper's
    /// Table 2 note about "relatively larger CPU-side latency" on
    /// small-scale datasets.
    pub host_op_fixed_ns: u64,
    /// Host-side memory/staging throughput, bytes per microsecond.
    pub host_bytes_per_us: u64,
    /// Floor of the occupancy throttle on achieved memory bandwidth, in
    /// 1/1000ths. A warp with few active lanes keeps fewer loads in flight,
    /// so DRAM throughput degrades (§3.2's "low thread utilization") — but
    /// never below this floor (the latency-bound regime still overlaps
    /// requests across warps).
    pub mem_efficiency_floor_milli: u64,
}

impl DeviceConfig {
    /// The paper's testbed: Tesla V100, 16 GB HBM2, PCIe 3.0 x16.
    pub fn v100() -> Self {
        DeviceConfig {
            name: "sim-v100-16gb".to_string(),
            num_sms: 80,
            warp_size: 32,
            blocks_per_sm: 8,
            hbm_bytes_per_us: 900_000,
            transaction_bytes: 32,
            max_request_bytes: 128,
            smem_txn_per_ns: 8_000,
            flops_per_ns: 14_000,
            capacity_bytes: 16 << 30,
            pcie_pinned_bytes_per_us: 12_000,
            pcie_pageable_bytes_per_us: 6_000,
            pcie_latency_ns: 10_000,
            kernel_launch_ns: 5_000,
            graph_kernel_ns: 500,
            graph_launch_ns: 3_000,
            host_op_fixed_ns: 40_000,
            host_bytes_per_us: 20_000,
            mem_efficiency_floor_milli: 250,
        }
    }

    /// A deliberately small device for out-of-memory tests: same ratios as
    /// [`DeviceConfig::v100`] but with the given capacity.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        DeviceConfig {
            capacity_bytes,
            ..Self::v100()
        }
    }

    /// Total number of thread-block execution slots the scheduler fills.
    pub fn block_slots(&self) -> usize {
        (self.num_sms * self.blocks_per_sm) as usize
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::v100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_thresholds_match_paper() {
        let cfg = DeviceConfig::v100();
        // §3.2: unsaturation below 32/4 = 8 floats, burst above 128/4 = 32.
        assert_eq!(cfg.transaction_bytes / 4, 8);
        assert_eq!(cfg.max_request_bytes / 4, 32);
        assert_eq!(cfg.capacity_bytes, 16 << 30);
    }

    #[test]
    fn capacity_override() {
        let cfg = DeviceConfig::with_capacity(1 << 20);
        assert_eq!(cfg.capacity_bytes, 1 << 20);
        assert_eq!(cfg.num_sms, 80);
    }

    #[test]
    fn clone_is_structural() {
        let cfg = DeviceConfig::v100();
        let cfg2 = cfg.clone();
        assert_eq!(format!("{cfg:?}"), format!("{cfg2:?}"));
        assert_eq!(cfg.block_slots(), 640);
    }
}
