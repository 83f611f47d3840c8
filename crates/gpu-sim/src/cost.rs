//! Kernel cost descriptors and the global-memory access-shape math that
//! drives the paper's §3.2 analysis (bandwidth unsaturation / request burst)
//! and Figure 5.

use crate::config::DeviceConfig;

/// What a kernel is doing, for latency breakdowns (Figures 3 and 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelCategory {
    /// SpMM-like neighbor aggregation (the GNN bottleneck).
    Aggregation,
    /// FC-layer update (GEMM over aggregated features).
    Update,
    /// Time-dependent RNN component work (LSTM/GRU gates).
    Rnn,
    /// Pointwise kernels: activations, adds, scaling.
    Elementwise,
    /// Loss and gradient seeding.
    Loss,
    /// Parameter updates.
    Optimizer,
    /// Anything else.
    Other,
}

impl KernelCategory {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            KernelCategory::Aggregation => "aggregation",
            KernelCategory::Update => "update",
            KernelCategory::Rnn => "rnn",
            KernelCategory::Elementwise => "elementwise",
            KernelCategory::Loss => "loss",
            KernelCategory::Optimizer => "optimizer",
            KernelCategory::Other => "other",
        }
    }
}

/// Width of a vectorized load, in 4-byte words per thread.
///
/// CUDA's vector memory instructions (`LDG.64` / `LDG.128`, see the paper's
/// §4.2 "vector-memory-instruction based memory access") let one warp request
/// cover 2× or 4× the scalar 128 bytes, which removes the request-burst
/// problem for large feature dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorWidth {
    /// Scalar 32-bit loads: warp request covers 128 B.
    W1,
    /// `float2`-style loads: warp request covers 256 B.
    W2,
    /// `float4`-style loads: warp request covers 512 B.
    W4,
}

impl VectorWidth {
    /// Storage size in 4-byte words.
    pub fn words(self) -> u32 {
        match self {
            VectorWidth::W1 => 1,
            VectorWidth::W2 => 2,
            VectorWidth::W4 => 4,
        }
    }

    /// Pick the widest vector load that divides the row length; mirrors the
    /// dimension-aware dispatch of the parallel GNN (§4.2).
    pub fn for_dim(dim: u32) -> VectorWidth {
        if dim >= 32 && dim.is_multiple_of(4) {
            VectorWidth::W4
        } else if dim >= 16 && dim.is_multiple_of(2) {
            VectorWidth::W2
        } else {
            VectorWidth::W1
        }
    }
}

/// Requests/transactions generated by one warp reading one dense row of
/// `dim` f32 values from global memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessShape {
    /// Global memory requests issued.
    pub requests: u64,
    /// 32-byte transactions generated.
    pub transactions: u64,
    /// Useful bytes out of the bytes actually moved (≤ 1 numerator/denominator
    /// pair; kept as integers for determinism).
    pub useful_bytes: u64,
    /// Bytes actually moved (transactions × 32 B).
    pub moved_bytes: u64,
    /// Fraction of the warp's 32 lanes doing work on this row, in 1/32nds.
    pub active_lanes: u32,
}

impl AccessShape {
    /// Bandwidth efficiency in `[0, 1]`.
    pub fn efficiency(&self) -> f64 {
        if self.moved_bytes == 0 {
            1.0
        } else {
            self.useful_bytes as f64 / self.moved_bytes as f64
        }
    }
}

/// Model one warp reading a dense f32 row of length `dim`.
///
/// * `dim < 8`  → one transaction still moves 32 bytes: **bandwidth
///   unsaturation** (Figure 5's flat region, `#R == #T`).
/// * `8 ≤ dim ≤ 32` → transactions grow with `ceil(4·dim/32)` while a single
///   request still suffices.
/// * `dim > 32` → **request burst**: scalar loads need
///   `ceil(4·dim/128)` requests; vector loads divide that by the vector
///   width, which is PiPAD's large-dimension remedy.
pub fn feature_row_access(cfg: &DeviceConfig, dim: u32, vector: VectorWidth) -> AccessShape {
    assert!(dim > 0, "feature dimension must be positive");
    let row_bytes = dim as u64 * 4;
    let txn = cfg.transaction_bytes as u64;
    let transactions = row_bytes.div_ceil(txn).max(1);
    let request_bytes = cfg.max_request_bytes as u64 * vector.words() as u64;
    let requests = row_bytes.div_ceil(request_bytes).max(1);
    let moved = transactions * txn;
    // Lanes active: each lane handles `vector.words()` consecutive floats.
    let lanes_needed = dim.div_ceil(vector.words());
    let active = lanes_needed.min(cfg.warp_size);
    AccessShape {
        requests,
        transactions,
        useful_bytes: row_bytes.min(moved),
        moved_bytes: moved,
        active_lanes: active,
    }
}

/// Complete cost descriptor for one kernel launch.
///
/// Built by the kernel implementations in `pipad-kernels`; consumed by
/// [`crate::Gpu::launch`] to place the kernel on the timeline and feed the
/// profiler.
#[derive(Clone, Debug)]
pub struct KernelCost {
    /// Kernel name shown in profiler output (e.g. `"spmm_row_per_warp"`).
    pub name: &'static str,
    /// Breakdown category this launch bills to.
    pub category: KernelCategory,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Global-memory requests issued (nvprof's `gld_request`-style count).
    pub gmem_requests: u64,
    /// 32-byte global-memory transactions generated.
    pub gmem_transactions: u64,
    /// Shared-memory transactions.
    pub smem_transactions: u64,
    /// Time-weighted average active threads per warp, in 1/1000ths
    /// (`warp_execution_efficiency` in nvprof terms). 1000 = all 32 lanes.
    pub warp_efficiency_milli: u32,
    /// Work units per thread block, used for load-balance scheduling.
    /// Empty means "assume perfectly balanced".
    pub block_work: Vec<u64>,
}

impl KernelCost {
    /// Create a new instance.
    pub fn new(name: &'static str, category: KernelCategory) -> Self {
        KernelCost {
            name,
            category,
            flops: 0,
            gmem_requests: 0,
            gmem_transactions: 0,
            smem_transactions: 0,
            warp_efficiency_milli: 1000,
            block_work: Vec::new(),
        }
    }

    /// Flops.
    pub fn flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Gmem.
    pub fn gmem(mut self, requests: u64, transactions: u64) -> Self {
        self.gmem_requests = requests;
        self.gmem_transactions = transactions;
        self
    }

    /// Smem.
    pub fn smem(mut self, transactions: u64) -> Self {
        self.smem_transactions = transactions;
        self
    }

    /// Warp execution efficiency as a fraction of active lanes (0.0–1.0).
    pub fn warp_efficiency(mut self, frac: f64) -> Self {
        self.warp_efficiency_milli = (frac.clamp(0.0, 1.0) * 1000.0).round() as u32;
        self
    }

    /// Per-block work units (drives the imbalance factor).
    pub fn blocks(mut self, work: Vec<u64>) -> Self {
        self.block_work = work;
        self
    }

    /// `n` blocks each carrying `work` units — perfectly balanced launch.
    pub fn uniform_blocks(mut self, n: usize, work: u64) -> Self {
        self.block_work = vec![work; n];
        self
    }

    /// Total bytes this kernel moves through global memory.
    pub fn gmem_bytes(&self, cfg: &DeviceConfig) -> u64 {
        self.gmem_transactions * cfg.transaction_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DeviceConfig {
        DeviceConfig::v100()
    }

    #[test]
    fn small_dim_is_bandwidth_unsaturated() {
        // Paper §3.2 / Figure 5: below 8 floats, #R == #T == 1 per row and
        // efficiency < 1.
        for dim in 1..8u32 {
            let a = feature_row_access(&cfg(), dim, VectorWidth::W1);
            assert_eq!(a.requests, 1, "dim={dim}");
            assert_eq!(a.transactions, 1, "dim={dim}");
            assert!(a.efficiency() < 1.0, "dim={dim}");
        }
        let a8 = feature_row_access(&cfg(), 8, VectorWidth::W1);
        assert_eq!((a8.requests, a8.transactions), (1, 1));
        assert_eq!(a8.efficiency(), 1.0);
    }

    #[test]
    fn transactions_rise_after_8_requests_after_32() {
        // Figure 5's two knees.
        let a16 = feature_row_access(&cfg(), 16, VectorWidth::W1);
        assert_eq!((a16.requests, a16.transactions), (1, 2));
        let a32 = feature_row_access(&cfg(), 32, VectorWidth::W1);
        assert_eq!((a32.requests, a32.transactions), (1, 4));
        let a64 = feature_row_access(&cfg(), 64, VectorWidth::W1);
        assert_eq!((a64.requests, a64.transactions), (2, 8));
        let a256 = feature_row_access(&cfg(), 256, VectorWidth::W1);
        assert_eq!((a256.requests, a256.transactions), (8, 32));
    }

    #[test]
    fn vector_loads_cut_requests_not_transactions() {
        // §4.2: vectorized access fixes request burst; transaction count is
        // dictated by bytes moved and cannot shrink.
        let scalar = feature_row_access(&cfg(), 128, VectorWidth::W1);
        let vec4 = feature_row_access(&cfg(), 128, VectorWidth::W4);
        assert_eq!(scalar.requests, 4);
        assert_eq!(vec4.requests, 1);
        assert_eq!(scalar.transactions, vec4.transactions);
    }

    #[test]
    fn vector_width_dispatch() {
        assert_eq!(VectorWidth::for_dim(2), VectorWidth::W1);
        assert_eq!(VectorWidth::for_dim(16), VectorWidth::W2);
        assert_eq!(VectorWidth::for_dim(64), VectorWidth::W4);
        assert_eq!(VectorWidth::for_dim(33), VectorWidth::W1);
    }

    #[test]
    fn active_lanes_reflect_thread_utilization() {
        // dim=2 scalar: only 2 of 32 lanes active — the low-thread-
        // utilization problem PiPAD's slice coalescing addresses.
        let a = feature_row_access(&cfg(), 2, VectorWidth::W1);
        assert_eq!(a.active_lanes, 2);
        let b = feature_row_access(&cfg(), 64, VectorWidth::W1);
        assert_eq!(b.active_lanes, 32);
    }

    #[test]
    fn cost_builder() {
        let a = KernelCost::new("a", KernelCategory::Aggregation)
            .flops(100)
            .gmem(10, 20)
            .warp_efficiency(0.5)
            .uniform_blocks(2, 7);
        assert_eq!(
            (a.flops, a.gmem_requests, a.gmem_transactions),
            (100, 10, 20)
        );
        assert_eq!(a.warp_efficiency_milli, 500);
        assert_eq!(a.block_work, vec![7, 7]);
        assert_eq!(a.gmem_bytes(&cfg()), 20 * 32);
    }
}
