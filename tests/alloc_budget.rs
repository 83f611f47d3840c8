//! Allocation-budget gate: steady-state epochs must approach zero-alloc.
//!
//! Installs the counting global allocator and trains each paper model,
//! then asserts the zero-alloc-steady-state contract on the per-epoch
//! `HostAllocStats`:
//!
//! * for every model, hot-path heap allocations (buffer-pool misses, each
//!   one a real `Vec` allocation) drop by ≥95% from preparing to steady
//!   epochs, and every steady epoch hits the pool more than it misses;
//! * for T-GCN, total heap allocator calls per steady epoch, plain and
//!   checkpointing, stay under pinned budgets, so an accidentally un-pooled
//!   hot path shows up as a diff here rather than as silent regression.
//!
//! This file holds exactly one test: heap counters are process-global,
//! so the binary must not run unrelated tests concurrently.

use pipad::{train_pipad, PipadConfig};
use pipad_ckpt::CheckpointPolicy;
use pipad_dyngraph::{DatasetId, Scale};
use pipad_gpu_sim::{DeviceConfig, Gpu};
use pipad_models::{ModelKind, TrainingConfig};
use pipad_tensor::{reset_pool, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Ceiling on total heap allocator calls per T-GCN steady epoch for the
/// workload below: 2 652.5 observed (dev and `--release`, 1 and 2 pool
/// threads), with the 2 % headroom the ceiling has always had. Earlier: 8 231 while every trace
/// event owned its argument `Vec` and every kernel span its `category`
/// `String`, 8 353 when the ceiling was first pinned, 12 227 while every
/// second gradient contribution was an `add` launch, each shipped structure
/// a copy and each optimiser step a gradient clone. The count is the
/// simulator's profiling bookkeeping per launch, per copy and per device
/// allocation, and the argument lists of trace events that are not kernel
/// spans or counters, which the buffer pool does not cover.
const STEADY_EPOCH_HEAP_ALLOC_BUDGET: u64 = 2_707;

/// Ceiling for a steady epoch that also writes a checkpoint. Section
/// staging goes through the byte pool with exact size hints, so after the
/// first (preparing-epoch) write warms the pool, a checkpointing epoch
/// costs only file I/O and bookkeeping on top of the plain budget
/// (2 449 observed; 8 222 before trace argument lists were shared).
const CKPT_STEADY_EPOCH_HEAP_ALLOC_BUDGET: u64 = 2_707;

#[test]
fn steady_state_epochs_are_allocation_free_on_the_hot_path() {
    let tiny = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let laptop = DatasetId::Covid19England
        .gen_config(Scale::Laptop)
        .generate();
    let cfg = TrainingConfig {
        window: 16,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 7,
    };
    // T-GCN first, its checkpointing run right after: the order its
    // heap-call budgets were pinned in. EvolveGCN runs at laptop scale too,
    // where its backward takes gradients that tiny graphs never do.
    for (model, scale, graph) in [
        (ModelKind::TGcn, Scale::Tiny, &tiny),
        (ModelKind::EvolveGcn, Scale::Tiny, &tiny),
        (ModelKind::MpnnLstm, Scale::Tiny, &tiny),
        (ModelKind::EvolveGcn, Scale::Laptop, &laptop),
    ] {
        reset_pool();
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let report =
            train_pipad(&mut gpu, model, graph, 16, &cfg, &PipadConfig::default()).expect("train");

        let mean = |preparing: bool, f: &dyn Fn(&pipad_models::HostAllocStats) -> u64| -> f64 {
            let sel: Vec<u64> = report
                .epochs
                .iter()
                .filter(|e| (e.epoch < cfg.preparing_epochs) == preparing)
                .map(|e| f(&e.alloc))
                .collect();
            assert!(!sel.is_empty());
            sel.iter().sum::<u64>() as f64 / sel.len() as f64
        };

        // The counting allocator is installed, so heap counters must be live.
        for e in &report.epochs {
            assert!(
                e.alloc.heap_allocs > 0,
                "{model:?} at {scale:?} epoch {}: allocator not counting",
                e.epoch
            );
            assert!(
                e.alloc.pool_hits > 0,
                "{model:?} at {scale:?} epoch {}: pool never hit",
                e.epoch
            );
            if e.epoch >= cfg.preparing_epochs {
                assert!(
                    e.alloc.pool_hits > e.alloc.pool_misses,
                    "{model:?} at {scale:?} steady epoch {}: {} pool hits vs {} misses",
                    e.epoch,
                    e.alloc.pool_hits,
                    e.alloc.pool_misses
                );
            }
        }

        // ≥95% fewer hot-path heap allocations in steady state.
        let prep_misses = mean(true, &|s| s.pool_misses);
        let steady_misses = mean(false, &|s| s.pool_misses);
        assert!(
            steady_misses <= 0.05 * prep_misses,
            "{model:?} at {scale:?}: steady epochs still hit the heap on the hot path: \
             {steady_misses:.0} misses/epoch vs {prep_misses:.0} preparing \
             (need >=95% reduction)"
        );

        if model == ModelKind::TGcn {
            // Pinned total-allocation budget per steady epoch.
            let steady_allocs = mean(false, &|s| s.heap_allocs);
            assert!(
                steady_allocs <= STEADY_EPOCH_HEAP_ALLOC_BUDGET as f64,
                "steady epoch exceeds the allocation budget: {steady_allocs:.0} > {}",
                STEADY_EPOCH_HEAP_ALLOC_BUDGET
            );
            assert_checkpointing_epochs_within_budget(graph, &cfg);
        }
    }
}

/// Same T-GCN workload with checkpointing every 2 epochs (writes at epochs
/// 1, 3, 5). Checkpoint staging buffers come from the byte pool, so the
/// steady checkpointing epochs must stay within a pinned budget instead of
/// regressing to per-write heap churn.
fn assert_checkpointing_epochs_within_budget(
    graph: &pipad_dyngraph::DynamicGraph,
    cfg: &TrainingConfig,
) {
    reset_pool();
    let ckpt_dir = std::env::temp_dir().join(format!("pipad-alloc-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let cfg6 = TrainingConfig {
        epochs: 6,
        ..cfg.clone()
    };
    let pcfg = PipadConfig {
        checkpoint: Some(CheckpointPolicy::new(ckpt_dir.clone(), 2)),
        ..PipadConfig::default()
    };
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let report = train_pipad(&mut gpu, ModelKind::TGcn, graph, 16, &cfg6, &pcfg)
        .expect("train with checkpoints");
    let ckpt_epochs: Vec<_> = report
        .epochs
        .iter()
        .filter(|e| e.epoch >= cfg6.preparing_epochs && (e.epoch + 1) % 2 == 0)
        .collect();
    assert!(
        !ckpt_epochs.is_empty(),
        "schedule produced no steady checkpointing epoch"
    );
    for e in &ckpt_epochs {
        assert!(
            e.alloc.heap_allocs <= CKPT_STEADY_EPOCH_HEAP_ALLOC_BUDGET,
            "checkpointing epoch {} exceeds the allocation budget: {} > {}",
            e.epoch,
            e.alloc.heap_allocs,
            CKPT_STEADY_EPOCH_HEAP_ALLOC_BUDGET
        );
    }
    std::fs::remove_dir_all(&ckpt_dir).expect("cleanup checkpoints");
}
