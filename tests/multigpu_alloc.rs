//! Allocation-budget gate for multi-GPU training: the sharded trainer's
//! steady-state epochs must stay on the buffer-pool hot path just like the
//! single-GPU pipeline — halo blocks, the halo capture's `H¹`, gradient
//! sums and staging temporaries all recycle through the pool, so pool
//! misses drop by ≥95% once the preparing epochs have warmed it, and total
//! heap allocator calls per steady epoch stay under a pinned ceiling.
//!
//! This file holds exactly one test: heap counters are process-global,
//! so the binary must not run unrelated tests concurrently.

use pipad::{train_data_parallel, MultiGpuConfig};
use pipad_dyngraph::{DatasetId, Scale};
use pipad_models::{ModelKind, TrainingConfig};
use pipad_tensor::{reset_pool, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn multi_gpu_steady_epochs_stay_on_the_pool_hot_path() {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let cfg = TrainingConfig {
        window: 8,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 7,
    };
    // MPNN-LSTM exercises the full halo-exchange machinery (the halo
    // capture's layer 1, peer-block slicing, two-sweep backward) — the
    // paths most likely to leak un-pooled allocations.
    //
    // Ceilings: 22 272 and 39 773.5 heap allocator calls per steady epoch
    // observed, in dev and `--release`.
    for (model, steady_heap_budget) in
        [(ModelKind::TGcn, 22_500.0), (ModelKind::MpnnLstm, 40_200.0)]
    {
        reset_pool();
        let report = train_data_parallel(
            model,
            &graph,
            8,
            &cfg,
            &MultiGpuConfig {
                n_gpus: 2,
                ..Default::default()
            },
        )
        .expect("train");

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

        for e in &report.epochs {
            assert!(
                e.alloc.heap_allocs > 0,
                "{model:?} epoch {}: allocator not counting",
                e.epoch
            );
            assert!(
                e.alloc.pool_hits > 0,
                "{model:?} epoch {}: pool never hit",
                e.epoch
            );
        }

        let prep_misses = mean(true, &|s| s.pool_misses);
        let steady_misses = mean(false, &|s| s.pool_misses);
        assert!(
            steady_misses <= 0.05 * prep_misses,
            "{model:?}: steady multi-GPU epochs still hit the heap on the hot \
             path: {steady_misses:.0} misses/epoch vs {prep_misses:.0} \
             preparing (need >=95% reduction)"
        );
        let steady_allocs = mean(false, &|s| s.heap_allocs);
        assert!(
            steady_allocs <= steady_heap_budget,
            "{model:?}: steady epoch exceeds the allocation budget: \
             {steady_allocs:.0} > {steady_heap_budget}"
        );
    }
}
