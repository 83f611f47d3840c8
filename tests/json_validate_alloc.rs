//! `validate_json` must not build a tree: it runs over Chrome traces of
//! hundreds of megabytes (`repro trace`, the benchmark's traced pass), so
//! its heap use has to be independent of the document — a handful of
//! allocator calls, not one or more per trace event.
//!
//! This file holds exactly one test: heap counters are process-global,
//! so the binary must not run unrelated tests concurrently.

use pipad::{train_pipad, PipadConfig};
use pipad_dyngraph::{DatasetId, Scale};
use pipad_gpu_sim::{export_chrome_trace, validate_json, DeviceConfig, Gpu, Json};
use pipad_models::{ModelKind, TrainingConfig};
use pipad_tensor::{heap_counters, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn validating_a_trace_allocates_no_tree() {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let cfg = TrainingConfig {
        window: 8,
        epochs: 2,
        preparing_epochs: 1,
        lr: 0.01,
        seed: 7,
    };
    let mut gpu = Gpu::new(DeviceConfig::v100());
    train_pipad(
        &mut gpu,
        ModelKind::TGcn,
        &graph,
        8,
        &cfg,
        &PipadConfig::default(),
    )
    .expect("train");
    let events = gpu.trace().events().len() as u64;
    assert!(events > 5_000, "trace too small to tell: {events} events");
    let doc = export_chrome_trace(gpu.trace(), 0);

    let (before, _) = heap_counters();
    validate_json(&doc).expect("exported trace is well-formed");
    let (after, _) = heap_counters();
    assert!(
        after - before <= 2,
        "validate_json made {} heap allocations over {events} events",
        after - before
    );

    // The same grammar with the tree: the counter is live, and this is what
    // "validate = parse and drop" would cost.
    let (before, _) = heap_counters();
    Json::parse(&doc).expect("same grammar");
    let (after, _) = heap_counters();
    assert!(
        after - before > events,
        "Json::parse made only {} heap allocations over {events} events",
        after - before
    );
}
