//! Golden-trace regression and trace-determinism gates.
//!
//! Two pinned workloads:
//!
//! 1. a hand-driven device workload whose exported Chrome-trace JSON is
//!    checked byte-for-byte against `tests/golden/trace_tiny.json` — any
//!    change to event naming, ordering, number formatting or the export
//!    envelope shows up as a diff of that file;
//! 2. an online-serving run over a hand-built micro graph whose exported
//!    trace is pinned against `tests/golden/serve_tiny.json` — the
//!    `enqueue`/`batch_form`/`serve_forward` span schema and the serving
//!    clock itself cannot drift silently — and must be byte-identical
//!    across host-pool thread counts.
//!
//! A full `train_pipad` run's trace across reruns, thread counts and the
//! buffer pool is `tests/pool_equivalence.rs`'s gate.

use pipad::{train_pipad, PipadConfig};
use pipad_ckpt::CheckpointPolicy;
use pipad_dyngraph::{DynamicGraph, Snapshot};
use pipad_gpu_sim::{
    export_chrome_trace, trace_text_summary, validate_json, DeviceConfig, Gpu, KernelCategory,
    KernelCost, SimNanos,
};
use pipad_models::{ModelKind, TrainingConfig};
use pipad_pool::with_threads;
use pipad_repro::serve::{
    serve_open_loop, BatchPolicy, EngineConfig, RequestGenConfig, ServeEngine, ServeSimConfig,
};
use pipad_repro::sparse::Csr;
use pipad_repro::tensor::Matrix;

/// A miniature pipelined step: pinned upload on a copy stream, dependent
/// kernel on the default stream, pageable readback, one host-side op.
fn tiny_workload() -> Gpu {
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let compute = gpu.default_stream();
    let copy = gpu.create_stream();
    let buf = gpu.alloc(1 << 20).expect("alloc");
    gpu.h2d(copy, 1 << 20, true);
    let staged = gpu.record_event(copy);
    gpu.wait_event(compute, staged);
    gpu.launch(
        compute,
        KernelCost::new("axpy", KernelCategory::Elementwise)
            .flops(1 << 18)
            .gmem(1 << 13, 1 << 13)
            .uniform_blocks(64, 4096),
    );
    let (h0, _) = gpu.host_op("loss_host", gpu.now(), SimNanos::from_micros(3));
    let _ = h0;
    gpu.d2h(compute, 1 << 10, false);
    gpu.free(buf);
    gpu.synchronize();
    gpu
}

#[test]
fn tiny_trace_matches_golden() {
    let gpu = tiny_workload();
    let got = export_chrome_trace(gpu.trace(), 0);
    validate_json(&got).expect("well-formed");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_tiny.json");
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = include_str!("golden/trace_tiny.json");
    assert_eq!(
        got, want,
        "exported trace diverged from tests/golden/trace_tiny.json; if the \
         change is intentional, rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn tiny_trace_summary_is_stable() {
    let gpu = tiny_workload();
    let a = trace_text_summary(gpu.trace());
    let b = trace_text_summary(tiny_workload().trace());
    assert_eq!(a, b);
    assert!(a.contains("device_mem_in_use"), "{a}");
}

/// A 4-vertex path graph with one time-varying chord, 6 snapshots of
/// 2-dim features: large enough to exercise batching, reuse and frame
/// advancement, small enough to keep the golden export reviewable.
fn micro_graph() -> DynamicGraph {
    let snaps = (0..6)
        .map(|t| {
            let mut edges = vec![(0u32, 1u32), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)];
            let chord = (t % 3) as u32;
            if chord != 3 {
                edges.push((chord, 3));
                edges.push((3, chord));
            }
            let features = Matrix::from_fn(4, 2, |r, c| {
                (r * 2 + c) as f32 * 0.25 + t as f32 * 0.125 - 0.5
            });
            Snapshot::new(Csr::from_edges(4, 4, &edges), features)
        })
        .collect();
    DynamicGraph::new("micro-serve", snaps)
}

/// Train the micro graph with checkpointing, then serve a short bursty
/// request plan with a deliberately tight admission queue (capacity below
/// `max_batch`, so the golden file also pins the rejected-request
/// `enqueue` schema). Returns the serving device.
fn micro_serve_gpu(dir: &std::path::Path) -> Gpu {
    let graph = micro_graph();
    let cfg = TrainingConfig {
        window: 2,
        epochs: 3,
        preparing_epochs: 1,
        lr: 0.01,
        seed: 5,
    };
    let _ = std::fs::remove_dir_all(dir);
    let mut tg = Gpu::new(DeviceConfig::v100());
    let pcfg = PipadConfig {
        checkpoint: Some(CheckpointPolicy::new(dir.to_path_buf(), 2)),
        ..PipadConfig::default()
    };
    train_pipad(&mut tg, ModelKind::TGcn, &graph, 4, &cfg, &pcfg).expect("train micro graph");

    let mut gpu = Gpu::new(DeviceConfig::v100());
    let ecfg = EngineConfig { hidden: 4 };
    let mut engine = ServeEngine::from_latest(&mut gpu, dir, ModelKind::TGcn, &graph, &cfg, &ecfg)
        .expect("restore micro checkpoint");
    let scfg = ServeSimConfig {
        batch: BatchPolicy {
            max_batch: 4,
            max_delay_ns: 250_000,
            queue_capacity: 2,
        },
        gen: RequestGenConfig {
            seed: 2,
            n_requests: 6,
            mean_interarrival_ns: 120_000,
            max_targets: 2,
            snapshot_period_ns: 300_000,
        },
    };
    let report = serve_open_loop(&mut gpu, &mut engine, &scfg).expect("serve micro graph");
    assert!(report.served > 0, "golden workload served nothing");
    let _ = std::fs::remove_dir_all(dir);
    gpu
}

#[test]
fn serve_trace_matches_golden() {
    let dir = std::env::temp_dir().join(format!("pipad-serve-golden-{}", std::process::id()));
    let gpu = micro_serve_gpu(&dir);
    let got = export_chrome_trace(gpu.trace(), 0);
    validate_json(&got).expect("well-formed");
    for needle in ["enqueue", "batch_form", "serve_forward"] {
        assert!(got.contains(needle), "serve trace lost its {needle} events");
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/serve_tiny.json");
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = include_str!("golden/serve_tiny.json");
    assert_eq!(
        got, want,
        "serving trace diverged from tests/golden/serve_tiny.json; if the \
         change is intentional, rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn serve_trace_is_byte_identical_across_threads() {
    let dir = std::env::temp_dir().join(format!("pipad-serve-golden-t-{}", std::process::id()));
    let base = export_chrome_trace(micro_serve_gpu(&dir).trace(), 0);
    for threads in [1usize, 4] {
        let under_pool = with_threads(threads, || {
            export_chrome_trace(micro_serve_gpu(&dir).trace(), 0)
        });
        assert_eq!(
            base, under_pool,
            "serving trace diverged under a {threads}-thread host pool"
        );
    }
}
