//! Ablation integration tests: switch PiPAD's mechanisms off one at a time
//! and check each one actually carries weight (the DESIGN.md inventory's
//! per-mechanism attribution).

use pipad_repro::dyngraph::{DatasetId, DynamicGraph, Scale};
use pipad_repro::gpu_sim::{DeviceConfig, Gpu};
use pipad_repro::models::{ModelKind, TrainReport, TrainingConfig};
use pipad_repro::pipad::{train_pipad, PipadConfig};

fn graph() -> DynamicGraph {
    DatasetId::Covid19England.gen_config(Scale::Tiny).generate()
}

fn cfg() -> TrainingConfig {
    TrainingConfig {
        window: 8,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 9,
    }
}

fn run(model: ModelKind, pcfg: &PipadConfig) -> TrainReport {
    let g = graph();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    train_pipad(&mut gpu, model, &g, 16, &cfg(), pcfg).unwrap()
}

#[test]
fn inter_frame_reuse_carries_weight() {
    let with = run(ModelKind::TGcn, &PipadConfig::default());
    let without = run(
        ModelKind::TGcn,
        &PipadConfig {
            inter_frame_reuse: false,
            ..Default::default()
        },
    );
    // On T-GCN reuse eliminates all aggregation: both kernels and bytes drop.
    assert!(
        with.steady_epoch_time < without.steady_epoch_time,
        "reuse on {} vs off {}",
        with.steady_epoch_time,
        without.steady_epoch_time
    );
    assert!(with.steady.h2d_bytes < without.steady.h2d_bytes);
    let agg = |r: &TrainReport| {
        r.steady
            .compute_by_category
            .get("aggregation")
            .map(|t| t.as_nanos())
            .unwrap_or(0)
    };
    assert!(agg(&with) < agg(&without));
}

#[test]
fn cuda_graph_mode_cuts_launch_gaps() {
    let with = run(ModelKind::MpnnLstm, &PipadConfig::default());
    let without = run(
        ModelKind::MpnnLstm,
        &PipadConfig {
            cuda_graph: false,
            ..Default::default()
        },
    );
    assert!(
        with.steady_epoch_time < without.steady_epoch_time,
        "graphed {} vs individual {}",
        with.steady_epoch_time,
        without.steady_epoch_time
    );
    // identical kernel stream, only launch overheads differ
    assert_eq!(with.steady.kernel_launches, without.steady.kernel_launches);
    assert_eq!(
        with.steady.gmem_transactions,
        without.steady.gmem_transactions
    );
}

#[test]
fn ablations_do_not_change_numerics() {
    let reference = run(ModelKind::EvolveGcn, &PipadConfig::default()).losses();
    for pcfg in [
        PipadConfig {
            inter_frame_reuse: false,
            ..Default::default()
        },
        PipadConfig {
            cuda_graph: false,
            ..Default::default()
        },
        PipadConfig {
            use_sliced: false,
            ..Default::default()
        },
        PipadConfig {
            force_s_per: Some(4),
            ..Default::default()
        },
    ] {
        let losses = run(ModelKind::EvolveGcn, &pcfg).losses();
        for (a, b) in losses.iter().zip(&reference) {
            assert!(
                (a - b).abs() < 5e-3,
                "ablation changed learning: {a} vs {b} ({pcfg:?})"
            );
        }
    }
}

#[test]
fn larger_partitions_reduce_aggregation_traffic() {
    // The intra-frame parallelism win is memory traffic (the overlap
    // topology is read once per partition, and sub-transaction feature rows
    // coalesce), not launch count — exclusive parts add small launches.
    // Use a 2-dim dataset: the coalescing effect lives below 8 floats/row.
    let txns = |s_per: usize| {
        let g = DatasetId::Youtube.gen_config(Scale::Tiny).generate();
        let mut gpu = Gpu::new(DeviceConfig::v100());
        train_pipad(
            &mut gpu,
            ModelKind::EvolveGcn,
            &g,
            6,
            &cfg(),
            &PipadConfig {
                force_s_per: Some(s_per),
                inter_frame_reuse: false,
                cuda_graph: false,
                ..Default::default()
            },
        )
        .unwrap();
        gpu.profiler().full().gmem_transactions
    };
    let single = txns(1);
    let grouped = txns(8);
    assert!(
        grouped < single,
        "grouped txns {grouped} vs per-snapshot {single}"
    );
}

#[test]
fn parallelism_carries_weight() {
    // The title mechanism, on Ablation C's own cell (`repro ablation`:
    // MPNN-LSTM on Epinions, tiny, the harness's training config): forcing
    // one snapshot per partition must cost at least 10 % of the steady
    // epoch against the tuner's choice. Its weight is the copy lane's
    // per-partition cost: a partition is one host assembly and one PCIe
    // copy, so sixteen partitions of one pay sixteen of each where two
    // partitions of eight pay two. (It read 0.997x while the per-snapshot
    // views cost a parent-sized `add` each in backward, 1.035x once they
    // did not, and 0.992x in the prototype with the backward `add`s gone but
    // a copy per shipped structure — 9 + 8 for a partition of eight where
    // eight partitions of one ship 16.)
    let id = DatasetId::Epinions;
    let g = id.gen_config(Scale::Tiny).generate();
    let cfg = TrainingConfig {
        window: 16,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 7,
    };
    let run = |pcfg: &PipadConfig| {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        train_pipad(
            &mut gpu,
            ModelKind::MpnnLstm,
            &g,
            id.hidden_dim(),
            &cfg,
            pcfg,
        )
        .unwrap()
    };
    let tuned = run(&PipadConfig::default());
    let one_by_one = run(&PipadConfig {
        force_s_per: Some(1),
        ..Default::default()
    });
    let slowdown = tuned.speedup_over(&one_by_one);
    assert!(
        slowdown >= 1.10,
        "S_per = 1 {} vs tuned {}: {slowdown:.3}x",
        one_by_one.steady_epoch_time,
        tuned.steady_epoch_time
    );
    // Aggregation order differs with S_per, so close rather than bit-equal.
    for (a, b) in one_by_one.losses().iter().zip(&tuned.losses()) {
        assert!((a - b).abs() < 5e-3, "S_per changed learning: {a} vs {b}");
    }
}

#[test]
fn views_cost_one_gather_per_fused_update_in_backward() {
    // T-GCN under PiPAD: every frame runs three weight-resident updates
    // (one per gate) and hands each back per snapshot through `split_rows`.
    // Backward pays one gather for each — no zero-padded `add` per
    // snapshot — and the bias and gate adds pass their gradient on without
    // a `scale(g, 1.0)` copy. (The input aggregation's `split_cols` carries
    // no gradient, so it gathers nothing.)
    let g = graph();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    train_pipad(
        &mut gpu,
        ModelKind::TGcn,
        &g,
        16,
        &cfg(),
        &PipadConfig::default(),
    )
    .unwrap();
    let launches = |name: &str| {
        let named = gpu.profiler().samples().iter().filter(|s| s.name == name);
        named.count()
    };
    assert!(launches("gemm_weight_resident") > 0, "weight reuse engaged");
    assert_eq!(launches("gather"), launches("gemm_weight_resident"));
    assert_eq!(launches("scale"), 0);
}

#[test]
fn tuner_prefers_larger_partitions_with_memory() {
    // Plenty of memory + slow topology change → the tuner should pick
    // S_per > 1 for every frame (observable through parallel kernels).
    let g = graph();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    train_pipad(
        &mut gpu,
        ModelKind::EvolveGcn,
        &g,
        16,
        &cfg(),
        &PipadConfig {
            inter_frame_reuse: false,
            ..Default::default()
        },
    )
    .unwrap();
    let multi = gpu.profiler().samples().iter().any(|s| {
        s.name == "spmm_sliced_parallel" && {
            matches!(s.kind, pipad_repro::gpu_sim::SampleKind::Kernel(k) if k.flops > 0)
        }
    });
    assert!(
        multi,
        "expected parallel aggregation kernels in steady epochs"
    );
}
