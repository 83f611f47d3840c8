//! Cross-crate integration tests: full training runs spanning every layer
//! of the stack (generator → analyzer → executors → models → autograd →
//! simulated device).

use pipad_repro::baselines::{train_baseline, BaselineKind};
use pipad_repro::dyngraph::{DatasetId, Scale};
use pipad_repro::gpu_sim::{DeviceConfig, Gpu};
use pipad_repro::models::{ModelKind, TrainReport, TrainingConfig};
use pipad_repro::pipad::{train_pipad, PipadConfig};

fn cfg() -> TrainingConfig {
    TrainingConfig {
        window: 8,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 42,
    }
}

fn run_baseline(kind: BaselineKind, model: ModelKind, id: DatasetId) -> TrainReport {
    let g = id.gen_config(Scale::Tiny).generate();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    train_baseline(&mut gpu, kind, model, &g, id.hidden_dim().min(16), &cfg()).unwrap()
}

fn run_pipad(model: ModelKind, id: DatasetId) -> TrainReport {
    let g = id.gen_config(Scale::Tiny).generate();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    train_pipad(
        &mut gpu,
        model,
        &g,
        id.hidden_dim().min(16),
        &cfg(),
        &PipadConfig::default(),
    )
    .unwrap()
}

#[test]
fn every_model_trains_under_every_system() {
    for model in ModelKind::ALL {
        for kind in BaselineKind::ALL {
            let r = run_baseline(kind, model, DatasetId::Covid19England);
            assert!(
                r.losses().iter().all(|l| l.is_finite()),
                "{} x {} produced non-finite loss",
                kind.name(),
                model.name()
            );
        }
        let r = run_pipad(model, DatasetId::Covid19England);
        assert!(r.losses().iter().all(|l| l.is_finite()));
    }
}

#[test]
fn execution_strategy_does_not_change_learning() {
    // The whole point of PiPAD: pure performance optimization. Same seed,
    // same data → same loss trajectory across all five systems.
    for model in [ModelKind::TGcn, ModelKind::EvolveGcn] {
        let reference = run_baseline(BaselineKind::Pygt, model, DatasetId::Pems08).losses();
        for kind in [
            BaselineKind::PygtA,
            BaselineKind::PygtR,
            BaselineKind::PygtG,
        ] {
            let l = run_baseline(kind, model, DatasetId::Pems08).losses();
            for (a, b) in l.iter().zip(&reference) {
                assert!(
                    (a - b).abs() < 1e-3,
                    "{} diverged from PyGT on {}: {a} vs {b}",
                    kind.name(),
                    model.name()
                );
            }
        }
        let l = run_pipad(model, DatasetId::Pems08).losses();
        for (a, b) in l.iter().zip(&reference) {
            assert!(
                (a - b).abs() < 5e-3,
                "PiPAD diverged from PyGT on {}: {a} vs {b}",
                model.name()
            );
        }
    }
}

#[test]
fn incremental_optimizations_rank_correctly_on_tgcn() {
    // §5.1's incremental design: each variant should not be slower than its
    // predecessor on T-GCN (where all mechanisms apply).
    let id = DatasetId::Covid19England;
    let pygt = run_baseline(BaselineKind::Pygt, ModelKind::TGcn, id);
    let a = run_baseline(BaselineKind::PygtA, ModelKind::TGcn, id);
    let r = run_baseline(BaselineKind::PygtR, ModelKind::TGcn, id);
    let pipad = run_pipad(ModelKind::TGcn, id);
    assert!(a.steady_epoch_time < pygt.steady_epoch_time, "A < PyGT");
    assert!(r.steady_epoch_time < a.steady_epoch_time, "R < A");
    assert!(
        pipad.steady_epoch_time < pygt.steady_epoch_time,
        "PiPAD < PyGT"
    );
    let speedup = pipad.speedup_over(&pygt);
    assert!(
        speedup > 1.2,
        "PiPAD should clearly beat PyGT on a small dataset: {speedup:.2}x"
    );
}

#[test]
fn pipad_reduces_transfer_volume() {
    let id = DatasetId::Epinions;
    let base = run_baseline(BaselineKind::PygtA, ModelKind::EvolveGcn, id);
    let ours = run_pipad(ModelKind::EvolveGcn, id);
    assert!(
        ours.steady.h2d_bytes < base.steady.h2d_bytes,
        "pipad {} vs baseline {} bytes",
        ours.steady.h2d_bytes,
        base.steady.h2d_bytes
    );
}

#[test]
fn device_memory_is_returned_after_training() {
    let g = DatasetId::Pems08.gen_config(Scale::Tiny).generate();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let before = gpu.mem().in_use();
    assert_eq!(before, 0);
    train_pipad(
        &mut gpu,
        ModelKind::MpnnLstm,
        &g,
        8,
        &cfg(),
        &PipadConfig::default(),
    )
    .unwrap();
    // Only the model parameters remain resident.
    let params_expected = {
        let mut g2 = Gpu::new(DeviceConfig::v100());
        pipad_repro::models::build_model(&mut g2, ModelKind::MpnnLstm, g.feature_dim(), 8, 42)
            .unwrap();
        g2.mem().in_use()
    };
    assert_eq!(gpu.mem().in_use(), params_expected);
}

/// `TrainReport::peak_mem` is the run's high-water mark. PiPAD resets the
/// device's resettable peak at every frame, so a report that read that
/// value would give the last frame's peak instead.
#[test]
fn the_reported_peak_is_the_runs_high_water_mark() {
    let id = DatasetId::Epinions;
    let g = id.gen_config(Scale::Tiny).generate();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let report = train_pipad(
        &mut gpu,
        ModelKind::EvolveGcn,
        &g,
        id.hidden_dim(),
        &cfg(),
        &PipadConfig::default(),
    )
    .unwrap();
    assert_eq!(report.peak_mem, gpu.mem().peak_ever());
}

#[test]
fn deterministic_across_identical_runs() {
    let a = run_pipad(ModelKind::TGcn, DatasetId::Covid19England);
    let b = run_pipad(ModelKind::TGcn, DatasetId::Covid19England);
    assert_eq!(a.total_time, b.total_time, "simulated time must be exact");
    assert_eq!(a.losses(), b.losses());
    assert_eq!(a.steady.gmem_transactions, b.steady.gmem_transactions);
}

#[test]
fn gespmm_fails_to_help_tgcn_under_reuse() {
    // §5.2: "GE-SpMM targeting the aggregation acceleration turns nearly
    // useless in T-GCN" once reuse removes the aggregations — PyGT-G should
    // be no better than PyGT-R there.
    let id = DatasetId::Pems08;
    let r = run_baseline(BaselineKind::PygtR, ModelKind::TGcn, id);
    let g = run_baseline(BaselineKind::PygtG, ModelKind::TGcn, id);
    let ratio =
        g.steady_epoch_time.as_nanos() as f64 / r.steady_epoch_time.as_nanos().max(1) as f64;
    assert!(
        ratio > 0.95,
        "PyGT-G should gain nothing over PyGT-R on T-GCN, ratio {ratio:.2}"
    );
}
