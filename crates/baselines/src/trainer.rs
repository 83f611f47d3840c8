//! The PyGT baseline family: four per-frame policies of the shared epoch
//! driver ([`pipad::run_epochs`]).

use crate::executor::{BaselineExecutor, StageOptions};
use pipad::{run_epochs, CkptExtra, EpochPolicy, InterFrameReuse, RunCx};
use pipad_autograd::AggregationKernel;
use pipad_ckpt::CheckpointPolicy;
use pipad_dyngraph::{DynamicGraph, Frame};
use pipad_gpu_sim::{DeviceFault, Gpu, OomError};
use pipad_models::{ModelKind, TrainReport, TrainingConfig};
use pipad_sparse::Csr;
use pipad_tensor::Matrix;

/// Which baseline variant to run (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// Vanilla PyTorch Geometric Temporal: synchronous pageable transfers.
    Pygt,
    /// + asynchronous pinned transfers on a copy stream.
    PygtA,
    /// + inter-frame reuse of layer-1 aggregations.
    PygtR,
    /// PyGT-R with the GE-SpMM aggregation kernel (needs CSR+CSC resident).
    PygtG,
}

impl BaselineKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::Pygt => "PyGT",
            BaselineKind::PygtA => "PyGT-A",
            BaselineKind::PygtR => "PyGT-R",
            BaselineKind::PygtG => "PyGT-G",
        }
    }

    /// ALL.
    pub const ALL: [BaselineKind; 4] = [
        BaselineKind::Pygt,
        BaselineKind::PygtA,
        BaselineKind::PygtR,
        BaselineKind::PygtG,
    ];

    /// How this variant stages a frame (§5.1: each variant switches on one
    /// more mechanism than the last). `needs_adjacency_when_cached` is the
    /// model's: it still aggregates hidden features after a reuse hit.
    pub fn stage_options(self, needs_adjacency_when_cached: bool) -> StageOptions {
        let gespmm = self == BaselineKind::PygtG;
        StageOptions {
            async_transfer: self != BaselineKind::Pygt,
            // GE-SpMM's backward needs the CSC copy resident too.
            with_csc: gespmm,
            kernel: if gespmm {
                AggregationKernel::GeSpmm
            } else {
                AggregationKernel::CooScatter
            },
            needs_adjacency_when_cached,
        }
    }
}

/// Train `model_kind` on `graph` with the chosen baseline and return the
/// full report. `hidden` follows §5.1 (32 for small datasets, 6 for large).
pub fn train_baseline(
    gpu: &mut Gpu,
    kind: BaselineKind,
    model_kind: ModelKind,
    graph: &DynamicGraph,
    hidden: usize,
    cfg: &TrainingConfig,
) -> Result<TrainReport, OomError> {
    // Without a fault plan on the device, an OOM is all the driver can raise.
    let run = train_baseline_resumable(gpu, kind, model_kind, graph, hidden, cfg, None);
    run.map_err(|fault| match fault {
        DeviceFault::Oom(oom) => oom,
        other => panic!("baseline trainer without a fault plan raised {other}"),
    })
}

/// [`train_baseline`] with checkpoint/restore: when `checkpoint` is set,
/// the trainer restores from the newest checkpoint in the policy's
/// directory (if any) before the epoch loop and writes one every
/// `every_epochs` epochs. A run killed by an injected `crash` fault and
/// resumed this way produces bit-identical losses to an uninterrupted
/// run — the same contract `train_pipad` holds (both run on
/// [`pipad::run_epochs`]), minus the trace clause (baselines keep the
/// device's kernel/transfer trace only).
pub fn train_baseline_resumable(
    gpu: &mut Gpu,
    kind: BaselineKind,
    model_kind: ModelKind,
    graph: &DynamicGraph,
    hidden: usize,
    cfg: &TrainingConfig,
    checkpoint: Option<&CheckpointPolicy>,
) -> Result<TrainReport, DeviceFault> {
    run_epochs(gpu, model_kind, graph, hidden, cfg, checkpoint, |cx| {
        BaselinePolicy {
            kind,
            preparing: cfg.preparing_epochs.min(cfg.epochs.saturating_sub(1)),
            opts: kind.stage_options(cx.model.needs_hidden_aggregation()),
            reuse: InterFrameReuse::default(),
        }
    })
}

/// The PyGT family as a policy of [`run_epochs`]: one snapshot at a time,
/// no epoch-boundary work, no per-frame recovery beyond the NaN purge.
struct BaselinePolicy {
    kind: BaselineKind,
    preparing: usize,
    opts: StageOptions,
    /// Layer-1 aggregation store (consulted by PyGT-R / PyGT-G), without a
    /// device budget: a hit skips the aggregation kernel but the cached
    /// matrix still crosses PCIe each time (§4.4).
    reuse: InterFrameReuse,
}

impl EpochPolicy for BaselinePolicy {
    fn trainer(&self) -> &'static str {
        self.kind.name()
    }

    fn preparing(&self) -> usize {
        self.preparing
    }

    fn ckpt(&mut self) -> &mut dyn CkptExtra {
        &mut self.reuse
    }

    fn frame(
        &mut self,
        cx: &mut RunCx<'_>,
        _epoch: usize,
        _fi: usize,
        frame: &Frame<'_>,
    ) -> Result<f32, DeviceFault> {
        let frame_slots: Vec<(usize, &Csr, &Matrix)> = frame
            .snapshots()
            .iter()
            .enumerate()
            .map(|(i, s)| (frame.global_index(i), &s.adj, &s.features))
            .collect();
        let has_reuse = matches!(self.kind, BaselineKind::PygtR | BaselineKind::PygtG);
        let mut exec = BaselineExecutor::stage(
            cx.gpu,
            &frame_slots,
            self.opts,
            has_reuse.then_some(&mut self.reuse),
            cx.compute,
            cx.copy,
        )?;
        let loss = cx.step(&mut exec, frame)?;
        exec.finish(cx.gpu);
        if !loss.is_finite() {
            // The step was skipped: drop whatever poison the frame cached.
            self.reuse
                .purge(cx.gpu, frame.start..frame.start + frame.len());
        }
        Ok(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_dyngraph::{DatasetId, Scale};
    use pipad_gpu_sim::{DeviceConfig, SimNanos};

    fn tiny_graph() -> DynamicGraph {
        DatasetId::Covid19England.gen_config(Scale::Tiny).generate()
    }

    fn tiny_cfg() -> TrainingConfig {
        TrainingConfig {
            window: 8,
            epochs: 3,
            preparing_epochs: 1,
            lr: 0.01,
            seed: 3,
        }
    }

    #[test]
    fn pygt_trains_and_reports() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let g = tiny_graph();
        let r = train_baseline(
            &mut gpu,
            BaselineKind::Pygt,
            ModelKind::TGcn,
            &g,
            8,
            &tiny_cfg(),
        )
        .unwrap();
        assert_eq!(r.epochs.len(), 3);
        assert!(r.total_time > SimNanos::ZERO);
        assert!(r.steady_epoch_time > SimNanos::ZERO);
        assert!(r.steady.h2d_bytes > 0);
        // loss finite and generally improving
        let l = r.losses();
        assert!(l.iter().all(|x| x.is_finite()));
        assert!(l.last().unwrap() <= &l[0]);
    }

    #[test]
    fn async_beats_sync() {
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let mut g1 = Gpu::new(DeviceConfig::v100());
        let sync =
            train_baseline(&mut g1, BaselineKind::Pygt, ModelKind::TGcn, &g, 8, &cfg).unwrap();
        let mut g2 = Gpu::new(DeviceConfig::v100());
        let asynch =
            train_baseline(&mut g2, BaselineKind::PygtA, ModelKind::TGcn, &g, 8, &cfg).unwrap();
        assert!(
            asynch.steady_epoch_time < sync.steady_epoch_time,
            "async {} vs sync {}",
            asynch.steady_epoch_time,
            sync.steady_epoch_time
        );
    }

    #[test]
    fn reuse_beats_async_on_tgcn() {
        // T-GCN: all aggregation is cacheable → PyGT-R drops both the
        // aggregation kernels and the adjacency transfers.
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let mut g2 = Gpu::new(DeviceConfig::v100());
        let a = train_baseline(&mut g2, BaselineKind::PygtA, ModelKind::TGcn, &g, 8, &cfg).unwrap();
        let mut g3 = Gpu::new(DeviceConfig::v100());
        let r = train_baseline(&mut g3, BaselineKind::PygtR, ModelKind::TGcn, &g, 8, &cfg).unwrap();
        assert!(
            r.steady_epoch_time < a.steady_epoch_time,
            "reuse {} vs async {}",
            r.steady_epoch_time,
            a.steady_epoch_time
        );
        assert!(r.steady.h2d_bytes < a.steady.h2d_bytes);
    }

    #[test]
    fn all_variants_converge_identically_in_values() {
        // Different execution strategies must not change the numerics: same
        // model seed + same data → same loss curve.
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let mut curves = Vec::new();
        for kind in BaselineKind::ALL {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            let r = train_baseline(&mut gpu, kind, ModelKind::MpnnLstm, &g, 8, &cfg).unwrap();
            curves.push(r.losses());
        }
        for c in &curves[1..] {
            for (a, b) in c.iter().zip(&curves[0]) {
                assert!((a - b).abs() < 1e-4, "{curves:?}");
            }
        }
    }

    #[test]
    fn kill_and_resume_reproduces_baseline_losses() {
        use pipad_ckpt::CheckpointPolicy;
        use pipad_gpu_sim::{CrashCounter, CrashPoint, DeviceFault, FaultPlan};
        let g = tiny_graph();
        let cfg = TrainingConfig {
            window: 8,
            epochs: 6,
            preparing_epochs: 2,
            lr: 0.01,
            seed: 3,
        };
        let base =
            std::env::temp_dir().join(format!("pipad-baseline-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let policy_for = |dir: &str| CheckpointPolicy::new(base.join(dir), 2);

        // PyGT-R so the restore path also refills the CPU reuse cache.
        let kind = BaselineKind::PygtR;

        let mut g1 = Gpu::new(pipad_gpu_sim::DeviceConfig::v100());
        let reference = train_baseline_resumable(
            &mut g1,
            kind,
            ModelKind::TGcn,
            &g,
            8,
            &cfg,
            Some(&policy_for("ref")),
        )
        .unwrap();
        let total_launches = g1.op_counters().launches;

        let mut g2 = Gpu::new(pipad_gpu_sim::DeviceConfig::v100());
        g2.install_faults(FaultPlan {
            crash: Some(CrashPoint {
                counter: CrashCounter::Launches,
                at: total_launches * 7 / 10,
            }),
            ..Default::default()
        });
        let err = train_baseline_resumable(
            &mut g2,
            kind,
            ModelKind::TGcn,
            &g,
            8,
            &cfg,
            Some(&policy_for("killed")),
        )
        .expect_err("crash fault must abort the run");
        assert!(matches!(err, DeviceFault::Crash(_)), "{err}");

        let mut g3 = Gpu::new(pipad_gpu_sim::DeviceConfig::v100());
        let resumed = train_baseline_resumable(
            &mut g3,
            kind,
            ModelKind::TGcn,
            &g,
            8,
            &cfg,
            Some(&policy_for("killed")),
        )
        .unwrap();

        let a: Vec<u32> = reference.losses().iter().map(|l| l.to_bits()).collect();
        let b: Vec<u32> = resumed.losses().iter().map(|l| l.to_bits()).collect();
        assert_eq!(a, b, "kill-and-resume changed the baseline loss trajectory");
        // Resumed epochs also land on the original simulated timeline.
        for (ra, rb) in reference.epochs.iter().zip(&resumed.epochs) {
            assert_eq!(
                ra.sim_time, rb.sim_time,
                "epoch {} sim_time drifted",
                ra.epoch
            );
        }

        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn a_nan_loss_skips_the_step() {
        use pipad_gpu_sim::{FaultPlan, SampleKind};
        let g = tiny_graph();
        let cfg = TrainingConfig {
            epochs: 4,
            ..tiny_cfg()
        };
        let run = |plan: FaultPlan| {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            gpu.install_faults(plan);
            let kind = BaselineKind::PygtA;
            let r = train_baseline(&mut gpu, kind, ModelKind::TGcn, &g, 8, &cfg).unwrap();
            (gpu, r.losses())
        };
        let (clean, clean_losses) = run(FaultPlan::default());
        let samples = clean.profiler().samples().iter();
        let kernels = samples.filter(|s| matches!(s.kind, SampleKind::Kernel { .. }));
        let kernels: Vec<&str> = kernels.map(|s| s.name).collect();
        let losses: Vec<usize> = (0..kernels.len())
            .filter(|&i| kernels[i] == "mse_loss")
            .collect();
        // Poison the prediction of the first frame of epoch 2: its last
        // bias add before the loss.
        let pred = losses[losses.len() / 2] - 1;
        assert_eq!(kernels[pred], "add_bias");
        let (_, poisoned) = run(FaultPlan {
            poison_launches: vec![pred as u64],
            ..Default::default()
        });
        let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&poisoned[..2]), bits(&clean_losses[..2]));
        assert!(poisoned[2].is_nan(), "{poisoned:?}");
        // Had the NaN gradients been applied, every later loss would be NaN.
        assert!(poisoned[3].is_finite(), "{poisoned:?}");
    }

    #[test]
    fn gespmm_variant_ships_more_adjacency_bytes() {
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let mut g1 = Gpu::new(DeviceConfig::v100());
        let r = train_baseline(
            &mut g1,
            BaselineKind::PygtR,
            ModelKind::EvolveGcn,
            &g,
            8,
            &cfg,
        )
        .unwrap();
        let mut g2 = Gpu::new(DeviceConfig::v100());
        let gq = train_baseline(
            &mut g2,
            BaselineKind::PygtG,
            ModelKind::EvolveGcn,
            &g,
            8,
            &cfg,
        )
        .unwrap();
        assert!(gq.steady.h2d_bytes > r.steady.h2d_bytes);
    }
}
