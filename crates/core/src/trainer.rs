//! The PiPAD trainer: pipeline controller (component ❺ of Figure 7) tying
//! together the analyzer, partition catalog, dynamic tuner, inter-frame
//! reuse and the partition-parallel executor — as the PiPAD policy of the
//! shared epoch driver ([`crate::driver`]).
//!
//! Execution follows Figure 8:
//!
//! * graph slicing runs once, before the first epoch: every frame stages
//!   sliced adjacency;
//! * **preparing epochs** train one snapshot at a time with asynchronous
//!   transfers while collecting the statistics the tuner needs (per-frame
//!   peak memory, compute time, transfer volume) and populating the
//!   CPU-side reuse store. No partition of one snapshot reads an overlap
//!   split, so overlap extraction runs under them: the last preparing
//!   epoch queues it on the host lane after its frames' loader work, where
//!   it fills the lane's idle time while the device computes;
//! * the tuner then fixes `S_per` per frame ("we only perform this
//!   procedure once and stick to the generated configurations"), once the
//!   host lane has finished the extraction it reads;
//! * **steady epochs** run partition-parallel with inter-frame reuse, the
//!   non-GNN kernel stream in CUDA-graph mode, and transfers overlapping
//!   compute on separate lanes.

use crate::analyzer::GraphAnalyzer;
use crate::checkpoint::CkptExtra;
use crate::driver::{run_epochs, train_step, EpochPolicy, RunCx};
use crate::exec::{ExecOptions, PipadExecutor};
use crate::prep::PartitionCatalog;
use crate::reuse::InterFrameReuse;
use crate::tuner::{DynamicTuner, FrameProfile};
use pipad_autograd::Tape;
use pipad_ckpt::CheckpointPolicy;
use pipad_dyngraph::{DynamicGraph, Frame};
use pipad_gpu_sim::{ArgValue, DeviceFault, Gpu, Lane, SimNanos, TraceKind};
use pipad_models::{ModelKind, TrainReport, TrainingConfig};
use pipad_tensor::{Matrix, PoolStats};

/// PiPAD-specific knobs (the defaults reproduce the paper's setup).
#[derive(Clone, Debug)]
pub struct PipadConfig {
    /// Override the tuner and force a fixed `S_per` (used by the analysis
    /// harnesses, e.g. Figure 9's sweeps).
    pub force_s_per: Option<usize>,
    /// Enable the two-tier inter-frame reuse.
    pub inter_frame_reuse: bool,
    /// Launch the per-frame kernel stream in CUDA-graph mode.
    pub cuda_graph: bool,
    /// Use sliced CSR + the parallel kernel (default). `false` runs the
    /// Figure 12 ablation: plain CSR with the GE-SpMM kernel, everything
    /// else unchanged.
    pub use_sliced: bool,
    /// Checkpoint schedule. `Some` writes a checkpoint every
    /// `every_epochs` completed epochs and restores from the newest
    /// checkpoint in the directory on start; `None` (default) disables
    /// both.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for PipadConfig {
    fn default() -> Self {
        PipadConfig {
            force_s_per: None,
            inter_frame_reuse: true,
            cuda_graph: true,
            use_sliced: true,
            checkpoint: None,
        }
    }
}

/// Steady-state frames whose wall time exceeds `STRAGGLER_FACTOR ×` the
/// same frame's wall time in the *first* steady epoch count as straggling.
/// The first steady epoch is the baseline (not the preparing epochs —
/// those run unpipelined and are an order of magnitude slower), so
/// detection starts from the second steady epoch.
const STRAGGLER_FACTOR: u64 = 3;
/// This many straggling frames in a row trip the sequential fallback.
const STRAGGLER_CONSECUTIVE: u32 = 2;

/// What the PiPAD trainer carries across epochs — and therefore into a
/// checkpoint, beyond the sections every trainer shares (see
/// [`crate::checkpoint`]). `Default` is the state of a run that has not
/// started.
#[derive(Default)]
pub(crate) struct PipadState {
    /// The inter-frame reuse store.
    pub reuse: InterFrameReuse,
    /// Tuner decisions, `S_per` per frame (empty while preparing).
    pub decisions: Vec<usize>,
    /// Per-frame profiles from the last preparing epoch (the tuner's inputs).
    pub frame_profiles: Vec<FrameProfile>,
    /// First-steady-epoch frame wall times (straggler baselines).
    pub frame_walls: Vec<SimNanos>,
    /// Sequential fallback tripped? Permanent once set, matching a real
    /// deployment that stops trusting an unstable pipeline.
    pub sequential_mode: bool,
    /// Consecutive straggling frames seen.
    pub slow_frames: u32,
    /// Optimizer steps skipped by NaN-recovery.
    pub skipped_steps: u64,
}

/// Train `model_kind` on `graph` with the full PiPAD framework.
///
/// Device faults (injected via [`pipad_gpu_sim::FaultPlan`] or genuine
/// capacity pressure) are recovered per frame: the first OOM evicts the
/// reuse store's device tier and retries, further OOMs walk `S_per` down the
/// tuner ladder before giving up; transfer faults surviving the copy-layer
/// retry budget roll the run's allocations back and propagate; sustained
/// stragglers drop the pipeline into sequential mode; a NaN/Inf loss skips
/// that frame's optimizer step and purges its reuse deposits. Every
/// recovery decision lands in the trace as a `recovery` instant on the
/// control lane with a `policy` argument.
pub fn train_pipad(
    gpu: &mut Gpu,
    model_kind: ModelKind,
    graph: &DynamicGraph,
    hidden: usize,
    cfg: &TrainingConfig,
    pcfg: &PipadConfig,
) -> Result<TrainReport, DeviceFault> {
    run_epochs(
        gpu,
        model_kind,
        graph,
        hidden,
        cfg,
        pcfg.checkpoint.as_ref(),
        |cx| PipadPolicy::prepare(cx, pcfg),
    )
}

/// The pipeline controller's share of the epoch loop: PiPAD as a policy of
/// [`run_epochs`].
struct PipadPolicy<'a> {
    pcfg: &'a PipadConfig,
    preparing: usize,
    analyzer: GraphAnalyzer,
    catalog: PartitionCatalog,
    state: PipadState,
    /// Buffer-pool counters at run start (for the trace-meta delta).
    pool_run0: PoolStats,
}

impl<'a> PipadPolicy<'a> {
    /// One-off preparation before the first epoch: graph slicing. The
    /// catalog starts empty and is filled under the preparing epochs.
    fn prepare(cx: &mut RunCx<'_>, pcfg: &'a PipadConfig) -> Self {
        let pool_run0 = pipad_tensor::pool_stats();
        let mut host = cx.gpu.host_now();
        let analyzer = GraphAnalyzer::run(cx.gpu, cx.graph, &mut host);
        let catalog = PartitionCatalog::new(analyzer.len());
        PipadPolicy {
            pcfg,
            preparing: cx.cfg.preparing_epochs.max(1).min(cx.cfg.epochs),
            analyzer,
            catalog,
            state: PipadState::default(),
            pool_run0,
        }
    }

    fn recovery(
        cx: &mut RunCx<'_>,
        t: SimNanos,
        policy: &str,
        epoch: usize,
        fi: usize,
        extra: Option<(&'static str, u64)>,
    ) {
        let mut args = vec![
            ("policy", ArgValue::Str(policy.to_string())),
            ("epoch", ArgValue::U64(epoch as u64)),
            ("frame", ArgValue::U64(fi as u64)),
        ];
        args.extend(extra.map(|(k, v)| (k, ArgValue::U64(v))));
        cx.gpu
            .trace_mut()
            .instant("recovery", Lane::Control, t, args);
    }
}

impl EpochPolicy for PipadPolicy<'_> {
    fn trainer(&self) -> &'static str {
        "PiPAD"
    }

    fn preparing(&self) -> usize {
        self.preparing
    }

    fn ckpt(&mut self) -> &mut dyn CkptExtra {
        &mut self.state
    }

    fn begin_epoch(&mut self, cx: &mut RunCx<'_>, epoch: usize, t0: SimNanos) {
        if epoch == self.preparing {
            cx.gpu
                .trace_mut()
                .instant("steady_phase_begin", Lane::Control, t0, vec![]);
        }
    }

    fn frame(
        &mut self,
        cx: &mut RunCx<'_>,
        epoch: usize,
        fi: usize,
        frame: &Frame<'_>,
    ) -> Result<f32, DeviceFault> {
        let (pcfg, preparing) = (self.pcfg, self.preparing);
        let st = &mut self.state;
        let is_preparing = epoch < preparing;
        let feats: Vec<&Matrix> = frame.snapshots().iter().map(|s| &s.features).collect();
        let mut s_per_eff = if is_preparing {
            1
        } else {
            pcfg.force_s_per.unwrap_or(st.decisions[fi])
        };
        let frame_t0 = cx.gpu.now_with_host();
        let mut attempt: u32 = 0;
        // Per-frame recovery ladder: the first OOM evicts the reuse store's
        // device tier and retries; later OOMs shrink `S_per` one tuner step at
        // a time; at the floor the fault propagates. Transfer faults
        // already exhausted the copy layer's bounded retries, so they
        // propagate straight away (the driver rolls the device back).
        let (s_per, frame_snap, loss, stepped) = loop {
            let s_per = s_per_eff;
            let sequential_mode = st.sequential_mode;
            let use_graph = !is_preparing && pcfg.cuda_graph && !sequential_mode;
            let opts = ExecOptions {
                s_per,
                needs_adjacency_when_cached: cx.model.needs_hidden_aggregation(),
                weight_reuse: !is_preparing && cx.model.supports_weight_reuse(),
                use_sliced: pcfg.use_sliced,
            };
            cx.gpu.reset_peak_mem();
            let frame_snap = cx.gpu.profiler().snapshot();
            let mark = cx.gpu.mem_mark();
            let result = (|| -> Result<(f32, bool), DeviceFault> {
                let (gpu, model, compute) = (&mut *cx.gpu, cx.model.as_ref(), cx.compute);
                let mut exec = PipadExecutor::stage(
                    gpu,
                    &self.analyzer,
                    &self.catalog,
                    &feats,
                    frame.start,
                    opts,
                    pcfg.inter_frame_reuse.then_some(&mut st.reuse),
                    compute,
                    cx.copy,
                )?;
                if sequential_mode {
                    // Sequential fallback: join the copy lanes before
                    // compute so nothing overlaps (the plain path below
                    // also skips CUDA-graph capture).
                    gpu.synchronize();
                }
                let mut tape = Tape::new(compute);
                let target = cx.graph.target_for(frame.last_index());
                let lr = cx.cfg.lr;
                // The whole frame — forward, loss, backward, optimiser step —
                // is one graph replay in steady epochs.
                let mut step = |gpu: &mut Gpu| {
                    train_step(gpu, model, &mut tape, &mut exec, target, lr, use_graph)
                };
                let loss = if use_graph {
                    gpu.graph_scope(compute, step)?
                } else {
                    step(gpu)?
                };
                tape.finish(gpu);
                exec.finish(gpu);
                Ok((loss, loss.is_finite()))
            })();
            match result {
                Ok((loss, stepped)) => break (s_per, frame_snap, loss, stepped),
                Err(DeviceFault::Oom(e)) => {
                    cx.gpu.release_since(mark);
                    let t = cx.gpu.now_with_host();
                    if attempt == 0 {
                        st.reuse.evict_device(cx.gpu);
                        Self::recovery(cx, t, "oom_evict_retry", epoch, fi, None);
                    } else {
                        let down = DynamicTuner::downshift(s_per_eff);
                        if down == s_per_eff {
                            return Err(DeviceFault::Oom(e));
                        }
                        s_per_eff = down;
                        if fi < st.decisions.len() {
                            st.decisions[fi] = down;
                        }
                        let s_per = Some(("s_per", down as u64));
                        Self::recovery(cx, t, "tuner_downshift", epoch, fi, s_per);
                    }
                    attempt += 1;
                }
                Err(fault) => return Err(fault),
            }
        };

        let window = frame.start..frame.start + feats.len();
        if stepped {
            // The next frame shares all but this one's first snapshot.
            st.reuse.slide(cx.gpu, window.start + 1..window.end);
        } else {
            // NaN/Inf loss: the optimizer step was skipped (params are
            // untouched); purge the frame from the reuse store so whatever
            // poison it deposited cannot be re-served on later frames.
            st.skipped_steps += 1;
            st.reuse.purge(cx.gpu, window);
            let t = cx.gpu.now_with_host();
            let skipped = Some(("skipped_total", st.skipped_steps));
            Self::recovery(cx, t, "nan_skip", epoch, fi, skipped);
        }

        let frame_t1 = cx.gpu.now_with_host();
        cx.gpu.trace_mut().span(
            "frame",
            TraceKind::Span,
            Lane::Control,
            frame_t0,
            frame_t1,
            vec![
                ("epoch", ArgValue::U64(epoch as u64)),
                ("frame", ArgValue::U64(fi as u64)),
                ("s_per", ArgValue::U64(s_per as u64)),
                ("loss", ArgValue::F64(loss as f64)),
            ],
        );

        // Straggler watch: a steady frame whose wall time blows past the
        // same frame's first-steady-epoch wall time is being slow-rolled
        // by the device; two in a row and the pipelined schedule is
        // abandoned. The first steady epoch only records the baseline
        // (the preparing epochs run unpipelined and are an order of
        // magnitude slower, so they cannot serve as one).
        if epoch == preparing && st.frame_walls.len() == fi {
            st.frame_walls.push(frame_t1 - frame_t0);
        }
        if epoch > preparing && !st.sequential_mode && fi < st.frame_walls.len() {
            let expected = st.frame_walls[fi].as_nanos();
            if (frame_t1 - frame_t0).as_nanos() > expected.saturating_mul(STRAGGLER_FACTOR) {
                st.slow_frames += 1;
                if st.slow_frames >= STRAGGLER_CONSECUTIVE {
                    st.sequential_mode = true;
                    Self::recovery(cx, frame_t1, "sequential_fallback", epoch, fi, None);
                }
            } else {
                st.slow_frames = 0;
            }
        }

        if epoch + 1 == preparing {
            // Last preparing epoch: record the tuner's inputs.
            let w = cx.gpu.profiler().window(frame_snap);
            st.frame_profiles.push(FrameProfile {
                peak_mem_one_snapshot: cx.gpu.mem().peak(),
                compute_time: w.compute_total,
                transfer_bytes: w.h2d_bytes + w.d2h_bytes,
            });
        }
        Ok(loss)
    }

    fn end_epoch(&mut self, cx: &mut RunCx<'_>, epoch: usize) {
        let st = &mut self.state;
        // The reuse store's device tier lives inside an epoch: the window
        // restarts at frame 0, and a checkpoint is written with it empty.
        st.reuse.evict_device(cx.gpu);
        if epoch + 1 != self.preparing {
            return;
        }
        // Last preparing epoch done: extract every partition plan on the
        // host lane, after the epoch's loader work, while the device is
        // still busy with its frames.
        self.catalog.fill(cx.gpu, &self.analyzer);
        // Then decide S_per per frame, once ("we only perform this
        // procedure once and stick to the generated configurations"), and
        // size the reuse store's device tier: half of what two frame peaks
        // leave free.
        let free = cx
            .gpu
            .cfg()
            .capacity_bytes
            .saturating_sub(cx.gpu.mem().in_use());
        let max_peak = st
            .frame_profiles
            .iter()
            .map(|p| p.peak_mem_one_snapshot)
            .max()
            .unwrap_or(0);
        let headroom = free.saturating_sub(max_peak.saturating_mul(2));
        st.reuse.grow_budget(headroom / 2);
        let tuner = DynamicTuner::new(
            free,
            cx.gpu.cfg().pcie_pinned_bytes_per_us,
            cx.graph.feature_dim(),
        );
        let t_decide = cx.gpu.now_with_host();
        st.decisions.clear();
        for (fi, p) in st.frame_profiles.iter().enumerate() {
            let d = tuner.decide(p, &self.catalog, fi, cx.cfg.window);
            cx.gpu
                .trace_mut()
                .instant("tuner_decision", Lane::Control, t_decide, d.trace_args(fi));
            st.decisions.push(d.s_per);
        }
    }

    fn resumed(&mut self, cx: &mut RunCx<'_>, next_epoch: usize) {
        // A run resumed past its preparing epochs never reaches the fill
        // in `end_epoch`: fill here, before the clock rewinds, so its
        // steady frames extract nothing the uninterrupted run did not.
        if next_epoch >= self.preparing {
            self.catalog.fill(cx.gpu, &self.analyzer);
        }
    }

    fn finish(&mut self, cx: &mut RunCx<'_>) {
        let reuse = self.state.reuse.stats();
        // Buffer-pool counters for this run. Deterministic (all pooled traffic
        // is on this thread, independent of PIPAD_THREADS) and surfaced only in
        // the text summary — the pinned Chrome JSON never carries them.
        let pool = pipad_tensor::pool_stats().since(&self.pool_run0);
        let tr = cx.gpu.trace_mut();
        tr.set_meta("pool_hits", pool.hits);
        tr.set_meta("pool_misses", pool.misses);
        tr.set_meta("pool_recycled_bytes", pool.recycled_bytes);
        tr.set_meta("pool_reused_bytes", pool.reused_bytes);
        // Reuse-tier hit rates (§4.4): pure functions of the deterministic
        // lookup sequence, so safe in trace meta and metrics exports.
        tr.set_meta("reuse_cpu_hits", reuse.cpu_hits);
        tr.set_meta("reuse_cpu_misses", reuse.cpu_misses);
        tr.set_meta("reuse_gpu_hits", reuse.gpu_hits);
        tr.set_meta("reuse_gpu_misses", reuse.gpu_misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_dyngraph::{DatasetId, Scale};
    use pipad_gpu_sim::DeviceConfig;

    fn tiny_graph() -> DynamicGraph {
        DatasetId::Covid19England.gen_config(Scale::Tiny).generate()
    }

    fn tiny_cfg() -> TrainingConfig {
        TrainingConfig {
            window: 8,
            epochs: 4,
            preparing_epochs: 2,
            lr: 0.01,
            seed: 3,
        }
    }

    #[test]
    fn pipad_trains_and_converges() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let g = tiny_graph();
        let r = train_pipad(
            &mut gpu,
            ModelKind::TGcn,
            &g,
            8,
            &tiny_cfg(),
            &PipadConfig::default(),
        )
        .unwrap();
        assert_eq!(r.epochs.len(), 4);
        let l = r.losses();
        assert!(l.iter().all(|x| x.is_finite()));
        assert!(l.last().unwrap() <= &l[0]);
        // All tape/frame memory released (model params remain).
        assert!(gpu.mem().live_buffers() > 0);
    }

    #[test]
    fn steady_epochs_are_faster_than_preparing() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let g = tiny_graph();
        let r = train_pipad(
            &mut gpu,
            ModelKind::TGcn,
            &g,
            8,
            &tiny_cfg(),
            &PipadConfig::default(),
        )
        .unwrap();
        let prep_time = r.epochs[1].sim_time; // one-snapshot epoch (no slicing)
        let steady_time = r.epochs[3].sim_time;
        assert!(
            steady_time < prep_time,
            "steady {steady_time} vs preparing {prep_time}"
        );
    }

    #[test]
    fn numerics_match_the_baseline_trainer() {
        // Same seed + same data → PiPAD's reorganized execution must produce
        // the same loss trajectory as the canonical one (within fp drift).
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let mut g1 = Gpu::new(DeviceConfig::v100());
        let base = pipad_baselines::train_baseline(
            &mut g1,
            pipad_baselines::BaselineKind::PygtA,
            ModelKind::MpnnLstm,
            &g,
            8,
            &cfg,
        )
        .unwrap();
        let mut g2 = Gpu::new(DeviceConfig::v100());
        let ours = train_pipad(
            &mut g2,
            ModelKind::MpnnLstm,
            &g,
            8,
            &cfg,
            &PipadConfig::default(),
        )
        .unwrap();
        for (a, b) in ours.losses().iter().zip(base.losses()) {
            assert!((a - b).abs() < 5e-3, "pipad {a} vs baseline {b}");
        }
    }

    #[test]
    fn pipad_beats_pygt_a_end_to_end() {
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let mut g1 = Gpu::new(DeviceConfig::v100());
        let base = pipad_baselines::train_baseline(
            &mut g1,
            pipad_baselines::BaselineKind::PygtA,
            ModelKind::TGcn,
            &g,
            8,
            &cfg,
        )
        .unwrap();
        let mut g2 = Gpu::new(DeviceConfig::v100());
        let ours = train_pipad(
            &mut g2,
            ModelKind::TGcn,
            &g,
            8,
            &cfg,
            &PipadConfig::default(),
        )
        .unwrap();
        assert!(
            ours.steady_epoch_time < base.steady_epoch_time,
            "pipad {} vs pygt-a {}",
            ours.steady_epoch_time,
            base.steady_epoch_time
        );
    }

    #[test]
    fn overlap_extraction_runs_under_the_preparing_epochs() {
        let g = tiny_graph();
        for preparing_epochs in [2, 1] {
            let cfg = TrainingConfig {
                preparing_epochs,
                ..tiny_cfg()
            };
            let mut gpu = Gpu::new(DeviceConfig::v100());
            let r =
                train_pipad(&mut gpu, ModelKind::TGcn, &g, 8, &cfg, &Default::default()).unwrap();
            let events: Vec<_> = gpu.trace().events().iter().collect();
            let first = |name: &str| events.iter().find(|e| e.name == name).unwrap().ts;
            let (epoch0, decided) = (first("epoch"), first("tuner_decision"));
            let extractions: Vec<_> = events
                .iter()
                .filter(|e| e.name == crate::prep::EXTRACTION_OP)
                .collect();
            assert!(!extractions.is_empty());
            for e in &extractions {
                assert!(e.ts >= epoch0, "extraction at {} before epoch 0", e.ts);
                assert!(e.end() <= decided, "extraction ends after the decision");
            }
            // The run is its slicing, then its epochs back to back.
            let slicing: SimNanos = events
                .iter()
                .filter(|e| e.name == "graph_slicing")
                .map(|e| e.dur)
                .sum();
            let epochs: SimNanos = r.epochs.iter().map(|e| e.sim_time).sum();
            assert_eq!(
                r.total_time,
                slicing + epochs,
                "preparing {preparing_epochs}"
            );
        }
    }

    /// A run resumed past its preparing epochs never reaches the fill in
    /// the last preparing epoch: it fills the catalog in its prologue, so
    /// no frame it runs extracts a plan (MPNN-LSTM stages adjacency in
    /// every steady partition, cached or not).
    #[test]
    fn a_run_resumed_past_preparing_fills_the_catalog_before_its_frames() {
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let dir = std::env::temp_dir().join(format!("pipad-resume-fill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // One checkpoint, after the first steady epoch.
        let pcfg = PipadConfig {
            checkpoint: Some(CheckpointPolicy::new(dir.clone(), 3)),
            ..Default::default()
        };
        let model = ModelKind::MpnnLstm;
        train_pipad(
            &mut Gpu::new(DeviceConfig::v100()),
            model,
            &g,
            8,
            &cfg,
            &pcfg,
        )
        .unwrap();
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let r = train_pipad(&mut gpu, model, &g, 8, &cfg, &pcfg).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(r.epochs.len(), 4);
        let names: Vec<&str> = gpu.trace().events().iter().map(|e| e.name).collect();
        let op = crate::prep::EXTRACTION_OP;
        let last_extraction = names.iter().rposition(|&n| n == op).unwrap();
        let first_staging = names.iter().position(|&n| n == "partition_prep").unwrap();
        assert!(
            last_extraction < first_staging,
            "a resumed frame extracted a plan"
        );
    }

    #[test]
    fn forced_s_per_is_respected() {
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let pcfg = PipadConfig {
            force_s_per: Some(2),
            inter_frame_reuse: false,
            ..Default::default()
        };
        let r = train_pipad(&mut gpu, ModelKind::EvolveGcn, &g, 8, &cfg, &pcfg).unwrap();
        assert!(r.losses().iter().all(|l| l.is_finite()));
        // with reuse off, parallel aggregations must appear
        let n_parallel = gpu
            .profiler()
            .samples()
            .iter()
            .filter(|s| s.name == "spmm_sliced_parallel")
            .count();
        assert!(n_parallel > 0);
    }
}
