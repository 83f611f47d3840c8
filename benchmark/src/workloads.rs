//! The four workloads: their inputs as a pure function of the seed, the
//! set-up call, the timed call and the output checks.
//!
//! The program under test only ever receives generated inputs
//! (`GenConfig::generate`, `TrainingConfig`, `RequestGenConfig`); the seed
//! reaches it through those three and nowhere else.

use crate::spans::Recorder;
use pipad::{train_data_parallel, train_pipad, MultiGpuConfig, MultiTrainReport, PipadConfig};
use pipad_ckpt::{crc32, CheckpointPolicy};
use pipad_dyngraph::{DynamicGraph, FrameIter, GenConfig};
use pipad_gpu_sim::{ArgValue, DeviceConfig, Gpu, SimNanos};
use pipad_models::{EpochReport, ModelKind, TrainReport, TrainingConfig};
use pipad_serve::{
    serve_open_loop, BatchPolicy, EngineConfig, RequestGenConfig, ServeEngine, ServeReport,
    ServeSimConfig,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Everything the benchmark writes goes under here (relative to the
/// checkout root, which `run.sh` makes the working directory).
pub const OUT_DIR: &str = "benchmark/out";

pub const WINDOW: usize = 16;
pub const N_SNAPSHOTS: usize = 24;
pub const PREPARING_EPOCHS: usize = 2;
/// Requests replayed at each rate of `serve_two_rates`.
pub const SERVE_REQUESTS: usize = 2000;
/// Fixed service-level objective on the simulated clock: p99 ≤ 10 ms.
pub const SLO_NS: u64 = 10_000_000;
/// Epochs of the checkpoint-producing training run of `serve_two_rates`.
const SERVE_TRAIN_EPOCHS: usize = 4;
/// Simulated devices of `multigpu_4dev` (one virtual shard each).
pub const N_GPUS: usize = 4;

/// The two open-loop arrival rates, as mean inter-arrival gaps. Both sit
/// below the knee of the simulated capacity (≈1 000 req/s) so no backlog
/// grows: `lo` ≈ ⅓ and `hi` ≈ ⅔ of it.
pub const RATES: [(&str, u64); 2] = [("lo", 3_000_000), ("hi", 1_500_000)];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `train_pipad` on one simulated device.
    Train,
    /// `train_data_parallel` on four simulated devices.
    MultiGpu,
    /// Checkpoint restore + two `serve_open_loop` replays.
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub model: ModelKind,
    pub hidden: usize,
    pub n_vertices: usize,
    pub edges_per_snapshot: usize,
    pub feature_dim: usize,
    pub skew: f64,
    /// Epochs of the timed training call, preparing epochs included.
    pub epochs: usize,
    /// Set-ups per untraced run; `setup_s` is their median. Short set-ups
    /// are repeated more often to steady that median.
    pub setups: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_sparse_large",
        why: "T-GCN on a 12000-vertex hypersparse graph: few launches over big operands, so host time is per-row work in gpu-sim cost accounting, kernels, tensor, sparse and the core analyzer",
        kind: Kind::Train,
        model: ModelKind::TGcn,
        hidden: 6,
        n_vertices: 12_000,
        edges_per_snapshot: 1_032,
        feature_dim: 2,
        skew: 0.6,
        epochs: PREPARING_EPOCHS + 4,
        setups: 3,
    },
    Workload {
        name: "train_dense_small",
        why: "MPNN-LSTM on a 130-vertex graph: about 12000 tiny launches per epoch, so autograd tape, gpu-sim launch/alloc/trace and bufpool overhead dominate and operand size does not",
        kind: Kind::Train,
        model: ModelKind::MpnnLstm,
        hidden: 32,
        n_vertices: 130,
        edges_per_snapshot: 900,
        feature_dim: 16,
        skew: 0.2,
        epochs: PREPARING_EPOCHS + 10,
        setups: 5,
    },
    Workload {
        name: "multigpu_4dev",
        why: "EvolveGCN data-parallel on 4 simulated devices: fixed shards, rectangular SpMM, halo exchange and ring allreduce, so a single-device gain that costs the sharded path shows",
        kind: Kind::MultiGpu,
        model: ModelKind::EvolveGcn,
        hidden: 6,
        n_vertices: 6_000,
        edges_per_snapshot: 16_000,
        feature_dim: 2,
        skew: 0.7,
        epochs: PREPARING_EPOCHS + 6,
        setups: 3,
    },
    Workload {
        name: "serve_two_rates",
        why: "Reads beside writes: checkpoint restore, then forward-only T-GCN serving with both reuse tiers hot, open loop on the simulated clock at one third and two thirds of capacity",
        kind: Kind::Serve,
        model: ModelKind::TGcn,
        hidden: 16,
        n_vertices: 170,
        edges_per_snapshot: 3_600,
        feature_dim: 16,
        skew: 0.1,
        epochs: SERVE_TRAIN_EPOCHS,
        setups: 9,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A directory under [`OUT_DIR`] that is removed when dropped. Keyed by
/// process id, workload and a per-process counter, so neither two runs in
/// one process nor two processes on one checkout share a directory.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(workload: &str) -> std::io::Result<TempDir> {
        TempDir::new_in(Path::new(OUT_DIR), workload)
    }

    pub fn new_in(out_dir: &Path, workload: &str) -> std::io::Result<TempDir> {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir
            .join("tmp")
            .join(format!("{}-{workload}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failed clean-up here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one set-up leaves behind for the timed calls.
pub struct Prepared {
    pub graph: DynamicGraph,
    /// Wall-clock of `GenConfig::generate`.
    pub generate_s: f64,
    /// Wall-clock of the preparing-only call.
    pub preparing_s: f64,
    /// Checkpoints of the training run that `serve_two_rates` serves from,
    /// with that run's report.
    pub served: Option<(TempDir, TrainReport)>,
}

/// One replay of `serve_two_rates` at one rate, on its own device.
pub struct ServeLeg {
    pub rate: &'static str,
    pub report: ServeReport,
    pub gpu: Gpu,
}

pub enum Outcome {
    Train(Box<TrainReport>, Box<Gpu>),
    Multi(Box<MultiTrainReport>),
    Serve(Vec<ServeLeg>),
}

/// One timed call and what it produced.
pub struct Rep {
    pub host_s: f64,
    pub outcome: Outcome,
}

fn v100() -> Gpu {
    Gpu::new(DeviceConfig::v100())
}

fn final_loss(epochs: &[EpochReport]) -> f32 {
    epochs.last().expect("a run has epochs").mean_loss
}

impl Workload {
    pub fn gen_config(&self, seed: u64) -> GenConfig {
        GenConfig {
            name: self.name.to_string(),
            n_vertices: self.n_vertices,
            edges_per_snapshot: self.edges_per_snapshot,
            n_snapshots: N_SNAPSHOTS,
            feature_dim: self.feature_dim,
            change_rate: 0.1,
            skew: self.skew,
            seed,
        }
    }

    pub fn train_config(&self, seed: u64, epochs: usize) -> TrainingConfig {
        TrainingConfig {
            window: WINDOW,
            epochs,
            preparing_epochs: PREPARING_EPOCHS,
            lr: 0.01,
            seed,
        }
    }

    pub fn serve_config(&self, seed: u64, mean_interarrival_ns: u64) -> ServeSimConfig {
        ServeSimConfig {
            batch: BatchPolicy {
                max_batch: 4,
                max_delay_ns: 250_000,
                queue_capacity: 8,
            },
            gen: RequestGenConfig {
                seed,
                n_requests: SERVE_REQUESTS,
                mean_interarrival_ns,
                max_targets: 8,
                snapshot_period_ns: 400_000,
            },
        }
    }

    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            hidden: self.hidden,
            ..EngineConfig::default()
        }
    }

    pub fn multigpu_config(&self, n_gpus: usize) -> MultiGpuConfig {
        MultiGpuConfig {
            n_gpus,
            virtual_shards: N_GPUS,
            ..MultiGpuConfig::default()
        }
    }

    pub fn steady_epochs(&self) -> usize {
        self.epochs - PREPARING_EPOCHS
    }

    /// Operations one timed call attempts: frame-steps when training,
    /// requests when serving.
    pub fn ops_per_rep(&self) -> u64 {
        match self.kind {
            Kind::Serve => (RATES.len() * SERVE_REQUESTS) as u64,
            _ => (self.epochs * (N_SNAPSHOTS - WINDOW + 1)) as u64,
        }
    }

    fn train(
        &self,
        gpu: &mut Gpu,
        graph: &DynamicGraph,
        cfg: &TrainingConfig,
        pcfg: &PipadConfig,
    ) -> Result<TrainReport, String> {
        train_pipad(gpu, self.model, graph, self.hidden, cfg, pcfg)
            .map_err(|e| format!("{}: train_pipad failed: {e}", self.name))
    }

    fn train_multi(
        &self,
        graph: &DynamicGraph,
        cfg: &TrainingConfig,
        n_gpus: usize,
    ) -> Result<MultiTrainReport, String> {
        train_data_parallel(
            self.model,
            graph,
            self.hidden,
            cfg,
            &self.multigpu_config(n_gpus),
        )
        .map_err(|e| format!("{}: train_data_parallel failed: {e}", self.name))
    }

    /// Generate the inputs and run PiPAD's one-off preparing phase on them:
    /// a training call that stops after the preparing epochs. For
    /// `serve_two_rates` the one-off phase is the checkpointed training run
    /// plus one engine restore.
    pub fn setup(&self, seed: u64, rec: &mut Recorder) -> Result<Prepared, String> {
        let t = Instant::now();
        let graph = rec.scope("generate", || self.gen_config(seed).generate());
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let span = rec.begin("preparing_only");
        let served = match self.kind {
            Kind::Train => {
                let cfg = self.train_config(seed, PREPARING_EPOCHS);
                self.train(&mut v100(), &graph, &cfg, &PipadConfig::default())?;
                None
            }
            Kind::MultiGpu => {
                self.train_multi(&graph, &self.train_config(seed, PREPARING_EPOCHS), N_GPUS)?;
                None
            }
            Kind::Serve => {
                let dir = TempDir::new(self.name).map_err(|e| format!("temp dir: {e}"))?;
                let cfg = self.train_config(seed, self.epochs);
                let pcfg = PipadConfig {
                    checkpoint: Some(CheckpointPolicy::new(dir.path(), 2)),
                    ..PipadConfig::default()
                };
                let mut gpu = v100();
                let report = self.train(&mut gpu, &graph, &cfg, &pcfg)?;
                gpu.profiler().consistency_check(gpu.trace())?;
                self.restore(&mut v100(), dir.path(), &graph, seed)?;
                Some((dir, report))
            }
        };
        rec.end(span);
        Ok(Prepared {
            graph,
            generate_s,
            preparing_s: t.elapsed().as_secs_f64(),
            served,
        })
    }

    pub fn restore<'g>(
        &self,
        gpu: &mut Gpu,
        dir: &Path,
        graph: &'g DynamicGraph,
        seed: u64,
    ) -> Result<ServeEngine<'g>, String> {
        let cfg = self.train_config(seed, self.epochs);
        ServeEngine::from_latest(gpu, dir, self.model, graph, &cfg, &self.engine_config())
            .map_err(|e| format!("{}: engine restore failed: {e}", self.name))
    }

    /// The timed call. Only the call itself is inside the timer; for
    /// `serve_two_rates` that is the two replays, each on a device and an
    /// engine restored fresh outside it.
    pub fn timed_rep(&self, prepared: &Prepared, seed: u64) -> Result<Rep, String> {
        let graph = &prepared.graph;
        let cfg = self.train_config(seed, self.epochs);
        match self.kind {
            Kind::Train => {
                let mut gpu = v100();
                let t = Instant::now();
                let report = self.train(&mut gpu, graph, &cfg, &PipadConfig::default())?;
                let host_s = t.elapsed().as_secs_f64();
                Ok(Rep {
                    host_s,
                    outcome: Outcome::Train(Box::new(report), Box::new(gpu)),
                })
            }
            Kind::MultiGpu => {
                let t = Instant::now();
                let report = self.train_multi(graph, &cfg, N_GPUS)?;
                Ok(Rep {
                    host_s: t.elapsed().as_secs_f64(),
                    outcome: Outcome::Multi(Box::new(report)),
                })
            }
            Kind::Serve => {
                let (dir, _) = prepared.served.as_ref().expect("serve set-up ran");
                let mut host_s = 0.0;
                let mut legs = Vec::with_capacity(RATES.len());
                for (rate, gap_ns) in RATES {
                    let mut gpu = v100();
                    let mut engine = self.restore(&mut gpu, dir.path(), graph, seed)?;
                    let scfg = self.serve_config(seed, gap_ns);
                    let t = Instant::now();
                    let report = serve_open_loop(&mut gpu, &mut engine, &scfg)
                        .map_err(|e| format!("{}: serving at `{rate}` failed: {e}", self.name))?;
                    host_s += t.elapsed().as_secs_f64();
                    legs.push(ServeLeg { rate, report, gpu });
                }
                Ok(Rep {
                    host_s,
                    outcome: Outcome::Serve(legs),
                })
            }
        }
    }
}

impl ServeLeg {
    pub fn rejected(&self) -> usize {
        self.report.rejected_queue_full + self.report.rejected_fault + self.report.rejected_poisoned
    }

    /// Requests that missed the SLO; a rejected request counts as a miss.
    pub fn slo_misses(&self) -> usize {
        let late = self
            .report
            .records
            .iter()
            .filter(|r| r.latency().is_some_and(|l| l.as_nanos() > SLO_NS));
        late.count() + self.rejected()
    }

    /// Summed simulated latency of the served requests.
    pub fn latency_sum_ns(&self) -> u64 {
        let served = self.report.records.iter().filter_map(|r| r.latency());
        served.map(|l| l.as_nanos()).sum()
    }

    pub fn logits_crc(&self) -> u32 {
        crc32(&self.report.served_logit_bytes())
    }
}

/// Optimizer steps the trainer skipped on a NaN/Inf loss.
fn nan_skipped_steps(gpu: &Gpu) -> u64 {
    let nan_skip = ArgValue::Str("nan_skip".to_string());
    let skipped = gpu.trace().events().iter().filter(|e| {
        e.name == "recovery" && e.args.iter().any(|(k, v)| *k == "policy" && *v == nan_skip)
    });
    skipped.count() as u64
}

impl Rep {
    /// Epoch records and mean steady-epoch time of a training outcome.
    pub fn training(&self) -> Option<(&[EpochReport], SimNanos)> {
        match &self.outcome {
            Outcome::Train(r, _) => Some((&r.epochs, r.steady_epoch_time)),
            Outcome::Multi(r) => Some((&r.epochs, r.steady_epoch_time)),
            Outcome::Serve(_) => None,
        }
    }

    pub fn final_loss(&self) -> Option<f32> {
        self.training().map(|(epochs, _)| final_loss(epochs))
    }

    /// Simulated results that must repeat bit for bit across reps of one
    /// seed: losses, simulated times, serve latencies and logit CRCs.
    pub fn digest(&self) -> Vec<u64> {
        match &self.outcome {
            Outcome::Serve(legs) => legs
                .iter()
                .flat_map(|l| {
                    let lat = &l.report.latency;
                    [
                        lat.p50.as_nanos(),
                        lat.p99.as_nanos(),
                        l.latency_sum_ns(),
                        l.report.served as u64,
                        l.logits_crc() as u64,
                    ]
                })
                .collect(),
            _ => {
                let (epochs, steady) = self.training().expect("a training outcome");
                let per_epoch = epochs
                    .iter()
                    .flat_map(|e| [e.mean_loss.to_bits() as u64, e.sim_time.as_nanos()]);
                per_epoch.chain([steady.as_nanos()]).collect()
            }
        }
    }

    /// Failed operations of this rep: NaN-skipped frame-steps or rejected
    /// requests. (A call that returns `Err` never becomes a `Rep`; the
    /// caller fails all of its operations.)
    pub fn failed_ops(&self) -> u64 {
        match &self.outcome {
            Outcome::Train(_, gpu) => nan_skipped_steps(gpu),
            // The devices are internal to `train_data_parallel`; their
            // traces come back as Chrome JSON.
            Outcome::Multi(r) => r
                .traces
                .iter()
                .map(|t| t.matches("\"policy\":\"nan_skip\"").count() as u64)
                .sum(),
            Outcome::Serve(legs) => legs.iter().map(|l| l.rejected() as u64).sum(),
        }
    }

    /// The simulated time a user of the modelled system waits for the
    /// result (`result_sim_ns`).
    pub fn result_sim_ns(&self) -> u64 {
        match &self.outcome {
            Outcome::Train(r, _) => r.total_time.as_nanos(),
            Outcome::Multi(r) => r.epochs.iter().map(|e| e.sim_time.as_nanos()).sum(),
            Outcome::Serve(legs) => {
                let total: u64 = legs.iter().map(|l| l.latency_sum_ns()).sum();
                let served: usize = legs.iter().map(|l| l.report.served).sum();
                total / served.max(1) as u64
            }
        }
    }

    /// Output checks on one rep; each failure is one line.
    pub fn check(&self, w: &Workload) -> Vec<String> {
        let mut bad = Vec::new();
        if let Some((epochs, _)) = self.training() {
            let first = epochs.first().map_or(f32::NAN, |e| e.mean_loss);
            let last = final_loss(epochs);
            if !epochs.iter().all(|e| e.mean_loss.is_finite()) {
                bad.push("a loss is not finite".to_string());
            } else if last >= first {
                bad.push(format!(
                    "final loss {last} is not below the first epoch's {first}"
                ));
            }
        }
        match &self.outcome {
            Outcome::Train(_, gpu) => {
                if let Err(e) = gpu.profiler().consistency_check(gpu.trace()) {
                    bad.push(format!("profiler and trace disagree: {e}"));
                }
            }
            Outcome::Multi(r) => {
                if r.n_gpus != N_GPUS {
                    bad.push(format!("ran on {} devices, not {N_GPUS}", r.n_gpus));
                }
            }
            Outcome::Serve(legs) => {
                for l in legs {
                    let rate = l.rate;
                    if l.report.served + l.rejected() != SERVE_REQUESTS {
                        bad.push(format!("{rate}: served + rejected != {SERVE_REQUESTS}"));
                    }
                    if crate::stats::highest_supported_percentile(l.report.served) != Some(99) {
                        bad.push(format!(
                            "{rate}: {} served requests do not justify a p99",
                            l.report.served
                        ));
                    }
                    let p99 = l.report.latency.p99.as_nanos();
                    if p99 > SLO_NS {
                        bad.push(format!("{rate}: p99 {p99} ns misses the {SLO_NS} ns SLO"));
                    }
                    if let Err(e) = l.gpu.profiler().consistency_check(l.gpu.trace()) {
                        bad.push(format!("{rate}: profiler and trace disagree: {e}"));
                    }
                }
            }
        }
        let failed = self.failed_ops();
        if failed > 0 {
            bad.push(format!("{}: {failed} operations failed", w.name));
        }
        bad
    }
}

impl Prepared {
    /// Loss of the last epoch of the run the workload's result comes from.
    pub fn served_final_loss(&self) -> Option<f32> {
        self.served.as_ref().map(|(_, r)| final_loss(&r.epochs))
    }
}

pub fn frames_per_epoch(graph: &DynamicGraph) -> usize {
    FrameIter::count_frames(graph, WINDOW)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_serve::generate_requests;

    /// CRC over everything the program under test receives for `seed`.
    fn inputs_crc(w: &Workload, seed: u64) -> u32 {
        let graph = w.gen_config(seed).generate();
        let mut bytes = Vec::new();
        for s in &graph.snapshots {
            for &c in s.adj.col_indices() {
                bytes.extend_from_slice(&c.to_le_bytes());
            }
            for r in 0..s.features.rows() {
                for c in 0..s.features.cols() {
                    bytes.extend_from_slice(&s.features[(r, c)].to_bits().to_le_bytes());
                }
            }
        }
        bytes.extend_from_slice(&w.train_config(seed, w.epochs).seed.to_le_bytes());
        if w.kind == Kind::Serve {
            for (_, gap) in RATES {
                let plan = generate_requests(
                    &w.serve_config(seed, gap).gen,
                    frames_per_epoch(&graph),
                    graph.n(),
                );
                for r in plan {
                    bytes.extend_from_slice(&r.arrival.as_nanos().to_le_bytes());
                    bytes.extend(r.targets.iter().flat_map(|t| (*t as u32).to_le_bytes()));
                }
            }
        }
        crc32(&bytes)
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        // The two small shapes keep the test fast; the generator code path
        // is the same for all four.
        for w in WORKLOADS.iter().filter(|w| w.n_vertices < 1000) {
            assert_eq!(inputs_crc(w, 1), inputs_crc(w, 1), "{}", w.name);
            assert_ne!(inputs_crc(w, 1), inputs_crc(w, 2), "{}", w.name);
        }
        for w in &WORKLOADS {
            assert_eq!(w.gen_config(1), w.gen_config(1));
            assert_ne!(w.gen_config(1), w.gen_config(2));
            assert_eq!(w.gen_config(7).seed, 7);
            assert_eq!(w.train_config(7, w.epochs).seed, 7);
            assert_eq!(w.serve_config(7, 1).gen.seed, 7);
        }
    }

    #[test]
    fn shapes_are_the_documented_ones() {
        let w = find("train_sparse_large").unwrap();
        let g = w.gen_config(1);
        assert_eq!(
            (g.n_vertices, g.edges_per_snapshot, g.n_snapshots),
            (12_000, 1_032, 24)
        );
        assert_eq!((w.hidden, w.epochs, w.steady_epochs()), (6, 6, 4));
        assert_eq!(w.ops_per_rep(), 6 * 9);
        let w = find("serve_two_rates").unwrap();
        assert_eq!(w.ops_per_rep(), 4000);
        assert!(find("nope").is_none());
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed_on_drop() {
        // `cargo test` runs in the package directory, not the checkout root.
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let a = TempDir::new_in(&out, "t").unwrap();
        let b = TempDir::new_in(&out, "t").unwrap();
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }
}
