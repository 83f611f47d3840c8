//! Shared harness plumbing: method dispatch, configs, text-table output.

use pipad::exec::ExecOptions;
use pipad::{train_pipad, GraphAnalyzer, PartitionCatalog, PipadConfig, PipadExecutor};
use pipad_autograd::Tape;
use pipad_baselines::{train_baseline, BaselineExecutor, BaselineKind};
use pipad_dyngraph::{DatasetId, DynamicGraph, Scale};
use pipad_gpu_sim::{Breakdown, DeviceConfig, Gpu, SimNanos};
use pipad_kernels::DeviceMatrix;
use pipad_models::{GnnExecutor, ModelKind, TrainReport, TrainingConfig};
use pipad_pool::with_threads;
use pipad_sparse::Csr;
use pipad_tensor::{with_pool_enabled, Matrix};
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// All five compared training systems.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    Pygt,
    PygtA,
    PygtR,
    PygtG,
    Pipad,
}

impl Method {
    pub const ALL: [Method; 5] = [
        Method::Pygt,
        Method::PygtA,
        Method::PygtR,
        Method::PygtG,
        Method::Pipad,
    ];

    /// The PyGT variant this method trains, or `None` for PiPAD.
    fn baseline(self) -> Option<BaselineKind> {
        match self {
            Method::Pygt => Some(BaselineKind::Pygt),
            Method::PygtA => Some(BaselineKind::PygtA),
            Method::PygtR => Some(BaselineKind::PygtR),
            Method::PygtG => Some(BaselineKind::PygtG),
            Method::Pipad => None,
        }
    }

    pub fn name(self) -> &'static str {
        self.baseline().map_or("PiPAD", BaselineKind::name)
    }

    /// Train on a fresh simulated device and return the report. The
    /// device's profiler is cross-checked against its trace before it is
    /// dropped, so every harness run doubles as a consistency oracle.
    pub fn run(
        self,
        model: ModelKind,
        graph: &DynamicGraph,
        hidden: usize,
        cfg: &TrainingConfig,
    ) -> TrainReport {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        self.run_on(&mut gpu, model, graph, hidden, cfg)
    }

    /// [`Method::run`] on a caller-supplied device, leaving the trace and
    /// profiler available for post-hoc analysis (`repro profile`).
    pub fn run_on(
        self,
        gpu: &mut Gpu,
        model: ModelKind,
        graph: &DynamicGraph,
        hidden: usize,
        cfg: &TrainingConfig,
    ) -> TrainReport {
        let report = match self.baseline() {
            None => train_pipad(gpu, model, graph, hidden, cfg, &PipadConfig::default())
                .expect("PiPAD run failed"),
            Some(kind) => {
                train_baseline(gpu, kind, model, graph, hidden, cfg).expect("baseline run failed")
            }
        };
        check_consistency(gpu);
        report
    }
}

/// The host-determinism contract, stated once: every artifact is a pure
/// function of the workload, identical in each `(threads, pool)` cell —
/// host worker-pool band budget × host buffer pool on/off. Three cells
/// cover both axes. The overrides are scoped and total (they shadow
/// `PIPAD_THREADS` / `PIPAD_NO_POOL`), and results depend on the band
/// budget only through `pipad_pool::band_range`, never on how many OS
/// workers execute the bands — so an in-process sweep proves what an
/// env-var re-run of the whole process would.
pub const HOST_MATRIX: [(usize, bool); 3] = [(1, true), (4, true), (4, false)];

/// Evaluate `f` in every [`HOST_MATRIX`] cell, assert each result equals
/// the first cell's (naming the cell that differs), and return the first.
pub fn host_invariant<T: PartialEq + Debug>(what: &str, f: impl Fn() -> T) -> T {
    let mut cells = HOST_MATRIX.iter().map(|&(threads, pool)| {
        let got = with_threads(threads, || with_pool_enabled(pool, &f));
        (threads, pool, got)
    });
    let (threads0, pool0, first) = cells.next().expect("HOST_MATRIX is non-empty");
    for (threads, pool, got) in cells {
        assert_eq!(
            got, first,
            "{what} at threads={threads} pool={pool} differs from threads={threads0} pool={pool0}"
        );
    }
    first
}

/// The two renderings most experiments produce: `<name>.json` and the
/// `<name>.txt` summary.
#[derive(Debug, PartialEq)]
pub struct Artifact {
    /// Machine-readable report.
    pub json: String,
    /// Text summary.
    pub summary: String,
}

/// A private temp directory for an experiment's checkpoints, removed on
/// drop — so also when an assertion unwinds. Keyed by pid *and* a
/// process-wide counter: two measurements on parallel test threads of one
/// process must not share (and delete) each other's directory.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pipad-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Assert that a device's profiler samples agree with the trace events they
/// render — every `repro` experiment calls this before dropping a device
/// it drove directly.
pub fn check_consistency(gpu: &Gpu) {
    gpu.profiler()
        .consistency_check(gpu.trace())
        .expect("profiler and trace diverged over a repro experiment");
}

/// Which executor stages a frame for [`run_gnn_frame`]. Inter-frame reuse
/// is off either way.
#[derive(Clone, Copy, Debug)]
pub enum Staging {
    /// `PipadExecutor` over sliced CSR with a trainer's `S_per` and
    /// weight-reuse setting.
    Pipad { s_per: usize, weight_reuse: bool },
    /// The `BaselineExecutor` of one PyGT variant.
    Baseline(BaselineKind),
}

/// One GCN layer over every snapshot of `graph` through the executor a
/// trainer runs: stage the snapshots as one frame the way that trainer
/// does, synchronize, then run `aggregate_inputs` on a tape and — given a
/// weight and a bias, resident beforehand like a model's — `update`.
/// Returns the device time of that computation and the profiler window
/// over it; staging lies outside both.
pub fn run_gnn_frame(
    graph: &DynamicGraph,
    staging: Staging,
    update: Option<(&Matrix, &Matrix)>,
) -> (SimNanos, Breakdown) {
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let (compute, copy) = (gpu.default_stream(), gpu.create_stream());
    let fits = "the frame fits the device";
    let measured = match staging {
        Staging::Pipad {
            s_per,
            weight_reuse,
        } => {
            let mut host = gpu.host_now();
            let analyzer = GraphAnalyzer::run(&mut gpu, graph, &mut host);
            let catalog = PartitionCatalog::build(&mut gpu, &analyzer, &mut host);
            let feats: Vec<&Matrix> = graph.snapshots.iter().map(|s| &s.features).collect();
            let opts = ExecOptions {
                s_per,
                needs_adjacency_when_cached: false,
                weight_reuse,
                use_sliced: true,
            };
            let mut exec = PipadExecutor::stage(
                &mut gpu, &analyzer, &catalog, &feats, 0, opts, None, compute, copy,
            )
            .expect(fits);
            let measured = gnn_layer(&mut gpu, &mut exec, update);
            exec.finish(&mut gpu);
            measured
        }
        Staging::Baseline(kind) => {
            let frame: Vec<(usize, &Csr, &Matrix)> = graph
                .snapshots
                .iter()
                .enumerate()
                .map(|(i, s)| (i, &s.adj, &s.features))
                .collect();
            let opts = kind.stage_options(false);
            let mut exec =
                BaselineExecutor::stage(&mut gpu, &frame, opts, None, compute, copy).expect(fits);
            let measured = gnn_layer(&mut gpu, &mut exec, update);
            exec.finish(&mut gpu);
            measured
        }
    };
    check_consistency(&gpu);
    measured
}

/// The measured part of [`run_gnn_frame`], on a staged executor.
fn gnn_layer(
    gpu: &mut Gpu,
    exec: &mut impl GnnExecutor,
    update: Option<(&Matrix, &Matrix)>,
) -> (SimNanos, Breakdown) {
    let fits = "the layer fits the device";
    let mut tape = Tape::new(gpu.default_stream());
    let params = update.map(|(w, b)| {
        let w = DeviceMatrix::alloc(gpu, w.clone()).expect(fits);
        let b = DeviceMatrix::alloc(gpu, b.clone()).expect(fits);
        (tape.input(w), tape.input(b))
    });
    let t0 = gpu.synchronize();
    let snap = gpu.profiler().snapshot();
    let xs = exec.aggregate_inputs(gpu, &mut tape).expect(fits);
    if let Some((w, b)) = params {
        exec.update(gpu, &mut tape, &xs, w, b).expect(fits);
    }
    let elapsed = gpu.synchronize() - t0;
    let window = gpu.profiler().window(snap);
    tape.finish(gpu);
    (elapsed, window)
}

/// The harness training configuration: the paper's frame size (16), two
/// preparing epochs and two measured steady-state epochs (steady epochs are
/// statistically identical, so the per-epoch time extrapolates to the
/// paper's 200-epoch runs).
pub fn default_training_config() -> TrainingConfig {
    TrainingConfig {
        window: 16,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 7,
    }
}

/// Generate a dataset at the requested scale.
pub fn dataset(id: DatasetId, scale: Scale) -> DynamicGraph {
    id.gen_config(scale).generate()
}

/// Right-pad to a column width.
pub fn pad(s: &str, w: usize) -> String {
    format!("{s:<w$}")
}

/// Format a ratio as `N.NNx`.
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Section header for harness output.
pub fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn methods_cover_figure_10_legend() {
        let names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["PyGT", "PyGT-A", "PyGT-R", "PyGT-G", "PiPAD"]);
    }

    #[test]
    fn host_invariant_visits_every_cell_and_returns_the_first() {
        let seen = std::cell::RefCell::new(Vec::new());
        let got = host_invariant("constant", || {
            seen.borrow_mut()
                .push((pipad_pool::current_threads(), pipad_tensor::pool_enabled()));
            7
        });
        assert_eq!(got, 7);
        assert_eq!(seen.into_inner(), HOST_MATRIX);
    }

    #[test]
    #[should_panic(expected = "threads=4 pool=true differs from threads=1 pool=true")]
    fn host_invariant_catches_a_thread_dependent_result() {
        host_invariant("band budget", pipad_pool::current_threads);
    }

    #[test]
    #[should_panic(expected = "threads=4 pool=false differs")]
    fn host_invariant_catches_a_pool_dependent_result() {
        host_invariant("pool switch", pipad_tensor::pool_enabled);
    }

    #[test]
    fn scratch_dirs_are_distinct_and_removed_on_unwind() {
        let a = ScratchDir::new("util-test");
        let b = ScratchDir::new("util-test");
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        let unwound = std::panic::catch_unwind(move || {
            let _guard = a;
            panic!("assertion fired mid-measurement");
        });
        assert!(unwound.is_err());
        assert!(!kept.exists(), "scratch dir leaked by an unwinding panic");
        assert!(b.path().is_dir());
    }

    #[test]
    fn config_uses_paper_frame_size() {
        assert_eq!(default_training_config().window, 16);
    }
}
