//! An ESDG-style graph-difference trainer (Chakaravarthy et al., SC'21),
//! the transfer-focused comparator the paper discusses in §2.2/§3.1:
//! topology stays resident on the device and only *edge deltas* cross PCIe
//! as the timeline advances — but computation still follows the
//! one-snapshot-at-a-time paradigm with no aggregation reuse or
//! intra-frame parallelism ("still follows the one-snapshot-at-a-time
//! training manner", §3.1).
//!
//! The comparison this enables: diff transfer attacks the same redundancy
//! as PiPAD's overlap-aware organization on the wire, yet leaves the
//! parallelism/reuse acceleration on the table — exactly the paper's
//! argument for why ESDG "blunders away the chance of fulfilling further
//! acceleration".

use pipad::{run_epochs, CkptExtra, EpochPolicy, RunCx};
use pipad_autograd::{AggregationKernel, Tape, Var};
use pipad_dyngraph::{DynamicGraph, Frame};
use pipad_gpu_sim::{DeviceFault, Event, Gpu, OomError, SimNanos, StreamId};
use pipad_kernels::{DeviceCsr, DeviceMatrix};
use pipad_models::{
    normalize_snapshot, GnnExecutor, ModelKind, NormalizedAdj, TrainReport, TrainingConfig,
};
use pipad_sparse::graph_diff;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A snapshot resident on the device (adjacency + features), kept across
/// frames while it remains inside the sliding window.
struct ResidentSnapshot {
    norm: NormalizedAdj,
    adj: DeviceCsr,
    features_host: pipad_tensor::Matrix,
    ready: Event,
}

/// Device-resident window state maintained across frames. Ordered, so the
/// window is freed in the same order on every run.
struct ResidentWindow {
    snapshots: BTreeMap<usize, ResidentSnapshot>,
}

impl ResidentWindow {
    /// Make snapshot `idx` resident. The first snapshot of a run ships its
    /// full topology; later ones ship the delta against the latest resident
    /// predecessor (the device applies it in place — modeled as a fresh
    /// allocation of the same size plus the delta's PCIe bytes).
    fn admit(
        &mut self,
        gpu: &mut Gpu,
        copy: StreamId,
        graph: &DynamicGraph,
        idx: usize,
        host_cursor: &mut SimNanos,
    ) -> Result<(), OomError> {
        if self.snapshots.contains_key(&idx) {
            return Ok(());
        }
        let snap = &graph.snapshots[idx];
        let norm = normalize_snapshot(&snap.adj);
        // Delta against the nearest resident predecessor, if any.
        let predecessor = self.snapshots.range(..idx).next_back().map(|(&p, _)| p);
        let wire_bytes = match predecessor {
            Some(p) => {
                let (added, removed) = graph_diff(&graph.snapshots[p].adj, &snap.adj);
                // each delta edge ships as (src, dst) plus an op tag word
                (added.len() + removed.len()) as u64 * 12
            }
            None => norm.adj_hat.bytes(),
        };
        let prep = SimNanos::from_nanos(gpu.cfg().host_op_fixed_ns)
            + SimNanos::from_bytes(
                wire_bytes + snap.features.bytes(),
                gpu.cfg().host_bytes_per_us,
            );
        let (_, host_end) = gpu.host_op("esdg_diff_prep", *host_cursor, prep);
        *host_cursor = host_end;
        gpu.stream_wait_host(copy, host_end);

        let adj = DeviceCsr::alloc(gpu, Rc::clone(&norm.adj_hat), false)?;
        gpu.h2d(copy, wire_bytes, true);
        gpu.h2d(copy, snap.features.bytes(), true);
        let ready = gpu.record_event(copy);
        self.snapshots.insert(
            idx,
            ResidentSnapshot {
                norm,
                adj,
                features_host: snap.features.clone(),
                ready,
            },
        );
        Ok(())
    }

    /// Drop snapshots that left the window (all of them at `usize::MAX`).
    fn retire_below(&mut self, gpu: &mut Gpu, min_idx: usize) {
        let kept = self.snapshots.split_off(&min_idx);
        for (_, s) in std::mem::replace(&mut self.snapshots, kept) {
            s.adj.free(gpu);
        }
    }
}

/// One-snapshot executor over the resident window.
struct EsdgExecutor<'w> {
    window: &'w ResidentWindow,
    frame_start: usize,
    frame_len: usize,
    compute: StreamId,
}

impl EsdgExecutor<'_> {
    fn inputs(&mut self, gpu: &mut Gpu, tape: &mut Tape) -> Result<Vec<Var>, OomError> {
        (0..self.frame_len)
            .map(|i| {
                let s = &self.window.snapshots[&(self.frame_start + i)];
                gpu.wait_event(self.compute, s.ready);
                // features are resident: wrap without charging a transfer
                let dm = DeviceMatrix::alloc(gpu, s.features_host.clone_in())?;
                Ok(tape.input(dm))
            })
            .collect()
    }
}

impl GnnExecutor for EsdgExecutor<'_> {
    fn frame_len(&self) -> usize {
        self.frame_len
    }

    fn aggregate_inputs(&mut self, gpu: &mut Gpu, tape: &mut Tape) -> Result<Vec<Var>, OomError> {
        let xs = self.inputs(gpu, tape)?;
        self.aggregate_hidden(gpu, tape, &xs)
    }

    fn aggregate_hidden(
        &mut self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        xs: &[Var],
    ) -> Result<Vec<Var>, OomError> {
        xs.iter()
            .enumerate()
            .map(|(i, &x)| {
                let s = &self.window.snapshots[&(self.frame_start + i)];
                gpu.wait_event(self.compute, s.ready);
                let agg = tape.spmm(
                    gpu,
                    Rc::clone(&s.norm.adj_hat),
                    x,
                    AggregationKernel::CooScatter,
                )?;
                tape.row_scale(gpu, agg, Rc::clone(&s.norm.inv_deg))
            })
            .collect()
    }
}

/// ESDG as a policy of [`run_epochs`].
struct EsdgPolicy {
    window: ResidentWindow,
    preparing: usize,
}

/// The window is rebuilt from snapshot 0 every epoch, so ESDG carries
/// nothing across an epoch boundary beyond the common checkpoint sections.
impl CkptExtra for EsdgPolicy {}

impl EpochPolicy for EsdgPolicy {
    fn trainer(&self) -> &'static str {
        "ESDG-diff"
    }

    fn preparing(&self) -> usize {
        self.preparing
    }

    fn ckpt(&mut self) -> &mut dyn CkptExtra {
        self
    }

    fn frame(
        &mut self,
        cx: &mut RunCx<'_>,
        _epoch: usize,
        _fi: usize,
        frame: &Frame<'_>,
    ) -> Result<f32, DeviceFault> {
        for i in 0..frame.len() {
            let idx = frame.global_index(i);
            self.window
                .admit(cx.gpu, cx.copy, cx.graph, idx, &mut cx.host_cursor)?;
        }
        let mut exec = EsdgExecutor {
            window: &self.window,
            frame_start: frame.start,
            frame_len: frame.len(),
            compute: cx.compute,
        };
        let loss = cx.step(&mut exec, frame)?;
        self.window.retire_below(cx.gpu, frame.start + 1);
        Ok(loss)
    }

    /// Epoch boundary: the window restarts at snapshot 0, so the resident
    /// set is rebuilt (the first admit of the next epoch ships a full
    /// topology again, then deltas).
    fn end_epoch(&mut self, cx: &mut RunCx<'_>, _epoch: usize) {
        self.window.retire_below(cx.gpu, usize::MAX);
    }
}

/// Train with ESDG-style difference transfers (single simulated GPU).
pub fn train_esdg(
    gpu: &mut Gpu,
    model_kind: ModelKind,
    graph: &DynamicGraph,
    hidden: usize,
    cfg: &TrainingConfig,
) -> Result<TrainReport, OomError> {
    run_epochs(gpu, model_kind, graph, hidden, cfg, None, |_| EsdgPolicy {
        window: ResidentWindow {
            snapshots: BTreeMap::new(),
        },
        preparing: cfg.preparing_epochs.min(cfg.epochs.saturating_sub(1)),
    })
    .map_err(crate::trainer::expect_oom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_baseline, BaselineKind};
    use pipad_dyngraph::{DatasetId, Scale, Snapshot};
    use pipad_gpu_sim::{export_chrome_trace, DeviceConfig};
    use pipad_sparse::Csr;

    fn setup() -> (DynamicGraph, TrainingConfig) {
        (
            DatasetId::Covid19England.gen_config(Scale::Tiny).generate(),
            TrainingConfig {
                window: 8,
                epochs: 3,
                preparing_epochs: 1,
                lr: 0.01,
                seed: 3,
            },
        )
    }

    #[test]
    fn diff_transfer_ships_far_fewer_bytes_than_pygt_a() {
        let (g, cfg) = setup();
        let mut g1 = Gpu::new(DeviceConfig::v100());
        let full = train_baseline(
            &mut g1,
            BaselineKind::PygtA,
            ModelKind::EvolveGcn,
            &g,
            8,
            &cfg,
        )
        .unwrap();
        let mut g2 = Gpu::new(DeviceConfig::v100());
        let diff = train_esdg(&mut g2, ModelKind::EvolveGcn, &g, 8, &cfg).unwrap();
        assert!(
            diff.steady.h2d_bytes * 2 < full.steady.h2d_bytes,
            "diff {} vs full {}",
            diff.steady.h2d_bytes,
            full.steady.h2d_bytes
        );
    }

    #[test]
    fn esdg_matches_baseline_numerics() {
        let (g, cfg) = setup();
        let mut g1 = Gpu::new(DeviceConfig::v100());
        let base = train_baseline(&mut g1, BaselineKind::PygtA, ModelKind::TGcn, &g, 8, &cfg)
            .unwrap()
            .losses();
        let mut g2 = Gpu::new(DeviceConfig::v100());
        let ours = train_esdg(&mut g2, ModelKind::TGcn, &g, 8, &cfg)
            .unwrap()
            .losses();
        for (a, b) in ours.iter().zip(&base) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn pipad_still_beats_diff_transfer() {
        // The paper's core argument vs ESDG: less wire traffic alone leaves
        // the parallelism/reuse acceleration on the table.
        let (g, cfg) = setup();
        let mut g1 = Gpu::new(DeviceConfig::v100());
        let diff = train_esdg(&mut g1, ModelKind::TGcn, &g, 8, &cfg).unwrap();
        let mut g2 = Gpu::new(DeviceConfig::v100());
        let ours = pipad::train_pipad(
            &mut g2,
            ModelKind::TGcn,
            &g,
            8,
            &cfg,
            &pipad::PipadConfig::default(),
        )
        .unwrap();
        assert!(
            ours.steady_epoch_time < diff.steady_epoch_time,
            "pipad {} vs esdg {}",
            ours.steady_epoch_time,
            diff.steady_epoch_time
        );
    }

    #[test]
    fn window_retires_and_releases_memory() {
        let (g, cfg) = setup();
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let before = gpu.mem().in_use();
        train_esdg(&mut gpu, ModelKind::TGcn, &g, 8, &cfg).unwrap();
        // only model parameters remain
        assert!(gpu.mem().in_use() > before);
        assert!(gpu.mem().live_buffers() < 30);
    }

    #[test]
    fn identical_runs_trace_identically_when_snapshot_sizes_differ() {
        // The window is freed at every epoch end; with snapshots of
        // different sizes the order it is freed in shows in the
        // `device_mem_in_use` samples, and every run builds a fresh window.
        let (g, cfg) = setup();
        let snapshots = g.snapshots.iter().enumerate().map(|(t, s)| {
            let mut edges = s.adj.edges();
            edges.retain(|&(u, v)| (u as usize + v as usize + t) % 7 != 0);
            Snapshot::new(Csr::from_edges(s.n(), s.n(), &edges), s.features.clone())
        });
        let g = DynamicGraph::new(g.name.clone(), snapshots.collect());
        let trace = || {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            train_esdg(&mut gpu, ModelKind::TGcn, &g, 8, &cfg).unwrap();
            export_chrome_trace(gpu.trace(), 1)
        };
        let first = trace();
        for run in 2..=6 {
            assert!(trace() == first, "run {run} traced differently from run 1");
        }
    }
}
