//! Multi-GPU data-parallel training — the paper's §4.5 future-work
//! extension ("This limitation can be resolved through extending PiPAD to
//! support multi-GPU training since our sliced CSR offers the convenience
//! to further split the graphs").
//!
//! All three DGNN models train data-parallel here, including the two whose
//! second GCN layer aggregates *hidden* activations (MPNN-LSTM, EvolveGCN)
//! and therefore needs a per-layer **halo exchange**: each device's local
//! aggregation reads peer-owned rows of the intermediate `H¹`, and backward
//! scatters the matching gradient rows back to their producers over the
//! same modeled P2P link.
//!
//! ## Virtual shards: bit-exactness by construction
//!
//! The vertex partition is fixed at [`MultiGpuConfig::virtual_shards`]
//! nnz-balanced contiguous row ranges (via
//! [`pipad_sparse::partition_rows_balanced`]) **independent of `n_gpus`**.
//! Every shard always gets its own tape; devices own contiguous *groups*
//! of shards. Because per-shard computation and every cross-shard
//! reduction (loss sum, halo-gradient sum, parameter-gradient sum) runs in
//! canonical ascending shard order on the host, the floating-point
//! operation sequence is identical for every `n_gpus ≤ virtual_shards` —
//! the loss trajectories are bit-identical, not merely close (tests assert
//! `to_bits` equality).
//!
//! ## Halo exchange for hidden aggregation
//!
//! A shard cannot aggregate `H¹` rows it does not own, and its peers have
//! not computed them yet when it needs them. So each frame starts with a
//! capture on a scratch device: device 0's model runs
//! [`pipad_models::DgnnModel::hidden_activations`] — its layer 1 and
//! nothing after — over one shard spanning every vertex, through the
//! executor a shard runs on. Every device holds the same weights, so no
//! second copy of the model is kept or stepped.
//! The captured `H¹` supplies the peer blocks, which enter each shard tape
//! as gradient-carrying leaves ([`Tape::input_grad`]). Forward stacks own +
//! peer blocks ([`Tape::concat_rows`]) and aggregates through the
//! rectangular local adjacency slice with an explicit transpose for
//! backward ([`Tape::spmm_sliced`]). Backward runs once per shard-frame, in
//! two halves split at the shard's last `H¹` node: (1) the loss gradient
//! sweeps everything above it, which leaves the halo leaves their final
//! per-peer-block gradients; (2) once every shard has done so, each shard's
//! peer-deposited gradients are summed in ascending producer order, join
//! its own `H¹` gradient, and [`Tape::backward_below`] sweeps layer 1 (and
//! EvolveGCN's weight-evolution chains) once — the mirrored scatter of the
//! forward gather, same aggregate byte volume. The tape is topologically
//! ordered, so the halves are one sweep; a lone shard has no peers and
//! sweeps in one go.
//!
//! Inter-frame reuse composes: layer-1 aggregation blocks are cached
//! per-(snapshot, shard) in an [`InterFrameReuse`] without a device budget,
//! keyed so that one snapshot's shards are contiguous, so steady-state
//! epochs upload cached blocks over PCIe instead of re-aggregating (and,
//! for input-only-aggregation models, move no input halo at all). Each
//! frame looks every snapshot up once, over all its shards; the answer
//! feeds the halo capture and every shard's staging.
//!
//! A shard's forward with its backward above `H¹`, its backward below
//! `H¹` and a device's optimiser step are each one CUDA graph, keyed by
//! what fixes their kernel sequence.
//! Both phases run one frame schedule: the loader stages frame f+1 under
//! frame f, behind a per-device compute fence, and the allreduce is a
//! barrier on the compute streams alone. A shard-frame is staged in
//! partitions of [`S_PER_OPTIONS`] slots — one host assembly and one copy
//! each — sized by the tuner's memory bound (DESIGN §3.15): over the
//! model's standing allocations before the first epoch, over the last
//! preparing epoch's peak from the steady phase on. In preparing epochs a
//! key's first scope launches eagerly as its capture and every later one
//! replays it; in steady epochs every scope replays.

use pipad_autograd::{SharedParam, Tape, Var};
use pipad_dyngraph::{DynamicGraph, FrameIter};
use pipad_gpu_sim::{
    export_chrome_trace, graph_key, ArgValue, DeviceConfig, Event, Gpu, KernelCategory, Lane,
    OomError, SimNanos, StreamId,
};
use pipad_kernels::{sgd_step, DeviceMatrix};
use pipad_models::{
    build_model, normalize_snapshot, EpochReport, GnnExecutor, ModelKind, TrainingConfig,
};
use pipad_sparse::{csr_row_work, partition_rows_balanced, SlicedCsr};
use pipad_tensor::Matrix;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::driver::{close_epoch, EpochStart};
use crate::prep::S_PER_OPTIONS;
use crate::reuse::{Cached, InterFrameReuse};
use crate::tuner::DynamicTuner;

/// Device↔device bandwidth, bytes/µs (NVLink-class: 40 GB/s).
const P2P_BYTES_PER_US: u64 = 40_000;

/// Reuse-store key of shard `shard` of snapshot `snapshot` under a fixed
/// `shards`-way vertex split. Blocks are cached per *virtual* shard (never
/// per device), so every hit and miss is independent of how many devices
/// host the shards.
fn shard_key(snapshot: usize, shard: usize, shards: usize) -> usize {
    assert!(shard < shards, "shard index out of range");
    snapshot * shards + shard
}

/// Multi-GPU setup parameters.
#[derive(Clone, Debug)]
pub struct MultiGpuConfig {
    /// Number of simulated devices.
    pub n_gpus: usize,
    /// Fixed number of vertex shards (must be ≥ `n_gpus`). The partition —
    /// and with it every floating-point reduction order — depends only on
    /// this value, which is what makes runs bit-identical across device
    /// counts.
    pub virtual_shards: usize,
}

impl Default for MultiGpuConfig {
    fn default() -> Self {
        MultiGpuConfig {
            n_gpus: 2,
            virtual_shards: 4,
        }
    }
}

/// Report of a data-parallel run.
#[derive(Clone, Debug)]
pub struct MultiTrainReport {
    /// Devices actually used (≤ requested when shards run out).
    pub n_gpus: usize,
    /// Per-epoch loss/time records.
    pub epochs: Vec<EpochReport>,
    /// Per epoch, each frame's loss in frame order.
    pub frame_losses: Vec<Vec<f32>>,
    /// Mean steady-state epoch time (max over devices, incl. allreduce).
    pub steady_epoch_time: SimNanos,
    /// Halo bytes moved per steady epoch (sum over devices; input features
    /// plus hidden activations forward and their gradients backward).
    pub halo_bytes_per_epoch: u64,
    /// Ring-allreduce bytes per steady epoch (sum over devices).
    pub allreduce_bytes_per_epoch: u64,
    /// Time spent in the ring allreduce per steady epoch.
    pub allreduce_time_per_epoch: SimNanos,
    /// Peak device memory per device.
    pub per_device_peak: Vec<u64>,
    /// Kernel-time SM utilization per device over the steady epochs.
    pub per_device_sm_util: Vec<f64>,
    /// Chrome-trace JSON per device (`pid` = device index).
    pub traces: Vec<String>,
}

/// Where one slot's normalized layer-1 aggregation block comes from.
enum AggSource {
    /// Cached block from the reuse store (PCIe upload, no recompute;
    /// consumed exactly once by `aggregate_inputs`).
    Cached(Option<Matrix>),
    /// Fresh aggregation: the rectangular local adjacency slice × the full
    /// feature matrix, resident once per device.
    Compute(SharedParam),
}

/// Per-frame executor over one vertex range: a virtual shard's, or the
/// whole graph's for the halo capture.
struct ShardExecutor<'a> {
    shard: usize,
    shard_ranges: &'a [(usize, usize)],
    /// Per slot: the range's operators and its layer-1 block's source.
    slots: Vec<(&'a ShardNorm, AggSource)>,
    /// The halo capture's `H¹` per slot (full vertex set); empty when unused.
    captured: &'a [Matrix],
    /// `halo_leaves[producer][k] = (slot, leaf)`: gradient-carrying leaf
    /// vars holding `producer`'s `H¹` block, read by this shard.
    halo_leaves: Vec<Vec<(usize, Var)>>,
    /// This shard's own `H¹` vars — where the peers' halo gradients join.
    hidden_vars: Vec<Var>,
    /// Freshly computed aggregation blocks for the reuse store.
    computed_aggs: Vec<(usize, Matrix)>,
    ready: Event,
    compute: StreamId,
}

impl<'a> ShardExecutor<'a> {
    fn new(
        shard: usize,
        shard_ranges: &'a [(usize, usize)],
        slots: Vec<(&'a ShardNorm, AggSource)>,
        captured: &'a [Matrix],
        ready: Event,
        compute: StreamId,
    ) -> Self {
        ShardExecutor {
            shard,
            shard_ranges,
            slots,
            captured,
            halo_leaves: shard_ranges.iter().map(|_| Vec::new()).collect(),
            hidden_vars: Vec::new(),
            computed_aggs: Vec::new(),
            ready,
            compute,
        }
    }

    /// Where this shard's backward pauses for its peers' halo gradients:
    /// its last `H¹` node, with every node that reads `H¹` above it. `None`
    /// when it has no peers, or no hidden aggregation, and sweeps at once.
    fn floor(&self) -> Option<Var> {
        let peers = self.shard_ranges.len() > 1;
        self.hidden_vars.iter().max().copied().filter(|_| peers)
    }
}

impl GnnExecutor for ShardExecutor<'_> {
    fn frame_len(&self) -> usize {
        self.slots.len()
    }

    fn aggregate_inputs(&mut self, gpu: &mut Gpu, tape: &mut Tape) -> Result<Vec<Var>, OomError> {
        gpu.wait_event(self.compute, self.ready);
        let mut out = Vec::with_capacity(self.slots.len());
        for (i, (sn, source)) in self.slots.iter_mut().enumerate() {
            let v = match source {
                AggSource::Cached(m) => {
                    let m = m.take().expect("aggregation slot consumed once");
                    tape.input(DeviceMatrix::alloc(gpu, m)?)
                }
                AggSource::Compute(x) => {
                    // x carries no gradient: the rectangular slice needs
                    // no transpose.
                    let xv = tape.input_shared(x);
                    let agg = tape.spmm_sliced(gpu, Rc::clone(&sn.sliced), None, xv, 1)?;
                    let norm = tape.row_scale(gpu, agg, Rc::clone(&sn.inv_deg))?;
                    self.computed_aggs.push((i, tape.host(norm)));
                    norm
                }
            };
            out.push(v);
        }
        Ok(out)
    }

    fn aggregate_hidden(
        &mut self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        xs: &[Var],
    ) -> Result<Vec<Var>, OomError> {
        assert_eq!(xs.len(), self.slots.len(), "one H1 per slot");
        self.hidden_vars = xs.to_vec();
        let mut out = Vec::with_capacity(xs.len());
        for (i, &own) in xs.iter().enumerate() {
            #[cfg(debug_assertions)]
            {
                let (lo, hi) = self.shard_ranges[self.shard];
                let expect = self.captured[i].slice_rows(lo, hi);
                let bitwise = tape.with_value(own, |m| {
                    m.as_slice()
                        .iter()
                        .zip(expect.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                });
                expect.recycle();
                debug_assert!(
                    bitwise,
                    "capture-pass H1 block must bitwise match the shard tape"
                );
            }
            let mut blocks = Vec::with_capacity(self.shard_ranges.len());
            for (q, &(lo, hi)) in self.shard_ranges.iter().enumerate() {
                if q == self.shard {
                    blocks.push(own);
                } else {
                    let block = self.captured[i].slice_rows(lo, hi);
                    let leaf = tape.input_grad(DeviceMatrix::alloc(gpu, block)?);
                    self.halo_leaves[q].push((i, leaf));
                    blocks.push(leaf);
                }
            }
            let stacked = tape.concat_rows(gpu, &blocks, KernelCategory::Aggregation)?;
            let sn = self.slots[i].0;
            let agg =
                tape.spmm_sliced(gpu, Rc::clone(&sn.sliced), sn.sliced_t.clone(), stacked, 1)?;
            out.push(tape.row_scale(gpu, agg, Rc::clone(&sn.inv_deg))?);
        }
        Ok(out)
    }
}

/// Per-shard per-snapshot local operators.
struct ShardNorm {
    sliced: Rc<SlicedCsr>,
    /// Present only for hidden-aggregation models.
    sliced_t: Option<Rc<SlicedCsr>>,
    inv_deg: Rc<Vec<f32>>,
    /// Out-of-range columns referenced by the local slice.
    halo_cols: u64,
}

/// Free a device matrix the frame's tapes shared, once they are finished.
fn release_shared(gpu: &mut Gpu, x: SharedParam) {
    match Rc::try_unwrap(x) {
        Ok(cell) => cell.into_inner().release(gpu),
        Err(_) => unreachable!("tapes finished; shared X uniquely owned"),
    }
}

/// Run `f` on `stream` as CUDA graph `key` (§4.2). A steady scope replays
/// it; a preparing scope captures a new key launch by launch and replays a
/// known one.
fn replay<R, E>(
    gpu: &mut Gpu,
    stream: StreamId,
    steady: bool,
    key: u64,
    f: impl FnOnce(&mut Gpu) -> Result<R, E>,
) -> Result<R, E> {
    if steady {
        gpu.graph_scope(stream, key, f)
    } else {
        gpu.capture_or_replay(stream, key, f)
    }
}

/// Snapshots per staged partition of a shard-frame on `gpu`: the largest
/// candidate that fits the window and the tuner's memory bound, read off the
/// device's headroom and the peak it has reached.
fn partition_size(gpu: &Gpu, window: usize) -> usize {
    let bound = DynamicTuner::memory_bound(gpu.mem().headroom(), gpu.mem().peak());
    let fits = |s: &usize| *s <= window.min(bound);
    S_PER_OPTIONS.iter().rev().copied().find(fits).unwrap_or(1)
}

/// Join every lane of every device, no earlier than their host lanes.
fn join_all(gpus: &mut [Gpu]) -> SimNanos {
    let joined = gpus.iter_mut().map(|g| {
        g.synchronize();
        g.now_with_host()
    });
    joined.max().expect("at least one device")
}

/// Train `model_kind` data-parallel over `mcfg.n_gpus` simulated devices.
///
/// Loss trajectories are bit-identical for every `n_gpus` up to
/// `virtual_shards` — see the module docs for why.
pub fn train_data_parallel(
    model_kind: ModelKind,
    graph: &DynamicGraph,
    hidden: usize,
    cfg: &TrainingConfig,
    mcfg: &MultiGpuConfig,
) -> Result<MultiTrainReport, OomError> {
    train_data_parallel_devices(model_kind, graph, hidden, cfg, mcfg).map(|(report, _)| report)
}

/// [`train_data_parallel`], also handing back the devices it ran on: their
/// tracers and profilers are what `pipad_metrics::analyze` windows.
pub fn train_data_parallel_devices(
    model_kind: ModelKind,
    graph: &DynamicGraph,
    hidden: usize,
    cfg: &TrainingConfig,
    mcfg: &MultiGpuConfig,
) -> Result<(MultiTrainReport, Vec<Gpu>), OomError> {
    assert!(mcfg.n_gpus >= 1);
    assert!(
        mcfg.n_gpus <= mcfg.virtual_shards,
        "n_gpus ({}) must not exceed virtual_shards ({}): the fixed shard \
         partition is what keeps runs bit-identical across device counts",
        mcfg.n_gpus,
        mcfg.virtual_shards
    );
    let n = graph.n();
    let feat_dim = graph.feature_dim();

    // ---- fixed nnz-balanced virtual shards (independent of n_gpus) -------
    let norms: Vec<_> = graph
        .snapshots
        .iter()
        .map(|s| normalize_snapshot(&s.adj))
        .collect();
    let mut row_work = vec![0u64; n];
    for nm in &norms {
        for (r, w) in csr_row_work(&nm.adj_hat).into_iter().enumerate() {
            row_work[r] += w;
        }
    }
    let shard_ranges = partition_rows_balanced(&row_work, mcfg.virtual_shards);
    let shards = shard_ranges.len();
    assert!(shards >= 1, "graph has no vertices");

    // ---- contiguous shard groups per device, balanced by shard work ------
    let shard_work: Vec<u64> = shard_ranges
        .iter()
        .map(|&(lo, hi)| row_work[lo..hi].iter().sum())
        .collect();
    let groups = partition_rows_balanced(&shard_work, mcfg.n_gpus.min(shards));
    let parts = groups.len();
    let mut owner = vec![0usize; shards];
    for (p, &(glo, ghi)) in groups.iter().enumerate() {
        owner[glo..ghi].fill(p);
    }

    // Per-device state: simulator (its host lane is the device's loader:
    // `mgpu_prep`, the forward halo gather), model (identical seed →
    // identical weights), streams. No frame lifts the host lane to the
    // allreduce, so it stages the next frame under this one. The gradient
    // scatter and the allreduce are timed off the compute streams.
    let mut gpus: Vec<Gpu> = (0..parts).map(|_| Gpu::new(DeviceConfig::v100())).collect();
    let mut models = Vec::with_capacity(parts);
    let mut streams = Vec::with_capacity(parts);
    for gpu in gpus.iter_mut() {
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        models.push(build_model(gpu, model_kind, feat_dim, hidden, cfg.seed)?);
        streams.push((compute, copy));
    }
    let hidden_agg = models[0].needs_hidden_aggregation();
    let out_dim = models[0].out_dim();
    let denom_u = (n * out_dim) as u64;
    let param_bytes: u64 = models[0]
        .params()
        .iter()
        .map(|p| {
            let (r, c) = p.shape();
            (r * c * 4) as u64
        })
        .sum();

    // The halo capture's device (module docs); its costs and trace are
    // discarded.
    let mut scratch = hidden_agg.then(|| Gpu::new(DeviceConfig::v100()));
    let whole_graph = [(0, n)];

    // ---- per-shard per-snapshot local operators --------------------------
    let mut shard_norms: Vec<Vec<ShardNorm>> = (0..shards)
        .map(|_| Vec::with_capacity(graph.len()))
        .collect();
    // The capture's one shard, per snapshot.
    let mut full_norms = Vec::new();
    for nm in &norms {
        if hidden_agg {
            full_norms.push(ShardNorm {
                sliced: Rc::new(SlicedCsr::from_csr(&nm.adj_hat)),
                sliced_t: None,
                inv_deg: Rc::clone(&nm.inv_deg),
                halo_cols: 0,
            });
        }
        for (s, &(lo, hi)) in shard_ranges.iter().enumerate() {
            let local = nm.adj_hat.slice_row_range(lo, hi);
            let halo_cols = local.halo_columns(lo, hi).len() as u64;
            let sliced_t = if hidden_agg {
                Some(Rc::new(SlicedCsr::from_csr(&local.transpose())))
            } else {
                None
            };
            shard_norms[s].push(ShardNorm {
                sliced: Rc::new(SlicedCsr::from_csr(&local)),
                sliced_t,
                inv_deg: Rc::new(nm.inv_deg[lo..hi].to_vec()),
                halo_cols,
            });
        }
    }
    drop(norms);

    let mut store = InterFrameReuse::default();
    // Per slot of the current frame, the store's answer for all its shards;
    // per shard while it stages, each slot's block.
    let mut cached: Vec<Option<std::vec::IntoIter<Matrix>>> = Vec::new();
    let mut blocks: Vec<Option<Matrix>> = Vec::new();
    // Per device, the compute events of the two frames before the one being
    // staged: a frame's staging starts no earlier than the older one (two
    // staging buffers, so one frame of prefetch, epoch to epoch too).
    let mut fence = vec![[SimNanos::ZERO; 2]; parts];
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut frame_losses = Vec::with_capacity(cfg.epochs);
    let mut halo_bytes_epoch = 0u64;
    let mut allreduce_bytes_epoch = 0u64;
    let mut allreduce_time_total = SimNanos::ZERO;
    let preparing = cfg.preparing_epochs.min(cfg.epochs.saturating_sub(1));
    let (mut steady_t0, mut t_end) = (SimNanos::ZERO, SimNanos::ZERO);
    let mut steady_snaps: Vec<_> = gpus.iter().map(|g| g.profiler().snapshot()).collect();
    // Per device, slots per staged partition.
    let mut s_per: Vec<usize> = gpus.iter().map(|g| partition_size(g, cfg.window)).collect();

    for epoch in 0..cfg.epochs {
        let steady = epoch >= preparing;
        let t0 = join_all(&mut gpus);
        let start = EpochStart::capture(&gpus, t0);
        if epoch + 1 == preparing {
            // The last preparing epoch is the peak the steady size reads.
            gpus.iter_mut().for_each(Gpu::reset_peak_mem);
        }
        if epoch == preparing {
            // No steady frame stages before its partition size is fixed.
            for (size, g) in s_per.iter_mut().zip(&mut gpus) {
                *size = partition_size(g, cfg.window);
                g.host_wait(t0);
            }
            steady_t0 = t0;
            halo_bytes_epoch = 0;
            allreduce_bytes_epoch = 0;
            allreduce_time_total = SimNanos::ZERO;
            for (g, snap) in gpus.iter_mut().zip(&mut steady_snaps) {
                *snap = g.profiler().snapshot();
                g.trace_mut()
                    .instant("steady_phase_begin", Lane::Control, t0, vec![]);
            }
        }
        let mut losses = Vec::new();
        for (fi, frame) in FrameIter::new(graph, cfg.window).enumerate() {
            let nslots = frame.len();

            // --- reuse: one all-or-nothing lookup per snapshot ------------
            // Every computed frame deposits all its snapshots' shards, so a
            // snapshot is cached for every shard or for none.
            cached.clear();
            cached.extend((0..nslots).map(|i| {
                let first = shard_key(frame.global_index(i), 0, shards);
                let hits = store.lookup(first..first + shards)?;
                let blocks: Vec<Matrix> = hits.into_iter().map(Cached::into_host).collect();
                Some(blocks.into_iter())
            }));

            // --- halo capture: every vertex's H1, device 0's weights ------
            // From the shards' cached blocks when all are cached (their
            // concatenation is the full aggregation bit for bit), else
            // recomputed over the whole graph (row-identical to the shard
            // slices: the sliced kernel accumulates each row in slice order).
            let mut captured = Vec::new();
            if let Some(sg) = scratch.as_mut() {
                let stream = sg.default_stream();
                let mut slots = Vec::with_capacity(nslots);
                for (i, found) in cached.iter().enumerate() {
                    let g_idx = frame.global_index(i);
                    let source = match found {
                        Some(found) => {
                            let parts: Vec<&Matrix> = found.as_slice().iter().collect();
                            AggSource::Cached(Some(Matrix::concat_rows(&parts)))
                        }
                        None => {
                            let x = graph.snapshots[g_idx].features.clone_in();
                            AggSource::Compute(Rc::new(RefCell::new(DeviceMatrix::alloc(sg, x)?)))
                        }
                    };
                    slots.push((&full_norms[g_idx], source));
                }
                let ready = sg.record_event(stream);
                let mut exec = ShardExecutor::new(0, &whole_graph, slots, &[], ready, stream);
                let mut tape = Tape::new(stream);
                let h1 = models[0].hidden_activations(sg, &mut tape, &mut exec)?;
                let h1 = h1.expect("a model that aggregates hidden features returns its H1");
                captured = h1.iter().map(|&h| tape.host(h)).collect();
                tape.finish(sg);
                for (_, m) in exec.computed_aggs {
                    m.recycle();
                }
                for (_, source) in exec.slots {
                    if let AggSource::Compute(x) = source {
                        release_shared(sg, x);
                    }
                }
            }

            // --- staging: uploads + halo spans, per-shard ready events ----
            // All shards of a device stage before any compute: shard k's
            // forward (gated only on its own `ready` event) overlaps shard
            // k+1's transfers.
            let mut execs: Vec<Option<ShardExecutor>> = (0..shards).map(|_| None).collect();
            let mut x_shared: Vec<BTreeMap<usize, SharedParam>> =
                (0..parts).map(|_| BTreeMap::new()).collect();
            let mut frame_halo = 0u64;
            for s in 0..shards {
                let p = owner[s];
                let (compute, copy) = streams[p];
                let gpu = &mut gpus[p];
                let (lo, hi) = shard_ranges[s];
                gpu.host_wait(fence[p][0]);
                let mut slots = Vec::with_capacity(nslots);
                // Staging is partition-grained, as `PipadExecutor::stage`'s:
                // one host assembly and one pinned copy for everything a
                // partition's slots ship — a cached aggregation block each,
                // or the local adjacency slice and feature rows.
                let size = s_per[p];
                // Shards stage in ascending order, so each slot's next block
                // is this shard's.
                blocks.clear();
                blocks.extend(cached.iter_mut().map(|found| {
                    found
                        .as_mut()
                        .map(|it| it.next().expect("a block per shard"))
                }));
                let slot_bytes = |i: usize, block: Option<&Matrix>| match block {
                    Some(block) => block.bytes(),
                    None => {
                        let local_feats = ((hi - lo) * feat_dim * 4) as u64;
                        shard_norms[s][frame.global_index(i)].sliced.bytes() + local_feats
                    }
                };
                for i in 0..nslots {
                    let g_idx = frame.global_index(i);
                    let sn = &shard_norms[s][g_idx];
                    if i % size == 0 {
                        let bytes = (i..nslots.min(i + size))
                            .map(|j| slot_bytes(j, blocks[j].as_ref()))
                            .sum();
                        let he = gpu.host_stage("mgpu_prep", bytes);
                        gpu.stream_wait_host(copy, he);
                        let staging = gpu.alloc_labeled(bytes, "mgpu_staging")?;
                        gpu.h2d(copy, bytes, true);
                        gpu.free(staging);
                    }
                    let agg = if let Some(block) = blocks[i].take() {
                        AggSource::Cached(Some(block))
                    } else {
                        // halo feature rows arrive over the P2P link
                        let bytes = sn.halo_cols * feat_dim as u64 * 4;
                        if bytes > 0 {
                            let dur = SimNanos::from_bytes(bytes, P2P_BYTES_PER_US);
                            let he = gpu.host_lane_op("p2p_halo", dur);
                            gpu.stream_wait_host(copy, he);
                            frame_halo += bytes;
                        }
                        let x = match x_shared[p].entry(i) {
                            std::collections::btree_map::Entry::Occupied(e) => Rc::clone(e.get()),
                            std::collections::btree_map::Entry::Vacant(e) => {
                                let dm = DeviceMatrix::alloc(
                                    gpu,
                                    graph.snapshots[g_idx].features.clone_in(),
                                )?;
                                Rc::clone(e.insert(Rc::new(RefCell::new(dm))))
                            }
                        };
                        AggSource::Compute(x)
                    };
                    slots.push((sn, agg));
                    if hidden_agg {
                        // forward gather of peer H1 rows over P2P
                        let hbytes = sn.halo_cols * hidden as u64 * 4;
                        if hbytes > 0 {
                            let dur = SimNanos::from_bytes(hbytes, P2P_BYTES_PER_US);
                            let he = gpu.host_lane_op("p2p_halo", dur);
                            gpu.stream_wait_host(copy, he);
                            frame_halo += hbytes;
                        }
                    }
                }
                let ready = gpu.record_event(copy);
                let exec = ShardExecutor::new(s, &shard_ranges, slots, &captured, ready, compute);
                execs[s] = Some(exec);
            }

            // --- forward + backward above H¹, ascending shard order -------
            let target_full = graph.target_for(frame.last_index());
            let mut tapes: Vec<Tape> = Vec::with_capacity(shards);
            let mut binders = Vec::with_capacity(shards);
            let mut frame_sse = 0.0f32;
            // Per shard, when its backward above H¹ ends: what its halo
            // gradients wait on.
            let mut swept = Vec::with_capacity(shards);
            // Which slots reuse serves fixes a shard-frame's kernel sequence.
            let slots_cached: Vec<bool> = cached.iter().map(Option::is_some).collect();
            for s in 0..shards {
                let p = owner[s];
                let (compute, _) = streams[p];
                let gpu = &mut gpus[p];
                let mut exec = execs[s].take().unwrap();
                let mut tape = Tape::new(compute);
                let (lo, hi) = shard_ranges[s];
                let t_local = target_full.slice_rows(lo, hi);
                let key = graph_key(&("forward", s, &slots_cached));
                let (out, sse) = replay(gpu, compute, steady, key, |gpu| -> Result<_, OomError> {
                    let out = models[p].forward_frame(gpu, &mut tape, &mut exec)?;
                    let floor = exec.floor();
                    tape.backward_mse_denom(gpu, out.pred, &t_local, denom_u, floor)?;
                    let sse = tape.sse_loss(gpu, out.pred, &t_local);
                    Ok((out, sse))
                })?;
                frame_sse += sse;
                swept.push(gpu.record_event(compute).time());
                t_local.recycle();
                for (slot, m) in exec.computed_aggs.drain(..) {
                    store.deposit(shard_key(frame.global_index(slot), s, shards), || m);
                }
                tapes.push(tape);
                binders.push(out.binder);
                execs[s] = Some(exec);
            }

            // --- backward below H¹, halo gradients joined -----------------
            // For each consumer shard q (ascending) and slot, sum the
            // gradients peers deposited at their leaves holding q's H1
            // block (ascending producer order); they join q's own H1
            // gradient, and q's backward runs on through layer 1 once. The
            // mirrored scatter moves the same aggregate volume as the
            // forward gather; it is charged per shard by its forward halo,
            // in the consumer's compute stream, once every producer's
            // backward above H¹ has finished. One shard's half is one replay.
            if hidden_agg && shards > 1 {
                for q in 0..shards {
                    let (compute, _) = streams[owner[q]];
                    let gpu = &mut gpus[owner[q]];
                    let (mut seeds, mut seeded) = (Vec::new(), Vec::new());
                    for i in 0..nslots {
                        let mut seed: Option<Matrix> = None;
                        let mut produced = SimNanos::ZERO;
                        for src in (0..shards).filter(|&src| src != q) {
                            let leaves = &execs[src].as_ref().unwrap().halo_leaves[q];
                            if let Some(&(_, leaf)) = leaves.iter().find(|&&(slot, _)| slot == i) {
                                let summed = tapes[src].with_grad(leaf, |g| match seed.as_mut() {
                                    None => seed = Some(g.clone_in()),
                                    Some(acc) => acc.add_assign(g),
                                });
                                if summed.is_some() {
                                    produced = produced.max(swept[src]);
                                }
                            }
                        }
                        let Some(seed) = seed else { continue };
                        let bytes =
                            shard_norms[q][frame.global_index(i)].halo_cols * hidden as u64 * 4;
                        if bytes > 0 {
                            let dur = SimNanos::from_bytes(bytes, P2P_BYTES_PER_US);
                            let after = gpu.record_event(compute).time().max(produced);
                            let (_, he) = gpu.host_op("p2p_halo_grad", after, dur);
                            gpu.stream_wait_host(compute, he);
                            frame_halo += bytes;
                        }
                        seeds.push((execs[q].as_ref().unwrap().hidden_vars[i], seed));
                        seeded.push(i);
                    }
                    let floor = execs[q]
                        .as_ref()
                        .unwrap()
                        .floor()
                        .expect("a shard with peers");
                    let key = graph_key(&("halo", q, seeded));
                    replay(gpu, compute, steady, key, |gpu| {
                        let seeds = seeds
                            .into_iter()
                            .map(|(h1, seed)| DeviceMatrix::alloc(gpu, seed).map(|dm| (h1, dm)));
                        let seeds = seeds.collect::<Result<Vec<_>, _>>()?;
                        tapes[q].backward_below(gpu, floor, seeds)
                    })?;
                }
            }
            if steady {
                halo_bytes_epoch += frame_halo;
            }

            // --- canonical gradient reduction by binding position ---------
            // Every shard binds its device's parameters in the same order, so
            // position k names one parameter in every shard; sums run in
            // ascending shard order.
            let mut summed: Vec<Option<Matrix>> =
                binders[0].bindings().iter().map(|_| None).collect();
            for s in 0..shards {
                let bindings = binders[s].bindings();
                debug_assert_eq!(bindings.len(), summed.len(), "every shard binds alike");
                for (sum, b) in summed.iter_mut().zip(bindings) {
                    tapes[s].with_grad(b.var, |g| match sum {
                        Some(acc) => acc.add_assign(g),
                        None => *sum = Some(g.clone_in()),
                    });
                }
            }

            // --- ring allreduce + identical update on every device --------
            let allreduce_bytes = if parts > 1 {
                2 * (parts as u64 - 1) * param_bytes / parts as u64
            } else {
                0
            };
            let dur = SimNanos::from_bytes(allreduce_bytes, P2P_BYTES_PER_US);
            // The barrier is an event on each compute stream: the copy
            // stream and the loader lane keep staging the next frame under
            // this one's allreduce.
            for p in 0..parts {
                fence[p] = [fence[p][1], gpus[p].record_event(streams[p].0).time()];
            }
            let sync_base = fence.iter().map(|f| f[1]).max().expect("a device");
            let sync_point = sync_base + dur;
            if parts > 1 {
                for gpu in &mut gpus {
                    gpu.host_op("allreduce", sync_base, dur);
                }
                if steady {
                    allreduce_bytes_epoch += allreduce_bytes * parts as u64;
                    allreduce_time_total += dur;
                }
            }
            // One multi-tensor step per device over the summed gradients, in
            // `params()` order (EvolveGCN binds in another), each found by
            // identity among the bindings of the device's first shard. The
            // step still launches on a non-finite frame loss but leaves every
            // parameter, as a replayed single-device step does.
            for p in 0..parts {
                let (compute, _) = streams[p];
                let gpu = &mut gpus[p];
                gpu.stream_wait_host(compute, sync_point);
                let bindings = binders[groups[p].0].bindings();
                let params = models[p].params();
                let pairs: Vec<_> = params
                    .iter()
                    .filter_map(|param| {
                        let k = bindings
                            .iter()
                            .position(|b| Rc::ptr_eq(&b.param.value, &param.value))?;
                        summed[k].as_ref().map(|g| (&*param.value, g))
                    })
                    .collect();
                replay(gpu, compute, steady, graph_key(&"sgd_step"), |gpu| {
                    sgd_step(gpu, compute, &pairs, cfg.lr, frame_sse.is_finite());
                    Ok::<_, OomError>(())
                })?;
            }
            summed.into_iter().flatten().for_each(Matrix::recycle);
            // A skipped step is recorded once, on device 0, at the barrier.
            if !frame_sse.is_finite() {
                let args = vec![
                    ("policy", ArgValue::Str("nan_skip".to_string())),
                    ("epoch", ArgValue::U64(epoch as u64)),
                    ("frame", ArgValue::U64(fi as u64)),
                ];
                gpus[0]
                    .trace_mut()
                    .instant("recovery", Lane::Control, sync_point, args);
            }

            // --- teardown --------------------------------------------------
            for (s, tape) in tapes.into_iter().enumerate() {
                tape.finish(&mut gpus[owner[s]]);
            }
            drop(binders);
            execs.clear();
            for (p, map) in x_shared.iter_mut().enumerate() {
                while let Some((_, x)) = map.pop_first() {
                    release_shared(&mut gpus[p], x);
                }
            }
            for m in captured {
                m.recycle();
            }
            losses.push(frame_sse / denom_u as f32);
        }
        t_end = join_all(&mut gpus);
        epochs.push(close_epoch(
            &mut gpus, epoch, !steady, &losses, start, t_end,
        ));
        frame_losses.push(losses);
    }

    let steady_epochs = (cfg.epochs - preparing).max(1);
    #[cfg(debug_assertions)]
    for (i, g) in gpus.iter().enumerate() {
        g.profiler()
            .consistency_check(g.trace())
            .unwrap_or_else(|e| panic!("device {i}: profiler and trace diverged: {e}"));
    }
    let report = MultiTrainReport {
        n_gpus: parts,
        epochs,
        frame_losses,
        steady_epoch_time: SimNanos::from_nanos(
            (t_end - steady_t0).as_nanos() / steady_epochs as u64,
        ),
        halo_bytes_per_epoch: halo_bytes_epoch / steady_epochs as u64,
        allreduce_bytes_per_epoch: allreduce_bytes_epoch / steady_epochs as u64,
        allreduce_time_per_epoch: SimNanos::from_nanos(
            allreduce_time_total.as_nanos() / steady_epochs as u64,
        ),
        per_device_peak: gpus.iter().map(|g| g.mem().peak_ever()).collect(),
        per_device_sm_util: gpus
            .iter()
            .zip(steady_snaps)
            .map(|(g, snap)| g.profiler().window(snap).sm_utilization())
            .collect(),
        traces: gpus
            .iter()
            .enumerate()
            .map(|(i, g)| export_chrome_trace(g.trace(), i as u64))
            .collect(),
    };
    Ok((report, gpus))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_dyngraph::{DatasetId, Scale};

    fn setup() -> (DynamicGraph, TrainingConfig) {
        (
            DatasetId::Pems08.gen_config(Scale::Tiny).generate(),
            TrainingConfig {
                window: 8,
                epochs: 3,
                preparing_epochs: 1,
                lr: 0.02,
                seed: 5,
            },
        )
    }

    #[test]
    fn partitions_fit_the_window_and_the_memory_bound() {
        let mut gpu = Gpu::new(DeviceConfig::with_capacity(1000));
        let slot = gpu.alloc(200).unwrap();
        gpu.free(slot);
        // 1000 free over a peak of 200: five slots fit, so four at a time.
        assert_eq!(partition_size(&gpu, 16), 4);
        assert_eq!(partition_size(&gpu, 2), 2);
        assert_eq!(partition_size(&gpu, 1), 1);
        let slot = gpu.alloc(600).unwrap();
        gpu.free(slot);
        assert_eq!(partition_size(&gpu, 16), 1, "one peak fits, two do not");
    }

    #[test]
    fn distributed_loss_matches_single_device() {
        // Same seed, same data: the virtual-shard design makes the 1-, 2-
        // and 4-GPU loss trajectories bit-identical, not merely close.
        let (g, cfg) = setup();
        let run = |n_gpus| {
            train_data_parallel(
                ModelKind::TGcn,
                &g,
                8,
                &cfg,
                &MultiGpuConfig {
                    n_gpus,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let single = run(1);
        for n in [2, 4] {
            let multi = run(n);
            assert_eq!(multi.epochs.len(), single.epochs.len());
            for (a, b) in multi.epochs.iter().zip(single.epochs.iter()) {
                assert_eq!(
                    a.mean_loss.to_bits(),
                    b.mean_loss.to_bits(),
                    "n_gpus={n} epoch {}: {} vs {}",
                    a.epoch,
                    a.mean_loss,
                    b.mean_loss
                );
            }
        }
    }

    #[test]
    fn more_devices_less_memory_each() {
        // MPNN-LSTM keeps a hidden-layer halo exchange alive even in
        // steady state (reuse only silences the *input* halo).
        let (g, cfg) = setup();
        let run = |n| {
            train_data_parallel(
                ModelKind::MpnnLstm,
                &g,
                8,
                &cfg,
                &MultiGpuConfig {
                    n_gpus: n,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(four.n_gpus, 4);
        let max1 = *one.per_device_peak.iter().max().unwrap();
        let max4 = *four.per_device_peak.iter().max().unwrap();
        assert!(
            max4 < max1,
            "per-device peak should shrink: {max4} vs {max1}"
        );
        assert!(four.halo_bytes_per_epoch > 0, "hidden halos persist");
        assert!(four.allreduce_bytes_per_epoch > 0);
        assert!(four.allreduce_time_per_epoch > SimNanos::ZERO);
        assert_eq!(four.per_device_sm_util.len(), 4);
        assert_eq!(four.traces.len(), 4);
    }

    #[test]
    fn scaling_reduces_epoch_time() {
        let (g, cfg) = setup();
        let run = |n| {
            train_data_parallel(
                ModelKind::TGcn,
                &g,
                8,
                &cfg,
                &MultiGpuConfig {
                    n_gpus: n,
                    ..Default::default()
                },
            )
            .unwrap()
            .steady_epoch_time
        };
        let t1 = run(1);
        let t2 = run(2);
        assert!(t2 < t1, "2 GPUs {t2} should beat 1 GPU {t1}");
    }
}
