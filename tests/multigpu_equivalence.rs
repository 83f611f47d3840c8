//! Differential equivalence gate for multi-GPU data-parallel training.
//!
//! The virtual-shard design pins the vertex partition (and with it every
//! floating-point reduction order) independently of the device count, so
//! distributing training must be a *pure placement change*: for each of
//! the three paper models, the per-epoch loss trajectory of an `n_gpus ∈
//! {2, 4}` run must equal the single-GPU run **bit for bit** — with the
//! host buffer pool on or off — and the per-device Chrome traces must be
//! byte-identical in every `pipad_bench::HOST_MATRIX` cell (host threads ×
//! buffer pool).
//!
//! The same file gates that the extension runs on the engine it extends:
//! one device with one shard tracks `train_pipad`'s steady epoch, steady
//! epochs replay CUDA graphs, and both phases stage the next frame under
//! the current one on every device.

use pipad::{
    train_data_parallel, train_data_parallel_devices, train_pipad, MultiGpuConfig, MultiTrainReport,
};
use pipad_bench::host_invariant;
use pipad_dyngraph::{DatasetId, DynamicGraph, FrameIter, Scale};
use pipad_gpu_sim::{validate_json, DeviceConfig, Gpu, TraceEvent, TraceKind};
use pipad_models::{ModelKind, TrainingConfig};
use pipad_tensor::{reset_pool, with_pool_enabled};

fn graph() -> DynamicGraph {
    DatasetId::Covid19England.gen_config(Scale::Tiny).generate()
}

fn cfg() -> TrainingConfig {
    TrainingConfig {
        window: 8,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 7,
    }
}

fn run(model: ModelKind, g: &DynamicGraph, n_gpus: usize) -> MultiTrainReport {
    train_data_parallel(
        model,
        g,
        8,
        &cfg(),
        &MultiGpuConfig {
            n_gpus,
            ..Default::default()
        },
    )
    .expect("train")
}

fn loss_bits(r: &MultiTrainReport) -> Vec<u32> {
    r.epochs.iter().map(|e| e.mean_loss.to_bits()).collect()
}

#[test]
fn device_count_and_pool_do_not_change_losses() {
    let g = graph();
    for model in ModelKind::ALL {
        reset_pool();
        let base = with_pool_enabled(true, || loss_bits(&run(model, &g, 1)));
        assert!(
            base.iter().any(|&b| f32::from_bits(b).is_finite()),
            "{model:?}: reference run produced no finite losses"
        );
        for n_gpus in [2usize, 4] {
            for pool_on in [true, false] {
                reset_pool();
                let multi = with_pool_enabled(pool_on, || loss_bits(&run(model, &g, n_gpus)));
                assert_eq!(
                    base, multi,
                    "{model:?}: losses diverged (n_gpus={n_gpus}, pool_on={pool_on})"
                );
            }
        }
    }
}

/// Per-device traces and losses of a two-device run are the same in every
/// `HOST_MATRIX` cell (host threads × buffer pool on/off).
#[test]
fn per_device_traces_are_thread_invariant() {
    let g = graph();
    for model in ModelKind::ALL {
        let (_, traces) = host_invariant(model.name(), || {
            reset_pool();
            let r = run(model, &g, 2);
            (loss_bits(&r), r.traces)
        });
        assert_eq!(traces.len(), 2);
        for t in &traces {
            validate_json(t).expect("well-formed per-device trace");
        }
    }
}

/// A NaN feature in one snapshot can only make the loss of a frame that
/// reads it (as an input or as its target) NaN. Data-parallel training must
/// skip such a frame's update on every device: were its NaN gradient
/// applied, the weights would turn NaN and so would every later frame's
/// loss. So every steady frame that does not read the snapshot has a finite
/// loss, on one device and on four, while some frame does go NaN.
#[test]
fn a_nan_frame_loss_leaves_the_parameters() {
    let mut g = graph();
    // Read by frames 2..=10 of the 12; the last snapshot of frame 3 and the
    // target of frame 2, so EvolveGCN's last-snapshot readout sees it too.
    let poisoned = 10;
    g.snapshots[poisoned].features.as_mut_slice()[0] = f32::NAN;
    let (window, preparing) = (cfg().window, cfg().preparing_epochs);
    for model in ModelKind::ALL {
        for n_gpus in [1usize, 4] {
            let r = run(model, &g, n_gpus);
            // Each skipped step is one `nan_skip` instant, on device 0
            // only, so the count over every device's trace is the count
            // of NaN frames.
            let nan_frames = r
                .frame_losses
                .iter()
                .flatten()
                .filter(|l| l.is_nan())
                .count();
            let skips: usize = r
                .traces
                .iter()
                .map(|t| t.matches("\"policy\":\"nan_skip\"").count())
                .sum();
            assert_eq!(
                skips, nan_frames,
                "{model:?} DP-{n_gpus}: nan_skip instants"
            );
            let steady = &r.frame_losses[preparing..];
            assert!(!steady.is_empty());
            for (e, losses) in steady.iter().enumerate() {
                assert!(losses.iter().any(|l| l.is_nan()), "{model:?}: no NaN");
                for (f, loss) in losses.iter().enumerate() {
                    let reads = f <= poisoned && poisoned <= f + window;
                    assert!(
                        reads || loss.is_finite(),
                        "{model:?} DP-{n_gpus}: steady epoch {e} frame {f} loss {loss}"
                    );
                }
            }
        }
    }
}

/// `repro multigpu`'s configuration at tiny scale.
const HIDDEN: usize = 16;
/// Slots per staged partition in steady epochs: the largest candidate, the
/// 16 GiB device's memory bound being nowhere near.
const S_PER: usize = 8;

fn wide_cfg() -> TrainingConfig {
    TrainingConfig {
        window: 16,
        ..cfg()
    }
}

/// The gate that would have caught "two GPUs are 24.7x slower than one":
/// with one device and one shard the data-parallel trainer does the
/// single-device trainer's work, so its steady epoch must stay within
/// 1.6x of `train_pipad`'s (EvolveGCN / MPNN-LSTM / T-GCN at 303dbcd:
/// 11.45x / 8.97x / 6.90x; 1.96x / 1.41x / 1.35x while it paid one
/// `mgpu_prep` and a copy or two per slot; 0.84x / 1.09x / 1.19x under a
/// 1.25x bound at a111d52, staging a frame in partitions).
///
/// The bound moved because the denominator did: `train_pipad`'s steady
/// frame became one graph replay and shed an eager tail of about a dozen
/// 5 µs launches per frame — one optimiser step per parameter and the loss
/// — that the data-parallel step, graphed from the start, never paid. Now
/// 1.04x / 1.44x / 1.55x. The sharded steady epoch itself fell (one input
/// projection per LSTM and frame, one optimiser launch per device and
/// frame): 947 632 → 907 604, 1 258 212 → 1 043 960 and 1 069 010 →
/// 1 030 982 ns, and may not rise above the old values again. Since one
/// device's preparing frames lift its loader lane to their barrier, the
/// first steady staging no longer runs in the past: 926 676, 1 077 346
/// and 1 064 390 ns, 1.03x / 1.42x / 1.52x of a `train_pipad` epoch that
/// rose too once its loader waited for the tuner decision. Since the
/// first steady frame waits for the steady phase to stage, they read
/// 928 453, 1 079 130 and 1 066 152 ns (T-GCN 0.27 % under its ceiling),
/// still 1.03x / 1.42x / 1.52x. What is left of the gap is
/// `ShardExecutor`'s per-slot update, which has no weight-resident GEMM
/// (ROADMAP item 4).
#[test]
fn one_shard_tracks_the_single_device_trainer() {
    let g = graph();
    let one_shard = MultiGpuConfig {
        n_gpus: 1,
        virtual_shards: 1,
    };
    for model in ModelKind::ALL {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let single = train_pipad(
            &mut gpu,
            model,
            &g,
            HIDDEN,
            &wide_cfg(),
            &Default::default(),
        )
        .expect("train_pipad")
        .steady_epoch_time;
        let sharded = train_data_parallel(model, &g, HIDDEN, &wide_cfg(), &one_shard)
            .expect("train_data_parallel")
            .steady_epoch_time;
        assert!(
            5 * sharded.as_nanos() <= 8 * single.as_nanos(),
            "{model:?}: one shard on one device takes {sharded} per steady epoch, \
             more than 1.6x train_pipad's {single}"
        );
        let ceiling = match model {
            ModelKind::EvolveGcn => 947_632,
            ModelKind::MpnnLstm => 1_258_212,
            ModelKind::TGcn => 1_069_010,
        };
        assert!(
            sharded.as_nanos() <= ceiling,
            "{model:?}: one shard's steady epoch rose to {sharded}, above {ceiling} ns"
        );
    }
}

/// One graph scope of a device's run as its trace records it: its epoch,
/// its role in the frame (a shard's `layer1` pass, `forward` + backward
/// above `H¹`, `halo` backward below it, or `sgd_step`) with its rank among
/// the frame's scopes of that role (0 for every layer-1 pass: their key is
/// what they launch), whether it replayed a graph, and its kernels in
/// launch order.
struct TracedScope {
    epoch: usize,
    role: (&'static str, usize),
    replayed: bool,
    kernels: Vec<&'static str>,
}

/// The kernels of a shard's layer-1 pass; no other scope starts with one.
const LAYER1: [&str; 2] = ["spmm_sliced_parallel", "row_scale"];

/// Every graph scope on `gpu`, in launch order. A layer-1 pass launches
/// only [`LAYER1`] kernels, a forward scope ends with its shard's
/// `sse_loss` and the optimiser step is one `sgd_step`; each halo scope
/// between them starts at the `p2p_halo_grad` ops its seeds wait on, at its
/// `cuda_graph_launch` or at its first kernel.
fn traced_scopes(gpu: &Gpu) -> Vec<TracedScope> {
    let mut scopes: Vec<TracedScope> = Vec::new();
    let mut epoch = 0;
    // Whether the last scope may still take a kernel.
    let mut open = false;
    for e in gpu.trace().events().iter() {
        // A scope opened by its seeds' ops that has launched nothing yet.
        let pending = open && scopes.last().is_some_and(|s| s.kernels.is_empty());
        let in_pass = open && scopes.last().is_some_and(|s| is_layer1(&s.kernels));
        let new_scope = match (e.kind, e.name) {
            (_, "epoch") => {
                epoch += 1;
                continue;
            }
            (_, "cuda_graph_launch" | "p2p_halo_grad") | (TraceKind::Kernel, "sgd_step") => {
                !pending
            }
            (TraceKind::Kernel, name) => !open || (in_pass && !LAYER1.contains(&name)),
            _ => continue,
        };
        if new_scope {
            scopes.push(TracedScope {
                epoch,
                role: ("", 0),
                replayed: false,
                kernels: Vec::new(),
            });
        }
        let scope = scopes.last_mut().expect("a scope");
        open = true;
        match (e.kind, e.name) {
            (TraceKind::Kernel, name) => {
                scope.kernels.push(name);
                open = !matches!(name, "sse_loss" | "sgd_step");
            }
            (_, name) => scope.replayed |= name == "cuda_graph_launch",
        }
    }
    // Rank each scope among its frame's scopes of the same role.
    let mut ranks = [0usize; 4];
    for scope in &mut scopes {
        let role = match scope.kernels.last() {
            Some(&"sse_loss") => 0,
            Some(&"sgd_step") => 2,
            _ if is_layer1(&scope.kernels) => 3,
            _ => 1,
        };
        scope.role = (["forward", "halo", "sgd_step", "layer1"][role], ranks[role]);
        ranks[role] += usize::from(role != 3);
        if role == 2 {
            ranks = [0; 4];
        }
    }
    scopes
}

/// Whether `kernels` are a layer-1 pass's.
fn is_layer1(kernels: &[&str]) -> bool {
    !kernels.is_empty() && kernels.iter().all(|k| LAYER1.contains(k))
}

/// Both graph mechanisms engage on every device, read off its trace.
/// Preparing frames replay the graph of an earlier scope with the same
/// key: only those captures launch eagerly. The first epoch's frames
/// aggregate layer 1 of the snapshots reuse has not seen in a pass per
/// shard; reuse serves every later frame. Steady frames replay every
/// scope: one `cuda_graph_launch` per shard's forward + backward above
/// `H¹`, for hidden aggregation one per shard's backward below it, and one
/// for the optimiser step. Both phases
/// stage across frames: a frame's first `mgpu_prep` starts before the
/// previous frame's sweeps have finished, and not before those of the
/// frame before that. Both phases stage a shard-frame in partitions of
/// `S_PER` slots. No steady frame stages before the steady phase begins,
/// where its partition size is read off the last preparing epoch's peak.
///
/// No epoch after the first launches eagerly, and the last preparing epoch
/// takes exactly as long as the last steady one: both replay the same
/// graphs over the same staging. Staging with one buffer, so no frame under
/// its predecessor, is what the `mgpu_prep` order below catches.
#[test]
fn steady_epochs_replay_and_pipeline() {
    let g = graph();
    let cfg = wide_cfg();
    let frames = FrameIter::new(&g, cfg.window).count();
    let steady_frames = (frames * (cfg.epochs - cfg.preparing_epochs)) as u64;
    for model in ModelKind::ALL {
        for n_gpus in [1usize, 2, 4] {
            let mcfg = MultiGpuConfig {
                n_gpus,
                ..Default::default()
            };
            let (r, gpus) =
                train_data_parallel_devices(model, &g, HIDDEN, &cfg, &mcfg).expect("train");
            let what = format!("{model:?} on {n_gpus} devices");
            let eager: Vec<u64> = r.epochs[1..].iter().map(|e| e.eager_launches).collect();
            assert_eq!(
                eager,
                [0, 0, 0],
                "{what}: eager launches after the first epoch"
            );
            let last_preparing = r.epochs[cfg.preparing_epochs - 1].sim_time;
            let last_steady = r.epochs.last().expect("a steady epoch").sim_time;
            assert_eq!(
                last_preparing, last_steady,
                "{what}: last preparing vs steady"
            );
            // Preparing replays per device: every preparing scope but the
            // first of each key.
            let pinned_replays = match (model, n_gpus) {
                (ModelKind::TGcn, 1) => 49,
                (ModelKind::TGcn, 2) => 27,
                (ModelKind::TGcn, _) => 16,
                (_, 1) => 77,
                (_, 2) => 41,
                (_, _) => 23,
            };
            // Per preparing epoch, the launches of the scopes that captured.
            let mut eager = std::collections::HashMap::new();
            for gpu in &gpus {
                let events: Vec<TraceEvent> = gpu.trace().sorted().collect();
                let steady_t0 = events
                    .iter()
                    .find(|e| e.name == "steady_phase_begin")
                    .expect("steady_phase_begin instant")
                    .ts;
                let (prep, steady): (Vec<&TraceEvent>, Vec<&TraceEvent>) =
                    events.iter().partition(|e| e.ts < steady_t0);
                let count = |evs: &[&TraceEvent], name: &str| {
                    evs.iter().filter(|e| e.name == name).count() as u64
                };
                // One `sse_loss` per shard and frame gives the shard count.
                let shards = count(&steady, "sse_loss") / steady_frames;
                let sweeps2 = if model == ModelKind::TGcn { 0 } else { shards };

                // A preparing scope replays iff an earlier one launched its
                // role's kernels: a frame opens a forward and (hidden
                // aggregation) a halo scope per shard, and one step; a frame
                // of the first epoch also a layer-1 pass per shard.
                let scopes = traced_scopes(gpu);
                let preparing = scopes.iter().filter(|s| s.epoch < cfg.preparing_epochs);
                let mut captures = std::collections::HashSet::new();
                let mut replays = 0;
                for scope in preparing {
                    if captures.insert((scope.role, &scope.kernels)) {
                        assert!(!scope.replayed, "{what}: a first {:?} replayed", scope.role);
                        *eager.entry(scope.epoch).or_insert(0) += scope.kernels.len() as u64;
                    } else {
                        assert!(scope.replayed, "{what}: {:?} was captured", scope.role);
                        replays += 1;
                    }
                }
                let prep_frames = (frames * cfg.preparing_epochs) as u64;
                let passes: Vec<usize> = scopes
                    .iter()
                    .filter(|s| s.role.0 == "layer1")
                    .map(|s| s.epoch)
                    .collect();
                assert_eq!(passes, vec![0; frames * shards as usize], "{what}: passes");
                assert_eq!(
                    captures.len() as u64 + replays,
                    prep_frames * (shards + sweeps2 + 1) + passes.len() as u64,
                    "{what}: preparing scopes"
                );
                assert_eq!(count(&prep, "cuda_graph_launch"), replays, "{what}");
                assert_eq!(replays, pinned_replays, "{what}: preparing replays");
                // Steady frames replay those captures and capture nothing.
                assert_eq!(captures.len(), gpu.graph_captures(), "{what}");

                let replays = count(&steady, "cuda_graph_launch");
                assert_eq!(
                    replays,
                    (shards + sweeps2 + 1) * steady_frames,
                    "{what}: replays over {steady_frames} steady frames of {shards} shards"
                );

                // Over the whole run: a frame's sweeps end with the last
                // kernel ahead of its optimiser step, and its staging is one
                // loader op per shard and partition of `S_PER` slots, in
                // preparing and steady epochs alike.
                let kernels: Vec<&TraceEvent> = events
                    .iter()
                    .filter(|e| e.kind == TraceKind::Kernel)
                    .collect();
                let sweeps_end: Vec<_> = kernels
                    .windows(2)
                    .filter(|w| w[0].name != "sgd_step" && w[1].name == "sgd_step")
                    .map(|w| w[0].end())
                    .collect();
                // (Split by count, not by `steady_t0`: the loader lane runs
                // free of the epoch boundary.)
                let preps: Vec<&TraceEvent> =
                    events.iter().filter(|e| e.name == "mgpu_prep").collect();
                let per_frame = shards as usize * cfg.window.div_ceil(S_PER);
                assert_eq!(
                    preps.len(),
                    per_frame * frames * cfg.epochs,
                    "{what}: partitions staged"
                );
                let staging_start: Vec<_> = preps.iter().step_by(per_frame).map(|e| e.ts).collect();
                let steady_preps = &preps[per_frame * frames * cfg.preparing_epochs..];
                assert_eq!(sweeps_end.len(), frames * cfg.epochs, "{what}");
                assert_eq!(staging_start.len(), frames * cfg.epochs, "{what}");
                // Both phases stage a frame under its predecessor: every frame
                // but the run's first and the first steady one, which waits
                // for its partition size.
                let first_steady = frames * cfg.preparing_epochs;
                for f in (1..frames * cfg.epochs).filter(|&f| f != first_steady) {
                    assert!(
                        staging_start[f] < sweeps_end[f - 1],
                        "{what}: frame {f} was not staged under its predecessor"
                    );
                }
                // Two staging buffers: the loader never runs more than one
                // frame ahead of the compute stream.
                for f in 2..frames * cfg.epochs {
                    assert!(
                        staging_start[f] >= sweeps_end[f - 2],
                        "{what}: frame {f} staged before frame {}'s sweeps ended",
                        f - 2
                    );
                }
                // The steady partition size is read off the last preparing
                // epoch's peak at the steady phase's start: no steady staging
                // precedes it.
                if let Some(e) = steady_preps.iter().find(|e| e.ts < steady_t0) {
                    panic!(
                        "{what}: a steady frame staged at {}, before the steady phase at {steady_t0}",
                        e.ts
                    );
                }
            }
            for e in &r.epochs[..cfg.preparing_epochs] {
                let captured = eager.get(&e.epoch).copied().unwrap_or(0);
                assert_eq!(e.eager_launches, captured, "{what}: epoch {}", e.epoch);
            }
        }
    }
}

/// Each shard-frame sweeps layer 1 once: the peers' halo gradients join the
/// shard's own `H¹` gradient before layer 1's backward runs. EvolveGCN
/// evolves both layers' weights one GRU step per slot, so a shard-frame
/// launches `gru_cell_grad` exactly twice per slot, with one shard or four,
/// on one device or four. (A second sweep from `H¹` for the halo gradients
/// alone made it three times per slot, rerunning layer 1's weight chain.)
#[test]
fn each_shard_frame_sweeps_layer_1_once() {
    let g = graph();
    let cfg = wide_cfg();
    for (n_gpus, virtual_shards) in [(1, 1), (1, 4), (4, 4)] {
        let mcfg = MultiGpuConfig {
            n_gpus,
            virtual_shards,
        };
        let (_, gpus) = train_data_parallel_devices(ModelKind::EvolveGcn, &g, HIDDEN, &cfg, &mcfg)
            .expect("train");
        for (d, gpu) in gpus.iter().enumerate() {
            let count = |name: &str| {
                let kernels = gpu.trace().events().iter();
                kernels
                    .filter(|e| e.kind == TraceKind::Kernel && e.name == name)
                    .count()
            };
            // One `sse_loss` per shard-frame.
            let shard_frames = count("sse_loss");
            assert!(shard_frames > 0);
            assert_eq!(
                count("gru_cell_grad"),
                2 * cfg.window * shard_frames,
                "device {d} of {n_gpus}, {virtual_shards} shards: gru_cell_grad launches \
                 over {shard_frames} shard-frames of {} slots",
                cfg.window
            );
        }
    }
}
