//! Differential fault-equivalence: a fault plan whose every injected fault
//! is *fully recovered* must leave the training numerics untouched —
//! bit-identical per-epoch losses versus the fault-free run — for all
//! three paper models; and each rung of the recovery ladder (DESIGN §3.12)
//! must fire on the fault it exists for.
//!
//! Fault placement is probed, not guessed: a fault-free run and an
//! all-preparing prefix run give the deterministic op-counter space, and
//! the plans land their faults at the midpoint of the steady phase.

use pipad::{train_pipad, PipadConfig};
use pipad_dyngraph::{DatasetId, DynamicGraph, Scale};
use pipad_gpu_sim::{
    ArgValue, DeviceConfig, DeviceFault, FaultPlan, FaultStats, Gpu, OpCounters, StragglerRange,
    TransferFault,
};
use pipad_models::{ModelKind, TrainingConfig};

const HIDDEN: usize = 16;

fn config(epochs: usize) -> TrainingConfig {
    TrainingConfig {
        window: 8,
        epochs,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 7,
    }
}

struct Obs {
    /// Per-epoch loss bits, or the typed fault the run gave up with.
    outcome: Result<Vec<u32>, DeviceFault>,
    counters: OpCounters,
    peak_ever: u64,
    stats: FaultStats,
    /// The `policy` argument of every `recovery` instant, in trace order.
    recoveries: Vec<String>,
    backoff_spans: usize,
}

impl Obs {
    fn losses(&self, what: &str) -> &[u32] {
        self.outcome
            .as_deref()
            .unwrap_or_else(|e| panic!("{what}: run must complete, got {e}"))
    }
}

fn observe(
    kind: ModelKind,
    graph: &DynamicGraph,
    epochs: usize,
    pcfg: &PipadConfig,
    plan: Option<&FaultPlan>,
) -> Obs {
    let mut gpu = Gpu::new(DeviceConfig::v100());
    if let Some(p) = plan {
        gpu.install_faults(p.clone());
    }
    let outcome = train_pipad(&mut gpu, kind, graph, HIDDEN, &config(epochs), pcfg)
        .map(|r| r.losses().iter().map(|l| l.to_bits()).collect());
    // Also after a give-up, which the driver's own debug check never sees.
    gpu.profiler()
        .consistency_check(gpu.trace())
        .unwrap_or_else(|e| panic!("{kind:?}: profiler and trace diverged: {e}"));
    let mut recoveries = Vec::new();
    let mut backoff_spans = 0;
    for e in gpu.trace().events() {
        match e.name {
            "recovery" => recoveries.extend(e.args.iter().find_map(|(k, v)| match v {
                ArgValue::Str(p) if *k == "policy" => Some(p.clone()),
                _ => None,
            })),
            "transfer_backoff" => backoff_spans += 1,
            _ => {}
        }
    }
    Obs {
        outcome,
        counters: gpu.op_counters(),
        peak_ever: gpu.mem().peak_ever(),
        stats: gpu.fault_stats(),
        recoveries,
        backoff_spans,
    }
}

#[test]
fn recovered_faults_leave_losses_bit_identical_for_all_models() {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let pcfg = PipadConfig::default();
    for kind in ModelKind::ALL {
        let free = observe(kind, &graph, 4, &pcfg, None);
        assert!(
            free.stats.total() == 0 && free.recoveries.is_empty(),
            "{kind:?}: fault-free probe must be clean"
        );
        let prep = observe(kind, &graph, 2, &pcfg, None);

        // One numerics-neutral fault of each kind, mid-steady-phase:
        // - the one-shot OOM rolls the frame back and retries;
        // - the single transfer failure is absorbed by the copy layer's
        //   bounded retry (one backoff span, same payload re-sent);
        // - the straggler window only stretches simulated time.
        let plan = FaultPlan {
            oom_at_alloc: vec![(prep.counters.allocs + free.counters.allocs) / 2],
            transfer_faults: vec![TransferFault {
                op: (prep.counters.copy_ops + free.counters.copy_ops) / 2,
                failures: 1,
            }],
            straggler_ranges: vec![StragglerRange {
                from: (prep.counters.launches + free.counters.launches) / 2,
                to: (prep.counters.launches + free.counters.launches) / 2 + 64,
                multiplier_milli: 5_000,
            }],
            ..FaultPlan::default()
        };
        let faulted = observe(kind, &graph, 4, &pcfg, Some(&plan));

        assert!(
            faulted.stats.oom_injected >= 1,
            "{kind:?}: the planned OOM never fired ({:?})",
            faulted.stats
        );
        assert!(
            faulted.stats.transfer_injected >= 1,
            "{kind:?}: the planned transfer fault never fired ({:?})",
            faulted.stats
        );
        assert!(
            faulted.stats.straggler_injected >= 1,
            "{kind:?}: the planned straggler window never fired ({:?})",
            faulted.stats
        );
        assert!(
            !faulted.recoveries.is_empty(),
            "{kind:?}: OOM recovery left no recovery instant in the trace"
        );
        assert!(
            faulted.backoff_spans >= 1,
            "{kind:?}: transfer retry left no transfer_backoff span in the trace"
        );
        assert_eq!(
            faulted.losses("faulted"),
            free.losses("fault-free"),
            "{kind:?}: fully-recovered faults must not perturb the losses"
        );

        // The ladder's rungs are model-independent: one model, same probes.
        if kind == ModelKind::TGcn {
            assert_each_recovery_rung_fires_on_its_fault(kind, &graph, &free, &prep);
        }
    }
}

/// One rung of the recovery ladder: a probe-placed plan and what the run
/// must show for it.
struct Rung {
    name: &'static str,
    plan: FaultPlan,
    inter_frame_reuse: bool,
    /// The `recovery` policy that must fire; `None` for the give-up rung,
    /// which must surface a typed, labeled OOM instead.
    policy: Option<&'static str>,
    /// Whether the losses must equal the fault-free run's bit for bit.
    bitwise: bool,
}

/// Runs one plan per rung, placed from the fault-free (`free`) and
/// all-preparing (`prep`) probes.
fn assert_each_recovery_rung_fires_on_its_fault(
    kind: ModelKind,
    graph: &DynamicGraph,
    free: &Obs,
    prep: &Obs,
) {
    let (free_c, prep_c) = (free.counters, prep.counters);
    let mid_alloc = (prep_c.allocs + free_c.allocs) / 2;
    let steady_launches = free_c.launches - prep_c.launches;

    let rungs = [
        Rung {
            name: "one-shot OOM",
            plan: FaultPlan {
                oom_at_alloc: vec![mid_alloc],
                ..FaultPlan::default()
            },
            inter_frame_reuse: true,
            policy: Some("oom_evict_retry"),
            bitwise: true,
        },
        Rung {
            // Evict-retry eats the first index; each retry's first
            // allocation then hits the next one, so the tuner walks down.
            name: "OOM burst",
            plan: FaultPlan {
                oom_at_alloc: vec![mid_alloc, mid_alloc + 1, mid_alloc + 2],
                ..FaultPlan::default()
            },
            inter_frame_reuse: true,
            policy: Some("tuner_downshift"),
            bitwise: false,
        },
        Rung {
            // Half the fault-free peak bites while preparing, where `S_per`
            // is already 1: the ladder has nowhere left to go.
            name: "usage threshold",
            plan: FaultPlan {
                oom_usage_threshold: Some(free.peak_ever / 2),
                ..FaultPlan::default()
            },
            inter_frame_reuse: false,
            policy: None,
            bitwise: false,
        },
        Rung {
            // The window covers the second steady epoch: the first is the
            // wall-time baseline stragglers are measured against. The
            // multiplier is large because only a frame's busy share scales.
            name: "straggler window",
            plan: FaultPlan {
                straggler_ranges: vec![StragglerRange {
                    from: prep_c.launches + steady_launches / 2,
                    to: free_c.launches,
                    multiplier_milli: 200_000,
                }],
                ..FaultPlan::default()
            },
            inter_frame_reuse: true,
            policy: Some("sequential_fallback"),
            bitwise: true,
        },
        Rung {
            name: "poisoned launch",
            plan: FaultPlan {
                poison_launches: vec![(prep_c.launches + free_c.launches) / 2],
                ..FaultPlan::default()
            },
            inter_frame_reuse: true,
            policy: Some("nan_skip"),
            bitwise: false,
        },
    ];

    for rung in &rungs {
        let pcfg = PipadConfig {
            inter_frame_reuse: rung.inter_frame_reuse,
            ..PipadConfig::default()
        };
        let obs = observe(kind, graph, 4, &pcfg, Some(&rung.plan));
        let name = rung.name;
        assert!(obs.stats.total() > 0, "{name}: the plan injected nothing");
        match rung.policy {
            Some(policy) => {
                let losses = obs.losses(name);
                assert!(
                    obs.recoveries.iter().any(|p| p == policy),
                    "{name}: no `{policy}` recovery (got {:?})",
                    obs.recoveries
                );
                if rung.bitwise {
                    assert_eq!(
                        losses,
                        free.losses("fault-free"),
                        "{name}: recovery must be numerics-neutral"
                    );
                }
            }
            None => match obs.outcome {
                Err(DeviceFault::Oom(e)) => {
                    assert!(!e.label.is_empty(), "{name}: unlabeled OOM: {e}")
                }
                other => panic!("{name}: expected a typed OOM, got {other:?}"),
            },
        }
    }
}
