//! The inter-frame reuse store (§4.4) under the trainer's recovery ladder:
//! its device tier and the tuner share one device without colliding, and a
//! NaN-skipped frame leaves both tiers — in PiPAD and in PyGT-R, whose store
//! is the CPU tier alone.

use pipad_repro::baselines::{train_baseline, BaselineKind};
use pipad_repro::dyngraph::{DatasetId, Scale};
use pipad_repro::gpu_sim::{ArgValue, DeviceConfig, FaultPlan, Gpu, TraceEvent};
use pipad_repro::models::{ModelKind, TrainingConfig};
use pipad_repro::pipad::{train_pipad, PipadConfig};

const TINY: TrainingConfig = TrainingConfig {
    window: 8,
    epochs: 4,
    preparing_epochs: 2,
    lr: 0.01,
    seed: 3,
};

fn arg(e: &TraceEvent, key: &str) -> ArgValue {
    let found = e.args.iter().find(|(k, _)| *k == key);
    found
        .unwrap_or_else(|| panic!("{} has no {key}", e.name))
        .1
        .clone()
}

#[test]
fn small_devices_get_small_partitions_and_a_small_reuse_tier_without_oom() {
    // The device tier's budget and the tuner's memory bound are both read
    // off the same free capacity: a fault-free run must fit both without
    // ever climbing the OOM ladder. Capacities: Ablation B's sweep and its
    // unit test (in `pipad-bench`'s configuration), and just enough for the
    // model and a couple of snapshots.
    let bench = TrainingConfig {
        window: 16,
        seed: 7,
        ..TINY
    };
    let (hepth, covid) = (DatasetId::HepTh, DatasetId::Covid19England);
    for (id, cfg, hidden, mib) in [
        (hepth, &bench, hepth.hidden_dim(), 16_384u64),
        (hepth, &bench, hepth.hidden_dim(), 512),
        (hepth, &bench, hepth.hidden_dim(), 64),
        (hepth, &bench, hepth.hidden_dim(), 16),
        (covid, &bench, covid.hidden_dim(), 8),
        (covid, &TINY, 8, 3),
    ] {
        let g = id.gen_config(Scale::Tiny).generate();
        let mut gpu = Gpu::new(DeviceConfig::with_capacity(mib << 20));
        let r = train_pipad(
            &mut gpu,
            ModelKind::TGcn,
            &g,
            hidden,
            cfg,
            &PipadConfig::default(),
        );
        assert!(r.is_ok(), "{id:?} at {mib} MiB: {:?}", r.err());
        let recovery = gpu.trace().events().iter().find(|e| e.name == "recovery");
        let policy = recovery.map(|e| arg(&e, "policy"));
        assert_eq!(policy, None, "{id:?} at {mib} MiB");
    }
}

#[test]
fn a_nan_skipped_frame_leaves_both_reuse_tiers_and_leaks_nothing() {
    let g = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let pcfg = PipadConfig::default();
    let mut clean = Gpu::new(DeviceConfig::v100());
    train_pipad(&mut clean, ModelKind::TGcn, &g, 8, &TINY, &pcfg).unwrap();
    // What a finished run leaves allocated: the model's parameters.
    let standing = clean.mem().in_use();

    // Poison a launch in the first steady epoch, past its first frame: the
    // device tier holds seven of the frame's eight snapshots.
    let mut gpu = Gpu::new(DeviceConfig::v100());
    gpu.install_faults(FaultPlan {
        poison_launches: vec![clean.op_counters().launches * 7 / 10],
        ..Default::default()
    });
    train_pipad(&mut gpu, ModelKind::TGcn, &g, 8, &TINY, &pcfg).unwrap();
    let events: Vec<TraceEvent> = gpu.trace().events().iter().collect();
    let skip = events.iter().position(|e| e.name == "recovery").unwrap();
    assert_eq!(
        arg(&events[skip], "policy"),
        ArgValue::Str("nan_skip".into())
    );
    assert_eq!(arg(&events[skip], "epoch"), ArgValue::U64(2));
    assert_ne!(arg(&events[skip], "frame"), ArgValue::U64(0));
    // Everything the device tier held belonged to that frame: purged.
    let mem = |e: &&TraceEvent| e.name == "device_mem_in_use";
    let in_use = arg(events[..skip].iter().rev().find(mem).unwrap(), "value");
    assert_eq!(in_use, ArgValue::U64(standing));
    // The next frame shares seven snapshots with it and finds none.
    let next_frame = events[skip..]
        .iter()
        .skip_while(|e| e.name != "pipeline_stage");
    for e in next_frame.take_while(|e| e.name != "frame") {
        if e.name == "pipeline_stage" && arg(e, "stage") == ArgValue::Str("staged".into()) {
            assert_eq!(arg(e, "layer1_cached"), ArgValue::Bool(false));
        }
    }
    assert_eq!(gpu.mem().in_use(), standing);
}

#[test]
fn pygt_r_purges_a_poisoned_frame_as_pipad_does() {
    // Launch 0 is the first frame's first aggregation. PyGT-A caches
    // nothing, so its step is skipped once and it recovers; PyGT-R must
    // purge what it deposited from that frame and recover the same way.
    let g = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    let cfg = TrainingConfig {
        preparing_epochs: 1,
        ..TINY
    };
    let losses = |kind: BaselineKind| {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        gpu.install_faults(FaultPlan {
            poison_launches: vec![0],
            ..Default::default()
        });
        let r = train_baseline(&mut gpu, kind, ModelKind::TGcn, &g, 8, &cfg).unwrap();
        r.losses().iter().map(|l| l.to_bits()).collect::<Vec<u32>>()
    };
    let async_only = losses(BaselineKind::PygtA);
    assert!(f32::from_bits(async_only[0]).is_nan(), "{async_only:?}");
    assert!(f32::from_bits(async_only[3]).is_finite(), "{async_only:?}");
    assert_eq!(losses(BaselineKind::PygtR), async_only);
}
