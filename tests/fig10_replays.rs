//! Every tiny Fig. 10 cell trains under PiPAD with CUDA graphs on, so each
//! of its preparing and steady replays goes through the device's check
//! against the key's capture, which panics on another kernel sequence.
//! `scripts/check.sh` runs it in `--release`, the build `repro` runs in.

use pipad_repro::dyngraph::{Scale, ALL_DATASETS};
use pipad_repro::gpu_sim::{DeviceConfig, Gpu};
use pipad_repro::models::{ModelKind, TrainingConfig};
use pipad_repro::pipad::{train_pipad, PipadConfig};

#[test]
fn every_fig10_cell_replays_its_captures() {
    // Fig. 10's training config, cut to one preparing and one steady epoch.
    let cfg = TrainingConfig {
        window: 16,
        epochs: 2,
        preparing_epochs: 1,
        lr: 0.01,
        seed: 7,
    };
    for id in ALL_DATASETS {
        let graph = id.gen_config(Scale::Tiny).generate();
        for model in ModelKind::ALL {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            let pcfg = PipadConfig::default();
            train_pipad(&mut gpu, model, &graph, id.hidden_dim(), &cfg, &pcfg).unwrap();
            assert!(
                gpu.graph_replays() > 0,
                "{model:?} on {id:?} replayed nothing"
            );
        }
    }
}
