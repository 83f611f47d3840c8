//! Multi-GPU scaling of dynamic GNN training — the paper's §4.5
//! future-work extension made runnable: vertex-partitioned data-parallel
//! training over 1–4 simulated V100s with halo exchange and
//! ring-allreduce over an NVLink-class P2P link.
//!
//! T-GCN aggregates only input features, so inter-frame reuse silences
//! its steady-state halo entirely; MPNN-LSTM aggregates hidden
//! activations too, so its halo exchange (forward gather + backward
//! gradient scatter) recurs every epoch. Both scale, and both reproduce
//! the single-GPU loss trajectory bit for bit.
//!
//! ```text
//! cargo run --release --example multi_gpu_scaling
//! ```

use pipad_repro::dyngraph::{DatasetId, Scale};
use pipad_repro::models::{ModelKind, TrainingConfig};
use pipad_repro::pipad::{train_data_parallel, MultiGpuConfig};

fn main() {
    let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
    println!(
        "Covid19-England analogue: {} vertices, {} snapshots — vertex-partitioned\n",
        graph.n(),
        graph.len()
    );
    let cfg = TrainingConfig {
        window: 8,
        epochs: 4,
        preparing_epochs: 1,
        lr: 0.02,
        seed: 5,
    };

    for model in [ModelKind::TGcn, ModelKind::MpnnLstm] {
        println!("{}:", model.name());
        println!("gpus   steady epoch   scaling   halo/epoch   allreduce/epoch   max device mem");
        let mut base = None;
        let mut loss_bits = None;
        for n_gpus in [1usize, 2, 4] {
            let r = train_data_parallel(
                model,
                &graph,
                16,
                &cfg,
                &MultiGpuConfig {
                    n_gpus,
                    ..Default::default()
                },
            )
            .expect("multi-gpu run failed");
            let final_bits = r.epochs.last().expect("epochs").mean_loss.to_bits();
            match loss_bits {
                None => loss_bits = Some(final_bits),
                Some(bits) => assert_eq!(
                    bits, final_bits,
                    "{model:?}: n_gpus={n_gpus} diverged from single-GPU"
                ),
            }
            let t = r.steady_epoch_time;
            let scaling = base.get_or_insert(t).as_nanos() as f64 / t.as_nanos().max(1) as f64;
            println!(
                "{:>4}   {:>12}   {:>6.2}x   {:>8.1} KiB   {:>13.1} KiB   {:>10.1} KiB",
                r.n_gpus,
                t.to_string(),
                scaling,
                r.halo_bytes_per_epoch as f64 / 1024.0,
                r.allreduce_bytes_per_epoch as f64 / 1024.0,
                *r.per_device_peak.iter().max().unwrap() as f64 / 1024.0,
            );
        }
        println!("     final loss bit-identical across device counts\n");
    }
    println!(
        "Loss trajectories are identical across device counts (canonical\n\
         virtual-shard reductions reconstruct the exact single-GPU\n\
         gradient) — see tests/multigpu_equivalence.rs."
    );
}
