//! Inside the dynamic tuner: how PiPAD picks the snapshots-per-partition
//! setting (`S_per`) from memory headroom, measured overlap rates and the
//! offline parallel-GNN table — and what happens when the device shrinks.
//!
//! ```text
//! cargo run --release --example dynamic_tuning
//! ```

use pipad_repro::dyngraph::{DatasetId, Scale};
use pipad_repro::gpu_sim::{DeviceConfig, Gpu, SimNanos};
use pipad_repro::pipad::{DynamicTuner, FrameProfile, GraphAnalyzer, PartitionCatalog};

fn main() {
    let graph = DatasetId::Epinions.gen_config(Scale::Tiny).generate();
    let mut gpu = Gpu::new(DeviceConfig::v100());

    // The preparing-epoch machinery: slice every snapshot, extract the
    // overlap splits for every candidate partition.
    let mut host = gpu.host_now();
    let analyzer = GraphAnalyzer::run(&mut gpu, &graph, &mut host);
    let catalog = PartitionCatalog::build(&mut gpu, &analyzer, &mut host);
    println!(
        "analyzed {} snapshots; catalog holds {} partition plans",
        analyzer.len(),
        catalog.len()
    );
    for s_per in [2usize, 4, 8] {
        println!(
            "  S_per={s_per}: mean overlap rate {:.2}",
            catalog.mean_overlap_rate(&mut gpu, &analyzer, s_per)
        );
    }

    // A frame profile as the preparing epochs would have measured it.
    let profile = FrameProfile {
        peak_mem_one_snapshot: 8 << 20, // 8 MiB per one-snapshot frame
        compute_time: SimNanos::from_micros(4_000),
        transfer_bytes: 2 << 20,
    };

    println!("\ndevice capacity  ->  tuner decision (frame 0, window 8)");
    for capacity in [256u64 << 20, 64 << 20, 24 << 20, 12 << 20] {
        let tuner = DynamicTuner::new(capacity, 12_000, 2);
        let d = tuner.decide(&profile, &catalog, 0, 8);
        println!(
            "  {:>4} MiB        ->  S_per={} (est. speedup {:.2}x, memory bound U={}{})",
            capacity >> 20,
            d.s_per,
            d.estimated_speedup,
            d.memory_bound,
            if d.rejected_for_stall.is_empty() {
                String::new()
            } else {
                format!(", stall-rejected: {:?}", d.rejected_for_stall)
            }
        );
    }

    // A slow link forces the stall-rejection path.
    println!("\nwith a 10x slower PCIe link:");
    let tuner = DynamicTuner::new(256 << 20, 1_200, 2);
    let d = tuner.decide(&profile, &catalog, 0, 8);
    println!(
        "  S_per={} chosen; options rejected for pipeline stall: {:?}",
        d.s_per, d.rejected_for_stall
    );
}
