//! PiPAD's partition-parallel executor: intra-frame parallelism (§4.2) with
//! overlap-aware transfer (§4.1) and inter-frame reuse (§4.4).
//!
//! For each partition of `S_per` consecutive snapshots:
//!
//! * staging ships the **overlap** sliced adjacency once plus the small
//!   per-snapshot exclusives (and only the features that are not already
//!   covered by a reuse hit), asynchronously from pinned memory, as the
//!   **one** buffer the host assembled for the partition: one copy;
//! * a layer-1 pass ahead of the step aggregates each partition reuse did
//!   not serve as **one** `spmm_sliced_parallel` launch over the coalescent
//!   feature matrix (all members side by side), plus one tiny launch per
//!   exclusive part; the results are summed, normalized per member, split
//!   apart, deposited in the reuse caches and handed to the step as hits;
//! * the FC update stacks all frame slots row-wise and multiplies once with
//!   the weight tile resident (locality-optimized weight reuse) — unless
//!   the model's weights evolve per snapshot (EvolveGCN).

use crate::analyzer::{AnalyzedSnapshot, GraphAnalyzer};
use crate::prep::{PartitionCatalog, PartitionPlan};
use crate::reuse::{Cached, InterFrameReuse};
use pipad_autograd::{SharedParam, Tape, Var};
use pipad_gpu_sim::{
    graph_key, ArgValue, DeviceFault, Event, Gpu, KernelCategory, Lane, OomError, StreamId,
};
use pipad_kernels::{DeviceCsr, DeviceMatrix, DeviceSliced};
use pipad_sparse::{Csr, SlicedCsr};
use pipad_tensor::Matrix;
use std::rc::Rc;

/// Per-snapshot staged state inside a partition.
struct SlotState {
    global: usize,
    inv_deg: Rc<Vec<f32>>,
    /// Raw features on device until the layer-1 pass (absent on a hit).
    features: Option<DeviceMatrix>,
    /// Layer-1 aggregation: a CPU-tier hit's upload, or the pass's result.
    agg: Option<DeviceMatrix>,
    /// Cached layer-1 aggregation that was device-resident already.
    resident_agg: Option<SharedParam>,
}

/// One staged partition.
struct PartitionState {
    slots: Vec<SlotState>,
    /// Overlap + exclusive adjacency (sliced), present when any aggregation
    /// kernel will run this frame.
    overlap: Option<Rc<SlicedCsr>>,
    exclusives: Vec<Rc<SlicedCsr>>,
    /// Owned device allocations backing the adjacency.
    adj_dev: Vec<DeviceSliced>,
    /// CSR-variant allocations (Figure 12 ablation).
    adj_dev_csr: Vec<DeviceCsr>,
    /// CSR-variant adjacency handles (empty in sliced mode).
    csr_adjs: Vec<Rc<Csr>>,
    /// All members' layer-1 aggregations are covered by reuse.
    layer1_cached: bool,
    ready: Event,
}

/// One member as reuse lookup left it: global index, analysis, cached
/// layer-1 aggregation (if the partition is served from cache), raw
/// features.
type LookedUp<'a> = (usize, &'a AnalyzedSnapshot, Option<Cached>, &'a Matrix);

impl PartitionState {
    /// Allocate the partition's device buffers in shipping order: the
    /// adjacency (overlap then exclusives, or one CSR per member in the
    /// Figure 12 variant), then each member's features or host-cached
    /// aggregation. On `Err`, what was allocated is in `self` to be freed.
    fn alloc(
        &mut self,
        gpu: &mut Gpu,
        plan: Option<&PartitionPlan>,
        members: Vec<LookedUp<'_>>,
        needs_adj: bool,
        use_sliced: bool,
    ) -> Result<(), OomError> {
        if needs_adj && !use_sliced {
            for (_, snap, ..) in &members {
                let adj = &snap.norm.adj_hat;
                self.adj_dev_csr
                    .push(DeviceCsr::alloc(gpu, Rc::clone(adj), false)?);
                self.csr_adjs.push(Rc::clone(adj));
            }
        } else if needs_adj {
            // Without a plan (one member) "overlap" is empty and each
            // member's full sliced adjacency is its exclusive part.
            self.overlap = plan.map(|p| Rc::clone(&p.overlap));
            self.exclusives = match plan {
                Some(p) => p.exclusives.clone(),
                None => members
                    .iter()
                    .map(|(_, snap, ..)| Rc::clone(&snap.sliced))
                    .collect(),
            };
            for adj in self.overlap.iter().chain(&self.exclusives) {
                self.adj_dev.push(DeviceSliced::alloc(gpu, Rc::clone(adj))?);
            }
        }
        for (global, snap, cached, feats) in members {
            let mut slot = SlotState {
                global,
                inv_deg: Rc::clone(&snap.norm.inv_deg),
                features: None,
                agg: None,
                resident_agg: None,
            };
            match cached {
                Some(Cached::Device(p)) => slot.resident_agg = Some(p),
                Some(Cached::Host(a)) => {
                    slot.agg = Some(DeviceMatrix::alloc_labeled(gpu, a, "cpu_agg_upload")?)
                }
                None => {
                    let f = DeviceMatrix::alloc_labeled(gpu, feats.clone_in(), "feature_upload")?;
                    slot.features = Some(f);
                }
            }
            self.slots.push(slot);
        }
        Ok(())
    }

    /// Which exclusive parts of a partition with an overlap split are empty.
    fn empty(&self) -> Option<Vec<bool>> {
        let empty = self.exclusives.iter().map(|e| e.nnz() == 0);
        self.overlap.as_ref().map(|_| empty.collect())
    }

    /// Release the adjacency allocations and unconsumed staging.
    fn free(self, gpu: &mut Gpu) {
        for a in self.adj_dev {
            a.free(gpu);
        }
        for a in self.adj_dev_csr {
            a.free(gpu);
        }
        for slot in self.slots {
            if let Some(f) = slot.features {
                f.release(gpu);
            }
            if let Some(c) = slot.agg {
                c.release(gpu);
            }
        }
    }
}

/// Configuration for staging a PiPAD frame.
#[derive(Clone, Copy, Debug, Hash)]
pub struct ExecOptions {
    /// The snapshots-per-partition setting in effect.
    pub s_per: usize,
    /// The model aggregates hidden features too, so adjacency must be
    /// resident even when layer-1 is fully cached.
    pub needs_adjacency_when_cached: bool,
    /// Fuse the FC update across the frame (off for EvolveGCN).
    pub weight_reuse: bool,
    /// Use the sliced-CSR format and parallel kernel (the default). When
    /// false, the Figure 12 ablation variant runs: plain CSR shipped per
    /// snapshot and aggregated with the row-granular GE-SpMM kernel, while
    /// every other PiPAD mechanism stays on.
    pub use_sliced: bool,
}

/// The PiPAD executor for one frame.
pub struct PipadExecutor<'r> {
    partitions: Vec<PartitionState>,
    reuse: Option<&'r mut InterFrameReuse>,
    compute: StreamId,
    opts: ExecOptions,
}

impl<'r> PipadExecutor<'r> {
    /// Stage a frame starting at `frame_start` with `window` snapshots.
    /// `reuse` is consulted and populated when given; `None` turns
    /// inter-frame reuse off.
    #[allow(clippy::too_many_arguments)]
    pub fn stage(
        gpu: &mut Gpu,
        analyzer: &GraphAnalyzer,
        catalog: &PartitionCatalog,
        features: &[&Matrix],
        frame_start: usize,
        opts: ExecOptions,
        mut reuse: Option<&'r mut InterFrameReuse>,
        compute: StreamId,
        copy: StreamId,
    ) -> Result<Self, DeviceFault> {
        assert!(opts.s_per >= 1);
        let window = features.len();
        let mut partitions = Vec::new();
        let mut offset = 0;
        while offset < window {
            let size = opts.s_per.min(window - offset);
            let start = frame_start + offset;

            // Reuse lookup: the whole partition from cache, or none of it.
            let cached = reuse.as_mut().and_then(|r| r.lookup(start..start + size));
            let layer1_cached = cached.is_some();
            let mut cached = cached.into_iter().flatten();
            let slots: Vec<LookedUp<'_>> = (0..size)
                .map(|k| {
                    let snap = analyzer.snapshot(start + k);
                    (start + k, snap, cached.next(), features[offset + k])
                })
                .collect();
            let needs_adj = !layer1_cached || opts.needs_adjacency_when_cached;

            // Only a partition of several members that ships sliced
            // adjacency reads its plan, so only it extracts one.
            let plan: Option<&PartitionPlan> = if size > 1 && needs_adj && opts.use_sliced {
                catalog.plan(gpu, analyzer, size, start)
            } else {
                None
            };

            // Host preparation for the partition (buffer assembly).
            let adj_bytes = if !needs_adj {
                0
            } else if !opts.use_sliced {
                slots.iter().map(|(_, s, ..)| s.norm.adj_hat.bytes()).sum()
            } else {
                plan.map(|p| p.adjacency_bytes)
                    .unwrap_or_else(|| slots.iter().map(|(_, s, ..)| s.sliced.bytes()).sum())
            };
            let feat_bytes: u64 = slots
                .iter()
                .map(|(_, _, cached, f)| match cached {
                    Some(Cached::Device(_)) => 0,
                    Some(Cached::Host(a)) => a.bytes(),
                    None => f.bytes(),
                })
                .sum();
            // A partition that ships nothing (every member device-resident,
            // no adjacency needed) assembles nothing: no loader op, and the
            // copy stream waits for no host work.
            let staged_bytes = adj_bytes + feat_bytes;
            if staged_bytes > 0 {
                let host_end = gpu.host_stage("partition_prep", staged_bytes);
                gpu.stream_wait_host(copy, host_end);
            }

            // Device buffers for what the host just assembled, then the one
            // pinned copy that fills them (§4.1: the partition is the unit
            // of transfer).
            let mut part = PartitionState {
                slots: Vec::with_capacity(size),
                overlap: None,
                exclusives: Vec::new(),
                adj_dev: Vec::new(),
                adj_dev_csr: Vec::new(),
                csr_adjs: Vec::new(),
                layer1_cached,
                ready: gpu.record_event(copy),
            };
            let shipped = match part.alloc(gpu, plan, slots, needs_adj, opts.use_sliced) {
                Ok(()) => gpu.h2d_staged(copy, staged_bytes).map_err(Into::into),
                Err(oom) => Err(oom.into()),
            };
            if let Err(fault) = shipped {
                partitions.push(part);
                partitions.into_iter().for_each(|p| p.free(gpu));
                return Err(fault);
            }
            part.ready = gpu.record_event(copy);
            gpu.trace_mut().instant(
                "pipeline_stage",
                Lane::Control,
                part.ready.time(),
                vec![
                    ("stage", ArgValue::Str("staged".to_string())),
                    ("partition_start", ArgValue::U64(start as u64)),
                    ("size", ArgValue::U64(size as u64)),
                    ("layer1_cached", ArgValue::Bool(layer1_cached)),
                ],
            );
            partitions.push(part);
            offset += size;
        }
        Ok(PipadExecutor {
            partitions,
            reuse,
            compute,
            opts,
        })
    }

    /// The key of the frame's step graph: a hash of exactly the staged facts
    /// its kernel sequence follows from — the options, each partition's size
    /// and, where the step aggregates hidden features, which exclusive parts
    /// of a partition with an overlap split are empty (those launch no
    /// exclusive pass). Reuse hits are not among them.
    pub fn graph_key(&self) -> u64 {
        let hidden = self.opts.needs_adjacency_when_cached;
        let partitions = self.partitions.iter();
        let partitions = partitions.map(|p| (p.slots.len(), p.empty().filter(|_| hidden)));
        graph_key(&(self.opts, partitions.collect::<Vec<_>>()))
    }

    /// The key of the frame's layer-1 graph: exactly what it launches, the
    /// sizes and empty exclusive parts of the partitions reuse did not serve;
    /// `None` when it served them all and the pass launches nothing.
    pub fn layer1_key(&self) -> Option<u64> {
        let missed = self.partitions.iter().filter(|p| !p.layer1_cached);
        let missed: Vec<_> = missed.map(|p| (p.slots.len(), p.empty())).collect();
        (!missed.is_empty()).then(|| graph_key(&(self.opts.use_sliced, missed)))
    }

    /// The layer-1 pass, ahead of the step as the graph [`Self::layer1_key`]
    /// names: aggregate every partition reuse did not serve on a tape of its
    /// own, deposit the results and stage them for the step as hits ship.
    pub fn aggregate_misses(&mut self, gpu: &mut Gpu) -> Result<(), OomError> {
        let mut tape = Tape::new(self.compute);
        let mut aggs = Vec::new();
        let partitions = self.partitions.iter_mut().enumerate();
        for (pi, part) in partitions.filter(|(_, p)| !p.layer1_cached) {
            gpu.wait_event(self.compute, part.ready);
            let features = part.slots.iter_mut().map(|s| s.features.take());
            let xs: Vec<Var> = features.map(|f| tape.input(f.expect("staged"))).collect();
            aggs.extend(Self::aggregate_partition(gpu, &mut tape, part, &xs)?);
            let done = gpu.record_event(self.compute).time();
            let stage = ArgValue::Str("aggregate".to_string());
            let args = vec![("stage", stage), ("partition", ArgValue::U64(pi as u64))];
            gpu.trace_mut()
                .instant("pipeline_stage", Lane::Control, done, args);
        }
        let values: Vec<Matrix> = aggs.iter().map(|&a| tape.host(a)).collect();
        tape.finish(gpu);
        let missed = self.partitions.iter_mut().filter(|p| !p.layer1_cached);
        for (slot, agg) in missed.flat_map(|p| &mut p.slots).zip(values) {
            if let Some(reuse) = self.reuse.as_mut() {
                reuse.deposit(slot.global, || agg.clone_in());
            }
            slot.agg = Some(DeviceMatrix::alloc(gpu, agg)?);
        }
        Ok(())
    }

    /// Release the frame's adjacency allocations and unconsumed staging.
    pub fn finish(self, gpu: &mut Gpu) {
        self.partitions.into_iter().for_each(|p| p.free(gpu));
    }

    /// Parallel aggregation of one partition via the fused
    /// [`Tape::spmm_partition`] op: one parallel pass over the overlap,
    /// per-member exclusive passes accumulated by atomic epilogues, one
    /// normalization pass — then free per-member column views.
    fn aggregate_partition(
        gpu: &mut Gpu,
        tape: &mut Tape,
        part: &PartitionState,
        xs: &[Var],
    ) -> Result<Vec<Var>, OomError> {
        let agg = KernelCategory::Aggregation;
        if !part.csr_adjs.is_empty() {
            // Figure 12 ablation: row-granular CSR kernel per member.
            let mut outs = Vec::with_capacity(xs.len());
            for ((&x, slot), adj) in xs.iter().zip(&part.slots).zip(&part.csr_adjs) {
                let a = tape.spmm(
                    gpu,
                    Rc::clone(adj),
                    x,
                    pipad_autograd::AggregationKernel::GeSpmm,
                )?;
                outs.push(tape.row_scale(gpu, a, Rc::clone(&slot.inv_deg))?);
            }
            return Ok(outs);
        }
        let inv_degs: Vec<Rc<Vec<f32>>> = part
            .slots
            .iter()
            .map(|slot| Rc::clone(&slot.inv_deg))
            .collect();
        let coalesced = tape.spmm_partition(
            gpu,
            part.overlap.clone(),
            part.exclusives.clone(),
            xs.to_vec(),
            inv_degs,
        )?;
        let widths: Vec<usize> = xs.iter().map(|&x| tape.shape(x).1).collect();
        tape.split_cols(gpu, coalesced, &widths, agg)
    }
}

impl pipad_models::GnnExecutor for PipadExecutor<'_> {
    fn frame_len(&self) -> usize {
        self.partitions.iter().map(|p| p.slots.len()).sum()
    }

    fn aggregate_inputs(&mut self, gpu: &mut Gpu, tape: &mut Tape) -> Result<Vec<Var>, OomError> {
        let mut out = Vec::new();
        for part in &mut self.partitions {
            gpu.wait_event(self.compute, part.ready);
            for slot in &mut part.slots {
                out.push(match slot.resident_agg.take() {
                    Some(shared) => tape.input_shared(&shared),
                    None => tape.input(slot.agg.take().expect("layer 1 aggregated")),
                });
            }
        }
        Ok(out)
    }

    fn aggregate_hidden(
        &mut self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        xs: &[Var],
    ) -> Result<Vec<Var>, OomError> {
        assert_eq!(xs.len(), self.frame_len());
        let mut out = Vec::new();
        let mut off = 0;
        for part in &self.partitions {
            gpu.wait_event(self.compute, part.ready);
            let member_xs = &xs[off..off + part.slots.len()];
            assert!(
                !part.adj_dev.is_empty() || !part.adj_dev_csr.is_empty(),
                "hidden aggregation requires resident adjacency"
            );
            out.extend(Self::aggregate_partition(gpu, tape, part, member_xs)?);
            off += part.slots.len();
        }
        Ok(out)
    }

    fn update(
        &mut self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        xs: &[Var],
        w: Var,
        b: Var,
    ) -> Result<Vec<Var>, OomError> {
        let cat = KernelCategory::Update;
        if !self.opts.weight_reuse || xs.len() == 1 {
            return xs
                .iter()
                .map(|&x| {
                    let h = tape.matmul(gpu, x, w, cat)?;
                    tape.add_bias(gpu, h, b, cat)
                })
                .collect();
        }
        // Locality-optimized weight reuse: stack the frame's features
        // row-wise, multiply once with the weight tile resident, split.
        let stacked = tape.concat_rows(gpu, xs, cat)?;
        let h = tape.matmul_weight_resident(gpu, stacked, w, cat)?;
        let h = tape.add_bias(gpu, h, b, cat)?;
        let heights: Vec<usize> = xs.iter().map(|&x| tape.shape(x).0).collect();
        let out = tape.split_rows(gpu, h, &heights, cat)?;
        let done = gpu.record_event(self.compute).time();
        gpu.trace_mut().instant(
            "pipeline_stage",
            Lane::Control,
            done,
            vec![
                ("stage", ArgValue::Str("update".to_string())),
                ("slots", ArgValue::U64(xs.len() as u64)),
            ],
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::GraphAnalyzer;
    use crate::prep::PartitionCatalog;
    use pipad_dyngraph::{DatasetId, DynamicGraph, Scale};
    use pipad_gpu_sim::DeviceConfig;
    use pipad_models::{DirectExecutor, GnnExecutor};
    use pipad_sparse::Csr;

    fn setup() -> (Gpu, DynamicGraph, GraphAnalyzer, PartitionCatalog) {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let graph = DatasetId::Covid19England.gen_config(Scale::Tiny).generate();
        let mut host = gpu.host_now();
        let analyzer = GraphAnalyzer::run(&mut gpu, &graph, &mut host);
        let catalog = PartitionCatalog::build(&mut gpu, &analyzer, &mut host);
        (gpu, graph, analyzer, catalog)
    }

    fn opts(s_per: usize) -> ExecOptions {
        ExecOptions {
            s_per,
            needs_adjacency_when_cached: true,
            weight_reuse: true,
            use_sliced: true,
        }
    }

    /// `memcpy_h2d` spans recorded since `snap`.
    fn h2d_copies(gpu: &Gpu, snap: pipad_gpu_sim::ProfSnapshot) -> usize {
        let since = gpu.profiler().samples().since(snap);
        since.iter().filter(|s| s.name == "memcpy_h2d").count()
    }

    #[test]
    fn a_partition_ships_as_one_copy_of_everything_it_staged() {
        let (mut gpu, graph, analyzer, catalog) = setup();
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        let feats: Vec<&Matrix> = graph.snapshots[0..8].iter().map(|s| &s.features).collect();
        let feat_bytes: u64 = feats.iter().map(|f| f.bytes()).sum();
        // What a frame of 8 ships besides its features: overlap + exclusives
        // per planned partition, every member's own adjacency otherwise.
        let full = |csr: bool| -> u64 {
            let adj = |s: &AnalyzedSnapshot| match csr {
                true => s.norm.adj_hat.bytes(),
                false => s.sliced.bytes(),
            };
            analyzer.snapshots()[0..8].iter().map(adj).sum::<u64>() + feat_bytes
        };
        let planned = |s_per: usize| -> u64 {
            let starts = (0..8).step_by(s_per);
            let adj = starts.map(|st| catalog.get(s_per, st).unwrap().adjacency_bytes);
            adj.sum::<u64>() + feat_bytes
        };
        for (s_per, use_sliced, bytes) in [
            (1, true, full(false)),
            (4, true, planned(4)),
            (8, true, planned(8)),
            (4, false, full(true)),
        ] {
            let snap = gpu.profiler().snapshot();
            let o = ExecOptions {
                use_sliced,
                ..opts(s_per)
            };
            let exec = PipadExecutor::stage(
                &mut gpu, &analyzer, &catalog, &feats, 0, o, None, compute, copy,
            )
            .unwrap();
            let what = format!("S_per {s_per}, sliced {use_sliced}");
            assert_eq!(h2d_copies(&gpu, snap), 8 / s_per, "{what}");
            assert_eq!(gpu.profiler().window(snap).h2d_bytes, bytes, "{what}");
            exec.finish(&mut gpu);
        }
    }

    #[test]
    fn a_copy_that_fails_for_good_takes_the_staged_frame_with_it() {
        use pipad_gpu_sim::{FaultPlan, TransferFault};
        let (mut gpu, graph, analyzer, catalog) = setup();
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        let feats: Vec<&Matrix> = graph.snapshots[0..8].iter().map(|s| &s.features).collect();
        // The second partition's copy never succeeds: by then the first
        // partition is staged and the second's buffers are allocated.
        let op = gpu.op_counters().copy_ops + 1;
        gpu.install_faults(FaultPlan {
            transfer_faults: vec![TransferFault {
                op,
                failures: u32::MAX,
            }],
            max_transfer_retries: 2,
            ..FaultPlan::default()
        });
        let (live, in_use) = (gpu.mem().live_buffers(), gpu.mem().in_use());
        let staged = PipadExecutor::stage(
            &mut gpu,
            &analyzer,
            &catalog,
            &feats,
            0,
            opts(4),
            None,
            compute,
            copy,
        );
        match staged.err().expect("the copy fails for good") {
            DeviceFault::Transfer(t) => assert_eq!((t.op_index, t.attempts), (op, 3)),
            other => panic!("expected a transfer fault, got {other:?}"),
        }
        assert_eq!(
            (gpu.mem().live_buffers(), gpu.mem().in_use()),
            (live, in_use)
        );
    }

    #[test]
    fn parallel_aggregation_matches_direct_executor() {
        let (mut gpu, graph, analyzer, catalog) = setup();
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        let window = 4;
        let feats: Vec<&Matrix> = graph.snapshots[0..window]
            .iter()
            .map(|s| &s.features)
            .collect();

        // PiPAD path, S_per = 2
        let mut exec = PipadExecutor::stage(
            &mut gpu,
            &analyzer,
            &catalog,
            &feats,
            0,
            opts(2),
            None,
            compute,
            copy,
        )
        .unwrap();
        let mut tape = Tape::new(compute);
        exec.aggregate_misses(&mut gpu).unwrap();
        let aggs = exec.aggregate_inputs(&mut gpu, &mut tape).unwrap();

        // Reference path
        let slots: Vec<(&Csr, &Matrix)> = graph.snapshots[0..window]
            .iter()
            .map(|s| (&s.adj, &s.features))
            .collect();
        let mut direct = DirectExecutor::new(&slots);
        let mut ref_tape = Tape::new(compute);
        let expected = direct.aggregate_inputs(&mut gpu, &mut ref_tape).unwrap();

        for (i, (&a, &e)) in aggs.iter().zip(&expected).enumerate() {
            assert!(
                tape.host(a).approx_eq(&ref_tape.host(e), 1e-4),
                "slot {i} diverged"
            );
        }
        tape.finish(&mut gpu);
        ref_tape.finish(&mut gpu);
        exec.finish(&mut gpu);
    }

    #[test]
    fn overlap_split_ships_fewer_bytes_than_full() {
        let (mut gpu, graph, analyzer, catalog) = setup();
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        let feats: Vec<&Matrix> = graph.snapshots[0..8].iter().map(|s| &s.features).collect();

        let run = |gpu: &mut Gpu, s_per: usize| -> u64 {
            let snap = gpu.profiler().snapshot();
            let exec = PipadExecutor::stage(
                gpu,
                &analyzer,
                &catalog,
                &feats,
                0,
                opts(s_per),
                None,
                compute,
                copy,
            )
            .unwrap();
            let bytes = gpu.profiler().window(snap).h2d_bytes;
            exec.finish(gpu);
            bytes
        };
        let singles = run(&mut gpu, 1);
        let grouped = run(&mut gpu, 4);
        assert!(
            grouped < singles,
            "overlap-aware transfer {grouped} must beat per-snapshot {singles}"
        );
    }

    #[test]
    fn reuse_round_trip_through_both_tiers() {
        let (mut gpu, graph, analyzer, catalog) = setup();
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        let feats: Vec<&Matrix> = graph.snapshots[0..4].iter().map(|s| &s.features).collect();
        let mut reuse = InterFrameReuse::new(1 << 26);
        let o = ExecOptions {
            needs_adjacency_when_cached: false,
            ..opts(2)
        };

        // pass 1: compute + populate CPU store
        let mut exec = PipadExecutor::stage(
            &mut gpu,
            &analyzer,
            &catalog,
            &feats,
            0,
            o,
            Some(&mut reuse),
            compute,
            copy,
        )
        .unwrap();
        let mut tape = Tape::new(compute);
        exec.aggregate_misses(&mut gpu).unwrap();
        let first = exec.aggregate_inputs(&mut gpu, &mut tape).unwrap();
        let first_vals: Vec<Matrix> = first.iter().map(|&v| tape.host(v)).collect();
        tape.finish(&mut gpu);
        exec.finish(&mut gpu);
        // Every member missed and was deposited.
        assert_eq!(reuse.stats().cpu_misses, 4);
        assert!(reuse.lookup(0..4).is_some());

        // keep two results device-resident
        reuse.slide(&mut gpu, 0..2);

        // pass 2: all four covered (2 GPU-resident, 2 via PCIe), no kernels
        let snap = gpu.profiler().snapshot();
        let mut exec = PipadExecutor::stage(
            &mut gpu,
            &analyzer,
            &catalog,
            &feats,
            0,
            o,
            Some(&mut reuse),
            compute,
            copy,
        )
        .unwrap();
        let mut tape = Tape::new(compute);
        exec.aggregate_misses(&mut gpu).unwrap();
        let second = exec.aggregate_inputs(&mut gpu, &mut tape).unwrap();
        for (a, b) in second.iter().zip(&first_vals) {
            assert!(tape.host(*a).approx_eq(b, 1e-6));
        }
        let w = gpu.profiler().window(snap);
        let spmm_launches = gpu
            .profiler()
            .samples()
            .since(snap)
            .iter()
            .filter(|s| s.name.starts_with("spmm"))
            .count();
        assert_eq!(spmm_launches, 0, "fully cached frame must skip aggregation");
        // only the two CPU-tier results crossed PCIe, in their partition's
        // one copy; the GPU-resident partition shipped nothing at all
        let expect_bytes: u64 = first_vals[2].bytes() + first_vals[3].bytes();
        assert_eq!(w.h2d_bytes, expect_bytes);
        assert_eq!(h2d_copies(&gpu, snap), 1);
        tape.finish(&mut gpu);
        exec.finish(&mut gpu);
        reuse.evict_device(&mut gpu);
    }

    /// A partition that ships nothing pays nothing on the loader: with
    /// every member device-resident and no adjacency needed (T-GCN), it
    /// records no `partition_prep` op and no copy and leaves the host lane
    /// where it was. Needing adjacency, or a CPU-tier member, brings back
    /// exactly one loader op and one copy per partition.
    #[test]
    fn a_partition_that_ships_nothing_pays_no_loader_op() {
        let (mut gpu, graph, analyzer, catalog) = setup();
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        let feats: Vec<&Matrix> = graph.snapshots[0..4].iter().map(|s| &s.features).collect();
        let mut reuse = InterFrameReuse::new(1 << 26);
        let tgcn = ExecOptions {
            needs_adjacency_when_cached: false,
            ..opts(2)
        };
        let mut exec = PipadExecutor::stage(
            &mut gpu,
            &analyzer,
            &catalog,
            &feats,
            0,
            tgcn,
            Some(&mut reuse),
            compute,
            copy,
        )
        .unwrap();
        let mut tape = Tape::new(compute);
        exec.aggregate_misses(&mut gpu).unwrap();
        exec.aggregate_inputs(&mut gpu, &mut tape).unwrap();
        tape.finish(&mut gpu);
        exec.finish(&mut gpu);

        // (device-resident members, adjacency needed) → loader ops = copies.
        for (resident, needs_adj, paid) in [(4, false, 0), (2, false, 1), (4, true, 2)] {
            reuse.evict_device(&mut gpu);
            reuse.slide(&mut gpu, 0..resident);
            let (snap, host) = (gpu.profiler().snapshot(), gpu.host_now());
            let o = ExecOptions {
                needs_adjacency_when_cached: needs_adj,
                ..tgcn
            };
            let exec = PipadExecutor::stage(
                &mut gpu,
                &analyzer,
                &catalog,
                &feats,
                0,
                o,
                Some(&mut reuse),
                compute,
                copy,
            )
            .unwrap();
            assert!(exec.partitions.iter().all(|p| p.layer1_cached));
            let since = gpu.profiler().samples().since(snap);
            let preps = since.iter().filter(|s| s.name == "partition_prep").count();
            let what = format!("{resident} resident, adjacency {needs_adj}");
            assert_eq!(preps, paid, "{what}");
            assert_eq!(h2d_copies(&gpu, snap), paid, "{what}");
            if paid == 0 {
                assert_eq!(gpu.host_now(), host, "{what}");
            }
            exec.finish(&mut gpu);
        }
        reuse.evict_device(&mut gpu);
    }

    #[test]
    fn weight_reuse_update_matches_per_slot_math() {
        let (mut gpu, graph, analyzer, catalog) = setup();
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        let feats: Vec<&Matrix> = graph.snapshots[0..4].iter().map(|s| &s.features).collect();
        let mut exec = PipadExecutor::stage(
            &mut gpu,
            &analyzer,
            &catalog,
            &feats,
            0,
            opts(4),
            None,
            compute,
            copy,
        )
        .unwrap();
        let mut tape = Tape::new(compute);
        exec.aggregate_misses(&mut gpu).unwrap();
        let xs = exec.aggregate_inputs(&mut gpu, &mut tape).unwrap();
        let d = graph.feature_dim();
        let w = tape.input(DeviceMatrix::alloc(&mut gpu, Matrix::eye(d)).unwrap());
        let b = tape.input(DeviceMatrix::alloc(&mut gpu, Matrix::zeros(1, d)).unwrap());
        let hs = exec.update(&mut gpu, &mut tape, &xs, w, b).unwrap();
        assert_eq!(hs.len(), feats.len());
        for (&h, &x) in hs.iter().zip(&xs) {
            assert!(
                tape.host(h).approx_eq(&tape.host(x), 1e-6),
                "identity update"
            );
        }
        // fused: exactly one GEMM launch for the whole frame
        let gemms = gpu
            .profiler()
            .samples()
            .iter()
            .filter(|s| s.name == "gemm_weight_resident")
            .count();
        assert_eq!(gemms, 1);
        tape.finish(&mut gpu);
        exec.finish(&mut gpu);
    }

    #[test]
    fn parallel_mode_moves_fewer_aggregation_transactions() {
        // The transaction win lives in the bandwidth-unsaturated regime
        // (feature dim < 8 floats, §3.2): use a 2-dim dataset.
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let graph = DatasetId::Youtube.gen_config(Scale::Tiny).generate();
        let mut host = gpu.host_now();
        let analyzer = GraphAnalyzer::run(&mut gpu, &graph, &mut host);
        let catalog = PartitionCatalog::build(&mut gpu, &analyzer, &mut host);
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        let feats: Vec<&Matrix> = graph.snapshots[0..8].iter().map(|s| &s.features).collect();
        let agg_txns = |gpu: &mut Gpu, s_per: usize| -> u64 {
            let snap = gpu.profiler().snapshot();
            let mut exec = PipadExecutor::stage(
                gpu,
                &analyzer,
                &catalog,
                &feats,
                0,
                opts(s_per),
                None,
                compute,
                copy,
            )
            .unwrap();
            let mut tape = Tape::new(compute);
            exec.aggregate_misses(gpu).unwrap();
            exec.aggregate_inputs(gpu, &mut tape).unwrap();
            let txns = gpu.profiler().window(snap).gmem_transactions;
            tape.finish(gpu);
            exec.finish(gpu);
            txns
        };
        // One overlap pass serving the whole partition reads the shared
        // topology once instead of once per snapshot.
        let singles = agg_txns(&mut gpu, 1);
        let grouped = agg_txns(&mut gpu, 4);
        assert!(
            grouped < singles,
            "grouped txns {grouped} vs per-snapshot {singles}"
        );
    }
}
