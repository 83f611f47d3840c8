//! The one-snapshot-at-a-time executor behind all four PyGT variants.
//!
//! `stage` issues the frame's host preparation and PCIe transfers up front
//! (per snapshot, in order); the async variants place them on a dedicated
//! copy stream from pinned memory so they overlap compute, while plain PyGT
//! uses pageable copies that stall the device — reproducing the §3.1
//! bottleneck.

use pipad::InterFrameReuse;
use pipad_autograd::{AggregationKernel, Tape, Var};
use pipad_gpu_sim::{Event, Gpu, OomError, StreamId};
use pipad_kernels::{upload_coo, upload_csr_with_csc, upload_matrix, DeviceCsr, DeviceMatrix};
use pipad_models::{normalize_snapshot, GnnExecutor, NormalizedAdj};
use pipad_sparse::Csr;
use pipad_tensor::Matrix;
use std::rc::Rc;

/// Per-snapshot staged state.
struct Slot {
    global_idx: usize,
    norm: NormalizedAdj,
    /// Raw features, uploaded unless a cached aggregation replaced them.
    features: Option<DeviceMatrix>,
    /// Cached layer-1 aggregation shipped from the reuse store's CPU tier.
    cached_agg: Option<DeviceMatrix>,
    /// Adjacency on device (absent when reuse made it unnecessary).
    adj: Option<DeviceCsr>,
    ready: Event,
}

/// Options distinguishing the PyGT variants.
#[derive(Clone, Copy, Debug)]
pub struct StageOptions {
    /// Pinned-memory, copy-stream transfers (PyGT-A and later).
    pub async_transfer: bool,
    /// Ship CSR+CSC instead of COO (PyGT-G / GE-SpMM requirement).
    pub with_csc: bool,
    /// Aggregation kernel.
    pub kernel: AggregationKernel,
    /// The model still aggregates hidden features (layer ≥ 2), so the
    /// adjacency must be resident even on a reuse hit.
    pub needs_adjacency_when_cached: bool,
}

/// Executor for the PyGT baseline family.
pub struct BaselineExecutor<'c> {
    slots: Vec<Slot>,
    kernel: AggregationKernel,
    reuse: Option<&'c mut InterFrameReuse>,
    compute: StreamId,
}

impl<'c> BaselineExecutor<'c> {
    /// Stage a frame: host prep + transfers for each snapshot in order.
    /// The prep work runs on the device's host lane, and a pageable copy
    /// holds that lane until it lands.
    pub fn stage(
        gpu: &mut Gpu,
        frame: &[(usize, &Csr, &Matrix)],
        opts: StageOptions,
        mut reuse: Option<&'c mut InterFrameReuse>,
        compute: StreamId,
        copy: StreamId,
    ) -> Result<Self, OomError> {
        let pinned = opts.async_transfer;
        let stream = if opts.async_transfer { copy } else { compute };
        let mut slots = Vec::with_capacity(frame.len());
        for &(global_idx, adj, feats) in frame {
            let cached_host = (reuse.as_mut())
                .and_then(|r| r.lookup(global_idx..global_idx + 1)?.pop())
                .map(|hit| hit.into_host());
            // Host-side preparation (framework overhead + staging copy).
            let moved_bytes =
                (cached_host.as_ref()).map_or(feats.bytes() + adj.bytes(), Matrix::bytes);
            let host_end = gpu.host_stage("frame_prep", moved_bytes);
            gpu.stream_wait_host(stream, host_end);

            let norm = normalize_snapshot(adj);
            let needs_adj = cached_host.is_none() || opts.needs_adjacency_when_cached;
            let adj_dev = if needs_adj {
                let shared = Rc::clone(&norm.adj_hat);
                Some(if opts.with_csc {
                    upload_csr_with_csc(gpu, stream, shared, pinned)?
                } else {
                    upload_coo(gpu, stream, shared, pinned)?
                })
            } else {
                None
            };
            let (features, cached_agg) = match cached_host {
                Some(agg) => (None, Some(upload_matrix(gpu, stream, &agg, pinned)?)),
                None => (Some(upload_matrix(gpu, stream, feats, pinned)?), None),
            };
            let ready = gpu.record_event(stream);
            if !pinned {
                // Pageable copies are synchronous with the host too.
                gpu.host_wait(ready.time());
            }
            slots.push(Slot {
                global_idx,
                norm,
                features,
                cached_agg,
                adj: adj_dev,
                ready,
            });
        }
        Ok(BaselineExecutor {
            slots,
            kernel: opts.kernel,
            reuse,
            compute,
        })
    }

    /// Release the frame's device-resident adjacency (feature buffers move
    /// into the tape and are freed with it).
    pub fn finish(self, gpu: &mut Gpu) {
        for slot in self.slots {
            if let Some(a) = slot.adj {
                a.free(gpu);
            }
            // Unconsumed feature/cached buffers (e.g. a model that never
            // called aggregate_inputs) are freed here too.
            if let Some(f) = slot.features {
                f.release(gpu);
            }
            if let Some(c) = slot.cached_agg {
                c.release(gpu);
            }
        }
    }
}

impl GnnExecutor for BaselineExecutor<'_> {
    fn frame_len(&self) -> usize {
        self.slots.len()
    }

    fn aggregate_inputs(&mut self, gpu: &mut Gpu, tape: &mut Tape) -> Result<Vec<Var>, OomError> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &mut self.slots {
            gpu.wait_event(self.compute, slot.ready);
            if let Some(cached) = slot.cached_agg.take() {
                // Reuse hit: the aggregation result arrived over PCIe; no
                // aggregation kernel runs at all.
                out.push(tape.input(cached));
                continue;
            }
            let f = slot.features.take().expect("features already consumed");
            let x = tape.input(f);
            let agg = tape.spmm(gpu, Rc::clone(&slot.norm.adj_hat), x, self.kernel)?;
            let normed = tape.row_scale(gpu, agg, Rc::clone(&slot.norm.inv_deg))?;
            if let Some(reuse) = self.reuse.as_mut() {
                reuse.deposit(slot.global_idx, || tape.host(normed));
            }
            out.push(normed);
        }
        Ok(out)
    }

    fn aggregate_hidden(
        &mut self,
        gpu: &mut Gpu,
        tape: &mut Tape,
        xs: &[Var],
    ) -> Result<Vec<Var>, OomError> {
        assert_eq!(xs.len(), self.slots.len());
        xs.iter()
            .zip(&self.slots)
            .map(|(&x, slot)| {
                assert!(
                    slot.adj.is_some(),
                    "hidden aggregation requires resident adjacency"
                );
                gpu.wait_event(self.compute, slot.ready);
                let agg = tape.spmm(gpu, Rc::clone(&slot.norm.adj_hat), x, self.kernel)?;
                tape.row_scale(gpu, agg, Rc::clone(&slot.norm.inv_deg))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::DeviceConfig;
    use pipad_tensor::{seeded_rng, uniform};

    fn frame_data(n: usize, t: usize, d: usize) -> Vec<(Csr, Matrix)> {
        let mut rng = seeded_rng(1);
        (0..t)
            .map(|_| {
                (
                    Csr::from_edges(n, n, &[(0, 1), (1, 0), (1, 2), (2, 1)]),
                    uniform(&mut rng, n, d, 1.0),
                )
            })
            .collect()
    }

    fn opts(kernel: AggregationKernel) -> StageOptions {
        StageOptions {
            async_transfer: true,
            with_csc: false,
            kernel,
            needs_adjacency_when_cached: true,
        }
    }

    #[test]
    fn staged_aggregation_matches_reference() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        let data = frame_data(5, 2, 3);
        let frame: Vec<(usize, &Csr, &Matrix)> = data
            .iter()
            .enumerate()
            .map(|(i, (a, f))| (i, a, f))
            .collect();
        let mut exec = BaselineExecutor::stage(
            &mut gpu,
            &frame,
            opts(AggregationKernel::CooScatter),
            None,
            compute,
            copy,
        )
        .unwrap();
        let mut tape = Tape::new(compute);
        let aggs = exec.aggregate_inputs(&mut gpu, &mut tape).unwrap();
        // reference: normalized mean aggregation
        let norm = normalize_snapshot(&data[0].0);
        let mut expect = norm.adj_hat.spmm_dense(&data[0].1);
        for r in 0..expect.rows() {
            let f = norm.inv_deg[r];
            for v in expect.row_mut(r) {
                *v *= f;
            }
        }
        assert!(tape.host(aggs[0]).approx_eq(&expect, 1e-5));
        tape.finish(&mut gpu);
        exec.finish(&mut gpu);
        assert_eq!(gpu.mem().in_use(), 0);
    }

    #[test]
    fn reuse_cache_removes_aggregation_kernels() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        let data = frame_data(5, 2, 3);
        let frame: Vec<(usize, &Csr, &Matrix)> = data
            .iter()
            .enumerate()
            .map(|(i, (a, f))| (i, a, f))
            .collect();
        let mut cache = InterFrameReuse::default();

        // pass 1: populate
        let mut exec = BaselineExecutor::stage(
            &mut gpu,
            &frame,
            opts(AggregationKernel::CooScatter),
            Some(&mut cache),
            compute,
            copy,
        )
        .unwrap();
        let mut tape = Tape::new(compute);
        let first = exec.aggregate_inputs(&mut gpu, &mut tape).unwrap();
        let first_val = tape.host(first[1]);
        tape.finish(&mut gpu);
        exec.finish(&mut gpu);
        assert_eq!(cache.stats().cpu_misses, 2);

        // pass 2: hits — no spmm launches, same values
        let snap = gpu.profiler().snapshot();
        let mut exec = BaselineExecutor::stage(
            &mut gpu,
            &frame,
            opts(AggregationKernel::CooScatter),
            Some(&mut cache),
            compute,
            copy,
        )
        .unwrap();
        let mut tape = Tape::new(compute);
        let second = exec.aggregate_inputs(&mut gpu, &mut tape).unwrap();
        assert!(tape.host(second[1]).approx_eq(&first_val, 1e-6));
        let launches = gpu
            .profiler()
            .samples()
            .since(snap)
            .iter()
            .filter(|s| s.name.starts_with("spmm"))
            .count();
        assert_eq!(launches, 0, "cache hits must skip aggregation");
        tape.finish(&mut gpu);
        exec.finish(&mut gpu);
    }

    #[test]
    fn reuse_without_hidden_need_skips_adjacency_transfer() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let compute = gpu.default_stream();
        let copy = gpu.create_stream();
        let data = frame_data(5, 2, 3);
        let frame: Vec<(usize, &Csr, &Matrix)> = data
            .iter()
            .enumerate()
            .map(|(i, (a, f))| (i, a, f))
            .collect();
        let mut cache = InterFrameReuse::default();
        for i in 0..data.len() {
            cache.deposit(i, || Matrix::zeros(5, 3));
        }
        let o = StageOptions {
            needs_adjacency_when_cached: false, // T-GCN-style
            ..opts(AggregationKernel::CooScatter)
        };
        let snap = gpu.profiler().snapshot();
        let exec =
            BaselineExecutor::stage(&mut gpu, &frame, o, Some(&mut cache), compute, copy).unwrap();
        let w = gpu.profiler().window(snap);
        // only the cached aggregation matrices crossed PCIe (5×3 f32 each)
        assert_eq!(w.h2d_bytes, 2 * 60);
        exec.finish(&mut gpu);
    }

    #[test]
    fn sync_variant_blocks_host_on_transfers() {
        let data = frame_data(5, 2, 3);
        let frame: Vec<(usize, &Csr, &Matrix)> = data
            .iter()
            .enumerate()
            .map(|(i, (a, f))| (i, a, f))
            .collect();

        let run = |async_transfer: bool| {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            let compute = gpu.default_stream();
            let copy = gpu.create_stream();
            let o = StageOptions {
                async_transfer,
                ..opts(AggregationKernel::CooScatter)
            };
            let exec = BaselineExecutor::stage(&mut gpu, &frame, o, None, compute, copy).unwrap();
            exec.finish(&mut gpu);
            gpu.host_now()
        };
        let (host_sync, host_async) = (run(false), run(true));
        assert!(host_sync > host_async, "pageable copies block the host");
    }
}
