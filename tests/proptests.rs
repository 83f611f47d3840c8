//! Property-based suites over the core data structures and invariants,
//! spanning crates: graph formats, overlap extraction, kernel/reference
//! agreement, space-cost formulas, simulator monotonicity and the serving
//! micro-batcher's admission/formation policy.

use pipad_repro::gpu_sim::{schedule_blocks, DeviceConfig, Gpu, SimNanos};
use pipad_repro::kernels::{
    spmm_coo_scatter, spmm_gespmm, spmm_sliced_parallel, upload_csr, upload_matrix, upload_sliced,
};
use pipad_repro::metrics::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Log2Histogram, LOG2_BUCKETS,
};
use pipad_repro::serve::{form_batches, Batch, BatchPolicy, Batcher, RejectReason, Request};
use pipad_repro::sparse::{csr_row_work, extract_overlap, partition_rows_balanced, Csr, SlicedCsr};
use pipad_repro::tensor::Matrix;
use proptest::prelude::*;
use std::collections::HashSet;
use std::rc::Rc;

/// Strategy: a random edge list over up to `n` vertices.
fn edges(n: u32, max_edges: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..=n).prop_flat_map(move |nv| {
        let edge = (0..nv, 0..nv);
        (Just(nv), proptest::collection::vec(edge, 0..max_edges))
    })
}

/// Strategy: a random symmetric graph.
fn sym_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Csr> {
    edges(n, max_edges).prop_map(|(nv, es)| {
        let mut sym = Vec::with_capacity(es.len() * 2);
        for (u, v) in es {
            if u != v {
                sym.push((u, v));
                sym.push((v, u));
            }
        }
        Csr::from_edges(nv as usize, nv as usize, &sym)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_round_trips(rows in 1usize..24, cols in 1usize..24, salt in 0u64..1000) {
        // Pool-backed transpose writes every slot through MaybeUninit; a
        // double transpose must reproduce the input bit-for-bit, also
        // when served from recycled (previously dirty) buffers.
        let m = Matrix::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 7) as f32).mul_add(0.125, salt as f32 * 0.01) - 1.0
        });
        let t = m.transpose();
        prop_assert_eq!(t.shape(), (cols, rows));
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(m[(r, c)].to_bits(), t[(c, r)].to_bits());
            }
        }
        let tt = t.transpose();
        prop_assert_eq!(&tt, &m);
        t.recycle();
        tt.recycle();
        m.recycle();
    }

    #[test]
    fn slice_rows_concat_rows_round_trips(
        rows in 1usize..24,
        cols in 1usize..16,
        cut_a in 0usize..25,
        cut_b in 0usize..25,
    ) {
        let m = Matrix::from_fn(rows, cols, |r, c| (r * 131 + c) as f32 * 0.5 - 3.0);
        let (a, b) = (cut_a.min(rows), cut_b.min(rows));
        let (lo, hi) = (a.min(b), a.max(b));
        // Any slice matches the source elementwise...
        let mid = m.slice_rows(lo, hi);
        prop_assert_eq!(mid.shape(), (hi - lo, cols));
        for r in 0..hi - lo {
            for c in 0..cols {
                prop_assert_eq!(mid[(r, c)].to_bits(), m[(lo + r, c)].to_bits());
            }
        }
        // ...and re-concatenating the three-way split reproduces the input.
        let head = m.slice_rows(0, lo);
        let tail = m.slice_rows(hi, rows);
        let back = Matrix::concat_rows(&[&head, &mid, &tail]);
        prop_assert_eq!(&back, &m);
        for part in [head, mid, tail, back, m] {
            part.recycle();
        }
    }

    #[test]
    fn sliced_round_trip_any_cap((nv, es) in edges(40, 120), cap in 1usize..40) {
        let csr = Csr::from_edges(nv as usize, nv as usize, &es);
        let sliced = SlicedCsr::from_csr_with_cap(&csr, cap);
        prop_assert_eq!(sliced.to_csr(), csr.clone());
        // every slice respects the cap and nnz is conserved
        prop_assert!(sliced.slice_sizes().iter().all(|&s| s as usize <= cap));
        prop_assert_eq!(sliced.nnz(), csr.nnz());
    }

    #[test]
    fn space_formulas((nv, es) in edges(40, 120)) {
        let csr = Csr::from_edges(nv as usize, nv as usize, &es);
        let sliced = SlicedCsr::from_csr(&csr);
        let nnz = csr.nnz() as u64;
        prop_assert_eq!(csr.words(), 2 * nnz + nv as u64 + 1);
        prop_assert_eq!(csr.coo_bytes(), 4 * 3 * nnz);
        prop_assert_eq!(sliced.words(), 2 * nnz + 2 * sliced.n_slices() as u64 + 1);
    }

    #[test]
    fn transpose_involution((nv, es) in edges(30, 100)) {
        let csr = Csr::from_edges(nv as usize, nv as usize, &es);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn overlap_partition_property(
        base in sym_graph(24, 60),
        extra_a in sym_graph(24, 20),
        extra_b in sym_graph(24, 20),
    ) {
        // Build two snapshots sharing `base`: overlap ⊇ base; and overlap ∪
        // exclusive reassembles each snapshot with disjoint edge sets.
        let n = base.n_rows().max(extra_a.n_rows()).max(extra_b.n_rows());
        let grow = |g: &Csr, extra: &Csr| {
            let mut e = g.edges();
            e.extend(extra.edges().into_iter().filter(|&(u, v)| (u as usize) < n && (v as usize) < n));
            Csr::from_edges(n, n, &e)
        };
        let pad = |g: &Csr| Csr::from_edges(n, n, &g.edges());
        let a = grow(&pad(&base), &extra_a);
        let b = grow(&pad(&base), &extra_b);
        let split = extract_overlap(&[&a, &b]);
        // overlap contains every base edge
        for (u, v) in pad(&base).edges() {
            prop_assert!(split.overlap.contains(u, v));
        }
        // reassembly is exact and disjoint
        for (i, snap) in [&a, &b].into_iter().enumerate() {
            prop_assert_eq!(&split.reassemble(i), snap);
            let ov: HashSet<_> = split.overlap.edges().into_iter().collect();
            for e in split.exclusives[i].edges() {
                prop_assert!(!ov.contains(&e), "exclusive edge also in overlap");
            }
        }
    }

    #[test]
    fn all_aggregation_kernels_agree(
        adj in sym_graph(24, 80),
        dim in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut rng = pipad_repro::tensor::seeded_rng(seed);
        let x = pipad_repro::tensor::uniform(&mut rng, adj.n_rows(), dim, 1.0);
        let expect = adj.spmm_dense(&x);

        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let shared = Rc::new(adj.clone());
        let dcsr = upload_csr(&mut gpu, s, Rc::clone(&shared), true).unwrap();
        let dx = upload_matrix(&mut gpu, s, &x, true).unwrap();
        let y1 = spmm_coo_scatter(&mut gpu, s, &dcsr, &dx).unwrap();
        let y2 = spmm_gespmm(&mut gpu, s, &dcsr, &dx).unwrap();
        let sliced = Rc::new(SlicedCsr::from_csr(&adj));
        let dsl = upload_sliced(&mut gpu, s, sliced, true).unwrap();
        let y3 = spmm_sliced_parallel(&mut gpu, s, &dsl, &dx, 1).unwrap();
        prop_assert!(y1.host().approx_eq(&expect, 1e-3));
        prop_assert!(y2.host().approx_eq(&expect, 1e-3));
        prop_assert!(y3.host().approx_eq(&expect, 1e-3));
    }

    #[test]
    fn parallel_aggregation_equals_per_snapshot(
        adj in sym_graph(20, 60),
        s_per in 2usize..5,
        seed in 0u64..1000,
    ) {
        let mut rng = pipad_repro::tensor::seeded_rng(seed);
        let dim = 3usize;
        let feats: Vec<Matrix> = (0..s_per)
            .map(|_| pipad_repro::tensor::uniform(&mut rng, adj.n_rows(), dim, 1.0))
            .collect();
        let refs: Vec<&Matrix> = feats.iter().collect();
        let co = Matrix::concat_cols(&refs);

        let mut gpu = Gpu::new(DeviceConfig::v100());
        let s = gpu.default_stream();
        let sliced = Rc::new(SlicedCsr::from_csr(&adj));
        let dsl = upload_sliced(&mut gpu, s, sliced, true).unwrap();
        let dco = upload_matrix(&mut gpu, s, &co, true).unwrap();
        let out = spmm_sliced_parallel(&mut gpu, s, &dsl, &dco, s_per).unwrap();
        let parts = out.host().split_cols(s_per);
        for (p, x) in parts.iter().zip(&feats) {
            prop_assert!(p.approx_eq(&adj.spmm_dense(x), 1e-3));
        }
    }

    #[test]
    fn schedule_makespan_bounds(work in proptest::collection::vec(0u64..1000, 1..200), slots in 1usize..64) {
        let r = schedule_blocks(&work, slots);
        let total: u64 = work.iter().sum();
        let max = work.iter().copied().max().unwrap_or(0);
        // classical list-scheduling bounds
        prop_assert!(r.makespan >= total.div_ceil(slots as u64).min(total));
        prop_assert!(r.makespan >= max);
        if total > 0 {
            prop_assert!(r.makespan <= total);
            prop_assert!(r.factor() >= 1.0);
            // Graham bound: ≤ 2 × OPT for list scheduling
            prop_assert!(r.makespan <= 2 * (total / slots as u64 + max));
        }
    }

    #[test]
    fn sim_time_is_monotone_in_work(flops in 1u64..1_000_000_000, extra in 1u64..1_000_000_000) {
        let cfg = DeviceConfig::v100();
        let a = SimNanos::from_units(flops, cfg.flops_per_ns);
        let b = SimNanos::from_units(flops + extra, cfg.flops_per_ns);
        prop_assert!(b >= a);
    }

    #[test]
    fn matrix_concat_split_inverse(
        rows in 1usize..20,
        cols in 1usize..8,
        parts in 1usize..5,
        seed in 0u64..100,
    ) {
        let mut rng = pipad_repro::tensor::seeded_rng(seed);
        let mats: Vec<Matrix> = (0..parts)
            .map(|_| pipad_repro::tensor::uniform(&mut rng, rows, cols, 1.0))
            .collect();
        let refs: Vec<&Matrix> = mats.iter().collect();
        let cat = Matrix::concat_cols(&refs);
        let back = cat.split_cols(parts);
        for (a, b) in back.iter().zip(&mats) {
            prop_assert_eq!(a, b);
        }
        let rcat = Matrix::concat_rows(&refs);
        for (i, m) in mats.iter().enumerate() {
            prop_assert_eq!(&rcat.slice_rows(i * rows, (i + 1) * rows), m);
        }
    }
}

/// Map a balanced partition to a per-row owner vector.
fn owners(ranges: &[(usize, usize)], n: usize) -> Vec<usize> {
    let mut own = vec![usize::MAX; n];
    for (p, &(lo, hi)) in ranges.iter().enumerate() {
        own[lo..hi].fill(p);
    }
    own
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn balanced_partition_is_a_disjoint_cover(g in sym_graph(48, 160), parts in 1usize..6) {
        // Whatever the degree distribution, the shard ranges must be
        // contiguous, disjoint, nonempty, and cover every vertex.
        let work = csr_row_work(&g);
        let ranges = partition_rows_balanced(&work, parts);
        prop_assert!(!ranges.is_empty());
        prop_assert!(ranges.len() <= parts);
        prop_assert_eq!(ranges[0].0, 0);
        prop_assert_eq!(ranges[ranges.len() - 1].1, work.len());
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0, "ranges must tile contiguously");
        }
        for &(lo, hi) in &ranges {
            prop_assert!(lo < hi, "every shard owns at least one row");
        }
    }

    #[test]
    fn balanced_partition_bounds_nnz_imbalance(
        n in 32usize..96,
        parts in 2usize..5,
        seed in 0u64..500,
    ) {
        // With per-row work in a narrow band (no mega-hubs) and plenty of
        // rows per part, the greedy prefix split must keep the heaviest
        // shard within 1.10× of the mean shard work.
        let work: Vec<u64> = (0..n)
            .map(|r| 8 + (r as u64 * 2654435761 + seed * 40503) % 5)
            .collect();
        let ranges = partition_rows_balanced(&work, parts);
        prop_assert_eq!(ranges.len(), parts);
        let shard_work: Vec<u64> = ranges
            .iter()
            .map(|&(lo, hi)| work[lo..hi].iter().sum())
            .collect();
        let mean = work.iter().sum::<u64>() as f64 / parts as f64;
        let max = *shard_work.iter().max().unwrap() as f64;
        prop_assert!(
            max <= 1.10 * mean,
            "imbalance {:.3} exceeds 1.10 (shards {:?})",
            max / mean,
            shard_work
        );
    }

    #[test]
    fn balanced_partition_is_stable_under_edge_churn(
        n in 40usize..96,
        parts in 2usize..5,
        seed in 0u64..500,
    ) {
        // ~10% of rows gain or lose a few edges between snapshots; the
        // partition of the perturbed work vector must keep at least 75%
        // of rows with their original shard.
        let base: Vec<u64> = (0..n)
            .map(|r| 8 + (r as u64 * 2654435761 + seed * 97) % 8)
            .collect();
        let churned: Vec<u64> = base
            .iter()
            .enumerate()
            .map(|(r, &w)| {
                if (r as u64 + seed).is_multiple_of(10) {
                    // alternate add/remove a couple of edges, floor at 1
                    if r % 2 == 0 { w + 2 } else { w.saturating_sub(2).max(1) }
                } else {
                    w
                }
            })
            .collect();
        let a = owners(&partition_rows_balanced(&base, parts), n);
        let b = owners(&partition_rows_balanced(&churned, parts), n);
        let moved = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        prop_assert!(
            moved * 4 <= n,
            "{moved}/{n} rows changed shards under ~10% churn"
        );
    }
}

/// Strategy → a sorted open-loop arrival plan for the micro-batcher.
fn arrival_plan() -> impl Strategy<Value = Vec<Request>> {
    proptest::collection::vec(0u64..400_000, 1..60).prop_map(|gaps| {
        let mut t = 0u64;
        gaps.iter()
            .enumerate()
            .map(|(i, &gap)| {
                t += gap;
                Request {
                    id: i as u64,
                    arrival: SimNanos(t),
                    frame: i % 3,
                    targets: vec![i % 5],
                }
            })
            .collect()
    })
}

fn batch_policy() -> impl Strategy<Value = BatchPolicy> {
    (1usize..6, 1_000u64..400_000, 1usize..10).prop_map(|(max_batch, max_delay_ns, cap)| {
        BatchPolicy {
            max_batch,
            max_delay_ns,
            queue_capacity: cap,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batcher_neither_loses_nor_duplicates_requests(
        reqs in arrival_plan(),
        policy in batch_policy(),
    ) {
        // Every request ends up exactly once: in some batch or in the
        // rejection list — independent of policy knobs.
        let n = reqs.len();
        let (batches, rejected, _) = form_batches(&reqs, &policy);
        let mut ids: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.requests.iter().map(|r| r.id))
            .chain(rejected.iter().map(|(r, _)| r.id))
            .collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
        for (_, reason) in &rejected {
            prop_assert_eq!(
                reason,
                &RejectReason::QueueFull { capacity: policy.queue_capacity }
            );
        }
    }

    #[test]
    fn batcher_is_fifo(reqs in arrival_plan(), policy in batch_policy()) {
        // Within a batch, and across the batch sequence, admitted
        // requests keep their arrival order.
        let (batches, _, _) = form_batches(&reqs, &policy);
        let flat: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.requests.iter().map(|r| r.id))
            .collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        prop_assert_eq!(flat, sorted, "batch formation reordered requests");
        for w in batches.windows(2) {
            prop_assert!(w[0].seq < w[1].seq);
            prop_assert!(w[0].formed_at <= w[1].formed_at);
        }
    }

    #[test]
    fn batcher_honors_max_delay_and_max_batch(
        reqs in arrival_plan(),
        policy in batch_policy(),
    ) {
        // No admitted request waits in the open batch past `max_delay_ns`,
        // no batch exceeds `max_batch`, none is empty, and a batch is
        // never formed before its last member arrives.
        let (batches, _, _) = form_batches(&reqs, &policy);
        for b in &batches {
            prop_assert!(!b.requests.is_empty());
            prop_assert!(b.requests.len() <= policy.max_batch);
            let first = b.requests.first().unwrap().arrival;
            let last = b.requests.last().unwrap().arrival;
            prop_assert!(b.formed_at >= last);
            prop_assert!(
                b.formed_at.as_nanos() - first.as_nanos() <= policy.max_delay_ns,
                "batch {} held its head {} ns > max delay {} ns",
                b.seq,
                b.formed_at.as_nanos() - first.as_nanos(),
                policy.max_delay_ns
            );
        }
    }

    #[test]
    fn batcher_queue_never_exceeds_capacity(
        reqs in arrival_plan(),
        policy in batch_policy(),
    ) {
        let (_, rejected, queue_high_water) = form_batches(&reqs, &policy);
        prop_assert!(queue_high_water <= policy.queue_capacity);
        // With capacity ≥ max_batch nothing can ever be rejected: the
        // size trigger drains the queue before it fills.
        if policy.queue_capacity >= policy.max_batch {
            prop_assert!(rejected.is_empty());
        }
    }
}

/// Step the batcher with device feedback: the device is busy until
/// `busy_until`, then takes each batch up at the later of its close and
/// its own free time and serves it for the next of `service` (ns, cycled).
/// Returns each batch with the device free time it was closed against,
/// the rejections in the order the batcher made them, and the queue's
/// high-water mark.
#[allow(clippy::type_complexity)]
fn step_with_feedback(
    reqs: &[Request],
    policy: &BatchPolicy,
    busy_until: u64,
    service: &[u64],
) -> (Vec<(Batch, SimNanos)>, Vec<(Request, RejectReason)>, usize) {
    let mut batcher = Batcher::new(reqs, policy);
    let mut free = SimNanos(busy_until);
    let (mut batches, mut rejected) = (Vec::new(), Vec::new());
    while let Some(b) = batcher.next(free) {
        rejected.extend(batcher.take_rejected());
        let closed_against = free;
        free = b.formed_at.max(free) + SimNanos(service[b.seq % service.len()]);
        batches.push((b, closed_against));
    }
    rejected.extend(batcher.take_rejected());
    (batches, rejected, batcher.queue_high_water())
}

/// Strategy → per-batch device service times (ns), from instant to far
/// longer than any gap or delay in the plans above.
fn service_times() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1_500_000, 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stepped_batcher_keeps_the_batcher_laws_under_device_feedback(
        reqs in arrival_plan(),
        policy in batch_policy(),
        busy_until in 0u64..2_000_000,
        service in service_times(),
    ) {
        let (batches, rejected, queue_high_water) =
            step_with_feedback(&reqs, &policy, busy_until, &service);
        // Neither lost nor duplicated; every rejection is backpressure.
        let mut ids: Vec<u64> = batches
            .iter()
            .flat_map(|(b, _)| b.requests.iter().map(|r| r.id))
            .chain(rejected.iter().map(|(r, _)| r.id))
            .collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..reqs.len() as u64).collect::<Vec<_>>());
        for (_, reason) in &rejected {
            prop_assert_eq!(
                reason,
                &RejectReason::QueueFull { capacity: policy.queue_capacity }
            );
        }
        // Rejections come in arrival order.
        prop_assert!(rejected.windows(2).all(|w| w[0].0.id < w[1].0.id));
        // FIFO within and across batches.
        let flat: Vec<u64> = batches
            .iter()
            .flat_map(|(b, _)| b.requests.iter().map(|r| r.id))
            .collect();
        prop_assert!(flat.windows(2).all(|w| w[0] < w[1]), "reordered: {:?}", flat);
        for w in batches.windows(2) {
            prop_assert_eq!(w[0].0.seq + 1, w[1].0.seq);
            prop_assert!(w[0].0.formed_at <= w[1].0.formed_at);
        }
        // Head delay and size bounds.
        for (b, _) in &batches {
            prop_assert!(!b.requests.is_empty());
            prop_assert!(b.requests.len() <= policy.max_batch);
            let first = b.requests.first().unwrap().arrival;
            prop_assert!(
                b.formed_at.as_nanos() - first.as_nanos() <= policy.max_delay_ns,
                "batch {} held its head {} ns > max delay {} ns",
                b.seq,
                b.formed_at.as_nanos() - first.as_nanos(),
                policy.max_delay_ns
            );
        }
        // The admission queue stays bounded, and cannot overflow when a
        // full batch fits in it.
        prop_assert!(queue_high_water <= policy.queue_capacity);
        if policy.queue_capacity >= policy.max_batch {
            prop_assert!(rejected.is_empty());
        }
    }

    #[test]
    fn stepped_batcher_is_work_conserving(
        reqs in arrival_plan(),
        policy in batch_policy(),
        busy_until in 0u64..2_000_000,
        service in service_times(),
    ) {
        // A batch closes no later than its head's arrival on an idle
        // device, or the moment the device frees on a busy one — and
        // never before its last member arrives.
        let (batches, _, _) = step_with_feedback(&reqs, &policy, busy_until, &service);
        for (b, device_free) in &batches {
            let head = b.requests.first().unwrap().arrival;
            let last = b.requests.last().unwrap().arrival;
            prop_assert!(
                b.formed_at <= head.max(*device_free),
                "batch {} closed at {} with its head at {} and the device free at {}",
                b.seq, b.formed_at, head, device_free
            );
            prop_assert!(b.formed_at >= last);
        }
    }

    #[test]
    fn stepped_batcher_on_a_device_that_never_frees_is_form_batches(
        reqs in arrival_plan(),
        policy in batch_policy(),
        service in service_times(),
    ) {
        // Busy until after the last head's deadline, then slower than the
        // whole plan: the device never frees while a batch is open, so the
        // size and delay triggers alone decide, as `form_batches` does.
        let last = reqs.last().unwrap().arrival.as_nanos();
        let horizon = last + policy.max_delay_ns + 1;
        let slow: Vec<u64> = service.iter().map(|s| s + horizon).collect();
        let (stepped, stepped_rejected, stepped_high_water) =
            step_with_feedback(&reqs, &policy, horizon, &slow);
        let (batches, rejected, high_water) = form_batches(&reqs, &policy);
        let shape = |b: &Batch| (b.seq, b.formed_at, b.requests.iter().map(|r| r.id).collect::<Vec<_>>());
        prop_assert_eq!(
            stepped.iter().map(|(b, _)| shape(b)).collect::<Vec<_>>(),
            batches.iter().map(shape).collect::<Vec<_>>()
        );
        prop_assert_eq!(stepped_rejected, rejected);
        prop_assert_eq!(stepped_high_water, high_water);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn log2_histogram_conserves_observations(values in proptest::collection::vec(0u64..=u64::MAX, 0..200)) {
        let mut h = Log2Histogram::new();
        for &v in &values {
            h.observe(v);
            // Every value lands in the bucket whose bounds bracket it.
            let i = bucket_index(v);
            prop_assert!(i < LOG2_BUCKETS);
            prop_assert!(bucket_lower_bound(i) <= v && v <= bucket_upper_bound(i),
                "value {} outside bucket {} = [{}, {}]",
                v, i, bucket_lower_bound(i), bucket_upper_bound(i));
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let expect_sum = values.iter().fold(0u64, |a, &v| a.saturating_add(v));
        prop_assert_eq!(h.sum(), expect_sum);
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), values.len() as u64);
        if let (Some(&lo), Some(&hi)) = (values.iter().min(), values.iter().max()) {
            prop_assert_eq!(h.min(), lo);
            prop_assert_eq!(h.max(), hi);
        }
    }

    #[test]
    fn log2_histogram_cumulative_is_monotone(values in proptest::collection::vec(0u64..=u64::MAX, 1..200)) {
        let mut h = Log2Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        // Cumulative bucket counts (the Prometheus `le` series) must be
        // nondecreasing and end at the total count.
        let mut cum = 0u64;
        let mut prev = 0u64;
        for &c in h.bucket_counts() {
            cum += c;
            prop_assert!(cum >= prev);
            prev = cum;
        }
        prop_assert_eq!(cum, h.count());
        // Quantiles are monotone in q and bracketed by [min, max].
        let mut last = 0u64;
        for q in [1u64, 250, 500, 750, 950, 999, 1000] {
            let v = h.quantile_milli(q);
            prop_assert!(v >= last, "quantile_milli({}) = {} < previous {}", q, v, last);
            prop_assert!(v <= h.max());
            last = v;
        }
        prop_assert!(h.quantile_milli(1000) >= h.min());
    }

    #[test]
    fn log2_histogram_merge_is_concatenation(
        a in proptest::collection::vec(0u64..=u64::MAX, 0..100),
        b in proptest::collection::vec(0u64..=u64::MAX, 0..100),
    ) {
        let mut ha = Log2Histogram::new();
        for &v in &a { ha.observe(v); }
        let mut hb = Log2Histogram::new();
        for &v in &b { hb.observe(v); }
        let mut hc = Log2Histogram::new();
        for &v in a.iter().chain(&b) { hc.observe(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hc.count());
        prop_assert_eq!(ha.sum(), hc.sum());
        prop_assert_eq!(ha.bucket_counts(), hc.bucket_counts());
        prop_assert_eq!(ha.quantile_milli(950), hc.quantile_milli(950));
    }
}
