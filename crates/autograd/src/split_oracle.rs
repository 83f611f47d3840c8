//! `to_bits` oracle for [`Tape::split_rows`] / [`Tape::split_cols`]: every
//! view and every leaf gradient against the op they replaced, kept as the
//! test-only [`Tape::slice_padded`] — one view per call, whose backward
//! zero-pads its gradient to the parent's shape and lets
//! `Tape::accumulate` left-fold the padded matrices with `+` in sweep
//! order.
//!
//! **Where the gather is allowed to differ.** It writes every block as
//! `v + 0.0`. With two or more live parts the fold adds at least one `+0.0`
//! to every element too, so the two agree bit for bit. With a *lone* live
//! part the fold is that one padded matrix, untouched: a `−0.0` in it stays
//! `−0.0`, where the gather writes `+0.0`. That one direction, in the
//! parent's gradient only, is what [`Zeros::LoneLosesSign`] admits; no
//! trainer's loss bits move with it (`tests/trainer_digests.rs`).

use crate::rnn_oracle::{evaluate, evaluate_sweeps, lstm_chain, operand, Graph};
use crate::Var;
use pipad_gpu_sim::KernelCategory;
use pipad_kernels::Axis;
use pipad_tensor::Matrix;

const CAT: KernelCategory = KernelCategory::Update;
/// Width every consumer's output is brought to, so they can be summed.
const M: usize = 2;

/// `(rows, cols)` of the parent and how many parts: the weight-resident
/// update of a 16-snapshot frame, the LSTM's four gates, an uneven
/// three-way cut, the two degenerate single-part splits, and one tall
/// enough for the gather's host loop to band across pool threads.
const SHAPES: [((usize, usize), usize); 6] = [
    ((192, 6), 16),
    ((130, 32 * 4), 4),
    ((170, 16), 3),
    ((6, 6), 1),
    ((1, 1), 1),
    ((12_000, 18), 3),
];

/// Which parts feed the loss; the rest get no gradient.
type Live = fn(usize, usize) -> bool;
const ALL: Live = |_, _| true;
const SOME_DEAD: Live = |k, parts| k % 2 == 1 || k + 1 == parts;
const FIRST_DEAD: Live = |k, _| k > 0;
const ONLY_LAST: Live = |k, parts| k + 1 == parts;

/// `total` cut into `parts` extents as even as they come.
fn extents(total: usize, parts: usize) -> Vec<usize> {
    (0..parts)
        .map(|k| total / parts + usize::from(k < total % parts))
        .collect()
}

/// `parent = a + b` (both leaves, so their gradient *is* the parent's),
/// cut along `axis`; every live part — and, with `full_consumers`, the
/// parent itself once below and once above the parts — is masked with
/// special values and projected to a common shape, and the projections
/// are summed into the root, which is returned.
fn build(
    g: &mut Graph<'_>,
    split: bool,
    axis: Axis,
    ((rows, cols), parts): ((usize, usize), usize),
    live: Live,
    full_consumers: bool,
) -> Var {
    let a = g.leaf(operand(1, rows, cols, true));
    let b = g.leaf(operand(2, rows, cols, true));
    let parent = g.tape.add(g.gpu, a, b, CAT).unwrap();

    let consume = |g: &mut Graph<'_>, v: Var, seed: u64| {
        let (r, c) = g.tape.shape(v);
        let mask = g.leaf(operand(seed, r, c, true));
        let masked = g.tape.hadamard(g.gpu, v, mask, CAT).unwrap();
        match axis {
            Axis::Rows => {
                let w = g.leaf(operand(seed + 100, M, r, false));
                g.tape.matmul(g.gpu, w, masked, CAT).unwrap()
            }
            Axis::Cols => {
                let w = g.leaf(operand(seed + 100, c, M, false));
                g.tape.matmul(g.gpu, masked, w, CAT).unwrap()
            }
        }
    };

    let mut terms = Vec::new();
    if full_consumers {
        terms.push(consume(g, parent, 10));
    }
    let extents = extents(axis.extent((rows, cols)), parts);
    let views = if split {
        match axis {
            Axis::Rows => g.tape.split_rows(g.gpu, parent, &extents, CAT),
            Axis::Cols => g.tape.split_cols(g.gpu, parent, &extents, CAT),
        }
        .unwrap()
    } else {
        let mut from = 0;
        let one_by_one = extents.iter().map(|&e| {
            from += e;
            g.tape
                .slice_padded(g.gpu, parent, axis, from - e, from, CAT)
        });
        one_by_one.collect()
    };
    g.outs.extend(&views);
    for (k, &view) in views.iter().enumerate() {
        if live(k, parts) {
            terms.push(consume(g, view, 20 + k as u64));
        }
    }
    if full_consumers {
        terms.push(consume(g, parent, 11));
    }
    let mut root = terms[0];
    for &t in &terms[1..] {
        root = g.tape.add(g.gpu, root, t, CAT).unwrap();
    }
    root
}

fn seed(axis: Axis, (rows, cols): (usize, usize), n: u64) -> Matrix {
    match axis {
        Axis::Rows => operand(n, M, cols, false),
        Axis::Cols => operand(n, rows, M, false),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Zeros {
    /// Bit for bit.
    Exact,
    /// A lone live part: the reference may hold `−0.0` where the gather
    /// holds `+0.0` (module docs). Nothing else, and not the other way.
    LoneLosesSign,
}

#[track_caller]
fn assert_matches_fold(
    what: &str,
    zeros: Zeros,
    split: &[Option<Matrix>],
    fold: &[Option<Matrix>],
) {
    assert_eq!(split.len(), fold.len(), "{what}: arity");
    for (k, (s, f)) in split.iter().zip(fold).enumerate() {
        let (Some(s), Some(f)) = (s, f) else {
            assert_eq!(s.is_some(), f.is_some(), "{what}: tensor {k} presence");
            continue;
        };
        assert_eq!(s.shape(), f.shape(), "{what}: tensor {k} shape");
        for (j, (a, b)) in s.as_slice().iter().zip(f.as_slice()).enumerate() {
            let same = a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
            let lost_sign = zeros == Zeros::LoneLosesSign
                && a.to_bits() == 0.0f32.to_bits()
                && b.to_bits() == (-0.0f32).to_bits();
            assert!(
                same || lost_sign,
                "{what}: tensor {k}[{j}]: split {a:e} ({:#x}) vs fold {b:e} ({:#x})",
                a.to_bits(),
                b.to_bits()
            );
        }
    }
}

/// The axes along which `shape` has room for its parts.
fn axes((shape, parts): ((usize, usize), usize)) -> impl Iterator<Item = Axis> {
    [Axis::Rows, Axis::Cols]
        .into_iter()
        .filter(move |axis| parts <= axis.extent(shape))
}

#[test]
fn split_matches_the_padded_fold_bit_for_bit() {
    for shape in SHAPES {
        let parts = shape.1;
        for axis in axes(shape) {
            for (name, live, full_consumers) in [
                ("all live", ALL, false),
                ("some dead", SOME_DEAD, false),
                ("first dead", FIRST_DEAD, false),
                ("only the last live", ONLY_LAST, false),
                ("all live + full-size consumers", ALL, true),
                ("some dead + full-size consumers", SOME_DEAD, true),
                ("only the last live + full-size consumers", ONLY_LAST, true),
            ] {
                let n_live = (0..parts).filter(|&k| live(k, parts)).count();
                if n_live == 0 && !full_consumers {
                    continue; // a single part, dead: nothing feeds the loss
                }
                let zeros = if n_live == 1 {
                    Zeros::LoneLosesSign
                } else {
                    Zeros::Exact
                };
                let seed = seed(axis, shape.0, 9);
                let run = |threads, split| {
                    evaluate(threads, &seed, |g| {
                        build(g, split, axis, shape, live, full_consumers)
                    })
                    .0
                };
                let fold = run(1, false);
                for threads in [1, 2, 7] {
                    let what = format!("{shape:?} {axis:?} {name} @ {threads} threads");
                    assert_matches_fold(&what, zeros, &run(threads, true), &fold);
                }
            }
        }
    }
}

/// The sharded trainer's backward in two halves — the MSE sweep stopped
/// above a floor, then [`crate::Tape::backward_below`] with no seed —
/// launches the same kernels and leaves the same bits as one sweep, at
/// every floor a split group allows: over splits with dead parts and
/// full-size consumers, and over stacked LSTM chains, fused (a cell's `c′`
/// sits right above it) and composed.
#[test]
fn a_sweep_split_at_any_floor_is_one_sweep() {
    let check = |what: &str, target: &Matrix, build: &dyn Fn(&mut Graph<'_>) -> Var| {
        let denom = target.len() as u64;
        let run = |floor: Option<usize>| {
            let mut floors = 0;
            let got = evaluate_sweeps(1, build, |gpu, tape, root| {
                let all = tape.floors(root);
                floors = all.len();
                let floor = floor.map(|k| all[k]);
                tape.backward_mse_denom(gpu, root, target, denom, floor)
                    .unwrap();
                if let Some(floor) = floor {
                    tape.backward_below(gpu, floor, Vec::new()).unwrap();
                }
            });
            (got, floors)
        };
        let ((whole, launches), floors) = run(None);
        for k in 0..floors {
            let ((split, split_launches), _) = run(Some(k));
            let what = format!("{what}, floor #{k} of {floors}");
            assert_eq!(split_launches, launches, "{what}: launches");
            assert_matches_fold(&what, Zeros::Exact, &split, &whole);
        }
    };
    // The tall shape's many floors would only repeat the small ones.
    for shape in &SHAPES[..5] {
        for axis in axes(*shape) {
            let what = format!("{shape:?} {axis:?}");
            check(&what, &seed(axis, shape.0, 9), &|g| {
                build(g, true, axis, *shape, SOME_DEAD, true)
            });
        }
    }
    for fused in [true, false] {
        let what = format!("lstm chain fused={fused}");
        check(&what, &operand(69, 6, 4, false), &|g| {
            lstm_chain(g, fused, 6, 4, 3)
        });
    }
}

/// The weight-resident update (`concat_rows` → GEMM → `add_bias` →
/// `split_rows`), launch by launch: the split's backward is one gather —
/// no `add` per part, and no `scale` copy under the `add` that joins the
/// parts or under the bias.
#[test]
fn the_weight_resident_update_backpropagates_in_one_gather() {
    let (n, d, hd) = (12, 5, 6);
    let (_, launches) = evaluate(1, &operand(39, n, hd, false), |g| {
        let xs = [30, 31, 32, 33].map(|seed| g.leaf(operand(seed, n, d, false)));
        let w = g.param(operand(40, d, hd, false));
        let b = g.param(operand(41, 1, hd, false));
        let stacked = g.tape.concat_rows(g.gpu, &xs, CAT).unwrap();
        let h = g
            .tape
            .matmul_weight_resident(g.gpu, stacked, w, CAT)
            .unwrap();
        let h = g.tape.add_bias(g.gpu, h, b, CAT).unwrap();
        let views = g.tape.split_rows(g.gpu, h, &[n; 4], CAT).unwrap();
        let mut root = views[0];
        for &v in &views[1..] {
            root = g.tape.add(g.gpu, root, v, CAT).unwrap();
        }
        root
    });
    assert_eq!(
        launches,
        [
            // forward: the views and the stacking launch nothing
            "gemm_weight_resident",
            "add_bias",
            "add",
            "add",
            "add",
            // backward: the three joins share their gradient; one gather;
            // the bias sum; the GEMM pair; `concat_rows` hands back views
            "gather",
            "col_sums",
            "gemm_nt",
            "gemm_tn",
        ]
    );
}
