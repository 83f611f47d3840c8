//! `to_bits` oracle for one launch per frame where there were one per
//! timestep or one per parameter: [`Tape::matmul_segments`] (one forward
//! GEMM, one `gemm_nt`, one split-K `gemm_tn`) against one
//! [`Tape::matmul`] per segment swept in reverse; the MPNN-LSTM temporal
//! phase with each layer's input projections stacked against the former
//! interleaved per-step chain; and the multi-tensor `sgd_step` against one
//! launch per tensor.

use crate::rnn_oracle::{evaluate, operand, Graph};
use crate::Var;
use pipad_gpu_sim::{DeviceConfig, Gpu, KernelCategory};
use pipad_kernels as k;
use pipad_pool as pool;
use pipad_tensor::Matrix;
use std::cell::RefCell;

const RNN: KernelCategory = KernelCategory::Rnn;

/// Bit equality, any NaN equal to any NaN (IEEE leaves the payload of
/// `NaN + NaN` open).
#[track_caller]
fn assert_same_bits(what: &str, got: &[Option<Matrix>], want: &[Option<Matrix>]) {
    assert_eq!(got.len(), want.len(), "{what}: arity");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let (g, w) = (g.as_ref().unwrap(), w.as_ref().unwrap());
        assert_eq!(g.shape(), w.shape(), "{what}: tensor {i} shape");
        for (j, (a, b)) in g.as_slice().iter().zip(w.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{what}: tensor {i}[{j}]: {a:e} ({:#x}) vs reference {b:e} ({:#x})",
                a.to_bits(),
                b.to_bits()
            );
        }
    }
}

fn count(launches: &[&str], name: &str) -> usize {
    launches.iter().filter(|&&l| l == name).count()
}

/// `(segment rows, input width, output width, segments)`: MPNN-LSTM's
/// dense-workload projection, one whose partials band across pool threads,
/// an odd segment count, and the degenerate shapes.
const SHAPES: [(usize, usize, usize, usize); 5] = [
    (130, 32, 128, 16),
    (1200, 64, 64, 4),
    (5, 3, 4, 7),
    (3, 2, 5, 1),
    (1, 1, 1, 3),
];

#[test]
fn a_segmented_matmul_is_one_matmul_per_segment_swept_in_reverse() {
    for (n, d, h, w) in SHAPES {
        for specials in [false, true] {
            // `then`: `w` is used once more after the stack, so the split-K
            // fold starts from a gradient it already holds.
            for then in [false, true] {
                let what = format!("{w} x ({n}x{d} · {d}x{h}) sp={specials} then={then}");
                let seed = operand(9, w * n + usize::from(then) * n, h, specials);
                let build = |g: &mut Graph<'_>, stacked: bool| {
                    let xs: Vec<Var> = (0..w)
                        .map(|t| g.leaf(operand(10 + t as u64, n, d, specials)))
                        .collect();
                    let wt = g.param(operand(2, d, h, specials));
                    let mut ys = if stacked {
                        let x = g.tape.concat_rows(g.gpu, &xs, RNN).unwrap();
                        vec![g.tape.matmul_segments(g.gpu, x, wt, n, RNN).unwrap()]
                    } else {
                        let ys = xs.iter().map(|&x| g.tape.matmul(g.gpu, x, wt, RNN));
                        ys.collect::<Result<Vec<_>, _>>().unwrap()
                    };
                    if then {
                        let z = g.leaf(operand(3, n, d, specials));
                        ys.push(g.tape.matmul(g.gpu, z, wt, RNN).unwrap());
                    }
                    g.tape.concat_rows(g.gpu, &ys, RNN).unwrap()
                };
                let (want, per_segment) = evaluate(1, &seed, |g| build(g, false));
                for threads in [1, 2, 7] {
                    let (got, launches) = evaluate(threads, &seed, |g| build(g, true));
                    assert_same_bits(&format!("{what} @ {threads} threads"), &got, &want);
                    let extra = usize::from(then);
                    for name in ["gemm", "gemm_nt", "gemm_tn"] {
                        assert_eq!(count(&launches, name), 1 + extra, "{what}: {name}");
                        assert_eq!(count(&per_segment, name), w + extra, "{what}: {name}");
                    }
                }
            }
        }
    }
}

/// MPNN-LSTM's temporal phase. `stacked`: each layer runs the whole frame,
/// its input projections one segmented GEMM (`LstmCell::run`); otherwise
/// the former interleaved per-step chain, one `x·Wx` GEMM per layer and
/// timestep.
fn lstm_frame(
    g: &mut Graph<'_>,
    stacked: bool,
    (n, hd, steps): (usize, usize, usize),
    sp: bool,
) -> Var {
    let cell = |g: &mut Graph<'_>, seed| {
        [
            g.param(operand(seed, hd, 4 * hd, sp)),
            g.param(operand(seed + 1, hd, 4 * hd, sp)),
            g.param(operand(seed + 2, 1, 4 * hd, sp)),
        ]
    };
    let (cell_a, cell_b) = (cell(g, 40), cell(g, 50));
    let xs: Vec<Var> = (0..steps)
        .map(|t| g.leaf(operand(60 + t as u64, n, hd, sp)))
        .collect();
    let zero = g
        .tape
        .input(k::DeviceMatrix::alloc(g.gpu, Matrix::zeros(n, hd)).unwrap());
    let step = |g: &mut Graph<'_>, gx, [h, c]: [Var; 2], [_, wh, b]: [Var; 3]| {
        let gh = g.tape.matmul(g.gpu, h, wh, RNN).unwrap();
        g.tape.lstm_cell(g.gpu, gx, gh, b, c, RNN).unwrap()
    };
    if stacked {
        let run = |g: &mut Graph<'_>, xs: &[Var], cell: [Var; 3]| {
            let x = g.tape.concat_rows(g.gpu, xs, RNN).unwrap();
            let gx = g.tape.matmul_segments(g.gpu, x, cell[0], n, RNN).unwrap();
            let gxs = g.tape.split_rows(g.gpu, gx, &vec![n; xs.len()], RNN);
            let mut state = [zero, zero];
            let mut hs = Vec::new();
            for gx in gxs.unwrap() {
                state = step(g, gx, state, cell).into();
                hs.push(state[0]);
            }
            (hs, state)
        };
        let (h_a, last_a) = run(g, &xs, cell_a);
        let (h_b, last_b) = run(g, &h_a, cell_b);
        g.outs.extend(last_a.into_iter().chain(last_b));
        *h_b.last().unwrap()
    } else {
        let (mut a, mut b) = ([zero, zero], [zero, zero]);
        for &x in &xs {
            let gx = g.tape.matmul(g.gpu, x, cell_a[0], RNN).unwrap();
            a = step(g, gx, a, cell_a).into();
            let gx = g.tape.matmul(g.gpu, a[0], cell_b[0], RNN).unwrap();
            b = step(g, gx, b, cell_b).into();
        }
        g.outs.extend(a.into_iter().chain(b));
        b[0]
    }
}

#[test]
fn the_stacked_lstm_frame_is_the_interleaved_chain_bit_for_bit() {
    // Every weight, bias and input gradient: lstm1's outputs still get
    // exactly two contributions (lstm2's projection, lstm1's next `h·Wh`),
    // now in the other order — one f32 add, which commutes.
    for ((n, hd, steps), sp) in [
        ((130, 32, 16), false),
        ((130, 32, 16), true),
        ((170, 16, 3), true),
        ((1, 1, 3), false),
    ] {
        let shape = (n, hd, steps);
        let seed = operand(69, n, hd, sp);
        let (want, chain) = evaluate(1, &seed, |g| lstm_frame(g, false, shape, sp));
        for threads in [1, 2, 7] {
            let (got, launches) = evaluate(threads, &seed, |g| lstm_frame(g, true, shape, sp));
            let what = format!("lstm frame {n}x{hd}x{steps} sp={sp} @ {threads} threads");
            assert_same_bits(&what, &got, &want);
            // Forward: 2 projections + 2 × `steps` recurrent GEMMs, against
            // 4 × `steps`; each projection is one `gemm_nt` and one
            // `gemm_tn` backward.
            assert_eq!(count(&launches, "gemm"), 2 + 2 * steps, "{what}");
            assert_eq!(count(&chain, "gemm"), 4 * steps, "{what}");
            assert_eq!(count(&launches, "gemm_tn"), 2 + 2 * steps, "{what}");
            assert_eq!(count(&launches, "add"), 0, "{what}");
        }
    }
}

#[test]
fn one_multi_tensor_sgd_step_is_the_per_tensor_steps_bit_for_bit() {
    let shapes = [(32, 128), (1, 128), (130, 6), (1, 1), (12_000, 6)];
    let lr = 0.37;
    let update = |threads, per_tensor: bool, finite| {
        pool::with_threads(threads, || {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            let s = gpu.default_stream();
            let params: Vec<RefCell<k::DeviceMatrix>> = (0..shapes.len())
                .map(|i| {
                    let (r, c) = shapes[i];
                    let m = operand(200 + i as u64, r, c, true);
                    RefCell::new(k::DeviceMatrix::alloc(&mut gpu, m).unwrap())
                })
                .collect();
            let grads: Vec<Matrix> = (0..shapes.len())
                .map(|i| operand(300 + i as u64, shapes[i].0, shapes[i].1, true))
                .collect();
            let pairs: Vec<_> = params.iter().zip(&grads).collect();
            if per_tensor {
                for &pair in &pairs {
                    k::sgd_step(&mut gpu, s, &[pair], lr, finite);
                }
            } else {
                k::sgd_step(&mut gpu, s, &pairs, lr, finite);
            }
            let values = params.iter().map(|p| Some(p.borrow().host().clone()));
            (
                values.collect::<Vec<_>>(),
                gpu.profiler().full().kernel_launches,
            )
        })
    };
    let (before, _) = update(1, true, false);
    let (want, per_tensor) = update(1, true, true);
    assert_eq!(per_tensor, shapes.len() as u64);
    for threads in [1, 2, 7] {
        let (got, launches) = update(threads, false, true);
        assert_same_bits(&format!("sgd @ {threads} threads"), &got, &want);
        assert_eq!(launches, 1);
        // The flag down: launched all the same, nothing written.
        let (untouched, launches) = update(threads, false, false);
        assert_same_bits(
            &format!("no-op sgd @ {threads} threads"),
            &untouched,
            &before,
        );
        assert_eq!(launches, 1);
    }
}
