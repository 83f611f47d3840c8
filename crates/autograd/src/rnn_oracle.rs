//! `to_bits` oracle for the fused recurrent ops: every forward output and
//! every input gradient of [`Tape::lstm_cell`], [`Tape::gru_cell`],
//! [`Tape::sigmoid_add`] and [`Tape::gru_blend`] against the one-op chains
//! they replaced. The composed bodies below are the former
//! `LstmCell::step`, `GruCell::step` and T-GCN loop, kept verbatim as the
//! reference.

use crate::{SharedParam, Tape, Var};
use pipad_gpu_sim::{DeviceConfig, Gpu, KernelCategory};
use pipad_kernels::DeviceMatrix;
use pipad_pool as pool;
use pipad_tensor::{seeded_rng, uniform, Matrix};
use std::cell::RefCell;
use std::rc::Rc;

const RNN: KernelCategory = KernelCategory::Rnn;
const SPECIALS: [f32; 8] = [
    0.0,
    -0.0,
    1e-40,
    -3e-42,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    f32::MIN_POSITIVE,
];

// ---- the composed references ------------------------------------------------

fn lstm_gates_composed(gpu: &mut Gpu, tape: &mut Tape, [gx, gh, b, c]: [Var; 4]) -> (Var, Var) {
    let hd = tape.shape(c).1;
    let gsum = tape.add(gpu, gx, gh, RNN).unwrap();
    let gates = tape.add_bias(gpu, gsum, b, RNN).unwrap();
    let gates = tape.split_cols(gpu, gates, &[hd; 4], RNN).unwrap();
    let [i, f, g, o]: [Var; 4] = gates.try_into().unwrap();
    let i = tape.sigmoid(gpu, i, RNN).unwrap();
    let f = tape.sigmoid(gpu, f, RNN).unwrap();
    let g = tape.tanh(gpu, g, RNN).unwrap();
    let o = tape.sigmoid(gpu, o, RNN).unwrap();
    let fc = tape.hadamard(gpu, f, c, RNN).unwrap();
    let ig = tape.hadamard(gpu, i, g, RNN).unwrap();
    let c2 = tape.add(gpu, fc, ig, RNN).unwrap();
    let tc = tape.tanh(gpu, c2, RNN).unwrap();
    let h2 = tape.hadamard(gpu, o, tc, RNN).unwrap();
    (h2, c2)
}

fn lstm_step(
    gpu: &mut Gpu,
    tape: &mut Tape,
    fused: bool,
    [x, h, c]: [Var; 3],
    [wx, wh, b]: [Var; 3],
) -> (Var, Var) {
    let gx = tape.matmul(gpu, x, wx, RNN).unwrap();
    let gh = tape.matmul(gpu, h, wh, RNN).unwrap();
    if fused {
        tape.lstm_cell(gpu, gx, gh, b, c, RNN).unwrap()
    } else {
        lstm_gates_composed(gpu, tape, [gx, gh, b, c])
    }
}

/// The GRU gate algebra after `gx = gx0 + b` and `gh`.
fn gru_gates_composed(gpu: &mut Gpu, tape: &mut Tape, [gx, gh, h]: [Var; 3]) -> Var {
    let hd = tape.shape(h).1;
    let [rx, zx, nx]: [Var; 3] = tape
        .split_cols(gpu, gx, &[hd; 3], RNN)
        .unwrap()
        .try_into()
        .unwrap();
    let [rh, zh, nh]: [Var; 3] = tape
        .split_cols(gpu, gh, &[hd; 3], RNN)
        .unwrap()
        .try_into()
        .unwrap();
    let rsum = tape.add(gpu, rx, rh, RNN).unwrap();
    let r = tape.sigmoid(gpu, rsum, RNN).unwrap();
    let zsum = tape.add(gpu, zx, zh, RNN).unwrap();
    let z = tape.sigmoid(gpu, zsum, RNN).unwrap();
    let rnh = tape.hadamard(gpu, r, nh, RNN).unwrap();
    let nsum = tape.add(gpu, nx, rnh, RNN).unwrap();
    let n = tape.tanh(gpu, nsum, RNN).unwrap();
    blend_composed(gpu, tape, [z, n, h])
}

/// `(1 − z) ⊙ n + z ⊙ h`.
fn blend_composed(gpu: &mut Gpu, tape: &mut Tape, [z, n, h]: [Var; 3]) -> Var {
    let omz = tape.affine_const(gpu, z, -1.0, 1.0, RNN).unwrap();
    let a = tape.hadamard(gpu, omz, n, RNN).unwrap();
    let b = tape.hadamard(gpu, z, h, RNN).unwrap();
    tape.add(gpu, a, b, RNN).unwrap()
}

fn gru_step(
    gpu: &mut Gpu,
    tape: &mut Tape,
    fused: bool,
    [x, h]: [Var; 2],
    [wx, wh, b]: [Var; 3],
) -> Var {
    let gx0 = tape.matmul(gpu, x, wx, RNN).unwrap();
    if fused {
        let gh = tape.matmul(gpu, h, wh, RNN).unwrap();
        tape.gru_cell(gpu, gx0, gh, b, h, RNN).unwrap()
    } else {
        let gx = tape.add_bias(gpu, gx0, b, RNN).unwrap();
        let gh = tape.matmul(gpu, h, wh, RNN).unwrap();
        gru_gates_composed(gpu, tape, [gx, gh, h])
    }
}

fn tgcn_step(
    gpu: &mut Gpu,
    tape: &mut Tape,
    fused: bool,
    [zx, rx, nx, h]: [Var; 4],
    [uz, ur, un]: [Var; 3],
) -> Var {
    if fused {
        let zh = tape.matmul(gpu, h, uz, RNN).unwrap();
        let z = tape.sigmoid_add(gpu, zx, zh, RNN).unwrap();
        let rh = tape.matmul(gpu, h, ur, RNN).unwrap();
        let r = tape.sigmoid_add(gpu, rx, rh, RNN).unwrap();
        let rh2 = tape.hadamard(gpu, r, h, RNN).unwrap();
        let nh = tape.matmul(gpu, rh2, un, RNN).unwrap();
        tape.gru_blend(gpu, z, nx, nh, h, RNN).unwrap()
    } else {
        let zh = tape.matmul(gpu, h, uz, RNN).unwrap();
        let zsum = tape.add(gpu, zx, zh, RNN).unwrap();
        let z = tape.sigmoid(gpu, zsum, RNN).unwrap();
        let rh = tape.matmul(gpu, h, ur, RNN).unwrap();
        let rsum = tape.add(gpu, rx, rh, RNN).unwrap();
        let r = tape.sigmoid(gpu, rsum, RNN).unwrap();
        let rh2 = tape.hadamard(gpu, r, h, RNN).unwrap();
        let nh = tape.matmul(gpu, rh2, un, RNN).unwrap();
        let nsum = tape.add(gpu, nx, nh, RNN).unwrap();
        let n = tape.tanh(gpu, nsum, RNN).unwrap();
        blend_composed(gpu, tape, [z, n, h])
    }
}

// ---- harness ------------------------------------------------------------------

/// Random operand; with `specials`, every 7th element is a signed zero, a
/// subnormal, an infinity or a NaN.
pub(crate) fn operand(seed: u64, rows: usize, cols: usize, specials: bool) -> Matrix {
    let mut m = uniform(&mut seeded_rng(seed), rows, cols, 1.5);
    if specials {
        for (k, v) in m.as_mut_slice().iter_mut().enumerate().step_by(7) {
            *v = SPECIALS[(k / 7 + seed as usize) % SPECIALS.len()];
        }
    }
    m
}

/// Builds one graph on a fresh tape: leaf constructors plus what to check.
pub(crate) struct Graph<'a> {
    pub(crate) gpu: &'a mut Gpu,
    pub(crate) tape: Tape,
    /// Values compared after forward.
    pub(crate) outs: Vec<Var>,
    /// Leaves whose gradients are compared after backward.
    leaves: Vec<Var>,
    /// Device bytes that outlive the tape (parameters).
    param_bytes: u64,
}

impl Graph<'_> {
    /// A gradient-carrying data leaf.
    pub(crate) fn leaf(&mut self, m: Matrix) -> Var {
        let v = self
            .tape
            .input_grad(DeviceMatrix::alloc(self.gpu, m).unwrap());
        self.leaves.push(v);
        v
    }
    /// A trainable parameter (gradients accumulate across steps).
    pub(crate) fn param(&mut self, m: Matrix) -> Var {
        self.param_bytes += m.bytes();
        let p: SharedParam = Rc::new(RefCell::new(DeviceMatrix::alloc(self.gpu, m).unwrap()));
        let v = self.tape.param(&p);
        self.leaves.push(v);
        v
    }
    /// A plain input: no gradient (the zero initial state of a chain).
    fn input(&mut self, m: Matrix) -> Var {
        self.tape.input(DeviceMatrix::alloc(self.gpu, m).unwrap())
    }
}

/// Forward, seed `root` with `seed`, backward; returns the checked values
/// followed by the leaf gradients, and the launches by kernel name.
pub(crate) fn evaluate(
    threads: usize,
    seed: &Matrix,
    build: impl FnOnce(&mut Graph<'_>) -> Var,
) -> (Vec<Option<Matrix>>, Vec<&'static str>) {
    evaluate_sweeps(threads, build, |gpu, tape, root| {
        let seed = DeviceMatrix::alloc(gpu, seed.clone()).unwrap();
        tape.backward_from(gpu, root, seed).unwrap();
    })
}

/// [`evaluate`] with the reverse sweeps spelled out by the caller.
pub(crate) fn evaluate_sweeps<R>(
    threads: usize,
    build: impl FnOnce(&mut Graph<'_>) -> R,
    sweeps: impl FnOnce(&mut Gpu, &mut Tape, R),
) -> (Vec<Option<Matrix>>, Vec<&'static str>) {
    pool::with_threads(threads, || {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let mut g = Graph {
            tape: Tape::new(gpu.default_stream()),
            gpu: &mut gpu,
            outs: Vec::new(),
            leaves: Vec::new(),
            param_bytes: 0,
        };
        let roots = build(&mut g);
        let Graph {
            mut tape,
            outs,
            leaves,
            param_bytes,
            ..
        } = g;
        sweeps(&mut gpu, &mut tape, roots);
        let mut got: Vec<_> = outs.iter().map(|&v| Some(tape.host(v))).collect();
        got.extend(leaves.iter().map(|&v| tape.grad(v)));
        tape.finish(&mut gpu);
        assert_eq!(
            gpu.mem().in_use(),
            param_bytes,
            "tape leaked or double-freed"
        );
        let launches = gpu.profiler().samples().iter().map(|s| s.name).collect();
        (got, launches)
    })
}

#[track_caller]
fn assert_same_bits(what: &str, fused: &[Option<Matrix>], composed: &[Option<Matrix>]) {
    assert_eq!(fused.len(), composed.len(), "{what}: arity");
    for (k, (f, c)) in fused.iter().zip(composed).enumerate() {
        let (Some(f), Some(c)) = (f, c) else {
            assert_eq!(f.is_some(), c.is_some(), "{what}: tensor {k} presence");
            continue;
        };
        assert_eq!(f.shape(), c.shape(), "{what}: tensor {k} shape");
        for (j, (a, b)) in f.as_slice().iter().zip(c.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{what}: tensor {k}[{j}]: fused {a:e} ({:#x}) vs composed {b:e} ({:#x})",
                a.to_bits(),
                b.to_bits()
            );
        }
    }
}

/// The fused build at 1, 2 and 7 threads against the composed build.
fn check(what: &str, seed: &Matrix, build: impl Fn(&mut Graph<'_>, bool) -> Var) {
    let (composed, _) = evaluate(1, seed, |g| build(g, false));
    for threads in [1, 2, 7] {
        let (fused, _) = evaluate(threads, seed, |g| build(g, true));
        assert_same_bits(&format!("{what} @ {threads} threads"), &fused, &composed);
    }
}

// ---- single ops, special values in every operand ----------------------------------

/// `(rows, hidden)` the workloads issue, plus the degenerate one.
const SHAPES: [(usize, usize); 6] = [(130, 32), (12_000, 6), (170, 16), (6, 6), (2, 6), (1, 1)];

#[test]
fn lstm_cell_matches_composed_ops_bit_for_bit() {
    for (n, hd) in SHAPES {
        for specials in [false, true] {
            // c carrying gradient or not; gradient reaching c′ or not.
            for (c_grad, both_outputs) in [(true, true), (false, true), (true, false)] {
                let what =
                    format!("lstm {n}x{hd} sp={specials} c_grad={c_grad} both={both_outputs}");
                check(&what, &operand(9, n, hd, specials), |g, fused| {
                    let gx = g.leaf(operand(1, n, 4 * hd, specials));
                    let gh = g.leaf(operand(2, n, 4 * hd, specials));
                    let b = g.leaf(operand(3, 1, 4 * hd, specials));
                    let c = operand(4, n, hd, specials);
                    let c = if c_grad { g.leaf(c) } else { g.input(c) };
                    let (h2, c2) = if fused {
                        g.tape.lstm_cell(g.gpu, gx, gh, b, c, RNN).unwrap()
                    } else {
                        lstm_gates_composed(g.gpu, &mut g.tape, [gx, gh, b, c])
                    };
                    g.outs.extend([h2, c2]);
                    if both_outputs {
                        g.tape.add(g.gpu, h2, c2, RNN).unwrap()
                    } else {
                        h2
                    }
                });
            }
        }
    }
}

#[test]
fn gru_cell_matches_composed_ops_bit_for_bit() {
    for (n, hd) in SHAPES {
        for specials in [false, true] {
            for h_grad in [true, false] {
                let what = format!("gru {n}x{hd} sp={specials} h_grad={h_grad}");
                check(&what, &operand(19, n, hd, specials), |g, fused| {
                    let gx0 = g.leaf(operand(11, n, 3 * hd, specials));
                    let gh = g.leaf(operand(12, n, 3 * hd, specials));
                    let b = g.leaf(operand(13, 1, 3 * hd, specials));
                    let h = operand(14, n, hd, specials);
                    let h = if h_grad { g.leaf(h) } else { g.input(h) };
                    let h2 = if fused {
                        g.tape.gru_cell(g.gpu, gx0, gh, b, h, RNN).unwrap()
                    } else {
                        let gx = g.tape.add_bias(g.gpu, gx0, b, RNN).unwrap();
                        gru_gates_composed(g.gpu, &mut g.tape, [gx, gh, h])
                    };
                    g.outs.push(h2);
                    h2
                });
            }
        }
    }
}

#[test]
fn sigmoid_add_and_gru_blend_match_composed_ops_bit_for_bit() {
    for (n, hd) in SHAPES {
        for specials in [false, true] {
            let what = format!("tgcn pieces {n}x{hd} sp={specials}");
            check(&what, &operand(29, n, hd, specials), |g, fused| {
                let a = g.leaf(operand(21, n, hd, specials));
                let b = g.leaf(operand(22, n, hd, specials));
                let nx = g.leaf(operand(23, n, hd, specials));
                let nh = g.leaf(operand(24, n, hd, specials));
                let h = g.leaf(operand(25, n, hd, specials));
                let h2 = if fused {
                    let z = g.tape.sigmoid_add(g.gpu, a, b, RNN).unwrap();
                    g.outs.push(z);
                    g.tape.gru_blend(g.gpu, z, nx, nh, h, RNN).unwrap()
                } else {
                    let zsum = g.tape.add(g.gpu, a, b, RNN).unwrap();
                    let z = g.tape.sigmoid(g.gpu, zsum, RNN).unwrap();
                    g.outs.push(z);
                    let nsum = g.tape.add(g.gpu, nx, nh, RNN).unwrap();
                    let n = g.tape.tanh(g.gpu, nsum, RNN).unwrap();
                    blend_composed(g.gpu, &mut g.tape, [z, n, h])
                };
                g.outs.push(h2);
                h2
            });
        }
    }
}

// ---- chains: cross-step accumulation into c / h / z and into the parameters ---------

/// MPNN-LSTM's temporal phase: two stacked cells over `steps` inputs, every
/// initial state the one shared non-grad zero input.
pub(crate) fn lstm_chain(g: &mut Graph<'_>, fused: bool, n: usize, hd: usize, steps: usize) -> Var {
    let cell = |g: &mut Graph<'_>, seed| {
        [
            g.param(operand(seed, hd, 4 * hd, false)),
            g.param(operand(seed + 1, hd, 4 * hd, false)),
            g.param(operand(seed + 2, 1, 4 * hd, false)),
        ]
    };
    let (cell_a, cell_b) = (cell(g, 40), cell(g, 50));
    let zero = g.input(Matrix::zeros(n, hd));
    let (mut h_a, mut c_a, mut h_b, mut c_b) = (zero, zero, zero, zero);
    for t in 0..steps {
        let x = g.leaf(operand(60 + t as u64, n, hd, false));
        (h_a, c_a) = lstm_step(g.gpu, &mut g.tape, fused, [x, h_a, c_a], cell_a);
        (h_b, c_b) = lstm_step(g.gpu, &mut g.tape, fused, [h_a, h_b, c_b], cell_b);
    }
    g.outs.extend([h_a, c_a, h_b, c_b]);
    h_b
}

#[test]
fn stacked_lstm_chain_matches_composed_bit_for_bit() {
    for (n, hd, steps) in [(130, 32, 4), (170, 16, 3), (1, 1, 3)] {
        check(
            &format!("lstm chain {n}x{hd}x{steps}"),
            &operand(69, n, hd, false),
            |g, fused| lstm_chain(g, fused, n, hd, steps),
        );
    }
}

#[test]
fn gru_chain_matches_composed_bit_for_bit_also_when_x_is_h() {
    // (6, 6) and (2, 6) with x == h: EvolveGCN's weight evolver, whose
    // evolved weights are also consumed downstream; (170, 16): distinct x.
    for (n, hd, x_is_h) in [(6, 6, true), (2, 6, true), (170, 16, false), (1, 1, true)] {
        check(
            &format!("gru chain {n}x{hd} x_is_h={x_is_h}"),
            &operand(79, n, hd, false),
            |g, fused| {
                let cell = [
                    g.param(operand(70, hd, 3 * hd, false)),
                    g.param(operand(71, hd, 3 * hd, false)),
                    g.param(operand(72, 1, 3 * hd, false)),
                ];
                let mut h = if x_is_h {
                    g.param(operand(73, n, hd, false))
                } else {
                    g.input(Matrix::zeros(n, hd))
                };
                let mut evolved = Vec::new();
                for t in 0..3 {
                    let x = if x_is_h {
                        h
                    } else {
                        g.leaf(operand(74 + t, n, hd, false))
                    };
                    h = gru_step(g.gpu, &mut g.tape, fused, [x, h], cell);
                    evolved.push(h);
                }
                g.outs.extend(evolved.iter().copied());
                // Every step's state feeds the loss, as every evolved weight
                // feeds its snapshot's GCN update.
                let mut root = evolved[0];
                for &w in &evolved[1..] {
                    root = g.tape.add(g.gpu, root, w, RNN).unwrap();
                }
                root
            },
        );
    }
}

#[test]
fn tgcn_chain_matches_composed_bit_for_bit() {
    for (n, hd) in [(12_000, 6), (170, 16), (1, 1)] {
        check(
            &format!("tgcn chain {n}x{hd}"),
            &operand(89, n, hd, false),
            |g, fused| {
                let us = [80, 81, 82].map(|s| g.param(operand(s, hd, hd, false)));
                let mut h = g.input(Matrix::zeros(n, hd));
                for t in 0..3 {
                    let gates = [0, 1, 2].map(|k| g.leaf(operand(83 + 3 * t + k, n, hd, false)));
                    let [zx, rx, nx] = gates;
                    h = tgcn_step(g.gpu, &mut g.tape, fused, [zx, rx, nx, h], us);
                }
                g.outs.push(h);
                h
            },
        );
    }
}

// ---- launch structure ---------------------------------------------------------------

fn count(launches: &[&str], name: &str) -> usize {
    launches.iter().filter(|&&l| l == name).count()
}

#[test]
fn a_cell_step_is_two_gemms_and_one_pointwise_launch_each_way() {
    let seed = operand(99, 5, 4, false);
    let (_, lstm) = evaluate(1, &seed, |g| {
        let x = g.leaf(operand(90, 5, 4, false));
        let h = g.leaf(operand(91, 5, 4, false));
        let c = g.leaf(operand(92, 5, 4, false));
        let w = [93, 94].map(|s| g.param(operand(s, 4, 16, false)));
        let b = g.param(operand(95, 1, 16, false));
        lstm_step(g.gpu, &mut g.tape, true, [x, h, c], [w[0], w[1], b]).0
    });
    // forward: 2 gemm + lstm_cell; backward: lstm_cell_grad + col_sums (bias)
    // + 2 × (gemm_nt, gemm_tn).
    assert_eq!(
        lstm,
        [
            "gemm",
            "gemm",
            "lstm_cell",
            "lstm_cell_grad",
            "col_sums",
            "gemm_nt",
            "gemm_tn",
            "gemm_nt",
            "gemm_tn"
        ]
    );

    let (_, gru) = evaluate(1, &seed, |g| {
        let x = g.leaf(operand(90, 5, 4, false));
        let h = g.leaf(operand(91, 5, 4, false));
        let w = [93, 94].map(|s| g.param(operand(s, 4, 12, false)));
        let b = g.param(operand(95, 1, 12, false));
        gru_step(g.gpu, &mut g.tape, true, [x, h], [w[0], w[1], b])
    });
    // h receives the cell's dh and then gh's GEMM gradient, which takes it
    // as its accumulate operand: no `add`.
    assert_eq!(
        gru,
        [
            "gemm",
            "gemm",
            "gru_cell",
            "gru_cell_grad",
            "col_sums",
            "gemm_nt",
            "gemm_tn",
            "gemm_nt",
            "gemm_tn"
        ]
    );
    for one_op in ["scale", "hadamard", "sigmoid", "tanh", "add_bias"] {
        assert_eq!(count(&lstm, one_op) + count(&gru, one_op), 0, "{one_op}");
    }
}

#[test]
fn an_lstm_whose_h_is_unused_still_backpropagates_through_c() {
    // Backward from c′ alone: the cell node has no gradient of its own.
    let seed = operand(109, 3, 2, false);
    let build = |g: &mut Graph<'_>, fused: bool| {
        let gx = g.leaf(operand(100, 3, 8, false));
        let gh = g.leaf(operand(101, 3, 8, false));
        let b = g.leaf(operand(102, 1, 8, false));
        let c = g.leaf(operand(103, 3, 2, false));
        if fused {
            g.tape.lstm_cell(g.gpu, gx, gh, b, c, RNN).unwrap().1
        } else {
            lstm_gates_composed(g.gpu, &mut g.tape, [gx, gh, b, c]).1
        }
    };
    let (fused, _) = evaluate(1, &seed, |g| build(g, true));
    let (composed, _) = evaluate(1, &seed, |g| build(g, false));
    for (f, c) in fused.iter().zip(&composed) {
        let (f, c) = (f.as_ref().unwrap(), c.as_ref().unwrap());
        assert!(f.approx_eq(c, 0.0), "fused {f:?} composed {c:?}");
    }
}
