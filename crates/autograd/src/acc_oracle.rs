//! `to_bits` oracle for gradient accumulation in the producer's epilogue:
//! every leaf gradient of a graph whose nodes receive several contributions
//! through [`k::gemm_nt_device`], [`k::gemm_tn_device`], [`k::hadamard`] or
//! [`k::col_sums`] with the gradient so far as the accumulate operand,
//! against the pair they replaced — the bare product, then
//! `k::add(prev, product)` — which `Tape::unfused` keeps alive for tests.

use crate::rnn_oracle::{evaluate, operand, Graph};
use crate::Var;
use pipad_gpu_sim::KernelCategory;
use pipad_kernels as k;
use pipad_tensor::Matrix;

const CAT: KernelCategory = KernelCategory::Rnn;
/// `(rows, width)`: the workloads' recurrent shapes, one tall enough for the
/// host loops to band across pool threads, and the degenerate one.
const SHAPES: [(usize, usize); 4] = [(130, 32), (12_000, 6), (5, 3), (1, 1)];

/// Every graph below sums three branches with two forward `Tape::add`s.
const FORWARD_ADDS: usize = 2;

/// `add` launches of the reverse sweep.
fn adds(launches: &[&str]) -> usize {
    launches.iter().filter(|&&l| l == "add").count() - FORWARD_ADDS
}

/// Both builds of `build` agree on every leaf gradient, bit for bit; the
/// unfused one pays `unfused_adds` launches of `add`, the fused one
/// `fused_adds` (contributions that arrive as an existing shared buffer).
#[track_caller]
fn check(
    what: &str,
    seed: &Matrix,
    (fused_adds, unfused_adds): (usize, usize),
    build: impl Fn(&mut Graph<'_>) -> Var,
) {
    let (oracle, pair_launches) = evaluate(1, seed, |g| {
        g.tape.unfused = true;
        build(g)
    });
    assert_eq!(adds(&pair_launches), unfused_adds, "{what}: oracle adds");
    for threads in [1, 2, 7] {
        let (fused, launches) = evaluate(threads, seed, &build);
        assert_eq!(adds(&launches), fused_adds, "{what}: fused adds");
        assert_eq!(
            launches.len() + unfused_adds - fused_adds,
            pair_launches.len(),
            "{what}: nothing but the adds went away"
        );
        assert_eq!(fused.len(), oracle.len());
        for (i, (f, o)) in fused.iter().zip(&oracle).enumerate() {
            let (f, o) = (f.as_ref().unwrap(), o.as_ref().unwrap());
            for (j, (a, b)) in f.as_slice().iter().zip(o.as_slice()).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{what} @ {threads} threads: leaf {i}[{j}]: fused {a:e} vs pair {b:e}"
                );
            }
        }
    }
}

#[test]
fn both_gemm_gradients_fold_the_gradient_so_far() {
    for (n, d) in SHAPES {
        for specials in [false, true] {
            // x and w are each used three times: two folds apiece.
            check(
                &format!("matmul {n}x{d} sp={specials}"),
                &operand(9, n, d, specials),
                (0, 4),
                |g| {
                    let x = g.leaf(operand(1, n, d, specials));
                    let w = g.param(operand(2, d, d, specials));
                    let ys = [0; 3].map(|_| g.tape.matmul(g.gpu, x, w, CAT).unwrap());
                    let sum = g.tape.add(g.gpu, ys[0], ys[1], CAT).unwrap();
                    g.tape.add(g.gpu, sum, ys[2], CAT).unwrap()
                },
            );
        }
    }
}

#[test]
fn hadamard_gradients_fold_the_gradient_so_far() {
    for (n, d) in SHAPES {
        for specials in [false, true] {
            // a ⊙ b twice, and a ⊙ a: a gets 2 + 2 contributions, b gets 2.
            check(
                &format!("hadamard {n}x{d} sp={specials}"),
                &operand(9, n, d, specials),
                (0, 4),
                |g| {
                    let a = g.leaf(operand(1, n, d, specials));
                    let b = g.leaf(operand(2, n, d, specials));
                    let ab = [0; 2].map(|_| g.tape.hadamard(g.gpu, a, b, CAT).unwrap());
                    let aa = g.tape.hadamard(g.gpu, a, a, CAT).unwrap();
                    let sum = g.tape.add(g.gpu, ab[0], ab[1], CAT).unwrap();
                    g.tape.add(g.gpu, sum, aa, CAT).unwrap()
                },
            );
        }
    }
}

#[test]
fn bias_gradients_fold_the_gradient_so_far() {
    for (n, d) in SHAPES {
        for specials in [false, true] {
            // The bias is added three times. `x` gets the upstream itself
            // three times over — shared buffers, which stay `add`s.
            check(
                &format!("add_bias {n}x{d} sp={specials}"),
                &operand(9, n, d, specials),
                (2, 4),
                |g| {
                    let x = g.leaf(operand(1, n, d, specials));
                    let b = g.param(operand(2, 1, d, specials));
                    let ys = [0; 3].map(|_| g.tape.add_bias(g.gpu, x, b, CAT).unwrap());
                    let sum = g.tape.add(g.gpu, ys[0], ys[1], CAT).unwrap();
                    g.tape.add(g.gpu, sum, ys[2], CAT).unwrap()
                },
            );
        }
    }
}

#[test]
fn an_operand_shared_with_another_node_is_read_not_written() {
    // root = p·w + (p + q): `Op::Add` hands the one upstream buffer to the
    // product, to `p` and to `q`; the product's backward then folds `p`'s
    // handle on it into `gemm_nt`. `q` must still hold the upstream, to the
    // bit, and the shared buffer must be freed exactly once (`evaluate`
    // checks the device is back to its parameters).
    for (n, d) in SHAPES {
        let seed = operand(9, n, d, true);
        let build = |g: &mut Graph<'_>| {
            let p = g.leaf(operand(1, n, d, true));
            let q = g.leaf(operand(2, n, d, true));
            let w = g.param(operand(3, d, d, true));
            let pw = g.tape.matmul(g.gpu, p, w, CAT).unwrap();
            let pq = g.tape.add(g.gpu, p, q, CAT).unwrap();
            g.tape.add(g.gpu, pw, pq, CAT).unwrap()
        };
        check(&format!("shared operand {n}x{d}"), &seed, (0, 1), build);
        let (grads, _) = evaluate(1, &seed, build);
        let dq = grads[1].as_ref().unwrap();
        for (a, b) in dq.as_slice().iter().zip(seed.as_slice()) {
            assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
        }
    }
}

#[test]
fn each_producer_matches_its_product_then_add() {
    // The kernels themselves, outside any tape: `f(.., Some(prev))` against
    // `add(prev, f(.., None))`.
    let mut gpu = pipad_gpu_sim::Gpu::new(pipad_gpu_sim::DeviceConfig::v100());
    let s = gpu.default_stream();
    let mut dev = |m: Matrix| k::DeviceMatrix::alloc(&mut gpu, m).unwrap();
    let (a, b) = (dev(operand(1, 7, 5, true)), dev(operand(2, 7, 5, true)));
    let (at, w) = (dev(operand(3, 5, 7, true)), dev(operand(4, 5, 5, true)));
    let (prev, prev_row) = (dev(operand(5, 7, 5, true)), dev(operand(6, 1, 5, true)));
    type Producer<'a> =
        &'a dyn Fn(&mut pipad_gpu_sim::Gpu, Option<&k::DeviceMatrix>) -> k::DeviceMatrix;
    let producers: [(Producer<'_>, &k::DeviceMatrix); 4] = [
        (
            &|g, acc| k::gemm_nt_device(g, s, &a, &w, acc, CAT).unwrap(),
            &prev,
        ),
        (
            &|g, acc| k::gemm_tn_device(g, s, &at, &w, 5, acc, CAT).unwrap(),
            &prev,
        ),
        (
            &|g, acc| k::hadamard(g, s, &a, &b, acc, CAT).unwrap(),
            &prev,
        ),
        (
            &|g, acc| k::col_sums(g, s, &a, acc, CAT).unwrap(),
            &prev_row,
        ),
    ];
    for (produce, prev) in producers {
        let kept = prev.host().clone();
        let fused = produce(&mut gpu, Some(prev));
        let product = produce(&mut gpu, None);
        let pair = k::add(&mut gpu, s, prev, &product, CAT).unwrap();
        for (x, y) in fused.host().as_slice().iter().zip(pair.host().as_slice()) {
            assert!(x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()));
        }
        for (x, y) in prev.host().as_slice().iter().zip(kept.as_slice()) {
            assert!(x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()));
        }
    }
}
