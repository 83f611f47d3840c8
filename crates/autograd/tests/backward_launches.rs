//! The reverse sweep accumulates where it produces: a training frame of
//! every model launches no `add` of its own in backward (each second and
//! later contribution to a weight, a bias or a recurrent state rides its
//! producer's accumulate operand).

use pipad_autograd::Tape;
use pipad_gpu_sim::{DeviceConfig, Gpu};
use pipad_models::{build_model, DirectExecutor, ModelKind};
use pipad_sparse::Csr;
use pipad_tensor::{seeded_rng, uniform, Matrix};

#[test]
fn a_training_frame_launches_no_add_in_backward() {
    let (n, window, dim, hidden) = (6, 4, 3, 5);
    let mut rng = seeded_rng(21);
    let ring: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|v| [(v, (v + 1) % n as u32), ((v + 1) % n as u32, v)])
        .collect();
    let frame: Vec<(Csr, Matrix)> = (0..window)
        .map(|_| (Csr::from_edges(n, n, &ring), uniform(&mut rng, n, dim, 1.0)))
        .collect();
    for kind in ModelKind::ALL {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let stream = gpu.default_stream();
        let model = build_model(&mut gpu, kind, dim, hidden, 3).unwrap();
        let target = uniform(&mut rng, n, model.out_dim(), 0.5);
        let slots: Vec<(&Csr, &Matrix)> = frame.iter().map(|(a, f)| (a, f)).collect();
        let mut exec = DirectExecutor::new(&slots);
        let mut tape = Tape::new(stream);
        let out = model.forward_frame(&mut gpu, &mut tape, &mut exec).unwrap();
        let forward = gpu.profiler().snapshot();
        tape.backward_mse(&mut gpu, out.pred, &target).unwrap();
        let backward = gpu.profiler().samples().since(forward);
        let launched = |name: &str| backward.iter().filter(|s| s.name == name).count();
        assert_eq!(launched("add"), 0, "{kind:?}");
        // The sweep did run, and did accumulate: a weight used at every
        // timestep gets `window` contributions.
        assert!(launched("gemm_tn") >= window, "{kind:?}");
        for b in out.binder.bindings() {
            assert!(tape.grad(b.var).is_some(), "{kind:?}: {}", b.param.name);
        }
        tape.finish(&mut gpu);
    }
}
