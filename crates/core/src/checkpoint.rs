//! The checkpoint codec shared by every single-device trainer (§3.14 of
//! DESIGN.md).
//!
//! A checkpoint captures everything a trainer needs to continue a run *on
//! the same simulated timeline*: model parameters, the per-epoch loss
//! history, the device clock (lane cursors, op counters and the host
//! lane) — written here, once, for all trainers — plus whatever the
//! trainer itself carries across epochs, contributed through
//! [`CkptExtra`]: PiPAD's tuner decisions and recovery flags, and every
//! trainer's [`InterFrameReuse`], whose one encoding lives beside it in
//! [`crate::reuse`] (the device tier lives inside an epoch and is empty at
//! every boundary a checkpoint is written at, so only its budget and
//! counters are written).
//! Restoring replays none of the computation — parameters and cache
//! entries are stored back in place, one-off preparation is recomputed
//! deterministically by the prologue, and the final
//! [`pipad_gpu_sim::Gpu::restore_clock`] erases the prologue's timestamp
//! and counter perturbations. The result: a killed-and-resumed run emits
//! bit-identical losses and byte-identical steady-epoch trace windows.
//!
//! Section layout, in file order (all encoded with [`pipad_ckpt::codec`]):
//!
//! | section     | written by | contents                                        |
//! |-------------|------------|-------------------------------------------------|
//! | `meta`      | codec      | run fingerprint, next epoch, steady-phase `t0`  |
//! |             | + PiPAD    | … recovery flags                                |
//! |             | + store    | … device-tier budget, CPU- and device-tier hits and misses |
//! | `clock`     | codec      | [`DeviceClock`], host lane last                 |
//! | `params`    | codec      | named parameter matrices (raw f32 bits)         |
//! | `tuner`     | PiPAD      | `S_per` decisions, frame profiles, straggler baselines |
//! | `reuse_cpu` | store      | CPU-tier entries (snapshot → matrix), empty for PyGT and PyGT-A |
//! | `faults`    | codec      | [`pipad_gpu_sim::FaultStats`] so far (provenance)  |
//! | `epochs`    | codec      | per-epoch (index, loss bits, simulated time)    |

use crate::driver::RunCx;
use crate::reuse::InterFrameReuse;
use crate::trainer::PipadState;
use crate::tuner::FrameProfile;
use pipad_ckpt::codec::{
    get_device_clock, get_fault_stats, get_list, get_matrix, put_bool, put_device_clock,
    put_fault_stats, put_list, put_matrix, put_str, put_u32, put_u64, Reader,
};
pub use pipad_ckpt::RunFingerprint;
use pipad_ckpt::{Checkpoint, CheckpointWriter, CkptError};
use pipad_gpu_sim::{DeviceClock, SimNanos};
use pipad_models::{DgnnModel, EpochReport, ModelKind, TrainingConfig};

/// Fingerprint of a run of `trainer` on `dataset` with these
/// hyper-parameters (see [`RunFingerprint`]).
pub fn run_fingerprint(
    trainer: &str,
    model: ModelKind,
    dataset: &str,
    hidden: usize,
    cfg: &TrainingConfig,
) -> RunFingerprint {
    RunFingerprint {
        trainer: trainer.to_string(),
        model: model.name().to_string(),
        dataset: dataset.to_string(),
        hidden: hidden as u64,
        window: cfg.window as u64,
        epochs: cfg.epochs as u64,
        preparing: cfg.preparing_epochs as u64,
        lr_bits: cfg.lr.to_bits(),
        seed: cfg.seed,
    }
}

/// Trainer state checkpointed on top of the common sections. Every method
/// defaults to "nothing to add"; the encode and restore halves must mirror
/// each other field for field.
pub trait CkptExtra {
    /// Append trainer fields to the `meta` section, after the common
    /// prefix (fingerprint, next epoch, steady-phase `t0`).
    fn put_meta(&self, _meta: &mut Vec<u8>) {}

    /// Write the trainer's own sections (they land between `params` and
    /// `faults`).
    fn put_sections(&self, _w: &mut CheckpointWriter) {}

    /// Read back what [`CkptExtra::put_meta`] appended.
    fn get_meta(&mut self, _r: &mut Reader<'_>) -> Result<(), CkptError> {
        Ok(())
    }

    /// Read back what [`CkptExtra::put_sections`] wrote.
    fn get_sections(&mut self, _ckpt: &Checkpoint) -> Result<(), CkptError> {
        Ok(())
    }
}

/// PiPAD: recovery flags in `meta` and the `tuner` section, each followed
/// by what the reuse store writes there.
impl CkptExtra for PipadState {
    fn put_meta(&self, meta: &mut Vec<u8>) {
        put_bool(meta, self.sequential_mode);
        put_u32(meta, self.slow_frames);
        put_u64(meta, self.skipped_steps);
        self.reuse.put_meta(meta);
    }

    fn put_sections(&self, w: &mut CheckpointWriter) {
        let tuner = w.section_sized(
            "tuner",
            24 + 8 * self.decisions.len()
                + 24 * self.frame_profiles.len()
                + 8 * self.frame_walls.len(),
        );
        put_list(tuner, &self.decisions, |s, &d| put_u64(s, d as u64));
        put_list(tuner, &self.frame_profiles, |s, p| {
            put_u64(s, p.peak_mem_one_snapshot);
            put_u64(s, p.compute_time.as_nanos());
            put_u64(s, p.transfer_bytes);
        });
        put_list(tuner, &self.frame_walls, |s, w| put_u64(s, w.as_nanos()));
        self.reuse.put_sections(w);
    }

    fn get_meta(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        self.sequential_mode = r.get_bool()?;
        self.slow_frames = r.get_u32()?;
        self.skipped_steps = r.get_u64()?;
        self.reuse.get_meta(r)
    }

    fn get_sections(&mut self, ckpt: &Checkpoint) -> Result<(), CkptError> {
        let mut r = Reader::new(ckpt.require("tuner")?);
        self.decisions = get_list(&mut r, |r| r.get_usize())?;
        self.frame_profiles = get_list(&mut r, |r| {
            Ok(FrameProfile {
                peak_mem_one_snapshot: r.get_u64()?,
                compute_time: SimNanos::from_nanos(r.get_u64()?),
                transfer_bytes: r.get_u64()?,
            })
        })?;
        self.frame_walls = get_list(&mut r, |r| Ok(SimNanos::from_nanos(r.get_u64()?)))?;
        r.finish()?;
        self.reuse.get_sections(ckpt)
    }
}

/// Serialize the run `cx` at the end of epoch `next_epoch - 1` into a
/// [`CheckpointWriter`]: the common sections from the run itself, the
/// trainer's own through `extra`. Section staging buffers are sized
/// exactly, so in a steady-state epoch every buffer comes from (and
/// returns to) the byte pool without heap growth.
pub(crate) fn encode_checkpoint(
    cx: &RunCx<'_>,
    fingerprint: &RunFingerprint,
    next_epoch: usize,
    steady_t0: SimNanos,
    epochs_done: &[EpochReport],
    extra: &dyn CkptExtra,
) -> CheckpointWriter {
    let mut w = CheckpointWriter::new();

    let meta = w.section_sized("meta", 96 + fingerprint.encoded_len());
    fingerprint.put(meta);
    put_u64(meta, next_epoch as u64);
    put_u64(meta, steady_t0.as_nanos());
    extra.put_meta(meta);

    let clock = cx.gpu.clock();
    let s = w.section_sized("clock", 48 + 8 * clock.streams.len());
    put_device_clock(s, &clock);

    let params = cx.model.params();
    let cap: usize = 8 + params
        .iter()
        .map(|p| 4 + p.name.len() + 16 + p.value.borrow().bytes() as usize)
        .sum::<usize>();
    put_list(w.section_sized("params", cap), &params, |s, p| {
        put_str(s, &p.name);
        put_matrix(s, p.value.borrow().host());
    });

    extra.put_sections(&mut w);

    put_fault_stats(w.section_sized("faults", 40), &cx.gpu.fault_stats());

    let s = w.section_sized("epochs", 8 + 20 * epochs_done.len());
    put_list(s, epochs_done, |s, e| {
        // HostAllocStats are deliberately NOT encoded: heap counters vary
        // with `PIPAD_THREADS` and allocator state, and the resume
        // contract is thread-invariant. Nor are eager launches, which a
        // restored device counts from 0. Restored epochs report zeros.
        put_u64(s, e.epoch as u64);
        put_u32(s, e.mean_loss.to_bits());
        put_u64(s, e.sim_time.as_nanos());
    });
    w
}

/// The trainer-independent state a restore hands back — what the epoch
/// driver seeds itself with before entering the loop at `next_epoch`.
pub struct RestoredState {
    /// First epoch to execute.
    pub next_epoch: usize,
    /// Timestamp of the first steady epoch.
    pub steady_t0: SimNanos,
    /// Device timeline, host lane included, to restore *after* the
    /// prologue finishes.
    pub clock: DeviceClock,
    /// Completed epochs (alloc and eager-launch counters zeroed — see
    /// encoding note).
    pub epochs_done: Vec<EpochReport>,
}

/// Restore a checkpoint into a freshly built model and a fresh `extra`.
///
/// Parameters are stored back in place (no kernels, no transfers), the
/// trainer's own state goes through `extra`, and counters/cursors are
/// returned in [`RestoredState`] for the caller to apply via
/// [`pipad_gpu_sim::Gpu::restore_clock`] once the prologue is done. Fails
/// with a typed [`CkptError`] on fingerprint mismatch, unknown parameter
/// names, or shape mismatches — never panics on foreign files.
pub(crate) fn restore_run(
    ckpt: &Checkpoint,
    expect: &RunFingerprint,
    model: &dyn DgnnModel,
    extra: &mut dyn CkptExtra,
) -> Result<RestoredState, CkptError> {
    let mut r = Reader::new(ckpt.require("meta")?);
    let fingerprint = RunFingerprint::get(&mut r)?;
    if &fingerprint != expect {
        return Err(CkptError::Malformed(
            "checkpoint fingerprint does not match this run",
        ));
    }
    let next_epoch = r.get_usize()?;
    let steady_t0 = SimNanos::from_nanos(r.get_u64()?);
    extra.get_meta(&mut r)?;
    r.finish()?;

    let mut r = Reader::new(ckpt.require("clock")?);
    let clock = get_device_clock(&mut r)?;
    r.finish()?;

    let mut r = Reader::new(ckpt.require("params")?);
    let n = r.get_usize()?;
    let live = model.params();
    if n != live.len() {
        return Err(CkptError::Malformed("parameter count mismatch"));
    }
    for p in &live {
        // Saved in `model.params()` order, so names line up positionally;
        // the name check guards against format or model drift.
        let name = r.get_str()?;
        if name != p.name {
            return Err(CkptError::Malformed("parameter name mismatch"));
        }
        let m = get_matrix(&mut r)?;
        let mut dm = p.value.borrow_mut();
        if dm.host().shape() != m.shape() {
            m.recycle();
            return Err(CkptError::Malformed("parameter shape mismatch"));
        }
        dm.store(m);
    }
    r.finish()?;

    extra.get_sections(ckpt)?;

    // Provenance section: nothing to apply, but a malformed one is still
    // a typed error.
    let mut r = Reader::new(ckpt.require("faults")?);
    get_fault_stats(&mut r)?;
    r.finish()?;

    let mut r = Reader::new(ckpt.require("epochs")?);
    let epochs_done = get_list(&mut r, |r| {
        Ok(EpochReport {
            epoch: r.get_usize()?,
            mean_loss: f32::from_bits(r.get_u32()?),
            sim_time: SimNanos::from_nanos(r.get_u64()?),
            alloc: Default::default(),
            eager_launches: 0,
        })
    })?;
    r.finish()?;

    Ok(RestoredState {
        next_epoch,
        steady_t0,
        clock,
        epochs_done,
    })
}

/// Restore a PiPAD checkpoint for *serving*: parameters into `model`, the
/// CPU-tier entries and the device tier's budget into `reuse`. The tuner
/// and recovery state a resumed training run would continue from is
/// validated, then dropped.
pub fn restore_checkpoint(
    ckpt: &Checkpoint,
    expect: &RunFingerprint,
    model: &dyn DgnnModel,
    reuse: &mut InterFrameReuse,
) -> Result<RestoredState, CkptError> {
    let mut state = PipadState::default();
    std::mem::swap(&mut state.reuse, reuse);
    let restored = restore_run(ckpt, expect, model, &mut state);
    std::mem::swap(&mut state.reuse, reuse);
    restored
}
