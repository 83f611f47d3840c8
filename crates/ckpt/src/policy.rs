//! When and where to checkpoint.

use std::path::PathBuf;

/// Checkpointing schedule for a training run: directory, cadence and
/// retention.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPolicy {
    /// Directory holding `ckpt-<epoch:08>.pipad` files.
    pub dir: PathBuf,
    /// Write a checkpoint after every `every_epochs` completed epochs
    /// (`0` disables writing; restore-on-start still applies).
    pub every_epochs: usize,
    /// Keep this many newest checkpoints (`0` = keep all).
    pub keep: usize,
}

impl CheckpointPolicy {
    /// Policy writing every `every_epochs` epochs into `dir`, keeping the
    /// 2 newest checkpoints.
    pub fn new(dir: impl Into<PathBuf>, every_epochs: usize) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every_epochs,
            keep: 2,
        }
    }

    /// Should a checkpoint be written at the *end* of `epoch`
    /// (0-indexed)? True when `epoch + 1` is a multiple of the cadence,
    /// so `every_epochs = 2` checkpoints after epochs 1, 3, 5, …
    pub fn should_write(&self, epoch: usize) -> bool {
        self.every_epochs > 0 && (epoch + 1).is_multiple_of(self.every_epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_counts_completed_epochs() {
        let p = CheckpointPolicy::new("/tmp/x", 2);
        let wrote: Vec<usize> = (0..6).filter(|&e| p.should_write(e)).collect();
        assert_eq!(wrote, [1, 3, 5]);
        let off = CheckpointPolicy::new("/tmp/x", 0);
        assert!((0..6).all(|e| !off.should_write(e)));
    }
}
