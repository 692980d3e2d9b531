//! The training-loop metrics sink.
//!
//! `metalora_nn::train::Epoch::record` pushes one [`EpochRecord`] here per
//! pretraining epoch and per adaptation run when instrumentation is
//! enabled. Records are grouped by `phase` — by
//! convention the current span path (`"pretrain"`, `"adapt/Lora"`) — and
//! the epoch index auto-increments within a phase.

use std::sync::Mutex;

/// One epoch (or adaptation run) of training.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Phase label, usually the span path active during the epoch.
    pub phase: String,
    /// Epoch index within the phase (assigned at record time).
    pub epoch: usize,
    /// Mean loss over batches.
    pub loss: f64,
    /// Mean accuracy over batches.
    pub accuracy: f64,
    /// Mean global gradient L2 norm over batches (`NaN` when not
    /// measured; serialised as `null`).
    pub grad_norm: f64,
    /// Wall-clock seconds the epoch took.
    pub wall_s: f64,
}

static EPOCHS: Mutex<Vec<EpochRecord>> = Mutex::new(Vec::new());

/// Appends an epoch record under `phase`, assigning the next epoch index
/// for that phase. No-op when instrumentation is disabled.
pub fn record_epoch(phase: &str, loss: f64, accuracy: f64, grad_norm: f64, wall_s: f64) {
    if !crate::enabled() {
        return;
    }
    let mut epochs = EPOCHS.lock().unwrap_or_else(|e| e.into_inner());
    let epoch = epochs.iter().filter(|r| r.phase == phase).count();
    epochs.push(EpochRecord {
        phase: phase.to_string(),
        epoch,
        loss,
        accuracy,
        grad_norm,
        wall_s,
    });
}

/// All records in insertion order.
pub fn snapshot() -> Vec<EpochRecord> {
    EPOCHS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Clears all records.
pub fn reset() {
    EPOCHS.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    #[test]
    fn epoch_index_increments_per_phase() {
        let _g = lock();
        record_epoch("pretrain", 2.0, 0.1, 1.0, 0.5);
        record_epoch("pretrain", 1.5, 0.3, 0.8, 0.5);
        record_epoch("adapt/Lora", 1.0, 0.5, 0.2, 0.1);
        record_epoch("pretrain", 1.2, 0.4, 0.6, 0.5);
        let snap = snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(
            snap.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![0, 1, 0, 2]
        );
        assert_eq!(snap[2].phase, "adapt/Lora");
        assert_eq!(snap[1].loss, 1.5);
    }
}
