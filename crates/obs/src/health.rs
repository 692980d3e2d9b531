//! Per-parameter-group training-health telemetry.
//!
//! Every optimizer step, the optimizers in `metalora-nn` push one
//! [`HealthRecord`] per parameter group (a group is a layer: the param
//! name up to its last `.` segment): the group's gradient L2 norm, the
//! update-to-weight ratio `‖Δw‖ / ‖w‖`, the pre-update weight norm, and
//! NaN/Inf sentinel counts over the gradients. The MetaLoRA mapping nets
//! additionally probe the *seeds* they generate (group `mapping/seed`,
//! with the seed norm in `weight_norm`), so CP vs TR seed-generation
//! health is directly comparable in run logs.
//!
//! Every step is recorded while instrumentation is on. Probing is purely
//! passive: the extra norm accumulations run in `f64` side variables and
//! never feed back into the update, so numerics are bit-identical with
//! health recording on or off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cap on buffered records; once reached, further records are counted in
/// [`dropped`] instead of growing the buffer.
pub const MAX_RECORDS: usize = 1 << 16;

/// Health of one parameter group at one step.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRecord {
    /// Span path active when the record was taken (`"adapt/MetaLoraCp"`).
    pub phase: String,
    /// Parameter group — the param name up to its last `.` segment, or
    /// `mapping/seed` for seed-generation probes.
    pub group: String,
    /// Observed-step index (optimizer steps and seed probes count on
    /// separate clocks).
    pub step: u64,
    /// Gradient L2 norm over the group (`NaN` when not applicable, e.g.
    /// seed probes; serialised as `null`).
    pub grad_norm: f64,
    /// `‖Δw‖ / ‖w‖` for this step (`NaN` when not applicable).
    pub update_ratio: f64,
    /// Pre-update weight L2 norm (seed probes: mean per-sample seed norm).
    pub weight_norm: f64,
    /// NaN entries seen in the group's gradients (seed probes: in the
    /// seed batch).
    pub nan_count: u64,
    /// Inf entries seen in the group's gradients (seed probes: in the
    /// seed batch).
    pub inf_count: u64,
}

static RECORDS: Mutex<Vec<HealthRecord>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);
static OPT_STEPS: AtomicU64 = AtomicU64::new(0);
static SEED_STEPS: AtomicU64 = AtomicU64::new(0);

fn sample(counter: &AtomicU64) -> Option<u64> {
    crate::enabled().then(|| counter.fetch_add(1, Ordering::Relaxed))
}

/// Marks one optimizer step; `Some(step)` when instrumentation is on
/// (every step is probed), `None` otherwise.
#[inline]
pub fn begin_step() -> Option<u64> {
    sample(&OPT_STEPS)
}

/// Marks one seed-generation pass (separate clock from optimizer steps);
/// `Some(step)` when instrumentation is on.
#[inline]
pub fn begin_seed_probe() -> Option<u64> {
    sample(&SEED_STEPS)
}

/// Appends one record (no-op when instrumentation is disabled). The
/// record's `phase` is the calling thread's current span path.
#[allow(clippy::too_many_arguments)]
pub fn record(
    group: &str,
    step: u64,
    grad_norm: f64,
    update_ratio: f64,
    weight_norm: f64,
    nan_count: u64,
    inf_count: u64,
) {
    if !crate::enabled() {
        return;
    }
    let phase = crate::span::current_path();
    let mut records = RECORDS.lock().unwrap_or_else(|e| e.into_inner());
    if records.len() >= MAX_RECORDS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    records.push(HealthRecord {
        phase,
        group: group.to_string(),
        step,
        grad_norm,
        update_ratio,
        weight_norm,
        nan_count,
        inf_count,
    });
}

/// All buffered records in insertion order.
pub fn snapshot() -> Vec<HealthRecord> {
    RECORDS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Records discarded after the buffer hit [`MAX_RECORDS`].
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Clears all records, the dropped counter and both step clocks.
pub fn reset() {
    RECORDS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    DROPPED.store(0, Ordering::Relaxed);
    OPT_STEPS.store(0, Ordering::Relaxed);
    SEED_STEPS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    #[test]
    fn disabled_neither_samples_nor_records() {
        let _g = lock();
        crate::set_enabled(false);
        assert!(begin_step().is_none());
        record("g", 0, 1.0, 0.1, 2.0, 0, 0);
        crate::set_enabled(true);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn records_carry_phase_from_span_path() {
        let _g = lock();
        {
            let _s = crate::span::span("adapt");
            record("layer1.conv", 4, 0.5, 0.01, 3.0, 0, 0);
        }
        let snap = snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].phase, "adapt");
        assert_eq!(snap[0].group, "layer1.conv");
        assert_eq!(snap[0].step, 4);
        assert_eq!(snap[0].update_ratio, 0.01);
    }

    #[test]
    fn buffer_caps_and_counts_drops() {
        let _g = lock();
        {
            let mut records = RECORDS.lock().unwrap();
            records.clear();
            records.resize(
                MAX_RECORDS,
                HealthRecord {
                    phase: String::new(),
                    group: "pad".into(),
                    step: 0,
                    grad_norm: 0.0,
                    update_ratio: 0.0,
                    weight_norm: 0.0,
                    nan_count: 0,
                    inf_count: 0,
                },
            );
        }
        record("overflow", 1, 1.0, 1.0, 1.0, 0, 0);
        assert_eq!(dropped(), 1);
        assert_eq!(snapshot().len(), MAX_RECORDS);
        reset();
        assert_eq!(dropped(), 0);
        assert!(snapshot().is_empty());
    }
}
