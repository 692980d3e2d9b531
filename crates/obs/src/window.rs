//! Sliding-window primitives behind the live metrics registry: the
//! pluggable telemetry clock and a ring-of-buckets windowed histogram.
//!
//! ## Clock determinism contract
//!
//! Everything time-based in [`crate::registry`] / [`crate::slo`] reads
//! [`now_ns`], which has two modes:
//!
//! * [`ClockMode::Monotonic`] (production default) — nanoseconds since
//!   the shared process epoch ([`crate::trace::now_ns`]), so registry
//!   timestamps line up with trace-event timestamps.
//! * [`ClockMode::Logical`] (tests and the `serve` artifact driver) — a
//!   process-global counter that advances by [`LOGICAL_TICK_NS`] on
//!   **every read**. Telemetry only ever reads the clock from
//!   sequentially-executed code (the engine's per-batch loop, the
//!   batcher, snapshotting) and never from inside a kernel, so under the
//!   logical clock the read sequence — and therefore every recorded
//!   latency, window bucket, and the run log's registry snapshot — is
//!   bit-identical across runs. That is what lets the telemetry tests and
//!   the CI run-log check compare telemetry exactly.
//!
//! [`WindowHistogram`] keeps a ring of [`LogHistogram`] buckets, each
//! covering `window / buckets` of time; recording lazily reclaims buckets
//! whose epoch has rotated out, and a query merges the still-live buckets
//! via [`LogHistogram::merge_from`]. The merged count is also the
//! window's rate: [`crate::registry`] reports it over the window length.

use crate::hist::LogHistogram;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Amount the logical clock advances per [`now_ns`] read: 1 µs.
pub const LOGICAL_TICK_NS: u64 = 1_000;

/// Source feeding [`now_ns`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockMode {
    /// Nanoseconds since the process epoch (shared with `obs::trace`).
    Monotonic,
    /// Deterministic counter advancing [`LOGICAL_TICK_NS`] per read.
    Logical,
}

const MODE_MONOTONIC: u8 = 0;
const MODE_LOGICAL: u8 = 1;

static CLOCK_MODE: AtomicU8 = AtomicU8::new(MODE_MONOTONIC);
static LOGICAL_NOW: AtomicU64 = AtomicU64::new(0);

/// Current clock mode.
fn clock_mode() -> ClockMode {
    match CLOCK_MODE.load(Ordering::Relaxed) {
        MODE_LOGICAL => ClockMode::Logical,
        _ => ClockMode::Monotonic,
    }
}

/// Short label for the run log's registry snapshot: `"monotonic"` or
/// `"logical"`.
pub fn clock_label() -> &'static str {
    match clock_mode() {
        ClockMode::Monotonic => "monotonic",
        ClockMode::Logical => "logical",
    }
}

/// Selects the clock source. Switching to [`ClockMode::Logical`] also
/// rewinds the logical counter to zero so a run always starts from a
/// known origin.
pub fn set_clock(mode: ClockMode) {
    if mode == ClockMode::Logical {
        LOGICAL_NOW.store(0, Ordering::Relaxed);
    }
    CLOCK_MODE.store(
        match mode {
            ClockMode::Monotonic => MODE_MONOTONIC,
            ClockMode::Logical => MODE_LOGICAL,
        },
        Ordering::Relaxed,
    );
}

/// Current telemetry time in nanoseconds. In logical mode every call
/// advances time by [`LOGICAL_TICK_NS`] and returns the *new* value, so
/// two consecutive reads always differ by exactly one tick.
pub fn now_ns() -> u64 {
    match clock_mode() {
        ClockMode::Monotonic => crate::trace::now_ns(),
        ClockMode::Logical => {
            LOGICAL_NOW.fetch_add(LOGICAL_TICK_NS, Ordering::Relaxed) + LOGICAL_TICK_NS
        }
    }
}

/// Number of ring buckets a [`WindowHistogram`] carries.
pub const WINDOW_BUCKETS: usize = 8;

struct Bucket {
    /// `now_ns / bucket_ns` when this bucket was last (re)started;
    /// `u64::MAX` marks never-used.
    epoch: u64,
    hist: LogHistogram,
}

/// A sliding-window histogram: a ring of [`WINDOW_BUCKETS`] log-linear
/// histograms, each covering `window_ns / WINDOW_BUCKETS`. Samples older
/// than the window age out bucket-at-a-time (coarsest granularity one
/// bucket), which bounds memory at `WINDOW_BUCKETS` histograms while
/// giving true windowed quantiles rather than since-start aggregates.
pub struct WindowHistogram {
    bucket_ns: u64,
    buckets: Vec<Bucket>,
}

impl WindowHistogram {
    /// A window covering `window_ns` of clock time.
    pub fn new(window_ns: u64) -> Self {
        let bucket_ns = (window_ns / WINDOW_BUCKETS as u64).max(1);
        WindowHistogram {
            bucket_ns,
            buckets: (0..WINDOW_BUCKETS)
                .map(|_| Bucket {
                    epoch: u64::MAX,
                    hist: LogHistogram::new(),
                })
                .collect(),
        }
    }

    fn epoch_of(&self, now_ns: u64) -> u64 {
        now_ns / self.bucket_ns
    }

    /// Records `value` at time `now_ns`, reclaiming the target ring slot
    /// first if its resident bucket has rotated out.
    pub fn record(&mut self, now_ns: u64, value: u64) {
        let epoch = self.epoch_of(now_ns);
        let slot = (epoch % WINDOW_BUCKETS as u64) as usize;
        let b = &mut self.buckets[slot];
        if b.epoch != epoch {
            b.epoch = epoch;
            b.hist = LogHistogram::new();
        }
        b.hist.record(value);
    }

    /// Merges the buckets still inside the window ending at `now_ns` into
    /// one histogram. A bucket is live while its epoch is within
    /// [`WINDOW_BUCKETS`] of the current epoch.
    pub fn merged(&self, now_ns: u64) -> LogHistogram {
        let current = self.epoch_of(now_ns);
        let mut out = LogHistogram::new();
        for b in &self.buckets {
            if b.epoch != u64::MAX && b.epoch + WINDOW_BUCKETS as u64 > current {
                out.merge_from(&b.hist);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_ticks_per_read_and_resets() {
        let _g = crate::tests::lock();
        set_clock(ClockMode::Logical);
        let a = now_ns();
        let b = now_ns();
        assert_eq!(a, LOGICAL_TICK_NS);
        assert_eq!(b - a, LOGICAL_TICK_NS);
        set_clock(ClockMode::Logical);
        assert_eq!(now_ns(), LOGICAL_TICK_NS);
        set_clock(ClockMode::Monotonic);
        assert_eq!(clock_label(), "monotonic");
    }

    #[test]
    fn monotonic_clock_is_nondecreasing() {
        let _g = crate::tests::lock();
        set_clock(ClockMode::Monotonic);
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn window_keeps_recent_and_expires_old() {
        let w_ns = 8_000; // bucket_ns = 1000
        let mut w = WindowHistogram::new(w_ns);
        w.record(500, 10); // epoch 0
        w.record(1_500, 20); // epoch 1
        let m = w.merged(1_600);
        assert_eq!(m.count(), 2);
        assert_eq!(m.quantile(0.0), 10);
        assert_eq!(m.quantile(1.0), 20);
        // Advance past the window: epoch 0 ages out first, then epoch 1.
        assert_eq!(w.merged(8_500).count(), 1, "epoch 0 should have aged out");
        assert_eq!(w.merged(8_500).quantile(1.0), 20);
        assert_eq!(w.merged(9_500).count(), 0, "epoch 1 should have aged out");
        // Recording into a reclaimed slot clears the stale bucket.
        w.record(8_500, 30); // epoch 8 reuses epoch-0's slot
        assert_eq!(w.merged(8_600).count(), 2);
    }

    #[test]
    fn window_merged_matches_plain_histogram_inside_window() {
        let mut w = WindowHistogram::new(1 << 30);
        let mut h = LogHistogram::new();
        for (i, v) in (1..=200u64).enumerate() {
            w.record(i as u64 * 1_000, v);
            h.record(v);
        }
        let m = w.merged(200_000);
        assert_eq!(m.count(), h.count());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(m.quantile(q), h.quantile(q));
        }
    }
}
