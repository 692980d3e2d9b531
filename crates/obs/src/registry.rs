//! Live metrics registry: counters, gauges and latency histograms keyed
//! by `(metric name, label)`, and the telemetry clock they are read
//! against.
//!
//! Unlike [`crate::counters`] (a fixed set of process-lifetime atomics)
//! the registry holds *labeled families* — `serve_requests_total` keyed
//! by tenant, `serve_batches_by_size_total` keyed by batch signature —
//! and its latency families are whole-run [`LogHistogram`]s, the same
//! kind [`crate::span`](mod@crate::span) aggregates durations into: a reading covers every
//! sample since the last [`reset`]. It also keeps a bounded ring of
//! tail-latency [`Attribution`] samples: for each request slower than the
//! SLO target, which pipeline stage dominated.
//!
//! Gating mirrors `obs::trace`: records are dropped unless the global
//! `METALORA_OBS` switch *and* the `METALORA_OBS_METRICS` flag (or
//! [`set_enabled`]) are on, so the serving hot path pays one relaxed
//! atomic load when telemetry is off. Recording never changes numerics —
//! the registry is purely passive, and the golden pipeline proves it
//! bit-exact either way.
//!
//! ## Clock determinism contract
//!
//! Every stage timing the serving engine records, and the snapshot's
//! `now_ns` stamp, read [`now_ns`], which has two modes:
//!
//! * [`ClockMode::Monotonic`] (production default) — nanoseconds since
//!   the shared process epoch ([`crate::trace::now_ns`]), so registry
//!   timestamps line up with trace-event timestamps.
//! * [`ClockMode::Logical`] (tests and the `serve` artifact driver) — a
//!   process-global counter that advances by [`LOGICAL_TICK_NS`] on
//!   **every read**. Telemetry only ever reads the clock from
//!   sequentially-executed code (the engine's per-batch loop and
//!   snapshotting) and never from inside a kernel, so under the logical
//!   clock the read sequence — and therefore every recorded latency and
//!   the run log's registry snapshot — is bit-identical across runs. That
//!   is what lets the telemetry tests and the CI run-log check compare
//!   telemetry exactly.

use crate::hist::LogHistogram;
use crate::Switch;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

static METRICS: Switch = Switch::new("METALORA_OBS_METRICS");

/// `true` when the registry is recording: requires the crate-wide switch
/// ([`crate::enabled`]) *and* `METALORA_OBS_METRICS` / [`set_enabled`].
#[inline(always)]
pub fn enabled() -> bool {
    crate::enabled() && METRICS.get()
}

/// Switches metric recording on or off, overriding `METALORA_OBS_METRICS`
/// (the crate-wide switch must also be on for records to land).
pub fn set_enabled(on: bool) {
    METRICS.set(on);
}

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

/// Pipeline stages a request's latency is attributed across, in the
/// order they appear in [`Attribution::stage_ns`].
pub const STAGES: [&str; 3] = ["cache", "mapping", "gemm"];

/// A tail-latency sample: one request beyond the SLO target, with its
/// per-stage breakdown.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// Engine-assigned request id.
    pub request_id: u64,
    /// Tenant label.
    pub tenant: String,
    /// Adapter method label (`lora`, `meta_cp`, ...).
    pub method: String,
    /// End-to-end latency: the sum of its stages.
    pub total_ns: u64,
    /// Per-stage nanoseconds, indexed like [`STAGES`].
    pub stage_ns: [u64; 3],
}

impl Attribution {
    /// Name of the stage with the largest share (first wins ties).
    pub fn dominant_stage(&self) -> &'static str {
        let mut best = 0;
        for (i, &ns) in self.stage_ns.iter().enumerate() {
            if ns > self.stage_ns[best] {
                best = i;
            }
        }
        STAGES[best]
    }
}

/// Bound on retained tail-latency samples; older samples are dropped
/// (counted) once the ring is full.
pub const ATTRIBUTION_CAPACITY: usize = 256;

enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(LogHistogram),
}

#[derive(Default)]
struct Registry {
    metrics: BTreeMap<(String, String), Metric>,
    attributions: VecDeque<Attribution>,
    attributions_dropped: u64,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Registry::default))
}

/// Updates the series `name{label}` with `f`, creating it with `new` on
/// first use. Records nothing while the registry is off.
fn update(name: &str, label: &str, new: impl FnOnce() -> Metric, f: impl FnOnce(&mut Metric)) {
    if enabled() {
        let key = (name.to_string(), label.to_string());
        with_registry(|r| f(r.metrics.entry(key).or_insert_with(new)));
    }
}

/// Adds `n` to the counter `name{label}` (created at zero on first use).
pub fn inc(name: &str, label: &str, n: u64) {
    update(name, label, || Metric::Counter(0), |m| {
        if let Metric::Counter(c) = m {
            *c += n;
        }
    });
}

/// Sets the gauge `name{label}` to `v`.
pub fn gauge_set(name: &str, label: &str, v: f64) {
    update(name, label, || Metric::Gauge(0.0), |m| {
        if let Metric::Gauge(g) = m {
            *g = v;
        }
    });
}

/// Records `value` (nanoseconds, by convention) into the histogram
/// family `name{label}`.
pub fn observe(name: &str, label: &str, value: u64) {
    update(name, label, || Metric::Histogram(LogHistogram::new()), |m| {
        if let Metric::Histogram(h) = m {
            h.record(value);
        }
    });
}

/// Appends a tail-latency sample, evicting (and counting) the oldest once
/// [`ATTRIBUTION_CAPACITY`] is reached.
pub fn record_attribution(a: Attribution) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        if r.attributions.len() >= ATTRIBUTION_CAPACITY {
            r.attributions.pop_front();
            r.attributions_dropped += 1;
        }
        r.attributions.push_back(a);
    });
}

/// A point-in-time reading of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    /// Histogram family: its samples since the last [`reset`] and their
    /// quantiles.
    Histogram {
        count: u64,
        p50_ns: u64,
        p95_ns: u64,
        p99_ns: u64,
    },
}

/// One `(name, label)` row of a [`RegistrySnapshot`].
#[derive(Clone, Debug)]
pub struct MetricRow {
    pub name: String,
    pub label: String,
    pub value: MetricValue,
}

/// Full registry state at one instant, ordered by `(name, label)`.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// Clock reading the snapshot was taken at.
    pub now_ns: u64,
    pub rows: Vec<MetricRow>,
    pub attributions: Vec<Attribution>,
    pub attributions_dropped: u64,
}

/// Snapshots the registry, stamped with the current clock reading.
pub fn snapshot() -> RegistrySnapshot {
    let now_ns = now_ns();
    with_registry(|r| {
        let rows = r
            .metrics
            .iter()
            .map(|((name, label), m)| MetricRow {
                name: name.clone(),
                label: label.clone(),
                value: match m {
                    Metric::Counter(c) => MetricValue::Counter(*c),
                    Metric::Gauge(g) => MetricValue::Gauge(*g),
                    Metric::Histogram(h) => {
                        let (p50_ns, p95_ns, p99_ns) = h.percentiles();
                        MetricValue::Histogram { count: h.count(), p50_ns, p95_ns, p99_ns }
                    }
                },
            })
            .collect();
        RegistrySnapshot {
            now_ns,
            rows,
            attributions: r.attributions.iter().cloned().collect(),
            attributions_dropped: r.attributions_dropped,
        }
    })
}

/// Clears every series and attribution sample (enabled flags and clock
/// mode are left as is).
pub fn reset() {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_windows_round_trip() {
        let _g = crate::tests::lock();
        set_enabled(true);
        inc("requests_total", "7", 3);
        inc("requests_total", "7", 2);
        inc("requests_total", "9", 1);
        gauge_set("resident_bytes", "", 4.0);
        gauge_set("resident_bytes", "", 2.0);
        observe("latency_ns", "7", 500);
        observe("latency_ns", "7", 1_500);
        let snap = snapshot();
        let get = |n: &str, l: &str| {
            snap.rows
                .iter()
                .find(|r| r.name == n && r.label == l)
                .map(|r| r.value.clone())
        };
        assert_eq!(get("requests_total", "7"), Some(MetricValue::Counter(5)));
        assert_eq!(get("requests_total", "9"), Some(MetricValue::Counter(1)));
        assert_eq!(get("resident_bytes", ""), Some(MetricValue::Gauge(2.0)));
        match get("latency_ns", "7") {
            Some(MetricValue::Histogram { count, p50_ns, p99_ns, .. }) => {
                assert_eq!(count, 2);
                assert!(p50_ns >= 500 && p99_ns >= p50_ns);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(snap.rows.len(), 4);
        reset();
        assert!(snapshot().rows.is_empty());
    }

    #[test]
    fn rows_are_ordered_and_deterministic() {
        let _g = crate::tests::lock();
        set_enabled(true);
        inc("b_metric", "2", 1);
        inc("a_metric", "10", 1);
        inc("a_metric", "2", 1);
        let names: Vec<(String, String)> = snapshot()
            .rows
            .iter()
            .map(|r| (r.name.clone(), r.label.clone()))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot rows must be BTreeMap-ordered");
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = crate::tests::lock();
        set_enabled(false);
        inc("x", "", 1);
        gauge_set("y", "", 1.0);
        observe("z", "", 1);
        record_attribution(Attribution {
            request_id: 1,
            tenant: "t".into(),
            method: "lora".into(),
            total_ns: 1,
            stage_ns: [1, 0, 0],
        });
        set_enabled(true);
        let snap = snapshot();
        assert!(snap.rows.is_empty() && snap.attributions.is_empty());
        // Crate-wide switch off also drops records even with metrics on.
        crate::set_enabled(false);
        inc("x", "", 1);
        crate::set_enabled(true);
        assert!(snapshot().rows.is_empty());
    }

    #[test]
    fn attribution_ring_is_bounded_with_exact_drop_count() {
        let _g = crate::tests::lock();
        set_enabled(true);
        let total = ATTRIBUTION_CAPACITY + 37;
        for i in 0..total {
            record_attribution(Attribution {
                request_id: i as u64,
                tenant: "t".into(),
                method: "lora".into(),
                total_ns: 10,
                stage_ns: [0, 0, 10],
            });
        }
        let snap = snapshot();
        assert_eq!(snap.attributions.len(), ATTRIBUTION_CAPACITY);
        assert_eq!(snap.attributions_dropped, 37);
        // Oldest were evicted: the survivors are the most recent ids.
        assert_eq!(snap.attributions[0].request_id, 37);
        assert_eq!(
            snap.attributions.last().unwrap().request_id,
            total as u64 - 1
        );
    }

    #[test]
    fn dominant_stage_picks_argmax() {
        let a = Attribution {
            request_id: 0,
            tenant: "t".into(),
            method: "meta_cp".into(),
            total_ns: 100,
            stage_ns: [5, 60, 25],
        };
        assert_eq!(a.dominant_stage(), "mapping");
        let tie = Attribution {
            stage_ns: [30, 30, 0],
            ..a
        };
        assert_eq!(tie.dominant_stage(), "cache", "first stage wins ties");
    }

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
    fn histograms_cover_every_sample_since_reset() {
        let _g = crate::tests::lock();
        set_enabled(true);
        let mut whole = LogHistogram::new();
        for v in 1..=200 {
            observe("latency_ns", "", v * 1_000);
            whole.record(v * 1_000);
        }
        let (p50_ns, p95_ns, p99_ns) = whole.percentiles();
        let want = MetricValue::Histogram { count: 200, p50_ns, p95_ns, p99_ns };
        assert_eq!(snapshot().rows.first().map(|r| r.value.clone()), Some(want));
        reset();
        observe("latency_ns", "", 7);
        let Some(MetricValue::Histogram { count, p99_ns, .. }) =
            snapshot().rows.first().map(|r| r.value.clone())
        else {
            panic!("expected one histogram row");
        };
        assert_eq!((count, p99_ns), (1, 7), "a reset starts the run over");
    }
}
