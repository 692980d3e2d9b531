//! Live metrics registry: counters, gauges, and sliding-window latency
//! families keyed by `(metric name, label)`.
//!
//! Unlike [`crate::counters`] (a fixed set of process-lifetime atomics)
//! the registry holds *labeled families* — `serve_requests_total` keyed
//! by tenant, `serve_batches_by_size_total` keyed by batch signature —
//! and its histogram families are windowed ([`crate::window`]), so a
//! reading reflects the last [`window_secs`] seconds rather
//! than everything since process start. It also keeps a bounded ring of
//! tail-latency [`Attribution`] samples: for each request slower than the
//! SLO target, which pipeline stage dominated.
//!
//! Gating mirrors `obs::trace`: records are dropped unless the global
//! `METALORA_OBS` switch *and* the `METALORA_OBS_METRICS` flag (or
//! [`set_enabled`]) are on, so the serving hot path pays one relaxed
//! atomic load when telemetry is off. Recording never changes numerics —
//! the registry is purely passive, and the golden pipeline proves it
//! bit-exact either way.

use crate::window::{self, Ewma, WindowHistogram};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

const OFF: u8 = 0;
const ON: u8 = 1;
const UNSET: u8 = 2;

static METRICS_ENABLED: AtomicU8 = AtomicU8::new(UNSET);

/// `true` when the registry is recording: requires the crate-wide switch
/// ([`crate::enabled`]) *and* `METALORA_OBS_METRICS` / [`set_enabled`].
#[inline(always)]
pub fn enabled() -> bool {
    if !crate::enabled() {
        return false;
    }
    match METRICS_ENABLED.load(Ordering::Relaxed) {
        OFF => false,
        ON => true,
        _ => enabled_from_env(),
    }
}

#[cold]
fn enabled_from_env() -> bool {
    let on = std::env::var("METALORA_OBS_METRICS")
        .map(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        })
        .unwrap_or(false);
    METRICS_ENABLED.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

/// Switches metric recording on or off, overriding `METALORA_OBS_METRICS`
/// (the crate-wide switch must also be on for records to land).
pub fn set_enabled(on: bool) {
    METRICS_ENABLED.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Default sliding-window length in seconds.
pub const DEFAULT_WINDOW_SECS: u64 = 60;

/// `0` means "unset: [`DEFAULT_WINDOW_SECS`]".
static WINDOW_SECS: AtomicU64 = AtomicU64::new(0);

/// Sliding-window length in seconds: the [`set_window_secs`] override if
/// set, else [`DEFAULT_WINDOW_SECS`].
pub fn window_secs() -> u64 {
    match WINDOW_SECS.load(Ordering::Relaxed) {
        0 => DEFAULT_WINDOW_SECS,
        s => s,
    }
}

/// Overrides the sliding-window length (0 reverts to the default).
/// Affects only windows created after the call.
pub fn set_window_secs(secs: u64) {
    WINDOW_SECS.store(secs, Ordering::Relaxed);
}

/// Pipeline stages a request's latency is attributed across, in the
/// order they appear in [`Attribution::stage_ns`].
pub const STAGES: [&str; 4] = ["queue", "cache", "mapping", "gemm"];

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
    /// End-to-end latency (queue wait included).
    pub total_ns: u64,
    /// Per-stage nanoseconds, indexed like [`STAGES`].
    pub stage_ns: [u64; 4],
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
    Window(Box<(WindowHistogram, Ewma)>),
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

/// Records `value` (nanoseconds, by convention) into the sliding-window
/// family `name{label}` at time `now_ns`, updating its EWMA rate.
pub fn observe(name: &str, label: &str, now_ns: u64, value: u64) {
    let window = || {
        let ns = window_secs().saturating_mul(1_000_000_000);
        Metric::Window(Box::new((WindowHistogram::new(ns), Ewma::new(ns))))
    };
    update(name, label, window, |m| {
        if let Metric::Window(w) = m {
            w.0.record(now_ns, value);
            w.1.observe(now_ns, 1);
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
    /// Windowed family: samples in the window, its quantiles, and the
    /// EWMA rate — all as of the snapshot instant.
    Window {
        count: u64,
        p50_ns: u64,
        p95_ns: u64,
        p99_ns: u64,
        rate_per_s: f64,
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
    /// Clock reading the windowed values were evaluated at.
    pub now_ns: u64,
    pub rows: Vec<MetricRow>,
    pub attributions: Vec<Attribution>,
    pub attributions_dropped: u64,
}

/// Snapshots the registry at the current clock reading.
pub fn snapshot() -> RegistrySnapshot {
    snapshot_at(window::now_ns())
}

/// Snapshots the registry, evaluating windows as of `now_ns`.
pub fn snapshot_at(now_ns: u64) -> RegistrySnapshot {
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
                    Metric::Window(w) => {
                        let merged = w.0.merged(now_ns);
                        let (p50, p95, p99) = merged.percentiles();
                        MetricValue::Window {
                            count: merged.count(),
                            p50_ns: p50,
                            p95_ns: p95,
                            p99_ns: p99,
                            rate_per_s: w.1.rate_per_s(now_ns),
                        }
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
        gauge_set("queue_depth", "", 4.0);
        gauge_set("queue_depth", "", 2.0);
        observe("latency_ns", "7", 1_000, 500);
        observe("latency_ns", "7", 2_000, 1_500);
        let snap = snapshot_at(3_000);
        let get = |n: &str, l: &str| {
            snap.rows
                .iter()
                .find(|r| r.name == n && r.label == l)
                .map(|r| r.value.clone())
        };
        assert_eq!(get("requests_total", "7"), Some(MetricValue::Counter(5)));
        assert_eq!(get("requests_total", "9"), Some(MetricValue::Counter(1)));
        assert_eq!(get("queue_depth", ""), Some(MetricValue::Gauge(2.0)));
        match get("latency_ns", "7") {
            Some(MetricValue::Window {
                count,
                p50_ns,
                p99_ns,
                rate_per_s,
                ..
            }) => {
                assert_eq!(count, 2);
                assert!(p50_ns >= 500 && p99_ns >= p50_ns);
                assert!(rate_per_s > 0.0);
            }
            other => panic!("expected window, got {other:?}"),
        }
        assert_eq!(snap.rows.len(), 4);
        reset();
        assert!(snapshot_at(0).rows.is_empty());
    }

    #[test]
    fn rows_are_ordered_and_deterministic() {
        let _g = crate::tests::lock();
        set_enabled(true);
        inc("b_metric", "2", 1);
        inc("a_metric", "10", 1);
        inc("a_metric", "2", 1);
        let names: Vec<(String, String)> = snapshot_at(0)
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
        observe("z", "", 0, 1);
        record_attribution(Attribution {
            request_id: 1,
            tenant: "t".into(),
            method: "lora".into(),
            total_ns: 1,
            stage_ns: [1, 0, 0, 0],
        });
        set_enabled(true);
        let snap = snapshot_at(0);
        assert!(snap.rows.is_empty() && snap.attributions.is_empty());
        // Crate-wide switch off also drops records even with metrics on.
        crate::set_enabled(false);
        inc("x", "", 1);
        crate::set_enabled(true);
        assert!(snapshot_at(0).rows.is_empty());
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
                stage_ns: [0, 0, 0, 10],
            });
        }
        let snap = snapshot_at(0);
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
            stage_ns: [10, 5, 60, 25],
        };
        assert_eq!(a.dominant_stage(), "mapping");
        let tie = Attribution {
            stage_ns: [30, 30, 0, 0],
            ..a
        };
        assert_eq!(tie.dominant_stage(), "queue", "first stage wins ties");
    }

    #[test]
    fn window_secs_override_and_revert() {
        let _g = crate::tests::lock();
        set_window_secs(5);
        assert_eq!(window_secs(), 5);
        set_window_secs(0);
        assert_eq!(window_secs(), DEFAULT_WINDOW_SECS);
    }
}
