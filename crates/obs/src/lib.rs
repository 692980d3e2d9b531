//! # metalora-obs
//!
//! Dependency-free instrumentation for the MetaLoRA stack.
//!
//! Nine facilities, all funnelled through one global on/off switch:
//!
//! * [`span`] — hierarchical wall-clock spans (`pretrain/epoch0`) with
//!   thread-safe aggregation and per-path duration quantiles, via the
//!   [`span!`] macro or [`span::span`];
//! * [`trace`] — a bounded event timeline (the latest
//!   [`trace::CAPACITY`] begin/end records, with monotonic timestamps and
//!   thread ids) exported as Chrome trace-event JSON, gated additionally
//!   by `METALORA_OBS_TRACE`;
//! * [`counters`] — one list of process-wide counters: per-kernel
//!   flop/byte/call totals, the matmul kernel tally, tile-grid, memory,
//!   workspace, fusion and serving
//!   counts — each fact `serve` does not already count itself;
//! * [`health`] — per-parameter-group training-health records (grad norm,
//!   update-to-weight ratio, NaN/Inf sentinels), every optimizer step;
//! * [`hist`] — the fixed-memory log-linear histogram backing span and
//!   registry latency quantiles;
//! * [`metrics`] — the training-loop sink (loss / accuracy / grad-norm /
//!   wall time per epoch, grouped by phase);
//! * [`registry`] — the live metrics registry (counters, gauges, and
//!   whole-run latency histograms keyed by tenant/method/batch signature,
//!   plus tail-latency attribution samples), gated additionally by
//!   `METALORA_OBS_METRICS`, and the telemetry clock it is read against
//!   (monotonic in production, deterministic logical under test);
//! * [`slo`] — the per-tenant p99 target (`METALORA_SLO_P99_MS`) and the
//!   SLO rows (p99, error-budget burn) derived from a registry snapshot;
//!   it holds no state of its own;
//! * [`report`] — [`report::RunReport`] captures everything above into a
//!   structured `RUNLOG_<name>.json` (the registry snapshot with its SLO
//!   rows and tail samples included) plus a human-readable summary table,
//!   written under [`out_dir`] (`METALORA_OBS_DIR`).
//!
//! ## Zero overhead when disabled
//!
//! Instrumentation is off unless `METALORA_OBS=1` is set in the
//! environment (read once) or [`set_enabled`]`(true)` is called. Every
//! record function starts with a single relaxed atomic load and an early
//! return, so the instrumented hot loops cost one predictable branch when
//! observation is off — and never change numerics either way: observation
//! is purely passive.

pub mod counters;
pub mod health;
pub mod hist;
mod json;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod slo;
pub mod span;
pub mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

const OFF: u8 = 0;
const ON: u8 = 1;
const UNSET: u8 = 2;

/// A process-global on/off flag backed by an environment variable: the
/// first read resolves `env` (any value other than empty or `0` is on),
/// and [`Switch::set`] overrides it. `obs`, its timeline and its registry
/// each own one.
pub(crate) struct Switch {
    state: AtomicU8,
    env: &'static str,
}

impl Switch {
    pub(crate) const fn new(env: &'static str) -> Switch {
        Switch {
            state: AtomicU8::new(UNSET),
            env,
        }
    }

    /// One relaxed load once resolved.
    #[inline(always)]
    pub(crate) fn get(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            OFF => false,
            ON => true,
            _ => self.resolve(),
        }
    }

    #[cold]
    fn resolve(&self) -> bool {
        let on = std::env::var(self.env)
            .map(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0"
            })
            .unwrap_or(false);
        self.set(on);
        on
    }

    pub(crate) fn set(&self, on: bool) {
        self.state.store(if on { ON } else { OFF }, Ordering::Relaxed);
    }
}

static ENABLED: Switch = Switch::new("METALORA_OBS");

/// `true` when instrumentation is recording.
///
/// First call resolves the `METALORA_OBS` environment variable (any value
/// other than empty or `0` enables); [`set_enabled`] overrides it.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Programmatically switches instrumentation on or off, overriding
/// `METALORA_OBS`.
pub fn set_enabled(on: bool) {
    ENABLED.set(on);
}

/// Clears all recorded spans, counters, metrics, trace events, health
/// records and registry series — and with them the SLO rows derived from
/// the registry (the enabled flags, the SLO target and the telemetry
/// clock mode are left as is). Call at the start of a run to scope a
/// report to it.
pub fn reset() {
    counters::reset();
    span::reset();
    metrics::reset();
    trace::reset();
    health::reset();
    registry::reset();
}

static OUT_DIR_OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Directory where run logs and traces are written: the
/// [`set_out_dir`] override if set, else `METALORA_OBS_DIR`, else the
/// current directory.
pub fn out_dir() -> PathBuf {
    if let Some(dir) = &*OUT_DIR_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()) {
        return dir.clone();
    }
    match std::env::var_os("METALORA_OBS_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("."),
    }
}

/// Overrides the output directory for run logs and traces; `None` reverts
/// to `METALORA_OBS_DIR` / the current directory.
pub fn set_out_dir(dir: Option<PathBuf>) {
    *OUT_DIR_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()) = dir;
}

/// Maps a report name onto a filesystem-safe stem: every char outside
/// `[A-Za-z0-9._-]` becomes `_`.
pub fn sanitise_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Opens a hierarchical timing span; the returned guard records the
/// elapsed time under the current thread's span path when dropped.
///
/// ```
/// metalora_obs::set_enabled(true);
/// {
///     let _outer = metalora_obs::span!("pretrain");
///     let _inner = metalora_obs::span!("epoch{}", 3);
///     // ... timed work; aggregates under "pretrain" and "pretrain/epoch3"
/// }
/// ```
///
/// When instrumentation is disabled the format arguments are **not**
/// evaluated and an inert guard is returned.
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        if $crate::enabled() {
            $crate::span::span_owned(::std::format!($($arg)*))
        } else {
            $crate::span::SpanGuard::inert()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Obs state is global; tests in this crate serialise on this lock and
    /// restore a clean slate on drop.
    pub(crate) struct TestGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    pub(crate) fn lock() -> TestGuard {
        static LOCK: Mutex<()> = Mutex::new(());
        let g = TestGuard(LOCK.lock().unwrap_or_else(|e| e.into_inner()));
        set_enabled(true);
        reset();
        g
    }

    impl Drop for TestGuard {
        fn drop(&mut self) {
            reset();
            set_enabled(false);
        }
    }

    #[test]
    fn toggling_enabled() {
        let _g = lock();
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        set_enabled(false);
        counters::record_kernel(counters::Kernel::Matmul, 100, 10);
        counters::TILE_CLAIMS.add(1);
        counters::MATMUL_PACKED.add(1);
        counters::track_alloc(1 << 20);
        metrics::record_epoch("p", 1.0, 0.5, 0.1, 0.2);
        health::record("g", 0, 1.0, 0.1, 2.0, 0, 0);
        trace::begin("never");
        {
            let _s = span!("never");
        }
        set_enabled(true);
        assert!(counters::read_all().iter().all(|r| r.value == 0));
        assert!(metrics::snapshot().is_empty());
        assert!(span::snapshot().is_empty());
        assert!(health::snapshot().is_empty());
        assert!(trace::snapshot().0.is_empty());
    }

    #[test]
    fn out_dir_override_beats_env_and_reverts() {
        let _g = lock();
        set_out_dir(Some(PathBuf::from("/tmp/obs_override")));
        assert_eq!(out_dir(), PathBuf::from("/tmp/obs_override"));
        set_out_dir(None);
        // Without an override the env var (unset in tests) falls back to ".".
        if std::env::var_os("METALORA_OBS_DIR").is_none() {
            assert_eq!(out_dir(), PathBuf::from("."));
        }
    }

    #[test]
    fn sanitise_name_keeps_safe_chars() {
        assert_eq!(sanitise_name("table1"), "table1");
        assert_eq!(sanitise_name("a b/c:d"), "a_b_c_d");
        assert_eq!(sanitise_name("v1.2_x-y"), "v1.2_x-y");
    }
}
