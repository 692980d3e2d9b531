//! Per-tenant SLO standing: a target p99 latency and the error-budget
//! burn rate over the sliding window.
//!
//! The SLO model is the standard one: a tenant's objective is "99 % of
//! requests complete under the target p99" (`METALORA_SLO_P99_MS`,
//! default [`DEFAULT_TARGET_P99_MS`] ms), which grants a 1 % error
//! budget. This module holds only the target: every [`SloRow`] is
//! derived from a [`RegistrySnapshot`] ([`rows`]) — the tenant's request
//! and slow-request counters give the lifetime budget burn
//! (`slow / (1 % of total)`; 1.0 means the budget is exactly spent), its
//! windowed latency family the p99 compared against the target. The
//! serving engine counts a request as slow exactly when it exceeds the
//! target, which doubles as its tail-latency attribution threshold: a
//! request is worth attributing exactly when it endangers the SLO.

use crate::registry::{MetricValue, RegistrySnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// Registry counter of a tenant's requests (label `tenant=…`).
pub const REQUESTS: &str = "serve_requests_total";
/// Registry counter of a tenant's requests over the target.
pub const SLOW: &str = "serve_slow_requests_total";
/// Registry window family of a tenant's end-to-end latency.
pub const LATENCY: &str = "serve_request_latency_ns";

/// Default per-tenant p99 target in milliseconds.
pub const DEFAULT_TARGET_P99_MS: f64 = 50.0;

/// Unresolved sentinel for [`TARGET_NS`].
const TARGET_UNSET: u64 = 0;

static TARGET_NS: AtomicU64 = AtomicU64::new(TARGET_UNSET);

/// Per-tenant p99 target in nanoseconds: the [`set_target_ms`] override,
/// else `METALORA_SLO_P99_MS` (milliseconds, fractional allowed), else
/// [`DEFAULT_TARGET_P99_MS`].
pub fn target_ns() -> u64 {
    match TARGET_NS.load(Ordering::Relaxed) {
        TARGET_UNSET => target_from_env(),
        t => t,
    }
}

#[cold]
fn target_from_env() -> u64 {
    let ms = std::env::var("METALORA_SLO_P99_MS")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|&v| v.is_finite() && v > 0.0)
        .unwrap_or(DEFAULT_TARGET_P99_MS);
    let ns = ((ms * 1e6) as u64).max(1);
    TARGET_NS.store(ns, Ordering::Relaxed);
    ns
}

/// Overrides the p99 target (milliseconds; `0` or negative reverts to the
/// environment / default).
pub fn set_target_ms(ms: f64) {
    let ns = if ms.is_finite() && ms > 0.0 {
        ((ms * 1e6) as u64).max(1)
    } else {
        TARGET_UNSET
    };
    TARGET_NS.store(ns, Ordering::Relaxed);
}

/// One tenant's SLO standing.
#[derive(Clone, Debug)]
pub struct SloRow {
    pub tenant: String,
    /// Requests accounted since the last reset.
    pub requests: u64,
    /// Requests over the target.
    pub slow: u64,
    /// The p99 target the tenant is held to.
    pub target_ns: u64,
    /// p99 over the sliding window as of the snapshot instant.
    pub window_p99_ns: u64,
    /// Requests in the sliding window.
    pub window_requests: u64,
    /// Error-budget burn: `slow / (1 % of requests)`. `1.0` means the
    /// 1 % budget is exactly spent; above that the tenant is out of SLO.
    pub budget_burn: f64,
}

impl SloRow {
    /// `true` when the windowed p99 currently exceeds the target.
    pub fn over_target(&self) -> bool {
        self.window_p99_ns > self.target_ns
    }
}

/// Per-tenant SLO rows, derived from the registry's per-tenant series:
/// one row per [`LATENCY`] window labeled `tenant=…`, in label order.
pub fn rows(reg: &RegistrySnapshot) -> Vec<SloRow> {
    let target = target_ns();
    let counter = |name: &str, label: &str| {
        reg.rows
            .iter()
            .find(|r| r.name == name && r.label == label)
            .map_or(0, |r| match r.value {
                MetricValue::Counter(c) => c,
                _ => 0,
            })
    };
    reg.rows
        .iter()
        .filter(|r| r.name == LATENCY)
        .filter_map(|r| {
            let tenant = r.label.strip_prefix("tenant=")?;
            let MetricValue::Window { count, p99_ns, .. } = r.value else {
                return None;
            };
            let requests = counter(REQUESTS, &r.label);
            let slow = counter(SLOW, &r.label);
            let budget = 0.01 * requests as f64;
            Some(SloRow {
                tenant: tenant.to_string(),
                requests,
                slow,
                target_ns: target,
                window_p99_ns: p99_ns,
                window_requests: count,
                budget_burn: if budget > 0.0 { slow as f64 / budget } else { 0.0 },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    /// Records one request the way the serving engine does.
    fn request(tenant: &str, now_ns: u64, latency_ns: u64) {
        let label = format!("tenant={tenant}");
        registry::inc(REQUESTS, &label, 1);
        registry::observe(LATENCY, &label, now_ns, latency_ns);
        if latency_ns > target_ns() {
            registry::inc(SLOW, &label, 1);
        }
    }

    #[test]
    fn classifies_against_target_and_burns_budget() {
        let _g = crate::tests::lock();
        registry::set_enabled(true);
        set_target_ms(1.0); // 1 ms = 1_000_000 ns
        // 200 requests for tenant 3: 2 slow → burn = 2 / (0.01·200) = 1.0.
        for i in 0..200u64 {
            request("3", (i + 1) * 1_000, if i < 2 { 2_000_000 } else { 1_000 });
        }
        // A clean tenant for ordering/burn contrast, and a series of
        // another family that yields no row.
        request("10", 1_000, 500);
        registry::observe("serve_stage_ns", "stage=gemm", 1_000, 5);
        let rows = rows(&registry::snapshot_at(300_000));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tenant, "10", "registry label order");
        let t3 = &rows[1];
        assert_eq!(t3.tenant, "3");
        assert_eq!(t3.requests, 200);
        assert_eq!(t3.slow, 2);
        assert!((t3.budget_burn - 1.0).abs() < 1e-12);
        assert_eq!(t3.window_requests, 200);
        assert!(t3.window_p99_ns <= t3.target_ns, "p99 within target");
        assert!(!t3.over_target());
        let t10 = &rows[0];
        assert_eq!((t10.slow, t10.budget_burn), (0, 0.0));
        set_target_ms(0.0);
    }

    #[test]
    fn over_target_when_windowed_p99_exceeds_slo() {
        let _g = crate::tests::lock();
        registry::set_enabled(true);
        set_target_ms(0.001); // 1 µs target: everything is slow
        for i in 0..50u64 {
            request("7", (i + 1) * 1_000, 10_000);
        }
        let rows = rows(&registry::snapshot_at(60_000));
        assert_eq!(rows[0].slow, 50);
        assert!(rows[0].over_target());
        assert!(rows[0].budget_burn > 1.0);
        set_target_ms(0.0);
    }

    #[test]
    fn disabled_records_nothing_and_reports_not_slow() {
        let _g = crate::tests::lock();
        registry::set_enabled(false);
        set_target_ms(0.001);
        request("1", 1_000, u64::MAX / 2);
        registry::set_enabled(true);
        assert!(rows(&registry::snapshot_at(10_000)).is_empty());
        set_target_ms(0.0);
    }

    #[test]
    fn target_env_default_applies_when_unset() {
        let _g = crate::tests::lock();
        set_target_ms(0.0); // revert to env/default
        if std::env::var_os("METALORA_SLO_P99_MS").is_none() {
            assert_eq!(target_ns(), (DEFAULT_TARGET_P99_MS * 1e6) as u64);
        }
        set_target_ms(0.0);
    }
}
