//! Serve telemetry: passivity, registry content, SLO accounting, and
//! run-log determinism.
//!
//! Six gates:
//!
//! 1. **Bitwise passivity** — the same traffic served with telemetry on
//!    (logical clock) and off produces bit-identical outputs. Telemetry
//!    only reads clocks and writes side tables; it never touches tensors.
//! 2. **Registry content** — per-tenant/per-method counters, the batch
//!    size family, cache gauges and latency histograms all land with the
//!    `key=value` label convention.
//! 3. **SLO + attribution** — under a microscopic p99 target every
//!    request is slow: budget burn goes positive and every tail sample
//!    names a dominant stage.
//! 4. **Run-log determinism** — two identical runs under the logical
//!    clock write byte-identical `registry` lines into the run log.
//! 5. **Shared-product attribution** — a batch's one stacked base product
//!    is split across its factored requests by row share into `gemm`, and
//!    the `gemm` stages of a batch never exceed the batch's wall.
//! 6. **Whole-run accounting** — a tenant's latency histogram, request
//!    counter and SLO row count the same requests, and every stage
//!    histogram holds one sample per request.
//!
//! Obs state is process-global, so every test takes one shared lock and
//! restores a clean slate on drop.

use metalora_obs::registry::{self, ClockMode, MetricValue, RegistrySnapshot};
use metalora_obs::report::RunReport;
use metalora_obs::slo;
use metalora_serve::{EngineConfig, Request, ServeEngine, TenantAdapter};
use metalora_tensor::{init, Tensor};
use std::sync::{Mutex, MutexGuard, OnceLock};

const IN: usize = 6;
const OUT: usize = 5;

/// Locks the obs globals, switches telemetry on under the logical clock,
/// and restores everything (including the monotonic clock) on drop.
struct TelGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn telemetry_on() -> TelGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let g = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    metalora_obs::set_enabled(true);
    registry::set_enabled(true);
    registry::set_clock(ClockMode::Logical);
    metalora_obs::reset();
    TelGuard(g)
}

impl Drop for TelGuard {
    fn drop(&mut self) {
        metalora_obs::reset();
        slo::set_target_ms(0.0);
        registry::set_clock(ClockMode::Monotonic);
        registry::set_enabled(false);
        metalora_obs::set_enabled(false);
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Merged-mode engine with three LoRA tenants over a `[6, 5]` base.
fn engine(seed: u64) -> ServeEngine {
    engine_in_mode(seed, true)
}

fn engine_in_mode(seed: u64, use_merged: bool) -> ServeEngine {
    let mut rng = init::rng(seed);
    let w = init::uniform(&[IN, OUT], -1.0, 1.0, &mut rng);
    let b = init::uniform(&[OUT], -0.5, 0.5, &mut rng);
    let e = ServeEngine::new(
        w,
        Some(b),
        EngineConfig {
            max_batch: 4,
            cache_bytes: 1 << 20,
            use_merged,
        },
    );
    for id in 0..3u64 {
        e.register(
            id,
            TenantAdapter::Lora {
                a: init::uniform(&[IN, 2], -1.0, 1.0, &mut rng),
                b: init::uniform(&[2, OUT], -1.0, 1.0, &mut rng),
                scaling: 1.5,
            },
        );
    }
    e
}

fn traffic(seed: u64) -> Vec<Request> {
    let mut rng = init::rng(seed);
    (0..10)
        .map(|i| {
            Request::new(
                (i % 3) as u64,
                init::uniform(&[1 + (i % 2), IN], -1.0, 1.0, &mut rng),
            )
        })
        .collect()
}

#[test]
fn telemetry_is_bitwise_passive() {
    let reqs = traffic(7);
    // Baseline: telemetry (and all obs) off.
    let base: Vec<Vec<u32>> = {
        let _g = telemetry_on();
        metalora_obs::set_enabled(false);
        registry::set_enabled(false);
        engine(11)
            .process(&reqs)
            .unwrap()
            .iter()
            .map(bits)
            .collect()
    };
    let timed: Vec<Vec<u32>> = {
        let _g = telemetry_on();
        engine(11)
            .process(&reqs)
            .unwrap()
            .iter()
            .map(bits)
            .collect()
    };
    assert_eq!(base, timed, "telemetry must never change served outputs");
}

#[test]
fn registry_records_tenants_methods_batches_and_gauges() {
    let _g = telemetry_on();
    let e = engine(12);
    e.process(&traffic(8)).unwrap();

    let snap = registry::snapshot();
    let counter = |name: &str, label: &str| match value(&snap, name, label) {
        MetricValue::Counter(c) => c,
        _ => panic!("{name}{{{label}}} is not a counter"),
    };
    // 10 requests, zipf-free round-robin over 3 tenants: 4 + 3 + 3.
    assert_eq!(counter("serve_requests_total", "tenant=0"), 4);
    assert_eq!(counter("serve_requests_total", "tenant=1"), 3);
    assert_eq!(counter("serve_requests_total", "tenant=2"), 3);
    assert_eq!(counter("serve_requests_by_method_total", "method=lora"), 10);
    // max_batch 4 over 10 requests: two full batches and a tail of 2.
    assert_eq!(counter("serve_batches_by_size_total", "size=4"), 2);
    assert_eq!(counter("serve_batches_by_size_total", "size=2"), 1);
    // Three merges (one per tenant), the rest hits.
    assert_eq!(counter("serve_cache_lookups_total", "result=miss"), 3);
    assert_eq!(counter("serve_cache_lookups_total", "result=hit"), 7);

    assert_eq!(histogram_count(&snap, "serve_request_latency_ns", "tenant=0"), 4);
    for stage in registry::STAGES {
        assert_eq!(
            histogram_count(&snap, "serve_stage_ns", &format!("stage={stage}")),
            10,
            "every request records every stage"
        );
    }
    // The two residency gauges mirror the cache's own accounting.
    let stats = e.cache().stats();
    for (name, want) in [
        ("serve_cache_resident_bytes", stats.bytes),
        ("serve_cache_entries", stats.entries),
    ] {
        assert_eq!(value(&snap, name, ""), MetricValue::Gauge(want as f64), "{name}");
    }
}

/// The value of the series `name{label}`.
fn value(snap: &RegistrySnapshot, name: &str, label: &str) -> MetricValue {
    snap.rows
        .iter()
        .find(|r| r.name == name && r.label == label)
        .map(|r| r.value.clone())
        .unwrap_or_else(|| panic!("missing {name}{{{label}}}"))
}

/// Sample count of the histogram family `name{label}`.
fn histogram_count(snap: &RegistrySnapshot, name: &str, label: &str) -> u64 {
    match value(snap, name, label) {
        MetricValue::Histogram { count, .. } => count,
        _ => panic!("{name}{{{label}}} is not a histogram"),
    }
}

#[test]
fn latency_counts_equal_request_counts() {
    let _g = telemetry_on();
    // Factored: the stream rides the stacked base product.
    let reqs = traffic(12);
    engine_in_mode(16, false).process(&reqs).unwrap();

    let snap = registry::snapshot();
    let rows = slo::rows(&snap);
    assert_eq!(rows.len(), 3, "one SLO row per tenant");
    for row in &rows {
        let label = format!("tenant={}", row.tenant);
        assert_eq!(value(&snap, slo::REQUESTS, &label), MetricValue::Counter(row.requests));
        assert_eq!(histogram_count(&snap, slo::LATENCY, &label), row.requests);
    }
    assert_eq!(rows.iter().map(|r| r.requests).sum::<u64>(), reqs.len() as u64);
    for stage in registry::STAGES {
        assert_eq!(
            histogram_count(&snap, "serve_stage_ns", &format!("stage={stage}")),
            reqs.len() as u64,
            "one {stage} sample per request"
        );
    }
}

#[test]
fn microscopic_slo_target_burns_budget_and_attributes_tails() {
    let _g = telemetry_on();
    // 1 ns target: every request is beyond p99.
    slo::set_target_ms(0.000_001);
    let e = engine(13);
    e.process(&traffic(9)).unwrap();

    let rows = slo::rows(&registry::snapshot());
    assert_eq!(rows.len(), 3, "one SLO row per tenant");
    for row in &rows {
        assert_eq!(row.slow, row.requests, "all requests slow at 1 ns");
        assert!(row.p99_ns > row.target_ns, "p99 above a 1 ns target");
        assert!(row.budget_burn > 1.0, "error budget burning");
    }

    let snap = registry::snapshot();
    assert_eq!(snap.attributions.len(), 10, "one tail sample per request");
    let mut dominants = std::collections::BTreeSet::new();
    for a in &snap.attributions {
        dominants.insert(a.dominant_stage());
        assert_eq!(a.total_ns, a.stage_ns.iter().sum::<u64>());
        assert_eq!(a.method, "lora");
    }
    // Every dominant stage is one of the three, and the merged forward's
    // GEMM dominates at least one request.
    assert!(dominants.is_subset(&registry::STAGES.into()), "got {dominants:?}");
    assert!(dominants.contains("gemm"), "got {dominants:?}");
    // Request ids are the engine's own monotonically increasing stamps.
    let ids: Vec<u64> = snap.attributions.iter().map(|a| a.request_id).collect();
    assert_eq!(ids, (0..10).collect::<Vec<u64>>());
}

#[test]
fn the_stacked_base_product_is_attributed_by_row_share() {
    let _g = telemetry_on();
    // 1 ns target: every request lands an attribution sample.
    slo::set_target_ms(0.000_001);
    // Factored: the batch's four requests (1, 2, 1, 2 rows) share one
    // stacked base product.
    let e = engine_in_mode(15, false);
    let batch: Vec<Request> = traffic(11).into_iter().take(4).collect();
    let t0 = registry::now_ns();
    e.serve_batch(&batch).unwrap();
    let wall = registry::now_ns() - t0;

    let snap = registry::snapshot();
    let gemm: Vec<u64> = snap.attributions.iter().map(|a| a.stage_ns[2]).collect();
    assert_eq!(gemm.len(), 4);
    assert!(gemm.iter().sum::<u64>() <= wall, "gemm stages {gemm:?} exceed the batch wall {wall}");
    // Under the logical clock a request's own forward and the stacked
    // product are one tick each: every gemm stage is a tick plus the
    // request's rows / 6 of a tick.
    let tick = registry::LOGICAL_TICK_NS;
    assert_eq!(gemm, [1, 2, 1, 2].map(|rows| tick + tick * rows / 6));
}

#[test]
fn run_log_registry_is_deterministic_under_the_logical_clock() {
    let run = || -> (String, usize) {
        let _g = telemetry_on();
        slo::set_target_ms(0.000_001);
        let e = engine(14);
        e.process(&traffic(10)).unwrap();
        let report = RunReport::capture("telemetry");
        let line = report
            .to_json()
            .lines()
            .find(|l| l.starts_with("  \"registry\": {"))
            .expect("the run log carries a registry line")
            .to_string();
        (line, report.registry.rows.len())
    };
    let (line_a, rows) = run();
    let (line_b, _) = run();
    assert_eq!(line_a, line_b, "the registry line must be byte-identical across runs");
    // Per tenant (3): requests, slow requests, latency; per stage (3): a
    // histogram; one method, two batch sizes, hit / miss lookups, the two
    // residency gauges and the one dominant tail stage.
    assert_eq!(rows, 20, "every family the engine records, once per label");
    assert!(line_a.contains("\"clock\": \"logical\"") && line_a.contains("\"slo\": [{"));
}
