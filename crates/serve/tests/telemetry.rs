//! Serve telemetry: passivity, registry content, SLO accounting, and
//! exporter determinism.
//!
//! Five gates:
//!
//! 1. **Bitwise passivity** — the same traffic served with telemetry on
//!    (logical clock) and off produces bit-identical outputs. Telemetry
//!    only reads clocks and writes side tables; it never touches tensors.
//! 2. **Registry content** — per-tenant/per-method counters, the batch
//!    size family, cache/queue gauges and windowed latency families all
//!    land with the `key=value` label convention.
//! 3. **SLO + attribution** — under a microscopic p99 target every
//!    request is slow: budget burn goes positive and every tail sample
//!    names a dominant stage.
//! 4. **Exporter determinism** — two identical runs under the logical
//!    clock emit byte-identical JSONL lines, and the Prometheus text
//!    passes the in-repo parser.
//! 5. **Shared-product attribution** — a batch's one stacked base product
//!    is split across its factored requests by row share into `gemm`, and
//!    the `gemm` stages of a batch never exceed the batch's wall.
//!
//! Obs state is process-global, so every test takes one shared lock and
//! restores a clean slate on drop.

use metalora_obs::window::{self, ClockMode};
use metalora_obs::{export, registry, slo};
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
    window::set_clock(ClockMode::Logical);
    metalora_obs::reset();
    TelGuard(g)
}

impl Drop for TelGuard {
    fn drop(&mut self) {
        metalora_obs::reset();
        slo::set_target_ms(0.0);
        registry::set_window_secs(0);
        window::set_clock(ClockMode::Monotonic);
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
    let counter = |name: &str, label: &str| -> u64 {
        snap.rows
            .iter()
            .find(|r| r.name == name && r.label == label)
            .map(|r| match &r.value {
                registry::MetricValue::Counter(c) => *c,
                _ => panic!("{name}{{{label}}} is not a counter"),
            })
            .unwrap_or_else(|| panic!("missing {name}{{{label}}}"))
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

    let windowed = |name: &str, label: &str| -> u64 {
        snap.rows
            .iter()
            .find(|r| r.name == name && r.label == label)
            .map(|r| match &r.value {
                registry::MetricValue::Window { count, .. } => *count,
                _ => panic!("{name}{{{label}}} is not a window"),
            })
            .unwrap_or_else(|| panic!("missing {name}{{{label}}}"))
    };
    assert_eq!(windowed("serve_request_latency_ns", "tenant=0"), 4);
    for stage in registry::STAGES {
        assert_eq!(
            windowed("serve_stage_ns", &format!("stage={stage}")),
            10,
            "every request records every stage"
        );
    }
    // The one resident-bytes gauge mirrors the cache's own accounting.
    let resident = snap
        .rows
        .iter()
        .find(|r| r.name == "serve_cache_resident_bytes" && r.label.is_empty())
        .expect("missing serve_cache_resident_bytes");
    match resident.value {
        registry::MetricValue::Gauge(v) => assert_eq!(v, e.cache().stats().bytes as f64),
        _ => panic!("serve_cache_resident_bytes is not a gauge"),
    }
    assert!(snap.rows.iter().any(|r| r.name == "serve_queue_depth"));
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
        assert!(row.over_target(), "windowed p99 above a 1 ns target");
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
    // Under the logical clock a batch-opening request waits the longest
    // in the queue while a batch-closing one is forward-dominated — both
    // shapes must show up in the attribution ring.
    assert!(dominants.contains("queue"), "got {dominants:?}");
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
    let t0 = window::now_ns();
    e.serve_batch(&batch).unwrap();
    let wall = window::now_ns() - t0;

    let snap = registry::snapshot();
    let gemm: Vec<u64> = snap.attributions.iter().map(|a| a.stage_ns[3]).collect();
    assert_eq!(gemm.len(), 4);
    assert!(gemm.iter().sum::<u64>() <= wall, "gemm stages {gemm:?} exceed the batch wall {wall}");
    // Under the logical clock a request's own forward and the stacked
    // product are one tick each: every gemm stage is a tick plus the
    // request's rows / 6 of a tick.
    let tick = window::LOGICAL_TICK_NS;
    assert_eq!(gemm, [1, 2, 1, 2].map(|rows| tick + tick * rows / 6));
}

#[test]
fn exporter_is_deterministic_under_the_logical_clock() {
    let run = || -> (String, String) {
        let _g = telemetry_on();
        slo::set_target_ms(0.000_001);
        let e = engine(14);
        e.process(&traffic(10)).unwrap();
        let reg = registry::snapshot();
        (export::jsonl_line(&reg), export::prometheus_text(&reg))
    };
    let (json_a, prom_a) = run();
    let (json_b, prom_b) = run();
    assert_eq!(json_a, json_b, "JSONL must be byte-identical across runs");
    assert_eq!(prom_a, prom_b, "Prometheus text must be byte-identical");
    let samples = export::parse_prometheus(&prom_a).expect("exposition parses");
    assert!(samples > 20, "rich exposition expected, got {samples}");
    assert!(json_a.starts_with('{') && !json_a.contains('\n'));
}
