//! **S1 — serving throughput**: drive the multi-tenant serving engine
//! with synthetic zipf traffic and report throughput plus p50/p95/p99
//! request latency for the factored (bitwise), merged (cached `W + ΔW`)
//! and merged-bf16 (half-width cached weights, same capacity) modes
//! at several thread counts. Shared by the `serve` binary (fresh run →
//! `BENCH_serve.json`) and the `regress` binary (fresh run → diff against
//! the committed baseline), exactly like the K1 kernel sweep.
//!
//! Every point carries a `bitwise_ok` flag: the whole batched stream is
//! re-served one-request-at-a-time on a fresh `max_batch = 1` engine at
//! the same mode and compared bit for bit, so the amortised-seed batching
//! claim and re-merge determinism are re-proven on every bench run.

use metalora_nn::Linear;
use metalora_obs::window::{self, ClockMode};
use metalora_obs::{export, registry, slo};
use metalora_peft::meta::MappingNet;
use metalora_peft::{LoraConfig, MultiLoraLinear};
use metalora_serve::traffic::{self, TrafficConfig};
use metalora_serve::{EngineConfig, Request, ServeEngine, TenantAdapter};
use metalora_tensor::{bf16, init, ops, par};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One (mode, thread-count) measurement of the serve sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServePoint {
    /// `"factored"` (bitwise path) or `"merged"` (cached `W + ΔW`).
    pub mode: String,
    /// Kernel worker count the point ran with.
    pub threads: usize,
    /// Requests served (engine counter; equals the stream length).
    pub requests: u64,
    /// Batches executed (`⌈requests / max_batch⌉` over the stream).
    pub batches: u64,
    /// Requests per second over the whole stream.
    pub throughput_rps: f64,
    /// Median per-request forward latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Merged-weight cache hits (0 in factored mode).
    pub cache_hits: u64,
    /// Merged-weight cache misses (0 in factored mode).
    pub cache_misses: u64,
    /// Cache evictions forced by the byte capacity.
    pub cache_evictions: u64,
    /// Merged weights resident when the stream ended (0 in factored
    /// mode) — the capacity claim: at equal `cache_bytes`, the bf16 mode
    /// must hold ~2× the entries of the f32 mode.
    #[serde(default)]
    pub resident_entries: u64,
    /// Bytes those resident entries occupy.
    #[serde(default)]
    pub resident_bytes: u64,
    /// Fused GEMM epilogues applied over the stream (obs counter delta) —
    /// every bias add and activation of the serve forwards rides one.
    #[serde(default)]
    pub fused_epilogues: u64,
    /// Separate epilogue output passes taken over the stream — the
    /// second-pass-elimination claim: 0 with fusion on (the default).
    #[serde(default)]
    pub output_passes: u64,
    /// Requests the telemetry bridge recorded over this point (obs
    /// counter delta; equals `requests` with metrics on).
    #[serde(default)]
    pub telemetry_requests: u64,
    /// Requests beyond the per-tenant p99 SLO target over this point.
    #[serde(default)]
    pub slow_requests: u64,
    /// Requests the hottest tenant (the zipf head) received.
    #[serde(default)]
    pub hot_tenant_requests: u64,
    /// Worst per-tenant sliding-window p99 latency, microseconds
    /// (logical-clock ticks at bench time, so deterministic).
    #[serde(default)]
    pub worst_tenant_p99_us: f64,
    /// Tenants whose windowed p99 sits above the SLO target.
    #[serde(default)]
    pub tenants_over_slo: u64,
    /// Batched outputs bitwise-equal to a `max_batch = 1` re-serve.
    pub bitwise_ok: bool,
}

/// Everything one serve sweep produces; serialised to `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_cpus: usize,
    /// SIMD level the kernels ran with (perf comparability guard).
    pub simd_level: String,
    /// `"quick"` or `"standard"`.
    pub scale: String,
    /// Distinct tenants in the synthetic traffic.
    pub tenants: usize,
    /// Zipf exponent of the tenant-id distribution.
    pub zipf_s: f64,
    /// RNG seed the zipf traffic stream was drawn with — together with
    /// `zipf_s` this pins the exact request sequence a baseline measured.
    #[serde(default)]
    pub traffic_seed: u64,
    /// Stream length every point served.
    pub requests: usize,
    /// Requests per released batch in the batched runs.
    pub max_batch: usize,
    /// Regress-gate floor for `resident_entries("merged-bf16") /
    /// resident_entries("merged")` at equal `cache_bytes` (0 disables the
    /// gate — pre-bf16 baselines deserialise to that).
    #[serde(default)]
    pub bf16_capacity_floor: f64,
    /// SLO target the sweep accounted against (ms; 0 disables the
    /// regress SLO-floor gate — pre-telemetry baselines deserialise to
    /// that).
    #[serde(default)]
    pub slo_target_p99_ms: f64,
    pub points: Vec<ServePoint>,
}

const RANK: usize = 4;
const CFG: LoraConfig = LoraConfig { rank: RANK, alpha: 8.0 };

/// Builds the bench engine: one shared dense base, a two-slot
/// `peft::multi` bank, both mapping nets, and `tenants` adapters cycling
/// through every method (plain LoRA, bank slots, pinned CP/TR, dynamic
/// CP/TR). Fully deterministic in `seed`.
fn build_engine(
    tenants: usize,
    in_dim: usize,
    out_dim: usize,
    use_merged: bool,
    max_batch: usize,
    cache_bytes: usize,
    seed: u64,
) -> ServeEngine {
    let mut rng = init::rng(seed);
    let base = Linear::new("fc", in_dim, out_dim, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let multi = MultiLoraLinear::new("fc", Box::new(base), 2, CFG, &mut rng);
    for b in &multi.b {
        b.set_value(init::uniform(&[RANK, out_dim], -0.5, 0.5, &mut rng));
    }
    let map_cp = MappingNet::new("map_cp", in_dim, 16, RANK, &mut rng);
    let map_tr = MappingNet::new("map_tr", in_dim, 16, RANK * RANK, &mut rng);

    let engine = ServeEngine::new(
        w,
        bias,
        EngineConfig { max_batch, cache_bytes, use_merged },
    )
    .with_bank(&multi)
    .with_mapping_cp(&map_cp)
    .with_mapping_tr(&map_tr);

    for id in 0..tenants as u64 {
        let lora_a = init::uniform(&[in_dim, RANK], -0.5, 0.5, &mut rng);
        let lora_b = init::uniform(&[RANK, out_dim], -0.5, 0.5, &mut rng);
        let adapter = match id % 6 {
            0 => TenantAdapter::Lora { a: lora_a, b: lora_b, scaling: CFG.scaling() },
            1 => TenantAdapter::MultiSlot { slot: (id / 6 % 2) as usize },
            2 => TenantAdapter::MetaCp {
                a: lora_a,
                b: lora_b,
                scaling: CFG.scaling(),
                pinned_seed: Some(init::uniform(&[RANK], -1.0, 1.0, &mut rng)),
            },
            3 => TenantAdapter::MetaTr {
                a: init::uniform(&[RANK, in_dim, RANK], -0.3, 0.3, &mut rng),
                b: init::uniform(&[RANK, out_dim, RANK], -0.3, 0.3, &mut rng),
                scaling: CFG.scaling(),
                pinned_seed: Some(init::uniform(&[RANK, RANK], -1.0, 1.0, &mut rng)),
            },
            4 => TenantAdapter::MetaCp {
                a: lora_a,
                b: lora_b,
                scaling: CFG.scaling(),
                pinned_seed: None,
            },
            _ => TenantAdapter::MetaTr {
                a: init::uniform(&[RANK, in_dim, RANK], -0.3, 0.3, &mut rng),
                b: init::uniform(&[RANK, out_dim, RANK], -0.3, 0.3, &mut rng),
                scaling: CFG.scaling(),
                pinned_seed: None,
            },
        };
        engine.register(id, adapter);
    }
    engine
}

fn bits_of(outs: &[metalora_tensor::Tensor]) -> Vec<Vec<u32>> {
    outs.iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Runs the serve sweep and returns the report. `quick` shrinks the
/// stream for CI smoke runs.
pub fn run(quick: bool) -> ServeReport {
    run_with_telemetry(quick).0
}

/// [`run`] plus the exporter lines: one `METRICS_serve.jsonl` record per
/// sweep point, each a registry + SLO snapshot taken right after that
/// point's stream. The sweep runs under the **logical** telemetry clock
/// (one tick per read), so two runs over the same stream emit
/// byte-identical lines — the determinism the CI smoke compares.
pub fn run_with_telemetry(quick: bool) -> (ServeReport, Vec<String>) {
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let simd = ops::simd_level().name().to_string();
    let (tenants, requests, in_dim, out_dim, max_rows) =
        if quick { (12, 96, 8, 8, 2) } else { (24, 512, 32, 32, 4) };
    let max_batch = 16;
    // Capacity for a quarter of the tenants as f32 merged weights: the
    // zipf tail must churn in both precisions (bf16 fits 2× the entries
    // in the same bytes and still evicts — 4 of 6 tenant ids cache).
    let cache_bytes = (tenants / 4) * in_dim * out_dim * 4;
    let traffic_cfg = TrafficConfig {
        tenants,
        tasks: 4,
        zipf_s: 1.1,
        requests,
        in_dim,
        max_rows,
        seed: 42,
    };
    println!(
        "=== S1 — serving throughput (host_cpus={host_cpus}, simd={simd}, {} scale) ===\n",
        if quick { "quick" } else { "standard" }
    );
    par::set_par_threshold(0);
    metalora_obs::set_enabled(true);
    registry::set_enabled(true);
    window::set_clock(ClockMode::Logical);

    let reqs: Vec<Request> = traffic::generate(&traffic_cfg);
    let mut points = Vec::new();
    let mut metrics_lines = Vec::new();

    for (mode, use_merged) in
        [("factored", false), ("merged", true), ("merged-bf16", true)]
    {
        // The bf16 mode is the merged sweep with half-width cached
        // weights: same stream, same capacity, toggled per mode so the
        // f32 modes stay byte-for-byte what they always were.
        bf16::set_enabled(mode == "merged-bf16");
        // Reference: the same stream, one request at a time, t = 1.
        par::set_num_threads(1);
        let solo = build_engine(tenants, in_dim, out_dim, use_merged, 1, cache_bytes, 7);
        let reference = bits_of(&solo.process(&reqs).expect("solo serve"));

        for threads in [1usize, 2, 4] {
            par::set_num_threads(threads);
            let engine =
                build_engine(tenants, in_dim, out_dim, use_merged, max_batch, cache_bytes, 7);
            // Each point starts from a clean registry, fresh SLO rows and
            // a rewound logical clock, so its exporter line depends only
            // on (mode, threads, stream) — never on sweep order.
            registry::reset();
            slo::reset();
            window::reset_logical();
            let c0 = metalora_obs::counters::snapshot();
            let t0 = Instant::now();
            let outs = engine.process(&reqs).expect("batched serve");
            let elapsed = t0.elapsed().as_secs_f64();
            let c1 = metalora_obs::counters::snapshot();
            let reg = registry::snapshot();
            let slo_rows = slo::snapshot_at(reg.now_ns);
            metrics_lines.push(export::jsonl_line(&reg, &slo_rows));
            let (p50, p95, p99) = engine.latency_percentiles_us();
            let stats = engine.cache().stats();
            points.push(ServePoint {
                mode: mode.to_string(),
                threads,
                requests: engine.request_count(),
                batches: engine.batch_count(),
                throughput_rps: reqs.len() as f64 / elapsed,
                p50_us: p50,
                p95_us: p95,
                p99_us: p99,
                cache_hits: stats.hits,
                cache_misses: stats.misses,
                cache_evictions: stats.evictions,
                resident_entries: stats.entries,
                resident_bytes: stats.bytes,
                fused_epilogues: c1.fused_epilogues - c0.fused_epilogues,
                output_passes: c1.output_passes - c0.output_passes,
                telemetry_requests: c1.telemetry_requests - c0.telemetry_requests,
                slow_requests: slo_rows.iter().map(|r| r.slow).sum(),
                hot_tenant_requests: slo_rows.iter().map(|r| r.requests).max().unwrap_or(0),
                worst_tenant_p99_us: slo_rows
                    .iter()
                    .map(|r| r.window_p99_ns)
                    .max()
                    .unwrap_or(0) as f64
                    / 1e3,
                tenants_over_slo: slo_rows.iter().filter(|r| r.over_target()).count() as u64,
                bitwise_ok: bits_of(&outs) == reference,
            });
        }
    }
    bf16::set_enabled(false);
    par::set_num_threads(0);
    par::set_par_threshold(usize::MAX);
    window::set_clock(ClockMode::Monotonic);
    registry::set_enabled(false);

    let headers: Vec<String> = [
        "mode", "threads", "req/s", "p50 µs", "p95 µs", "p99 µs", "hits", "misses", "evict",
        "resident", "fused", "passes", "slow", "hot", "w-p99 µs", "over-slo", "bitwise",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.mode.clone(),
                p.threads.to_string(),
                format!("{:.0}", p.throughput_rps),
                format!("{:.1}", p.p50_us),
                format!("{:.1}", p.p95_us),
                format!("{:.1}", p.p99_us),
                p.cache_hits.to_string(),
                p.cache_misses.to_string(),
                p.cache_evictions.to_string(),
                p.resident_entries.to_string(),
                p.fused_epilogues.to_string(),
                p.output_passes.to_string(),
                p.slow_requests.to_string(),
                p.hot_tenant_requests.to_string(),
                format!("{:.1}", p.worst_tenant_p99_us),
                p.tenants_over_slo.to_string(),
                p.bitwise_ok.to_string(),
            ]
        })
        .collect();
    println!("{}", metalora::report::render_table(&headers, &rows));

    assert!(
        points.iter().all(|p| p.bitwise_ok),
        "batched serving diverged from the one-request-at-a-time reference"
    );
    // Every bias/activation rides the GEMM store; the counters have to
    // prove it.
    assert!(
        points.iter().all(|p| p.output_passes == 0),
        "serving took separate epilogue output passes"
    );
    assert!(
        points.iter().all(|p| p.fused_epilogues > 0),
        "serving applied no fused epilogues"
    );
    assert!(
        points.iter().all(|p| p.telemetry_requests == p.requests),
        "telemetry recorded a different request count than the engine served"
    );

    let report = ServeReport {
        host_cpus,
        simd_level: simd,
        scale: if quick { "quick" } else { "standard" }.to_string(),
        tenants,
        zipf_s: traffic_cfg.zipf_s,
        traffic_seed: traffic_cfg.seed,
        requests,
        max_batch,
        bf16_capacity_floor: 1.8,
        slo_target_p99_ms: slo::target_ms(),
        points,
    };
    (report, metrics_lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Obs clock/registry state is process-global: every test that runs
    /// the sweep serialises on this.
    fn run_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn report_json_round_trips() {
        let report = ServeReport {
            host_cpus: 4,
            simd_level: "avx2".into(),
            scale: "quick".into(),
            tenants: 12,
            zipf_s: 1.1,
            traffic_seed: 42,
            requests: 96,
            max_batch: 16,
            bf16_capacity_floor: 1.8,
            slo_target_p99_ms: 50.0,
            points: vec![ServePoint {
                mode: "merged-bf16".into(),
                threads: 2,
                requests: 96,
                batches: 6,
                throughput_rps: 1234.5,
                p50_us: 10.0,
                p95_us: 20.0,
                p99_us: 30.0,
                cache_hits: 80,
                cache_misses: 16,
                cache_evictions: 4,
                resident_entries: 6,
                resident_bytes: 768,
                fused_epilogues: 192,
                output_passes: 0,
                telemetry_requests: 96,
                slow_requests: 2,
                hot_tenant_requests: 31,
                worst_tenant_p99_us: 55.5,
                tenants_over_slo: 1,
                bitwise_ok: true,
            }],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.points.len(), 1);
        assert_eq!(back.points[0].mode, "merged-bf16");
        assert_eq!(back.points[0].batches, 6);
        assert_eq!(back.points[0].resident_entries, 6);
        assert_eq!(back.points[0].resident_bytes, 768);
        assert_eq!(back.points[0].fused_epilogues, 192);
        assert_eq!(back.points[0].output_passes, 0);
        assert_eq!(back.points[0].telemetry_requests, 96);
        assert_eq!(back.points[0].slow_requests, 2);
        assert_eq!(back.points[0].hot_tenant_requests, 31);
        assert!((back.points[0].worst_tenant_p99_us - 55.5).abs() < 1e-12);
        assert_eq!(back.points[0].tenants_over_slo, 1);
        assert!(back.points[0].bitwise_ok);
        assert_eq!(back.max_batch, 16);
        assert_eq!(back.traffic_seed, 42);
        assert!((back.bf16_capacity_floor - 1.8).abs() < 1e-12);
        assert!((back.slo_target_p99_ms - 50.0).abs() < 1e-12);
        // Pre-bf16 / pre-fusion baselines lack the new keys; they default
        // to zero.
        use serde::{Deserialize, Serialize, Value};
        let strip = |v: Value, keys: &[&str]| {
            let Value::Map(entries) = v else { panic!("expected map") };
            Value::Map(
                entries
                    .into_iter()
                    .filter(|(k, _)| !keys.contains(&k.as_str()))
                    .collect(),
            )
        };
        let Value::Map(mut top) = report.to_value() else { panic!() };
        for (k, v) in top.iter_mut() {
            if k == "points" {
                let Value::Seq(pts) = std::mem::replace(v, Value::Null) else { panic!() };
                *v = Value::Seq(
                    pts.into_iter()
                        .map(|p| {
                            strip(
                                p,
                                &[
                                    "resident_entries",
                                    "resident_bytes",
                                    "fused_epilogues",
                                    "output_passes",
                                    "telemetry_requests",
                                    "slow_requests",
                                    "hot_tenant_requests",
                                    "worst_tenant_p99_us",
                                    "tenants_over_slo",
                                ],
                            )
                        })
                        .collect(),
                );
            }
        }
        let legacy = strip(
            Value::Map(top),
            &["bf16_capacity_floor", "slo_target_p99_ms", "traffic_seed"],
        );
        let old = ServeReport::from_value(&legacy).unwrap();
        assert_eq!(old.points[0].resident_entries, 0);
        assert_eq!(old.points[0].fused_epilogues, 0);
        assert_eq!(old.points[0].telemetry_requests, 0);
        assert_eq!(old.points[0].tenants_over_slo, 0);
        assert_eq!(old.bf16_capacity_floor, 0.0);
        assert_eq!(old.slo_target_p99_ms, 0.0);
        assert_eq!(old.traffic_seed, 0);
    }

    #[test]
    fn quick_sweep_is_bitwise_and_covers_all_modes() {
        let _g = run_lock();
        let report = run(true);
        assert_eq!(report.scale, "quick");
        assert_eq!(report.points.len(), 9);
        assert!(report.points.iter().all(|p| p.bitwise_ok));
        assert!(report.points.iter().all(|p| p.requests == 96));
        assert!(report.points.iter().all(|p| p.throughput_rps > 0.0));
        // Both merged modes must actually exercise the cache, with churn.
        let merged: Vec<_> = report.points.iter().filter(|p| p.mode == "merged").collect();
        let merged16: Vec<_> =
            report.points.iter().filter(|p| p.mode == "merged-bf16").collect();
        for pts in [&merged, &merged16] {
            assert_eq!(pts.len(), 3);
            assert!(pts.iter().all(|p| p.cache_hits > 0));
            assert!(pts.iter().all(|p| p.cache_evictions > 0));
            assert!(pts.iter().all(|p| p.resident_entries > 0));
            // Cache behaviour is deterministic for a fixed stream: every
            // thread count sees identical totals and residency.
            assert!(pts.windows(2).all(|w| {
                (w[0].cache_hits, w[0].cache_misses, w[0].cache_evictions, w[0].resident_entries)
                    == (w[1].cache_hits, w[1].cache_misses, w[1].cache_evictions, w[1].resident_entries)
            }));
        }
        // The capacity claim at equal cache_bytes: half-width entries →
        // twice the resident tenants (quick scale: 3 f32 vs 6 bf16).
        let ratio = merged16[0].resident_entries as f64 / merged[0].resident_entries as f64;
        assert!(
            ratio >= report.bf16_capacity_floor,
            "bf16 residency ratio {ratio} under floor {}",
            report.bf16_capacity_floor
        );
        // Same byte budget, half-width entries.
        let per32 = merged[0].resident_bytes / merged[0].resident_entries;
        let per16 = merged16[0].resident_bytes / merged16[0].resident_entries;
        assert_eq!(per32, 2 * per16);
        // Factored mode never touches the cache.
        let factored: Vec<_> = report.points.iter().filter(|p| p.mode == "factored").collect();
        assert!(factored.iter().all(|p| p.cache_hits == 0 && p.cache_misses == 0));
        // Fusion covers every mode: bias adds and activations ride the
        // GEMM store (zero separate passes).
        assert!(report.points.iter().all(|p| p.fused_epilogues > 0));
        assert!(report.points.iter().all(|p| p.output_passes == 0));
        // Telemetry columns: every request hit the bridge, the zipf head
        // is the hot tenant, and nothing breaches the default 50 ms
        // target under the logical clock (µs-scale tick latencies).
        assert!(report.points.iter().all(|p| p.telemetry_requests == 96));
        assert!(report.points.iter().all(|p| p.hot_tenant_requests > 96 / 12));
        assert!(report.points.iter().all(|p| p.worst_tenant_p99_us > 0.0));
        assert!(report
            .points
            .iter()
            .all(|p| p.slow_requests == 0 && p.tenants_over_slo == 0));
        assert_eq!(report.traffic_seed, 42);
        assert!(report.slo_target_p99_ms > 0.0, "SLO gate arms on fresh reports");
    }

    #[test]
    fn telemetry_lines_are_deterministic_across_runs() {
        let _g = run_lock();
        let (ra, la) = run_with_telemetry(true);
        let (rb, lb) = run_with_telemetry(true);
        assert_eq!(la.len(), ra.points.len(), "one exporter line per point");
        assert_eq!(la, lb, "logical-clock metrics must be byte-identical");
        assert!(la.iter().all(|l| l.starts_with('{') && !l.contains('\n')));
        // Everything except the wall-clock throughput column repeats.
        for (a, b) in ra.points.iter().zip(&rb.points) {
            assert_eq!(a.telemetry_requests, b.telemetry_requests);
            assert_eq!(a.slow_requests, b.slow_requests);
            assert_eq!(a.hot_tenant_requests, b.hot_tenant_requests);
            assert_eq!(a.worst_tenant_p99_us.to_bits(), b.worst_tenant_p99_us.to_bits());
            assert_eq!(a.tenants_over_slo, b.tenants_over_slo);
        }
    }
}
