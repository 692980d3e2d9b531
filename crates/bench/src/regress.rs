//! Bench regression gate: diff a fresh [`KernelReport`] against the
//! committed `BENCH_kernels.json` baseline.
//!
//! The gate separates *violations* (fail the build) from *warnings*
//! (printed, ignored). What goes where follows from what is actually
//! deterministic:
//!
//! * Bitwise correctness and the presence of every baseline point are
//!   always violations.
//! * Wall-clock is gated only at `threads = 1` — multi-thread timings on
//!   shared CI runners are too noisy to fail a build on — and only with a
//!   loose fractional tolerance. When the fresh host's SIMD level differs
//!   from the baseline's, perf diffs are downgraded to warnings: the
//!   numbers are not comparable.
//! * Multi-thread *scaling* is gated through the within-run speedup
//!   ratio instead of absolute wall-clock: a packed matmul point at
//!   `threads ≥ 2` must reach the baseline's `multithread_floor`
//!   (default 1.2x vs its own t=1 row). The ratio is immune to host
//!   speed and SIMD level, so this is a violation — but only when the
//!   fresh host really has that many CPUs; a 1-core host physically
//!   cannot speed up and only warns.
//! * Counter and dispatch totals (calls, flops, packed/legacy, the
//!   serial/parallel split) are deterministic for a fixed scale, so they
//!   are compared near-exactly: drift means the benchmark is no longer
//!   measuring the same work.
//! * Arena hit rates only warn — pooling behaviour may legitimately shift
//!   with allocation-pattern changes.
//! * bf16 points are gated by **tolerance**, not bitwise-vs-baseline:
//!   wall-clock follows the same t=1/fractional policy as f32, while the
//!   per-call `bytes_moved` and the `bytes_ratio ≤ bf16_bytes_ceiling`
//!   claim are deterministic functions of the swept shapes and always
//!   violate on drift. The bitwise contract still exists, but it travels
//!   *inside* each point (`matches_widened_f32`, checked against the
//!   round-once widened-f32 reference at run time), not across runs.
//!   Baselines predating the bf16 sweep have no `bf16_points` and a zero
//!   ceiling: the gates simply don't arm, and fresh bf16 points surface
//!   as refresh-the-baseline warnings.
//! * Fused-epilogue points follow the same shape: the bitwise contract
//!   (`bitwise_equal_to_unfused`) and the second-pass-elimination claim
//!   (`fused_output_passes == 0`) are deterministic and always violate,
//!   while the fused-vs-unfused wall-clock ratio — a within-run ratio,
//!   immune to host speed — gates against the baseline's `fused_floor`
//!   at `t = 1` only. Pre-fusion baselines deserialise to no fused
//!   points and a zero floor, so those gates don't arm either.

use crate::kernels::KernelReport;
use crate::serve_bench::ServeReport;

/// Per-metric tolerances for [`compare`].
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Allowed fractional slowdown on `threads = 1` `best_ms`
    /// (`0.6` = fail only when >60% slower than baseline).
    pub ms_frac: f64,
    /// Allowed fractional drift on counter/dispatch totals. These are
    /// deterministic, so the default is tight.
    pub counter_frac: f64,
    /// Allowed absolute drift on arena hit rates before warning.
    pub hit_rate_abs: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances { ms_frac: 0.6, counter_frac: 0.01, hit_rate_abs: 0.05 }
    }
}

/// Outcome of one baseline-vs-fresh diff.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Failures: the gate should exit nonzero.
    pub violations: Vec<String>,
    /// Informational drift: printed, never fails the build.
    pub warnings: Vec<String>,
}

impl Comparison {
    /// True when no violation was recorded.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn rel_diff(fresh: f64, base: f64) -> f64 {
    (fresh - base).abs() / base.abs().max(1.0)
}

/// Diffs `fresh` against `baseline` under `tol`. Pure function of its
/// inputs so the doctored-baseline behaviour is unit-testable without
/// running a sweep.
pub fn compare(baseline: &KernelReport, fresh: &KernelReport, tol: &Tolerances) -> Comparison {
    let mut cmp = Comparison::default();

    if baseline.scale != fresh.scale {
        cmp.violations.push(format!(
            "scale mismatch: baseline ran '{}', fresh ran '{}' — reports are not comparable",
            baseline.scale, fresh.scale
        ));
        return cmp;
    }

    // Perf numbers from a different SIMD level (or a very different core
    // count) describe a different machine; keep the correctness and
    // counter gates but stop failing on wall-clock.
    let perf_gate = baseline.simd_level == fresh.simd_level;
    if !perf_gate {
        cmp.warnings.push(format!(
            "simd level differs (baseline {}, fresh {}): perf regressions downgraded to warnings",
            baseline.simd_level, fresh.simd_level
        ));
    }
    if baseline.host_cpus != fresh.host_cpus {
        cmp.warnings.push(format!(
            "host_cpus differs (baseline {}, fresh {}): multi-thread speedups will not match",
            baseline.host_cpus, fresh.host_cpus
        ));
    }

    for base_pt in &baseline.points {
        let Some(fresh_pt) = fresh.points.iter().find(|p| {
            p.kernel == base_pt.kernel && p.path == base_pt.path && p.threads == base_pt.threads
        }) else {
            cmp.violations.push(format!(
                "missing point: {} / {} / t={} is in the baseline but not in the fresh run",
                base_pt.kernel, base_pt.path, base_pt.threads
            ));
            continue;
        };
        if !fresh_pt.bitwise_equal_to_serial {
            cmp.violations.push(format!(
                "correctness: {} / {} / t={} no longer bitwise-equal to the legacy serial run",
                fresh_pt.kernel, fresh_pt.path, fresh_pt.threads
            ));
        }
        let limit = base_pt.best_ms * (1.0 + tol.ms_frac);
        if fresh_pt.best_ms > limit {
            let msg = format!(
                "perf: {} / {} / t={} took {:.3} ms, baseline {:.3} ms (limit {:.3} ms at +{:.0}%)",
                fresh_pt.kernel,
                fresh_pt.path,
                fresh_pt.threads,
                fresh_pt.best_ms,
                base_pt.best_ms,
                limit,
                100.0 * tol.ms_frac,
            );
            if perf_gate && base_pt.threads == 1 {
                cmp.violations.push(msg);
            } else {
                cmp.warnings.push(msg);
            }
        }
    }
    // Scaling floor: packed matmul with a real core per worker must beat
    // its own single-thread row by the baseline-configured factor.
    let mut floor_skipped = 0usize;
    for fresh_pt in &fresh.points {
        if fresh_pt.path != "packed"
            || !fresh_pt.kernel.starts_with("matmul")
            || fresh_pt.threads < 2
        {
            continue;
        }
        if fresh.host_cpus < fresh_pt.threads {
            floor_skipped += 1;
            continue;
        }
        if fresh_pt.speedup_vs_1 < baseline.multithread_floor {
            cmp.violations.push(format!(
                "scaling: {} / packed / t={} ran at {:.2}x vs its own t=1 row, floor is {:.2}x",
                fresh_pt.kernel, fresh_pt.threads, fresh_pt.speedup_vs_1, baseline.multithread_floor
            ));
        }
    }
    if floor_skipped > 0 {
        cmp.warnings.push(format!(
            "scaling floor not enforceable for {} packed matmul point(s): host has only {} CPU(s)",
            floor_skipped, fresh.host_cpus
        ));
    }

    for fresh_pt in &fresh.points {
        let known = baseline.points.iter().any(|p| {
            p.kernel == fresh_pt.kernel && p.path == fresh_pt.path && p.threads == fresh_pt.threads
        });
        if !known {
            cmp.warnings.push(format!(
                "new point not in baseline: {} / {} / t={} (refresh BENCH_kernels.json)",
                fresh_pt.kernel, fresh_pt.path, fresh_pt.threads
            ));
        }
    }

    // bf16 GEMM points: tolerance mode. Timing follows the f32 policy;
    // byte traffic and the bytes ratio are deterministic and always gate.
    for base_pt in &baseline.bf16_points {
        let Some(fresh_pt) = fresh
            .bf16_points
            .iter()
            .find(|p| p.kernel == base_pt.kernel && p.threads == base_pt.threads)
        else {
            cmp.violations.push(format!(
                "bf16 missing point: {} / t={} is in the baseline but not in the fresh run",
                base_pt.kernel, base_pt.threads
            ));
            continue;
        };
        if !fresh_pt.matches_widened_f32 {
            cmp.violations.push(format!(
                "bf16 correctness: {} / t={} no longer matches the round-once widened-f32 reference",
                fresh_pt.kernel, fresh_pt.threads
            ));
        }
        if rel_diff(fresh_pt.bytes_moved as f64, base_pt.bytes_moved as f64) > tol.counter_frac {
            cmp.violations.push(format!(
                "bf16 bytes drift: {} / t={} moved {} bytes vs baseline {} — storage widths changed",
                base_pt.kernel, base_pt.threads, fresh_pt.bytes_moved, base_pt.bytes_moved
            ));
        }
        if baseline.bf16_bytes_ceiling > 0.0
            && fresh_pt.bytes_ratio > baseline.bf16_bytes_ceiling
        {
            cmp.violations.push(format!(
                "bf16 bytes ratio: {} / t={} moves {:.3}x the f32 bytes, ceiling is {:.2}x",
                fresh_pt.kernel, fresh_pt.threads, fresh_pt.bytes_ratio,
                baseline.bf16_bytes_ceiling
            ));
        }
        let limit = base_pt.best_ms * (1.0 + tol.ms_frac);
        if fresh_pt.best_ms > limit {
            let msg = format!(
                "bf16 perf: {} / t={} took {:.3} ms, baseline {:.3} ms (limit {:.3} ms at +{:.0}%)",
                fresh_pt.kernel, fresh_pt.threads, fresh_pt.best_ms, base_pt.best_ms,
                limit, 100.0 * tol.ms_frac,
            );
            if perf_gate && base_pt.threads == 1 {
                cmp.violations.push(msg);
            } else {
                cmp.warnings.push(msg);
            }
        }
    }
    for fresh_pt in &fresh.bf16_points {
        let known = baseline
            .bf16_points
            .iter()
            .any(|p| p.kernel == fresh_pt.kernel && p.threads == fresh_pt.threads);
        if !known {
            cmp.warnings.push(format!(
                "bf16 new point not in baseline: {} / t={} (refresh BENCH_kernels.json)",
                fresh_pt.kernel, fresh_pt.threads
            ));
        }
    }

    // Fused-epilogue points. Correctness (bitwise vs the separate-pass
    // run) and the zero-output-pass claim are deterministic and always
    // gate; the fused-vs-unfused wall-clock ratio gates against
    // `fused_floor` at t=1 with a matching SIMD level. Pre-fusion
    // baselines carry no fused points and a zero floor: nothing arms.
    for base_pt in &baseline.fused_points {
        let Some(fresh_pt) = fresh
            .fused_points
            .iter()
            .find(|p| p.kernel == base_pt.kernel && p.threads == base_pt.threads)
        else {
            cmp.violations.push(format!(
                "fused missing point: {} / t={} is in the baseline but not in the fresh run",
                base_pt.kernel, base_pt.threads
            ));
            continue;
        };
        if !fresh_pt.bitwise_equal_to_unfused {
            cmp.violations.push(format!(
                "fused correctness: {} / t={} no longer bitwise-equal to the separate-pass output",
                fresh_pt.kernel, fresh_pt.threads
            ));
        }
        if fresh_pt.fused_output_passes != 0 {
            cmp.violations.push(format!(
                "fused passes: {} / t={} took {} separate output pass(es) — fusion must take none",
                fresh_pt.kernel, fresh_pt.threads, fresh_pt.fused_output_passes
            ));
        }
        if baseline.fused_floor > 0.0 && fresh_pt.speedup_vs_unfused < baseline.fused_floor {
            let msg = format!(
                "fused perf: {} / t={} ran at {:.2}x vs its own unfused run, floor is {:.2}x",
                fresh_pt.kernel, fresh_pt.threads, fresh_pt.speedup_vs_unfused,
                baseline.fused_floor
            );
            if perf_gate && base_pt.threads == 1 {
                cmp.violations.push(msg);
            } else {
                cmp.warnings.push(msg);
            }
        }
    }
    for fresh_pt in &fresh.fused_points {
        let known = baseline
            .fused_points
            .iter()
            .any(|p| p.kernel == fresh_pt.kernel && p.threads == fresh_pt.threads);
        if !known {
            cmp.warnings.push(format!(
                "fused new point not in baseline: {} / t={} (refresh BENCH_kernels.json)",
                fresh_pt.kernel, fresh_pt.threads
            ));
        }
    }

    for base_ct in &baseline.sweep_counters {
        let Some(fresh_ct) =
            fresh.sweep_counters.iter().find(|c| c.kernel == base_ct.kernel)
        else {
            cmp.violations.push(format!(
                "counter row '{}' is in the baseline but not in the fresh run",
                base_ct.kernel
            ));
            continue;
        };
        if rel_diff(fresh_ct.calls as f64, base_ct.calls as f64) > tol.counter_frac {
            cmp.violations.push(format!(
                "counter drift: {} calls {} vs baseline {} — the sweep is measuring different work",
                base_ct.kernel, fresh_ct.calls, base_ct.calls
            ));
        }
        if rel_diff(fresh_ct.flops as f64, base_ct.flops as f64) > tol.counter_frac {
            cmp.violations.push(format!(
                "counter drift: {} flops {} vs baseline {} — the sweep is measuring different work",
                base_ct.kernel, fresh_ct.flops, base_ct.flops
            ));
        }
    }

    let disp = [
        ("dispatch parallel", baseline.sweep_dispatch.parallel, fresh.sweep_dispatch.parallel),
        ("dispatch serial", baseline.sweep_dispatch.serial, fresh.sweep_dispatch.serial),
        ("matmul packed", baseline.sweep_dispatch.matmul_packed, fresh.sweep_dispatch.matmul_packed),
        ("matmul legacy", baseline.sweep_dispatch.matmul_legacy, fresh.sweep_dispatch.matmul_legacy),
        ("tile claims", baseline.sweep_dispatch.tile_claims, fresh.sweep_dispatch.tile_claims),
        ("tile bpacks", baseline.sweep_dispatch.tile_bpacks, fresh.sweep_dispatch.tile_bpacks),
    ];
    for (name, base_n, fresh_n) in disp {
        if rel_diff(fresh_n as f64, base_n as f64) > tol.counter_frac {
            cmp.violations.push(format!(
                "dispatch drift: {name} {fresh_n} vs baseline {base_n}"
            ));
        }
    }

    for (phase, base_a, fresh_a) in [
        ("sweep", &baseline.sweep_arena, &fresh.sweep_arena),
        ("train", &baseline.train_arena, &fresh.train_arena),
    ] {
        if (fresh_a.hit_rate - base_a.hit_rate).abs() > tol.hit_rate_abs {
            cmp.warnings.push(format!(
                "{phase} arena hit rate {:.1}% vs baseline {:.1}%",
                100.0 * fresh_a.hit_rate,
                100.0 * base_a.hit_rate
            ));
        }
    }

    cmp
}

/// Diffs a fresh [`ServeReport`] against the committed `BENCH_serve.json`
/// baseline. Same policy split as [`compare`]:
///
/// * A `bitwise_ok: false` point, a missing `(mode, threads)` point, or a
///   scale mismatch is always a violation.
/// * Request/batch totals and the merged-cache hit/miss/eviction totals
///   are deterministic for a fixed stream (the LRU replays the same
///   sequence), so they are compared near-exactly.
/// * Throughput is gated only at `threads = 1` and only when the SIMD
///   level matches; latency percentiles are timing noise and never gate.
/// * When the baseline arms `bf16_capacity_floor`, the fresh run's
///   merged-bf16 residency must reach that multiple of the f32 merged
///   residency at equal cache bytes — the doubled-capacity claim.
/// * A fresh point that took separate epilogue output passes is always a
///   violation — serving runs with fusion on, so the pass count is
///   deterministically zero. The fused-epilogue total is deterministic
///   per stream too, but only gates when the baseline recorded it
///   (pre-fusion baselines deserialise to zero).
/// * Telemetry counters (requests recorded, slow requests, hot-tenant
///   share) are deterministic under the logical bench clock and gate
///   like the cache counters — but only when the baseline recorded
///   telemetry (pre-telemetry baselines deserialise to zero).
/// * When the baseline arms `slo_target_p99_ms`, a point whose
///   `tenants_over_slo` exceeds the baseline's is a violation: a tenant
///   newly breached its windowed p99 target.
pub fn compare_serve(
    baseline: &ServeReport,
    fresh: &ServeReport,
    tol: &Tolerances,
) -> Comparison {
    let mut cmp = Comparison::default();

    if baseline.scale != fresh.scale {
        cmp.violations.push(format!(
            "serve scale mismatch: baseline ran '{}', fresh ran '{}' — reports are not comparable",
            baseline.scale, fresh.scale
        ));
        return cmp;
    }
    let perf_gate = baseline.simd_level == fresh.simd_level;
    if !perf_gate {
        cmp.warnings.push(format!(
            "serve simd level differs (baseline {}, fresh {}): perf regressions downgraded to warnings",
            baseline.simd_level, fresh.simd_level
        ));
    }

    for base_pt in &baseline.points {
        let Some(fresh_pt) = fresh
            .points
            .iter()
            .find(|p| p.mode == base_pt.mode && p.threads == base_pt.threads)
        else {
            cmp.violations.push(format!(
                "serve missing point: {} / t={} is in the baseline but not in the fresh run",
                base_pt.mode, base_pt.threads
            ));
            continue;
        };
        if !fresh_pt.bitwise_ok {
            cmp.violations.push(format!(
                "serve correctness: {} / t={} batched outputs no longer bitwise-equal to solo serving",
                fresh_pt.mode, fresh_pt.threads
            ));
        }
        for (name, base_n, fresh_n) in [
            ("requests", base_pt.requests, fresh_pt.requests),
            ("batches", base_pt.batches, fresh_pt.batches),
            ("cache_hits", base_pt.cache_hits, fresh_pt.cache_hits),
            ("cache_misses", base_pt.cache_misses, fresh_pt.cache_misses),
            ("cache_evictions", base_pt.cache_evictions, fresh_pt.cache_evictions),
            ("resident_entries", base_pt.resident_entries, fresh_pt.resident_entries),
        ] {
            if rel_diff(fresh_n as f64, base_n as f64) > tol.counter_frac {
                cmp.violations.push(format!(
                    "serve counter drift: {} / t={} {name} {fresh_n} vs baseline {base_n} — the sweep is serving different work",
                    base_pt.mode, base_pt.threads
                ));
            }
        }
        if fresh_pt.output_passes != 0 {
            cmp.violations.push(format!(
                "serve fused passes: {} / t={} took {} separate epilogue pass(es) — the fused-store claim broke",
                base_pt.mode, base_pt.threads, fresh_pt.output_passes
            ));
        }
        let (base_n, fresh_n) = (base_pt.fused_epilogues, fresh_pt.fused_epilogues);
        if base_n > 0 && rel_diff(fresh_n as f64, base_n as f64) > tol.counter_frac {
            cmp.violations.push(format!(
                "serve counter drift: {} / t={} fused_epilogues {fresh_n} vs baseline {base_n} — the sweep is serving different work",
                base_pt.mode, base_pt.threads
            ));
        }
        // Telemetry drift: under the logical bench clock the bridge's
        // counters are deterministic per stream. Armed only when the
        // baseline recorded telemetry (older baselines deserialise to 0).
        if base_pt.telemetry_requests > 0 {
            for (name, base_n, fresh_n) in [
                ("telemetry_requests", base_pt.telemetry_requests, fresh_pt.telemetry_requests),
                ("slow_requests", base_pt.slow_requests, fresh_pt.slow_requests),
                (
                    "hot_tenant_requests",
                    base_pt.hot_tenant_requests,
                    fresh_pt.hot_tenant_requests,
                ),
            ] {
                if rel_diff(fresh_n as f64, base_n as f64) > tol.counter_frac {
                    cmp.violations.push(format!(
                        "serve telemetry drift: {} / t={} {name} {fresh_n} vs baseline {base_n} — the metrics bridge is recording different work",
                        base_pt.mode, base_pt.threads
                    ));
                }
            }
        }
        // SLO floor: a tenant newly over its windowed p99 target is a
        // tail-latency regression, not timing noise — the bench clock is
        // logical. Armed only when the baseline carried a target.
        if baseline.slo_target_p99_ms > 0.0
            && fresh_pt.tenants_over_slo > base_pt.tenants_over_slo
        {
            cmp.violations.push(format!(
                "serve SLO floor: {} / t={} has {} tenant(s) over the {:.1} ms p99 target, baseline had {}",
                base_pt.mode,
                base_pt.threads,
                fresh_pt.tenants_over_slo,
                baseline.slo_target_p99_ms,
                base_pt.tenants_over_slo
            ));
        }
        // Throughput floor: fresh must reach baseline / (1 + ms_frac).
        let floor = base_pt.throughput_rps / (1.0 + tol.ms_frac);
        if fresh_pt.throughput_rps < floor {
            let msg = format!(
                "serve perf: {} / t={} ran at {:.0} req/s, baseline {:.0} req/s (floor {:.0} at -{:.0}%)",
                fresh_pt.mode,
                fresh_pt.threads,
                fresh_pt.throughput_rps,
                base_pt.throughput_rps,
                floor,
                100.0 * tol.ms_frac / (1.0 + tol.ms_frac),
            );
            if perf_gate && base_pt.threads == 1 {
                cmp.violations.push(msg);
            } else {
                cmp.warnings.push(msg);
            }
        }
    }

    for fresh_pt in &fresh.points {
        let known = baseline
            .points
            .iter()
            .any(|p| p.mode == fresh_pt.mode && p.threads == fresh_pt.threads);
        if !known {
            cmp.warnings.push(format!(
                "serve new point not in baseline: {} / t={} (refresh BENCH_serve.json)",
                fresh_pt.mode, fresh_pt.threads
            ));
        }
    }

    // Capacity gate: at equal `cache_bytes` the bf16 merged cache must
    // end the stream holding `bf16_capacity_floor`× the f32 merged
    // working set. Residency is deterministic for a fixed stream, so this
    // is a violation — but only when the baseline arms the gate (old
    // baselines carry a zero floor) and the fresh run has both modes.
    if baseline.bf16_capacity_floor > 0.0 {
        let resident = |mode: &str| {
            fresh
                .points
                .iter()
                .filter(|p| p.mode == mode)
                .map(|p| p.resident_entries)
                .max()
        };
        match (resident("merged"), resident("merged-bf16")) {
            (Some(f32_res), Some(bf16_res)) if f32_res > 0 => {
                let ratio = bf16_res as f64 / f32_res as f64;
                if ratio < baseline.bf16_capacity_floor {
                    cmp.violations.push(format!(
                        "serve capacity: merged-bf16 holds {bf16_res} entries vs merged {f32_res} \
                         ({ratio:.2}x), floor is {:.2}x at equal cache bytes",
                        baseline.bf16_capacity_floor
                    ));
                }
            }
            _ => cmp.warnings.push(
                "serve capacity gate skipped: fresh run lacks merged/merged-bf16 residency"
                    .to_string(),
            ),
        }
    }

    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{
        ArenaStats, Bf16KernelPoint, CounterTotals, DispatchTotals, FusedKernelPoint, KernelPoint,
    };

    fn arena() -> ArenaStats {
        ArenaStats { hits: 10, misses: 2, hit_rate: 10.0 / 12.0, bytes_reused: 1024, peak_pooled_bytes: 2048 }
    }

    fn point(path: &str, threads: usize, best_ms: f64) -> KernelPoint {
        KernelPoint {
            kernel: "matmul 128x128x128".into(),
            path: path.into(),
            threads,
            best_ms,
            gflops: 1.0,
            speedup_vs_1: if threads > 1 { 2.5 } else { 1.0 },
            bitwise_equal_to_serial: true,
        }
    }

    fn bf16_point(threads: usize, best_ms: f64) -> Bf16KernelPoint {
        Bf16KernelPoint {
            kernel: "bf16 matmul 128x128x128".into(),
            threads,
            best_ms,
            gflops: 1.0,
            f32_best_ms: 1.0,
            speedup_vs_f32: 1.0 / best_ms,
            bytes_moved: 98_304,
            f32_bytes_moved: 196_608,
            bytes_ratio: 0.5,
            matches_widened_f32: true,
        }
    }

    fn fused_point(threads: usize, speedup: f64) -> FusedKernelPoint {
        FusedKernelPoint {
            kernel: "fused matmul 128x128x128 bias+gelu".into(),
            threads,
            best_ms: 1.0 / speedup,
            unfused_best_ms: 1.0,
            speedup_vs_unfused: speedup,
            fused_output_passes: 0,
            unfused_output_passes: 2,
            bitwise_equal_to_unfused: true,
        }
    }

    fn report() -> KernelReport {
        KernelReport {
            host_cpus: 4,
            sweep_threads: vec![1, 4],
            multithread_floor: 1.2,
            scale: "quick".into(),
            simd_level: "avx2".into(),
            points: vec![point("legacy", 1, 2.0), point("packed", 1, 1.0), point("packed", 4, 0.4)],
            bf16_bytes_ceiling: 0.55,
            bf16_points: vec![bf16_point(1, 0.8), bf16_point(4, 0.3)],
            fused_floor: 0.95,
            fused_points: vec![fused_point(1, 1.2), fused_point(4, 1.1)],
            sweep_counters: vec![
                CounterTotals { kernel: "matmul".into(), calls: 24, flops: 100_000 },
                CounterTotals { kernel: "knn".into(), calls: 9, flops: 5_000 },
            ],
            sweep_dispatch: DispatchTotals {
                parallel: 18,
                serial: 6,
                matmul_packed: 12,
                matmul_legacy: 12,
                tile_claims: 96,
                tile_bpacks: 12,
            },
            sweep_arena: arena(),
            train_arena: arena(),
        }
    }

    #[test]
    fn identical_reports_pass_clean() {
        let base = report();
        let cmp = compare(&base, &base.clone(), &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.is_empty(), "warnings: {:?}", cmp.warnings);
    }

    #[test]
    fn doctored_baseline_timing_fails_the_gate() {
        // Doctor the baseline to claim the t=1 packed point used to run
        // 10x faster: the fresh run must read as a perf regression.
        let mut base = report();
        base.points[1].best_ms = 0.1;
        let cmp = compare(&base, &report(), &Tolerances::default());
        assert!(!cmp.passed());
        assert!(cmp.violations.iter().any(|v| v.starts_with("perf:")), "{:?}", cmp.violations);
    }

    #[test]
    fn multi_thread_timing_only_warns() {
        let mut base = report();
        base.points[2].best_ms = 0.01; // t=4 point doctored 40x faster
        let cmp = compare(&base, &report(), &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.iter().any(|w| w.starts_with("perf:")));
    }

    #[test]
    fn simd_mismatch_downgrades_perf_to_warning() {
        let mut base = report();
        base.simd_level = "avx512".into();
        base.points[1].best_ms = 0.1;
        let cmp = compare(&base, &report(), &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.iter().any(|w| w.starts_with("perf:")));
        assert!(cmp.warnings.iter().any(|w| w.contains("simd level differs")));
    }

    #[test]
    fn scaling_floor_fails_on_a_capable_host() {
        // 4 CPUs, packed matmul at t=4 barely above 1.0x: violation.
        let mut fresh = report();
        fresh.points[2].speedup_vs_1 = 1.05;
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(!cmp.passed());
        assert!(cmp.violations.iter().any(|v| v.starts_with("scaling:")), "{:?}", cmp.violations);
    }

    #[test]
    fn scaling_floor_only_warns_when_the_host_lacks_cores() {
        // A 1-CPU host cannot go faster with more workers; same sub-floor
        // ratio must not fail, but the gap is surfaced as a warning.
        let mut fresh = report();
        fresh.host_cpus = 1;
        fresh.points[2].speedup_vs_1 = 0.95;
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.iter().any(|w| w.contains("scaling floor not enforceable")));
    }

    #[test]
    fn scaling_floor_is_baseline_configurable() {
        let mut base = report();
        base.multithread_floor = 0.9;
        let mut fresh = report();
        fresh.points[2].speedup_vs_1 = 1.05; // below 1.2, above 0.9
        let cmp = compare(&base, &fresh, &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
    }

    #[test]
    fn scaling_floor_ignores_legacy_and_single_thread_points() {
        let mut fresh = report();
        fresh.points[0].speedup_vs_1 = 0.1; // legacy
        fresh.points[1].speedup_vs_1 = 0.1; // packed t=1
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(!cmp.violations.iter().any(|v| v.starts_with("scaling:")), "{:?}", cmp.violations);
    }

    #[test]
    fn counter_and_dispatch_drift_fail_the_gate() {
        let mut base = report();
        base.sweep_counters[0].calls = 48;
        base.sweep_dispatch.matmul_packed = 99;
        let cmp = compare(&base, &report(), &Tolerances::default());
        assert_eq!(
            cmp.violations.iter().filter(|v| v.contains("drift")).count(),
            2,
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn bitwise_failure_is_always_a_violation() {
        let mut fresh = report();
        fresh.points[2].bitwise_equal_to_serial = false; // even at t>1
        fresh.simd_level = "scalar".into(); // even with the perf gate off
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(cmp.violations.iter().any(|v| v.starts_with("correctness:")), "{:?}", cmp.violations);
    }

    #[test]
    fn missing_point_and_scale_mismatch_fail() {
        let mut fresh = report();
        fresh.points.remove(0);
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(cmp.violations.iter().any(|v| v.starts_with("missing point:")));

        let mut fresh = report();
        fresh.scale = "standard".into();
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(cmp.violations.iter().any(|v| v.contains("scale mismatch")));
    }

    #[test]
    fn arena_drift_only_warns() {
        let mut fresh = report();
        fresh.train_arena.hit_rate = 0.2;
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(cmp.passed());
        assert!(cmp.warnings.iter().any(|w| w.contains("arena hit rate")));
    }

    use crate::serve_bench::ServePoint;

    fn serve_point(mode: &str, threads: usize, rps: f64) -> ServePoint {
        let cached = mode.starts_with("merged");
        ServePoint {
            mode: mode.into(),
            threads,
            requests: 96,
            batches: 6,
            throughput_rps: rps,
            p50_us: 10.0,
            p95_us: 20.0,
            p99_us: 30.0,
            cache_hits: if cached { 80 } else { 0 },
            cache_misses: if cached { 16 } else { 0 },
            cache_evictions: if cached { 4 } else { 0 },
            resident_entries: match mode {
                "merged" => 3,
                "merged-bf16" => 6,
                _ => 0,
            },
            resident_bytes: match mode {
                "merged" => 768,
                "merged-bf16" => 768,
                _ => 0,
            },
            fused_epilogues: 192,
            output_passes: 0,
            telemetry_requests: 96,
            slow_requests: 0,
            hot_tenant_requests: 31,
            worst_tenant_p99_us: 12.5,
            tenants_over_slo: 0,
            bitwise_ok: true,
        }
    }

    fn serve_report() -> ServeReport {
        ServeReport {
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
            points: vec![
                serve_point("factored", 1, 1000.0),
                serve_point("merged", 1, 2000.0),
                serve_point("merged", 4, 4000.0),
                serve_point("merged-bf16", 1, 2000.0),
                serve_point("merged-bf16", 4, 4000.0),
            ],
        }
    }

    #[test]
    fn identical_serve_reports_pass_clean() {
        let base = serve_report();
        let cmp = compare_serve(&base, &base.clone(), &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.is_empty(), "warnings: {:?}", cmp.warnings);
    }

    #[test]
    fn doctored_serve_baseline_throughput_fails_the_gate() {
        // Doctor the baseline to claim t=1 merged used to serve 10x more
        // requests per second: the fresh run must read as a regression.
        let mut base = serve_report();
        base.points[1].throughput_rps = 20_000.0;
        let cmp = compare_serve(&base, &serve_report(), &Tolerances::default());
        assert!(!cmp.passed());
        assert!(
            cmp.violations.iter().any(|v| v.starts_with("serve perf:")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn serve_multi_thread_throughput_only_warns() {
        let mut base = serve_report();
        base.points[2].throughput_rps = 40_000.0; // t=4 doctored 10x
        let cmp = compare_serve(&base, &serve_report(), &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.iter().any(|w| w.starts_with("serve perf:")));
    }

    #[test]
    fn serve_simd_mismatch_downgrades_perf_to_warning() {
        let mut base = serve_report();
        base.simd_level = "avx512".into();
        base.points[1].throughput_rps = 20_000.0;
        let cmp = compare_serve(&base, &serve_report(), &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.iter().any(|w| w.contains("simd level differs")));
    }

    #[test]
    fn serve_bitwise_failure_is_always_a_violation() {
        let mut fresh = serve_report();
        fresh.points[2].bitwise_ok = false; // even at t>1
        fresh.simd_level = "scalar".into(); // even with the perf gate off
        let cmp = compare_serve(&serve_report(), &fresh, &Tolerances::default());
        assert!(
            cmp.violations.iter().any(|v| v.starts_with("serve correctness:")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn serve_cache_counter_drift_fails_the_gate() {
        let mut fresh = serve_report();
        fresh.points[1].cache_hits = 40; // LRU replay diverged
        fresh.points[1].batches = 12; // chunking changed
        let cmp = compare_serve(&serve_report(), &fresh, &Tolerances::default());
        assert_eq!(
            cmp.violations.iter().filter(|v| v.contains("counter drift")).count(),
            2,
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn serve_missing_point_and_scale_mismatch_fail() {
        let mut fresh = serve_report();
        fresh.points.remove(0);
        let cmp = compare_serve(&serve_report(), &fresh, &Tolerances::default());
        assert!(cmp.violations.iter().any(|v| v.starts_with("serve missing point:")));

        let mut fresh = serve_report();
        fresh.scale = "standard".into();
        let cmp = compare_serve(&serve_report(), &fresh, &Tolerances::default());
        assert!(cmp.violations.iter().any(|v| v.contains("scale mismatch")));
    }

    #[test]
    fn serve_extra_point_only_warns() {
        let mut fresh = serve_report();
        fresh.points.push(serve_point("merged", 8, 8000.0));
        let cmp = compare_serve(&serve_report(), &fresh, &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.iter().any(|w| w.contains("new point not in baseline")));
    }

    // --- telemetry and SLO gates ------------------------------------

    #[test]
    fn serve_telemetry_drift_fails_when_baseline_recorded_telemetry() {
        let mut fresh = serve_report();
        fresh.points[1].telemetry_requests = 48; // bridge missed half the stream
        fresh.points[1].slow_requests = 10; // tail appeared from nowhere
        let cmp = compare_serve(&serve_report(), &fresh, &Tolerances::default());
        assert!(!cmp.passed());
        assert_eq!(
            cmp.violations.iter().filter(|v| v.contains("telemetry drift")).count(),
            2,
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn serve_slo_floor_breach_fails_when_target_armed() {
        let mut fresh = serve_report();
        fresh.points[3].tenants_over_slo = 2; // two tenants newly over p99
        let cmp = compare_serve(&serve_report(), &fresh, &Tolerances::default());
        assert!(!cmp.passed());
        assert!(
            cmp.violations.iter().any(|v| v.starts_with("serve SLO floor:")
                && v.contains("merged-bf16 / t=1")
                && v.contains("50.0 ms")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn serve_telemetry_gate_disarmed_on_pre_telemetry_baseline() {
        // A baseline written before telemetry existed deserialises with
        // zeroed counters; fresh runs recording telemetry must still pass.
        let mut base = serve_report();
        for p in &mut base.points {
            p.telemetry_requests = 0;
            p.slow_requests = 0;
            p.hot_tenant_requests = 0;
        }
        let mut fresh = serve_report();
        fresh.points[1].slow_requests = 10;
        let cmp = compare_serve(&base, &fresh, &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
    }

    #[test]
    fn serve_slo_gate_disarmed_without_a_baseline_target() {
        let mut base = serve_report();
        base.slo_target_p99_ms = 0.0; // pre-telemetry baseline
        let mut fresh = serve_report();
        fresh.points[3].tenants_over_slo = 5;
        let cmp = compare_serve(&base, &fresh, &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
    }

    // --- bf16 tolerance gates ---------------------------------------

    #[test]
    fn bf16_timing_within_tolerance_passes() {
        // 40% slower than the doctored baseline is inside the 60% band:
        // tolerance mode, not bitwise-vs-baseline.
        let mut base = report();
        base.bf16_points[0].best_ms = 0.6;
        let cmp = compare(&base, &report(), &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
    }

    #[test]
    fn bf16_timing_regression_fails_only_at_t1() {
        let mut base = report();
        base.bf16_points[0].best_ms = 0.1; // t=1 doctored 8x faster
        base.bf16_points[1].best_ms = 0.01; // t=4 doctored 30x faster
        let cmp = compare(&base, &report(), &Tolerances::default());
        assert!(!cmp.passed());
        assert_eq!(
            cmp.violations.iter().filter(|v| v.starts_with("bf16 perf:")).count(),
            1,
            "{:?}",
            cmp.violations
        );
        assert!(cmp.warnings.iter().any(|w| w.starts_with("bf16 perf:")));
    }

    #[test]
    fn bf16_contract_break_and_missing_point_fail() {
        let mut fresh = report();
        fresh.bf16_points[1].matches_widened_f32 = false; // even at t>1
        fresh.simd_level = "scalar".into(); // even with the perf gate off
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(cmp.violations.iter().any(|v| v.starts_with("bf16 correctness:")), "{:?}", cmp.violations);

        let mut fresh = report();
        fresh.bf16_points.remove(0);
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(cmp.violations.iter().any(|v| v.starts_with("bf16 missing point:")));
    }

    #[test]
    fn bf16_bytes_ratio_over_ceiling_fails() {
        let mut fresh = report();
        // Same bytes as baseline (no drift) but the ratio claim broke —
        // e.g. the f32 side got cheaper.
        fresh.bf16_points[0].bytes_ratio = 0.75;
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(!cmp.passed());
        assert!(cmp.violations.iter().any(|v| v.starts_with("bf16 bytes ratio:")), "{:?}", cmp.violations);
    }

    #[test]
    fn bf16_bytes_drift_fails() {
        let mut fresh = report();
        fresh.bf16_points[0].bytes_moved = 196_608; // someone widened storage
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(cmp.violations.iter().any(|v| v.starts_with("bf16 bytes drift:")), "{:?}", cmp.violations);
    }

    #[test]
    fn pre_bf16_baseline_disarms_the_gates() {
        // An old baseline deserialises to no bf16 points and a zero
        // ceiling: fresh bf16 points only produce refresh warnings.
        let mut base = report();
        base.bf16_points.clear();
        base.bf16_bytes_ceiling = 0.0;
        let cmp = compare(&base, &report(), &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.iter().any(|w| w.contains("bf16 new point not in baseline")));
    }

    // --- fused-epilogue gates ----------------------------------------

    #[test]
    fn fused_speedup_regression_fails_only_at_t1() {
        let mut fresh = report();
        fresh.fused_points[0].speedup_vs_unfused = 0.7; // t=1 below floor
        fresh.fused_points[1].speedup_vs_unfused = 0.7; // t=4 below floor
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(!cmp.passed());
        assert_eq!(
            cmp.violations.iter().filter(|v| v.starts_with("fused perf:")).count(),
            1,
            "{:?}",
            cmp.violations
        );
        assert!(cmp.warnings.iter().any(|w| w.starts_with("fused perf:")));
    }

    #[test]
    fn fused_simd_mismatch_downgrades_perf_to_warning() {
        let mut fresh = report();
        fresh.simd_level = "scalar".into();
        fresh.fused_points[0].speedup_vs_unfused = 0.7;
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(
            !cmp.violations.iter().any(|v| v.starts_with("fused perf:")),
            "{:?}",
            cmp.violations
        );
        assert!(cmp.warnings.iter().any(|w| w.starts_with("fused perf:")));
    }

    #[test]
    fn fused_bitwise_break_and_output_pass_always_violate() {
        let mut fresh = report();
        fresh.fused_points[1].bitwise_equal_to_unfused = false; // even at t>1
        fresh.fused_points[1].fused_output_passes = 2; // second pass came back
        fresh.simd_level = "scalar".into(); // even with the perf gate off
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(
            cmp.violations.iter().any(|v| v.starts_with("fused correctness:")),
            "{:?}",
            cmp.violations
        );
        assert!(
            cmp.violations.iter().any(|v| v.starts_with("fused passes:")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn fused_missing_point_fails() {
        let mut fresh = report();
        fresh.fused_points.remove(0);
        let cmp = compare(&report(), &fresh, &Tolerances::default());
        assert!(cmp.violations.iter().any(|v| v.starts_with("fused missing point:")));
    }

    #[test]
    fn pre_fusion_baseline_disarms_the_gates() {
        // An old baseline deserialises to no fused points and a zero
        // floor: fresh fused points only produce refresh warnings.
        let mut base = report();
        base.fused_points.clear();
        base.fused_floor = 0.0;
        let mut fresh = report();
        fresh.fused_points[0].speedup_vs_unfused = 0.5; // would fail armed
        let cmp = compare(&base, &fresh, &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.iter().any(|w| w.contains("fused new point not in baseline")));
    }

    #[test]
    fn serve_output_pass_regression_fails() {
        let mut fresh = serve_report();
        fresh.points[1].output_passes = 4; // a separate pass came back
        let cmp = compare_serve(&serve_report(), &fresh, &Tolerances::default());
        assert!(!cmp.passed());
        assert!(
            cmp.violations.iter().any(|v| v.starts_with("serve fused passes:")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn serve_fusion_counter_drift_fails_when_armed() {
        let mut fresh = serve_report();
        fresh.points[1].fused_epilogues = 96; // forwards changed shape
        let cmp = compare_serve(&serve_report(), &fresh, &Tolerances::default());
        assert_eq!(
            cmp.violations
                .iter()
                .filter(|v| v.contains("fused_epilogues"))
                .count(),
            1,
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn serve_fusion_counters_disarmed_by_pre_fusion_baseline() {
        let mut base = serve_report();
        for p in base.points.iter_mut() {
            p.fused_epilogues = 0; // what an old baseline deserialises to
        }
        let cmp = compare_serve(&base, &serve_report(), &Tolerances::default());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
    }

    #[test]
    fn serve_capacity_under_floor_fails() {
        let mut fresh = serve_report();
        for p in fresh.points.iter_mut().filter(|p| p.mode == "merged-bf16") {
            p.resident_entries = 4; // 4/3 < 1.8
        }
        let cmp = compare_serve(&serve_report(), &fresh, &Tolerances::default());
        assert!(!cmp.passed());
        assert!(cmp.violations.iter().any(|v| v.starts_with("serve capacity:")), "{:?}", cmp.violations);
        // The drift gate also notices: residency is deterministic.
        assert!(cmp.violations.iter().any(|v| v.contains("resident_entries")));
    }

    #[test]
    fn serve_capacity_gate_disarmed_by_zero_floor() {
        let mut base = serve_report();
        base.bf16_capacity_floor = 0.0;
        let mut fresh = serve_report();
        for p in fresh.points.iter_mut() {
            p.resident_entries = 3; // ratio 1.0 everywhere
        }
        let cmp = compare_serve(&base, &fresh, &Tolerances::default());
        assert!(
            !cmp.violations.iter().any(|v| v.starts_with("serve capacity:")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn serve_capacity_gate_warns_without_bf16_points() {
        let mut fresh = serve_report();
        fresh.points.retain(|p| p.mode != "merged-bf16");
        let cmp = compare_serve(&serve_report(), &fresh, &Tolerances::default());
        // Missing baseline points violate anyway, but the capacity gate
        // itself must degrade to a warning, not panic or false-pass.
        assert!(cmp.warnings.iter().any(|w| w.contains("capacity gate skipped")), "{:?}", cmp.warnings);
    }
}
