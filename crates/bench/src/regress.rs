//! Bench regression gate: diff a fresh [`KernelReport`] against the
//! committed `BENCH_kernels.json` baseline.
//!
//! The gate separates *violations* (fail the build) from *warnings*
//! (printed, ignored), and gates only what a rerun can decide:
//!
//! * **Deterministic facts gate exactly.** Bitwise correctness flags, the
//!   presence of every baseline point and the counter and dispatch totals
//!   (calls, flops, packed/legacy, the serial/parallel split) are fixed
//!   functions of the swept shapes: any difference is a violation. The
//!   bitwise contract travels *inside* each point
//!   (`bitwise_equal_to_serial`, checked against its reference at run
//!   time), not across runs.
//! * **One within-run ratio gates against the baseline's floor.** A ratio
//!   of two timings from the same run is immune to host speed: a packed
//!   matmul point at `threads ≥ 2` must reach `multithread_floor` against
//!   its own `t = 1` row — a violation only when the fresh host really has
//!   that many CPUs; a 1-core host physically cannot speed up and only
//!   warns.
//! * **Speed across commits is not judged here.** Absolute wall-clock
//!   against a number recorded on another host is `benchmark/`'s job
//!   (two `agree`-compared run sets).
//! * Arena hit rates only warn — pooling behaviour may legitimately shift
//!   with allocation-pattern changes.

use crate::kernels::KernelReport;

/// Absolute drift on an arena hit rate before it is worth a warning.
const HIT_RATE_DRIFT: f64 = 0.05;

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

/// Diffs `fresh` against `baseline`. Pure function of its inputs so the
/// doctored-baseline behaviour is unit-testable without running a sweep.
pub fn compare(baseline: &KernelReport, fresh: &KernelReport) -> Comparison {
    let mut cmp = Comparison::default();

    if baseline.scale != fresh.scale {
        cmp.violations.push(format!(
            "scale mismatch: baseline ran '{}', fresh ran '{}' — reports are not comparable",
            baseline.scale, fresh.scale
        ));
        return cmp;
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
        if fresh_ct.calls != base_ct.calls {
            cmp.violations.push(format!(
                "counter drift: {} calls {} vs baseline {} — the sweep is measuring different work",
                base_ct.kernel, fresh_ct.calls, base_ct.calls
            ));
        }
        if fresh_ct.flops != base_ct.flops {
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
        if fresh_n != base_n {
            cmp.violations.push(format!(
                "dispatch drift: {name} {fresh_n} vs baseline {base_n}"
            ));
        }
    }

    for (phase, base_a, fresh_a) in [
        ("sweep", &baseline.sweep_arena, &fresh.sweep_arena),
        ("train", &baseline.train_arena, &fresh.train_arena),
    ] {
        if (fresh_a.hit_rate - base_a.hit_rate).abs() > HIT_RATE_DRIFT {
            cmp.warnings.push(format!(
                "{phase} arena hit rate {:.1}% vs baseline {:.1}%",
                100.0 * fresh_a.hit_rate,
                100.0 * base_a.hit_rate
            ));
        }
    }

    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{ArenaStats, CounterTotals, DispatchTotals, KernelPoint};

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
            fma_peak_share: None,
        }
    }

    fn report() -> KernelReport {
        KernelReport {
            host_cpus: 4,
            sweep_threads: vec![1, 4],
            multithread_floor: 1.2,
            scale: "quick".into(),
            simd_level: "avx2".into(),
            host_peak: None,
            points: vec![point("legacy", 1, 2.0), point("packed", 1, 1.0), point("packed", 4, 0.4)],
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
        let cmp = compare(&base, &base.clone());
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.is_empty(), "warnings: {:?}", cmp.warnings);
    }

    #[test]
    fn scaling_floor_fails_on_a_capable_host() {
        // 4 CPUs, packed matmul at t=4 barely above 1.0x: violation.
        let mut fresh = report();
        fresh.points[2].speedup_vs_1 = 1.05;
        let cmp = compare(&report(), &fresh);
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
        let cmp = compare(&report(), &fresh);
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
        assert!(cmp.warnings.iter().any(|w| w.contains("scaling floor not enforceable")));
    }

    #[test]
    fn scaling_floor_is_baseline_configurable() {
        let mut base = report();
        base.multithread_floor = 0.9;
        let mut fresh = report();
        fresh.points[2].speedup_vs_1 = 1.05; // below 1.2, above 0.9
        let cmp = compare(&base, &fresh);
        assert!(cmp.passed(), "violations: {:?}", cmp.violations);
    }

    #[test]
    fn scaling_floor_ignores_legacy_and_single_thread_points() {
        let mut fresh = report();
        fresh.points[0].speedup_vs_1 = 0.1; // legacy
        fresh.points[1].speedup_vs_1 = 0.1; // packed t=1
        let cmp = compare(&report(), &fresh);
        assert!(!cmp.violations.iter().any(|v| v.starts_with("scaling:")), "{:?}", cmp.violations);
    }

    #[test]
    fn counter_and_dispatch_drift_fail_the_gate() {
        let mut base = report();
        base.sweep_counters[0].calls = 48;
        base.sweep_dispatch.matmul_packed = 99;
        let cmp = compare(&base, &report());
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
        let cmp = compare(&report(), &fresh);
        assert!(cmp.violations.iter().any(|v| v.starts_with("correctness:")), "{:?}", cmp.violations);
    }

    #[test]
    fn missing_point_and_scale_mismatch_fail() {
        let mut fresh = report();
        fresh.points.remove(0);
        let cmp = compare(&report(), &fresh);
        assert!(cmp.violations.iter().any(|v| v.starts_with("missing point:")));

        let mut fresh = report();
        fresh.scale = "standard".into();
        let cmp = compare(&report(), &fresh);
        assert!(cmp.violations.iter().any(|v| v.contains("scale mismatch")));
    }

    #[test]
    fn arena_drift_only_warns() {
        let mut fresh = report();
        fresh.train_arena.hit_rate = 0.2;
        let cmp = compare(&report(), &fresh);
        assert!(cmp.passed());
        assert!(cmp.warnings.iter().any(|w| w.contains("arena hit rate")));
    }
}
