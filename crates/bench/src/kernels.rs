//! The K1 kernel-throughput sweep as a library, so both the `kernels`
//! binary (fresh standard-scale run → `BENCH_kernels.json`) and the
//! `regress` binary (fresh run → diff against the committed baseline)
//! share one implementation and one report schema.

use metalora::config::{Arch, ExperimentConfig};
use metalora::methods::Method;
use metalora::pipeline::{adapt, pretrain};
use metalora::report::render_table;
use metalora_data::knn::{Distance, KnnClassifier};
use metalora_tensor::conv::{conv2d, ConvSpec};
use metalora_tensor::ops::{KernelPath, SimdLevel};
use metalora_tensor::{init, ops, par, workspace, Tensor};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// One (kernel, path, thread-count) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelPoint {
    /// Kernel label with its problem size (`"matmul 384x384x384"`).
    pub kernel: String,
    /// `"packed"` or `"legacy"`.
    pub path: String,
    /// Worker count the point ran with.
    pub threads: usize,
    /// Best-of-reps wall time.
    pub best_ms: f64,
    /// Throughput at `best_ms`.
    pub gflops: f64,
    /// `best_ms(threads=1, same path) / best_ms`.
    pub speedup_vs_1: f64,
    /// Output identical to the legacy single-thread run, bit for bit.
    pub bitwise_equal_to_serial: bool,
    /// `gflops` over the FMA peak of the cores the point ran on
    /// ([`HostPeak::fma_gflops`] × `min(threads, host_cpus)`): set on
    /// packed matmul points only.
    pub fma_peak_share: Option<f64>,
}

/// This core's ceilings at its SIMD level, measured on one thread at the
/// start of every K1 run, so a kernel's GFLOP/s reads as a share of what
/// the host can do.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostPeak {
    /// Register-resident separate multiply then add, GFLOP/s (2 flops per
    /// pair).
    pub mul_add_gflops: f64,
    /// Register-resident fused multiply-add, GFLOP/s (2 flops per FMA).
    pub fma_gflops: f64,
    /// Copy of a 32 MiB buffer, GB/s counting bytes read plus written.
    pub copy_gbytes_per_s: f64,
}

/// Workspace-arena counters for one phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArenaStats {
    pub hits: u64,
    pub misses: u64,
    pub hit_rate: f64,
    pub bytes_reused: u64,
    pub peak_pooled_bytes: u64,
}

impl ArenaStats {
    /// Reads the current obs workspace counters.
    pub fn capture() -> Self {
        let snap = metalora_obs::counters::snapshot();
        let total = snap.workspace_hits + snap.workspace_misses;
        ArenaStats {
            hits: snap.workspace_hits,
            misses: snap.workspace_misses,
            hit_rate: if total == 0 {
                0.0
            } else {
                snap.workspace_hits as f64 / total as f64
            },
            bytes_reused: snap.workspace_bytes_reused,
            peak_pooled_bytes: snap.peak_workspace_pooled_bytes,
        }
    }
}

/// Per-kernel obs counter totals over the sweep. These are deterministic
/// for a given scale (fixed sizes, reps and thread list), so the regress
/// gate compares them exactly — a drifting call or flop count means
/// the benchmark is no longer measuring the same work.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterTotals {
    pub kernel: String,
    pub calls: u64,
    pub flops: u64,
}

/// Packed-vs-legacy and serial-vs-parallel dispatch tallies over the
/// sweep (same determinism argument as [`CounterTotals`]). The tile-grid
/// tallies are deterministic too — claims and B packs are fixed functions
/// of the swept shapes and thread list — but the *steal* count is
/// scheduling noise, so it is deliberately not recorded here.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DispatchTotals {
    pub parallel: u64,
    pub serial: u64,
    pub matmul_packed: u64,
    pub matmul_legacy: u64,
    pub tile_claims: u64,
    pub tile_bpacks: u64,
}

/// Everything one K1 run produces; serialised to `BENCH_kernels.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelReport {
    /// `std::thread::available_parallelism()` on the measuring host —
    /// what the machine can actually run, as opposed to what the sweep
    /// asked for (see [`KernelReport::sweep_threads`]).
    pub host_cpus: usize,
    /// The worker counts every kernel/path pair was swept over. The list
    /// deliberately exceeds `host_cpus` on small hosts: oversubscription
    /// must not change results, only throughput.
    pub sweep_threads: Vec<usize>,
    /// Regress-gate floor for `speedup_vs_1` of packed matmul points at
    /// `threads ≥ 2` — only enforced when the comparing host has that
    /// many real CPUs (`host_cpus ≥ threads`).
    pub multithread_floor: f64,
    pub scale: String,
    pub simd_level: String,
    /// The host's ceilings (absent from baselines recorded before K1
    /// measured them).
    pub host_peak: Option<HostPeak>,
    pub points: Vec<KernelPoint>,
    pub sweep_counters: Vec<CounterTotals>,
    pub sweep_dispatch: DispatchTotals,
    pub sweep_arena: ArenaStats,
    pub train_arena: ArenaStats,
}

/// Best-of-`reps` wall time in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = f();
    for _ in 0..reps {
        let t0 = Instant::now();
        last = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, last)
}

fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Independent accumulators per spin: a multiply-then-add step is a chain
/// of two dependent instructions, so twelve chains keep two ports busy,
/// and twelve plus the two constants fit AVX2's sixteen registers.
const CHAINS: usize = 12;

/// `steps` updates `acc ← acc·x + y` of [`CHAINS`] register-resident
/// vectors, one FMA (`FUSED`) or a multiply then an add each. The
/// constants pass through `black_box` — from `acc = 1` the update is a
/// fixed point the optimiser would otherwise fold — and the sum is
/// returned so the work cannot be dropped.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn spin512<const FUSED: bool>(steps: usize) -> f32 {
    use std::arch::x86_64::*;
    let [x, y, one] = black_box([0.999_9, 1e-4, 1.0]).map(|v| _mm512_set1_ps(v));
    let mut acc = [one; CHAINS];
    for _ in 0..steps {
        for a in &mut acc {
            *a = if FUSED {
                _mm512_fmadd_ps(*a, x, y)
            } else {
                _mm512_add_ps(_mm512_mul_ps(*a, x), y)
            };
        }
    }
    acc.iter().map(|&a| _mm512_reduce_add_ps(a)).sum()
}

/// [`spin512`] on 256-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn spin256<const FUSED: bool>(steps: usize) -> f32 {
    use std::arch::x86_64::*;
    let [x, y, one] = black_box([0.999_9, 1e-4, 1.0]).map(|v| _mm256_set1_ps(v));
    let mut acc = [one; CHAINS];
    for _ in 0..steps {
        for a in &mut acc {
            *a = if FUSED {
                _mm256_fmadd_ps(*a, x, y)
            } else {
                _mm256_add_ps(_mm256_mul_ps(*a, x), y)
            };
        }
    }
    acc.iter().map(|&a| _mm256_cvtss_f32(a)).sum()
}

/// [`spin512`] on scalars: what the portable kernel runs on a host
/// without FMA, where `mul_add` is libm's `fmaf`.
fn spin_portable<const FUSED: bool>(steps: usize) -> f32 {
    let [x, y, one] = black_box([0.999_9f32, 1e-4, 1.0]);
    let mut acc = [one; CHAINS];
    for _ in 0..steps {
        for a in &mut acc {
            *a = if FUSED { a.mul_add(x, y) } else { *a * x + y };
        }
    }
    acc.iter().sum()
}

/// Measures [`HostPeak`] on the calling thread at the host's SIMD level.
fn host_peak() -> HostPeak {
    let steps = black_box(1usize << 22);
    let gflops = |fused: bool| {
        let (lanes, spin): (usize, fn(usize) -> f32) = match (ops::simd_level(), fused) {
            // SAFETY (every vector arm): `simd_level` reports a vector
            // level only when the host has it, FMA included.
            #[cfg(target_arch = "x86_64")]
            (SimdLevel::Avx512, true) => (16, |s| unsafe { spin512::<true>(s) }),
            #[cfg(target_arch = "x86_64")]
            (SimdLevel::Avx512, false) => (16, |s| unsafe { spin512::<false>(s) }),
            #[cfg(target_arch = "x86_64")]
            (SimdLevel::Avx2, true) => (8, |s| unsafe { spin256::<true>(s) }),
            #[cfg(target_arch = "x86_64")]
            (SimdLevel::Avx2, false) => (8, |s| unsafe { spin256::<false>(s) }),
            (_, true) => (1, spin_portable::<true>),
            (_, false) => (1, spin_portable::<false>),
        };
        let (ms, _) = time_ms(5, || black_box(spin(steps)));
        (2 * steps * CHAINS * lanes) as f64 / (ms * 1e6)
    };
    let src = vec![1.0f32; 8 << 20];
    let mut dst = vec![0.0f32; src.len()];
    let (copy_ms, _) = time_ms(5, || black_box(&mut dst[..]).copy_from_slice(black_box(&src)));
    HostPeak {
        mul_add_gflops: gflops(false),
        fma_gflops: gflops(true),
        copy_gbytes_per_s: (2 * 4 * src.len()) as f64 / (copy_ms * 1e6),
    }
}

/// Sweeps one kernel over thread counts for both the legacy and the packed
/// path. Each path's `speedup_vs_1` divides by its own single-thread point
/// from the same run (the earlier design timed a separate warm-up baseline,
/// which made the t=1 row read ~0.99x), and every point is compared
/// bitwise against the legacy serial output.
fn sweep(
    name: &str,
    flops: f64,
    threads: &[usize],
    reps: usize,
    points: &mut Vec<KernelPoint>,
    f: impl Fn() -> Tensor,
) {
    par::set_num_threads(1);
    let (_, reference) = ops::with_kernel_path(KernelPath::Reference, || time_ms(1, &f));
    for (path, forced) in [("legacy", KernelPath::Reference), ("packed", KernelPath::Packed)] {
        let mut base_ms = f64::NAN;
        for &t in threads {
            par::set_num_threads(t);
            let (ms, out) = ops::with_kernel_path(forced, || time_ms(reps, &f));
            if t == 1 {
                base_ms = ms;
            }
            points.push(KernelPoint {
                kernel: name.to_string(),
                path: path.to_string(),
                threads: t,
                best_ms: ms,
                gflops: flops / (ms * 1e6),
                speedup_vs_1: base_ms / ms,
                bitwise_equal_to_serial: bitwise_eq(&reference, &out),
                fma_peak_share: None,
            });
        }
    }
    par::set_num_threads(0);
}

/// The K1 sweeps — dense matmul, conv2d, the KNN probe — at quick or
/// standard sizes, each over `threads` on both kernels.
fn sweep_kernels(quick: bool, threads: &[usize], reps: usize) -> Vec<KernelPoint> {
    let mm_dim = if quick { 128 } else { 384 };
    let mut rng = init::rng(0);
    let mut points = Vec::new();

    // Dense matmul, m = k = n.
    let a = init::uniform(&[mm_dim, mm_dim], -1.0, 1.0, &mut rng);
    let b = init::uniform(&[mm_dim, mm_dim], -1.0, 1.0, &mut rng);
    let mm_flops = 2.0 * (mm_dim as f64).powi(3);
    sweep(
        &format!("matmul {mm_dim}x{mm_dim}x{mm_dim}"),
        mm_flops,
        threads,
        reps,
        &mut points,
        || ops::matmul(&a, &b).unwrap(),
    );

    // conv2d on the acceptance shape [8, 16, 32, 32], 3x3 kernel, 32 out.
    let (n, c, hw, k, o) = if quick { (2, 8, 16, 3, 16) } else { (8, 16, 32, 3, 32) };
    let x = init::uniform(&[n, c, hw, hw], -1.0, 1.0, &mut rng);
    let w = init::uniform(&[k, k, c, o], -1.0, 1.0, &mut rng);
    let spec = ConvSpec::new(k, 1, 1).unwrap();
    let oh = spec.out_size(hw).unwrap();
    let conv_flops = 2.0 * (n * oh * oh * c * k * k * o) as f64;
    sweep(
        &format!("conv2d [{n},{c},{hw},{hw}] k{k} o{o}"),
        conv_flops,
        threads,
        reps,
        &mut points,
        || conv2d(&x, &w, spec, spec).unwrap(),
    );

    // KNN probe: one score GEMM + vote (predictions re-encoded as a tensor
    // so the sweep helper can compare bitwise).
    let (ns, nq, d) = if quick { (200, 100, 16) } else { (1000, 500, 32) };
    let support = init::uniform(&[ns, d], -1.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..ns).map(|i| i % 5).collect();
    let queries = init::uniform(&[nq, d], -1.0, 1.0, &mut rng);
    let knn = KnnClassifier::fit(support, labels, Distance::L2).unwrap();
    let knn_flops = 2.0 * (ns * nq * d) as f64;
    sweep(
        &format!("knn predict {ns}x{nq} d{d}"),
        knn_flops,
        threads,
        reps,
        &mut points,
        || {
            let pred = knn.predict(&queries, 5).unwrap();
            let data: Vec<f32> = pred.iter().map(|&p| p as f32).collect();
            Tensor::from_vec(data, &[nq]).unwrap()
        },
    );
    points
}

/// Runs the full K1 sweep (plus the quick-train arena measurement) and
/// returns the report. Prints the result table and arena line; the caller
/// decides what to write where.
pub fn run(quick: bool) -> KernelReport {
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let simd = ops::simd_level().name().to_string();
    // Sweep past the host count on purpose: oversubscription must not
    // change results, only throughput.
    let threads = vec![1usize, 2, 4, 8];
    let reps = if quick { 2 } else { 5 };
    println!(
        "=== K1 — kernel throughput (host_cpus={host_cpus}, simd={simd}, sizes {}) ===\n",
        if quick { "quick" } else { "standard" }
    );
    let peak = host_peak();
    println!(
        "host peak (1 thread, {simd}): mul+add {:.1} GFLOP/s, FMA {:.1} GFLOP/s, copy {:.1} GB/s\n",
        peak.mul_add_gflops, peak.fma_gflops, peak.copy_gbytes_per_s
    );
    // Force the parallel path even at quick sizes so the sweep actually
    // exercises the thread team, and count arena traffic from a cold pool.
    metalora_obs::set_enabled(true);
    // Drain the pool BEFORE resetting counters: clear() debits the pooled
    // byte gauge, so the other order would start the gauge negative.
    workspace::clear();
    metalora_obs::reset();
    let mut points = par::with_par_threshold(0, || sweep_kernels(quick, &threads, reps));
    for p in points.iter_mut().filter(|p| p.path == "packed" && p.kernel.starts_with("matmul")) {
        p.fma_peak_share = Some(p.gflops / (peak.fma_gflops * p.threads.min(host_cpus) as f64));
    }

    let snap = metalora_obs::counters::snapshot();
    let sweep_counters: Vec<CounterTotals> = snap
        .kernels
        .iter()
        .map(|k| CounterTotals {
            kernel: k.kernel.to_string(),
            calls: k.calls,
            flops: k.flops,
        })
        .collect();
    let sweep_dispatch = DispatchTotals {
        parallel: snap.dispatch_parallel,
        serial: snap.dispatch_serial,
        matmul_packed: snap.matmul_packed,
        matmul_legacy: snap.matmul_legacy,
        tile_claims: snap.tile_claims,
        tile_bpacks: snap.tile_bpacks,
    };
    let sweep_arena = ArenaStats::capture();

    // Arena hit rate on the real training hot path: a quick pretrain +
    // MetaLoRA adapt, counted from a cold pool.
    println!("measuring arena hit rate on the quick train pipeline...");
    workspace::clear();
    metalora_obs::reset();
    let cfg = ExperimentConfig::quick();
    let backbone = pretrain(&cfg, Arch::ResNet, 0).expect("pretrain");
    let _adapted = adapt(backbone, Method::MetaLoraCp, &cfg, 0).expect("adapt");
    let train_arena = ArenaStats::capture();

    let headers: Vec<String> =
        ["kernel", "path", "threads", "best ms", "GFLOP/s", "FMA peak", "speedup", "bitwise"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.kernel.clone(),
                p.path.clone(),
                p.threads.to_string(),
                format!("{:.3}", p.best_ms),
                format!("{:.2}", p.gflops),
                p.fma_peak_share.map_or("-".into(), |f| format!("{:.0}%", 100.0 * f)),
                format!("{:.2}x", p.speedup_vs_1),
                p.bitwise_equal_to_serial.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!(
        "arena hit rate: sweep {:.1}% ({}/{} checkouts), train {:.1}% ({}/{} checkouts)",
        100.0 * sweep_arena.hit_rate,
        sweep_arena.hits,
        sweep_arena.hits + sweep_arena.misses,
        100.0 * train_arena.hit_rate,
        train_arena.hits,
        train_arena.hits + train_arena.misses,
    );

    assert!(
        points.iter().all(|p| p.bitwise_equal_to_serial),
        "kernel output diverged from the legacy serial run"
    );

    KernelReport {
        host_cpus,
        sweep_threads: threads,
        multithread_floor: 1.2,
        scale: if quick { "quick" } else { "standard" }.to_string(),
        simd_level: simd,
        host_peak: Some(peak),
        points,
        sweep_counters,
        sweep_dispatch,
        sweep_arena,
        train_arena,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips() {
        let report = KernelReport {
            host_cpus: 4,
            sweep_threads: vec![1, 2, 4, 8],
            multithread_floor: 1.2,
            scale: "quick".into(),
            simd_level: "avx2".into(),
            host_peak: Some(HostPeak {
                mul_add_gflops: 30.0,
                fma_gflops: 60.0,
                copy_gbytes_per_s: 12.0,
            }),
            points: vec![KernelPoint {
                kernel: "matmul 128x128x128".into(),
                path: "packed".into(),
                threads: 2,
                best_ms: 1.5,
                gflops: 2.8,
                speedup_vs_1: 1.9,
                bitwise_equal_to_serial: true,
                fma_peak_share: Some(2.8 / 60.0),
            }],
            sweep_counters: vec![CounterTotals {
                kernel: "matmul".into(),
                calls: 12,
                flops: 4_194_304,
            }],
            sweep_dispatch: DispatchTotals {
                parallel: 8,
                serial: 4,
                matmul_packed: 6,
                matmul_legacy: 6,
                tile_claims: 96,
                tile_bpacks: 6,
            },
            sweep_arena: ArenaStats {
                hits: 10,
                misses: 2,
                hit_rate: 10.0 / 12.0,
                bytes_reused: 4096,
                peak_pooled_bytes: 8192,
            },
            train_arena: ArenaStats {
                hits: 0,
                misses: 0,
                hit_rate: 0.0,
                bytes_reused: 0,
                peak_pooled_bytes: 0,
            },
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: KernelReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.scale, "quick");
        assert_eq!(back.points.len(), 1);
        assert_eq!(back.points[0].threads, 2);
        assert!(back.points[0].bitwise_equal_to_serial);
        assert_eq!(back.sweep_counters[0].calls, 12);
        assert_eq!(back.sweep_dispatch.matmul_packed, 6);
        assert_eq!(back.sweep_dispatch.tile_claims, 96);
        assert_eq!(back.sweep_dispatch.tile_bpacks, 6);
        assert_eq!(back.sweep_threads, vec![1, 2, 4, 8]);
        assert!((back.multithread_floor - 1.2).abs() < 1e-12);
        assert!((back.sweep_arena.hit_rate - 10.0 / 12.0).abs() < 1e-12);
        assert!((back.host_peak.unwrap().fma_gflops - 60.0).abs() < 1e-12);
        assert!((back.points[0].fma_peak_share.unwrap() - 2.8 / 60.0).abs() < 1e-12);

        // A baseline recorded before the host ceilings were measured
        // still parses, with neither the object nor the shares.
        let old = json
            .replace("\"host_peak\"", "\"retired_peak\"")
            .replace("\"fma_peak_share\"", "\"retired_share\"");
        let back: KernelReport = serde_json::from_str(&old).unwrap();
        assert!(back.host_peak.is_none() && back.points[0].fma_peak_share.is_none());
    }
}
