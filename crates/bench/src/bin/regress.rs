//! **Regression gate**: rerun the K1 kernel sweep and diff it against the
//! committed `BENCH_kernels.json`. Exits nonzero on any violation —
//! bitwise divergence, a missing measurement point, drift in the
//! deterministic counter / dispatch / byte totals, or a within-run ratio
//! under its baseline floor. See `metalora_bench::regress` for the exact
//! policy; speed across commits is judged by `benchmark/`, not here.
//!
//! Run with: `cargo run --release -p metalora-bench --bin regress`
//! (`--baseline PATH` overrides the baseline file; the sweep scale is
//! taken from the baseline itself so the workloads always match).

use metalora_bench::kernels::KernelReport;
use metalora_bench::regress::compare;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [] => "BENCH_kernels.json",
        [flag, path] if flag == "--baseline" => path.as_str(),
        _ => {
            eprintln!("usage: regress [--baseline PATH]");
            std::process::exit(2);
        }
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    let baseline: KernelReport = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("error: cannot parse baseline {path}: {e:?}");
        std::process::exit(2);
    });
    println!(
        "=== regression gate — baseline {path} (scale {}, simd {}, {} points) ===\n",
        baseline.scale,
        baseline.simd_level,
        baseline.points.len()
    );
    let fresh = metalora_bench::kernels::run(baseline.scale == "quick");
    println!();
    let cmp = compare(&baseline, &fresh);
    for w in &cmp.warnings {
        println!("warning: {w}");
    }
    for v in &cmp.violations {
        println!("VIOLATION: {v}");
    }
    if cmp.passed() {
        println!(
            "kernels regression gate PASSED against {path} ({} warnings)",
            cmp.warnings.len()
        );
    } else {
        println!(
            "kernels regression gate FAILED against {path}: {} violations, {} warnings",
            cmp.violations.len(),
            cmp.warnings.len()
        );
        std::process::exit(1);
    }
}
