//! **K1 — kernel throughput**: wall-clock sweep of the deterministic
//! parallel layer across thread counts for the hot kernels (dense matmul,
//! `conv2d` packed from the image, the KNN probe) on the packed
//! register-tiled kernel. Every point is verified bitwise against one
//! single-thread run of the reference kernel, and the workspace-arena hit
//! rate is reported both for the sweep and for a quick pretrain+adapt
//! pipeline. A standard-scale run writes the raw
//! numbers to `BENCH_kernels.json` — the baseline `regress` gates against.
//!
//! The sweep itself lives in `metalora_bench::kernels` so the `regress`
//! binary can rerun the identical workload against the committed baseline.
//!
//! Run with: `cargo run --release -p metalora-bench --bin kernels`
//! (`--scale quick` shrinks sizes/reps for CI smoke runs: tables and the
//! sweep's own bitwise asserts only, the committed baseline is left alone).

fn main() {
    let quick = std::env::args().any(|a| a == "--scale")
        && std::env::args().any(|a| a == "quick");
    let report = metalora_bench::kernels::run(quick);

    if !quick {
        let json = serde_json::to_string_pretty(&report).expect("serialise");
        let path = "BENCH_kernels.json";
        std::fs::write(path, json).expect("write BENCH_kernels.json");
        println!("raw sweep written to {path}");
    }

    metalora_obs::report::RunReport::capture("kernels").publish();
}
