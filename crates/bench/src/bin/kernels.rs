//! **K1 — kernel throughput**: wall-clock time of the hot kernels (dense
//! matmul, `conv2d` packed from the image, the KNN probe) on the packed
//! register-tiled kernel, stated against the host's own one-core ceilings
//! (`host_peak`). Every kernel is asserted bitwise against one run of the
//! reference kernel. A standard-scale run writes the raw numbers to
//! `BENCH_kernels.json`, a measurement of this host rather than a
//! baseline: speed across commits is judged by the repo benchmark
//! (`benchmark/`). The measurement itself lives in
//! `metalora_bench::kernels`.
//!
//! Run with: `cargo run --release -p metalora-bench --bin kernels`
//! (`--scale quick` shrinks sizes/reps for CI smoke runs: tables and the
//! bitwise asserts only, the committed file is left alone).

fn main() {
    let quick = std::env::args().any(|a| a == "--scale")
        && std::env::args().any(|a| a == "quick");
    let report = metalora_bench::kernels::run(quick);

    if !quick {
        let json = serde_json::to_string_pretty(&report).expect("serialise");
        let path = "BENCH_kernels.json";
        std::fs::write(path, json).expect("write BENCH_kernels.json");
        println!("raw numbers written to {path}");
    }

    metalora_obs::report::RunReport::capture("kernels").publish();
}
