//! **T1 — Table I**: accuracy of Original / LoRA / Multi-LoRA /
//! Meta-LoRA CP / Meta-LoRA TR on ResNet and MLP-Mixer, KNN K ∈ {5, 10},
//! with `*` marking a two-sided Welch t-test win (p < 0.05) over the best
//! baseline — the same layout as the paper's Table I.
//!
//! Run with:
//! `cargo run --release -p metalora-bench --bin table1 [--scale quick] [--seeds N]`

use metalora::table1::{run_table1, Table1Options};
use metalora_bench::{banner, opts_from_env};

fn main() {
    let opts = opts_from_env();
    banner("Table I — method × backbone × K", &opts);

    // Scope the run report (METALORA_OBS=1) to this run.
    metalora_obs::reset();
    let t0 = std::time::Instant::now();
    let t1 = Table1Options::new(opts.cfg.clone(), opts.seeds.clone());
    let result = run_table1(&t1).expect("table 1 run");
    println!("{}", result.render());
    println!(
        "paper reference (Table I): Original 67.04/61.36/58.27/60.83, \
         LoRA 67.85/62.02/59.16/61.22, Multi-LoRA 72.11/68.57/63.74/65.49, \
         Meta-LoRA CP 71.07/71.29/70.32/72.52, Meta-LoRA TR 73.24*/71.26/71.75*/73.87*"
    );
    println!("elapsed: {:.1?}", t0.elapsed());

    // Persist the raw samples next to the rendered table.
    let json = serde_json::to_string_pretty(&result).expect("serialise");
    let path = "table1_result.json";
    if std::fs::write(path, json).is_ok() {
        println!("raw per-episode samples written to {path}");
    }

    if metalora_obs::enabled() {
        metalora_obs::report::RunReport::capture("table1").publish();
    }
}
