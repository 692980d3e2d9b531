//! **A2 — the PEFT↔full-fine-tuning gap**: the paper's intro cites
//! "accuracy differences of up to 5–10 % in complex tasks" between LoRA
//! variants and full fine-tuning. This binary runs the experiment grid
//! (`core::table1`) on the ResNet column with the FullFineTune
//! upper-bound row added, prints its table (stars against the best
//! baseline) and then the gap of each method to full fine-tuning.
//!
//! Run with:
//! `cargo run --release -p metalora-bench --bin ablation_full_ft [--scale quick] [--seeds N]`

use metalora::methods::Method;
use metalora::report::render_table;
use metalora::table1::{run_table1, Table1Options};
use metalora::Arch;
use metalora_bench::{banner, opts_from_env};

fn main() {
    let opts = opts_from_env();
    banner("A2 — PEFT vs full fine-tuning gap", &opts);

    let methods = vec![
        Method::Original,
        Method::Lora,
        Method::MetaLoraCp,
        Method::MetaLoraTr,
        Method::FullFineTune,
    ];
    let full = methods.len() - 1;
    let grid = Table1Options {
        archs: vec![Arch::ResNet],
        methods,
        ..Table1Options::new(opts.cfg, opts.seeds)
    };
    let result = run_table1(&grid).expect("A2 grid");
    println!("{}", result.render());

    let gap = |k: usize, mi: usize| {
        let mean = |m| result.mean(0, k, m).expect("K in the grid");
        format!("{:+.2} pts", 100.0 * (mean(mi) - mean(full)))
    };
    let rows: Vec<Vec<String>> = result
        .methods
        .iter()
        .enumerate()
        .map(|(mi, name)| vec![name.clone(), gap(5, mi), gap(10, mi)])
        .collect();
    println!("{}", render_table(&["Method", "gap@5 vs full FT", "gap@10"], &rows));
    println!(
        "paper claim (§I): static LoRA variants trail full fine-tuning by up to\n\
         5–10 points on complex (here: shifted) tasks, and meta variants close\n\
         part of that gap."
    );
}
