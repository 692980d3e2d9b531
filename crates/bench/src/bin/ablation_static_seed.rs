//! **A5 — static-seed ablation**: is MetaLoRA's gain the CP/TR
//! *parameterisation*, or the *input-conditioned generation*?
//!
//! Runs the experiment grid (`core::table1`) over three variants on the
//! ResNet column: static LoRA (no seed), the MetaLoRA architecture with a
//! single **learned constant** seed (`Method::StaticSeedCp`: same ΔW
//! parameterisation, no input conditioning), and full MetaLoRA-CP
//! (generated per-input seed). A star marks a Welch t-test win over LoRA.
//! If the meta-learning claim holds, the static-seed variant should track
//! LoRA on held-out shifts while full MetaLoRA pulls ahead.
//!
//! Run with:
//! `cargo run --release -p metalora-bench --bin ablation_static_seed [--scale quick] [--seeds N]`

use metalora::methods::Method;
use metalora::table1::{run_table1, Table1Options};
use metalora::Arch;
use metalora_bench::{banner, opts_from_env};

fn main() {
    let opts = opts_from_env();
    banner("A5 — static-seed ablation (ResNet)", &opts);

    let grid = Table1Options {
        archs: vec![Arch::ResNet],
        methods: vec![Method::Lora, Method::StaticSeedCp, Method::MetaLoraCp],
        ..Table1Options::new(opts.cfg, opts.seeds)
    };
    let result = run_table1(&grid).expect("A5 grid");
    println!("{}", result.render());
    println!(
        "reading: LoRA and 'CP + static seed' share the no-conditioning limitation;\n\
         the gap between 'CP + static seed' and full Meta-LoRA CP is the value of\n\
         generating the seed from the input (the paper's meta-learning claim)."
    );
}
