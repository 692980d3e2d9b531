//! **E1 — the Sec. III-E extension**: MetaLoRA on a transformer. The
//! paper closes by suggesting "broader applications in transformer
//! architectures"; this binary runs the Table I grid (`core::table1`, all
//! five methods, stars included) on a small Vision Transformer whose
//! attention projections (`W_q/W_k/W_v/W_o`) and MLP layers carry the
//! adapters — the setting LoRA was originally designed for.
//!
//! Run with:
//! `cargo run --release -p metalora-bench --bin ext_transformer [--scale quick] [--seeds N]`

use metalora::table1::{run_table1, Table1Options};
use metalora::Arch;
use metalora_bench::{banner, opts_from_env};

fn main() {
    let opts = opts_from_env();
    banner("E1 — MetaLoRA on a Vision Transformer (Sec. III-E)", &opts);

    let grid = Table1Options {
        archs: vec![Arch::Transformer],
        ..Table1Options::new(opts.cfg, opts.seeds)
    };
    let result = run_table1(&grid).expect("E1 grid");
    println!("{}", result.render());
    println!(
        "expected shape, mirroring Table I: the meta methods adapt per input and\n\
         should lead on the held-out shifts; the transformer column is an\n\
         extension beyond the paper's reported experiments."
    );
}
