//! **A3 — expressiveness vs efficiency**: Sec. III of the paper frames
//! the rank R as the dial between model expressiveness and computational
//! cost. This binary runs the experiment grid (`core::table1`) once per
//! rank R ∈ {1, 2, 4, 8} for MetaLoRA-CP and MetaLoRA-TR (ResNet
//! backbone) and reports accuracy and trainable parameters per rank.
//!
//! Run with:
//! `cargo run --release -p metalora-bench --bin ablation_rank [--scale quick] [--seeds N]`

use metalora::methods::Method;
use metalora::report::{pct, render_table};
use metalora::table1::{run_table1, Table1Options};
use metalora::Arch;
use metalora_bench::{banner, opts_from_env};

fn main() {
    let opts = opts_from_env();
    banner("A3 — rank sweep (accuracy vs parameters)", &opts);

    let mut rows = Vec::new();
    for rank in [1usize, 2, 4, 8] {
        let mut grid = Table1Options {
            archs: vec![Arch::ResNet],
            methods: vec![Method::MetaLoraCp, Method::MetaLoraTr],
            ..Table1Options::new(opts.cfg.clone(), opts.seeds.clone())
        };
        grid.cfg.lora.rank = rank;
        grid.cfg.lora.alpha = 2.0 * rank as f32;
        let result = run_table1(&grid).expect("A3 grid");
        for (mi, name) in result.methods.iter().enumerate() {
            let mut row = vec![
                format!("R={rank}"),
                name.clone(),
                result.trainable[0][mi].to_string(),
            ];
            for cell in &result.cells[0] {
                row.push(pct(cell[mi].mean(), cell[mi].significant));
            }
            rows.push(row);
        }
    }

    let headers = ["rank", "method", "trainable params", "K=5", "K=10"];
    println!("{}", render_table(&headers, &rows));
    println!(
        "expected shape: accuracy saturates (and can regress from overfitting)\n\
         while parameters grow — TR grows O(R²) in the seed but shares factor\n\
         cores, CP grows O(R) throughout."
    );
}
