//! **F1 — Fig. 1**: tensor diagrams & tensor contraction. The figure is a
//! notation schematic; its quantitative content is that Eq. 1's pairwise
//! contraction is well-defined and efficiently computable. This binary
//! verifies the optimised kernel against the naive summation and the
//! einsum reference across a grid of wirings, and reports the speedup.
//!
//! Run with: `cargo run --release -p metalora-bench --bin fig1_contraction`

use metalora::report::render_table;
use metalora::tensor::contract::{contract, contract_naive};
use metalora::tensor::einsum::einsum;
use metalora::tensor::{init, max_rel_err};
use std::time::Instant;

fn main() {
    println!("=== Fig. 1 — tensor contraction (Eq. 1) verification ===\n");
    let mut rng = init::rng(0);

    /// (description, a_dims, b_dims, axes_a, axes_b, einsum spec).
    type Case = (
        &'static str,
        Vec<usize>,
        Vec<usize>,
        Vec<usize>,
        Vec<usize>,
        &'static str,
    );
    let cases: Vec<Case> = vec![
        (
            "matrix product",
            vec![40, 50],
            vec![50, 30],
            vec![1],
            vec![0],
            "ij,jk->ik",
        ),
        (
            "mode-1 product",
            vec![20, 30, 10],
            vec![30, 15],
            vec![1],
            vec![0],
            "ijk,jm->ikm",
        ),
        (
            "double bond",
            vec![12, 20, 16],
            vec![16, 20, 8],
            vec![1, 2],
            vec![1, 0],
            "ijk,kjm->im",
        ),
        (
            "full inner product",
            vec![15, 15, 15],
            vec![15, 15, 15],
            vec![0, 1, 2],
            vec![0, 1, 2],
            "ijk,ijk->",
        ),
    ];

    let mut rows = Vec::new();
    for (name, ad, bd, xa, xb, spec) in cases {
        let a = init::uniform(&ad, -1.0, 1.0, &mut rng);
        let b = init::uniform(&bd, -1.0, 1.0, &mut rng);

        let t0 = Instant::now();
        let fast = contract(&a, &b, &xa, &xb).unwrap();
        let t_fast = t0.elapsed();

        let t0 = Instant::now();
        let naive = contract_naive(&a, &b, &xa, &xb).unwrap();
        let t_naive = t0.elapsed();

        let es = einsum(spec, &[&a, &b]).unwrap();
        let err_naive = max_rel_err(&fast, &naive);
        let err_einsum = max_rel_err(&fast, &es);

        rows.push(vec![
            name.to_string(),
            format!("{ad:?}·{bd:?}"),
            format!("{:?}", fast.dims()),
            format!("{err_naive:.1e}"),
            format!("{err_einsum:.1e}"),
            format!("{:.0}×", t_naive.as_secs_f64() / t_fast.as_secs_f64().max(1e-9)),
        ]);
    }

    let headers: Vec<String> = ["case", "operands", "out", "vs naive", "vs einsum", "speedup"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("shape check: optimised kernel ≡ naive sum ≡ einsum on every wiring.");
    println!("speedup: one timed call each of the naive sum and the optimised kernel.");
}
