//! **F3 — Fig. 3**: Conv-LoRA ≡ small convolution followed by a 1×1
//! channel-recovery convolution. Sweeps `(K, I, O, R)` and verifies the
//! factored execution equals convolving with the materialised Δ𝒲 of
//! Eq. 5, reporting the parameter and FLOP savings of the factored form.
//!
//! Run with: `cargo run --release -p metalora-bench --bin fig3_convlora_equiv`

use metalora::autograd::Graph;
use metalora::nn::{Conv2d, ConvLike, Ctx, Module};
use metalora::peft::{ConvLora, LoraConfig};
use metalora::report::render_table;
use metalora::tensor::conv::conv2d;
use metalora::tensor::{init, max_rel_err, ops};

fn main() {
    println!("=== Fig. 3 — Conv-LoRA factorisation (Eq. 5) ===\n");
    let mut rng = init::rng(0);
    let hw = 16usize;
    let n = 2usize;

    let mut rows = Vec::new();
    for (k, i, o, r) in [
        (3usize, 16usize, 16usize, 2usize),
        (3, 16, 32, 4),
        (3, 64, 64, 4),
        (5, 16, 16, 2),
        (1, 32, 64, 4),
        (3, 32, 32, 8),
    ] {
        let base = Conv2d::new_no_bias("c", i, o, k, 1, k / 2, &mut rng).unwrap();
        let spec = base.spec();
        let cl = ConvLora::new(
            "c",
            Box::new(base),
            LoraConfig { rank: r, alpha: 2.0 },
            &mut rng,
        );
        cl.b.set_value(init::uniform(&[r, o], -0.5, 0.5, &mut rng));
        let x = init::uniform(&[n, i, hw, hw], -1.0, 1.0, &mut rng);

        // Factored: forward minus base.
        let mut g = Graph::inference();
        let xv = g.input(x.clone());
        let y = cl.forward(&mut g, xv, &Ctx::none()).unwrap();
        let saved = cl.b.value();
        cl.b.set_value(metalora::tensor::Tensor::zeros(saved.dims()));
        let mut g2 = Graph::inference();
        let xv2 = g2.input(x.clone());
        let yb = cl.forward(&mut g2, xv2, &Ctx::none()).unwrap();
        cl.b.set_value(saved);
        let factored = ops::sub(&g.value(y), &g2.value(yb)).unwrap();

        // Full: conv with materialised Δ𝒲.
        let dw = cl.delta_weight().unwrap();
        let full = conv2d(&x, &dw, spec, spec).unwrap();

        let err = max_rel_err(&factored, &full);
        // Parameter and FLOP accounting for the delta path.
        let full_params = k * k * i * o;
        let lora_params = k * k * i * r + r * o;
        let oh = spec.out_size(hw).unwrap();
        let full_flops = n * oh * oh * k * k * i * o;
        let lora_flops = n * oh * oh * (k * k * i * r + r * o);
        rows.push(vec![
            format!("K={k} I={i} O={o} R={r}"),
            format!("{err:.1e}"),
            format!("{lora_params} / {full_params} ({:.1}%)",
                100.0 * lora_params as f64 / full_params as f64),
            format!("{:.1}%", 100.0 * lora_flops as f64 / full_flops as f64),
        ]);
        assert!(err < 1e-2, "factorisation identity violated: {err}");
    }

    let headers: Vec<String> =
        ["setting", "identity err", "Δ params (vs dense Δ𝒲)", "Δ FLOPs"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    println!("{}", render_table(&headers, &rows));
    println!(
        "every row confirms Fig. 3: applying Δ𝒲 = 𝒜 ×₄ B as a small conv + 1×1 conv\n\
         is exact, with parameters and FLOPs scaling with R instead of O."
    );
}
