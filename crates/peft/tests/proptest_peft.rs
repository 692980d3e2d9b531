//! Property-based tests for the PEFT adapters: zero-delta initialisation,
//! the Eq. 5/6/7 factorisation identities and freezing discipline hold
//! for random shapes, ranks and seeds.

use metalora_autograd::Graph;
use metalora_nn::{Conv2d, ConvLike, Ctx, Linear, Module};
use metalora_peft::meta::{MetaLoraCpLinear, MetaLoraTrLinear};
use metalora_peft::{ConvLora, LoraConfig, LoraLinear};
use metalora_tensor::{approx_eq, conv::ConvSpec, einsum::einsum, init, ops, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lora_zero_init_is_identity(
        i in 1usize..8, o in 1usize..8, r in 1usize..4, n in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let base = Linear::new("fc", i, o, &mut rng);
        let lora = LoraLinear::new(
            "fc",
            Box::new(base),
            LoraConfig { rank: r, alpha: 2.0 * r as f32 },
            &mut rng,
        );
        let x = init::uniform(&[n, i], -2.0, 2.0, &mut rng);
        let mut g = Graph::inference();
        let xv = g.input(x);
        let y = lora.forward(&mut g, xv, &Ctx::none()).unwrap();
        // ΔW = 0 at init, so delta_weight is exactly zero.
        let dw = lora.delta_weight().unwrap();
        prop_assert!(dw.norm() == 0.0);
        prop_assert_eq!(g.dims(y), vec![n, o]);
    }

    #[test]
    fn lora_forward_matches_merged_weight(
        i in 1usize..7, o in 1usize..7, r in 1usize..4, n in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let base = Linear::new_no_bias("fc", i, o, &mut rng);
        let w0 = base.weight().value();
        let lora = LoraLinear::new(
            "fc",
            Box::new(base),
            LoraConfig { rank: r, alpha: r as f32 },
            &mut rng,
        );
        lora.b.set_value(init::uniform(&[r, o], -1.0, 1.0, &mut rng));
        let x = init::uniform(&[n, i], -2.0, 2.0, &mut rng);
        let mut g = Graph::inference();
        let xv = g.input(x.clone());
        let y = lora.forward(&mut g, xv, &Ctx::none()).unwrap();
        // Oracle: x·(W + ΔW).
        let merged = ops::add(&w0, &lora.delta_weight().unwrap()).unwrap();
        let expect = ops::matmul(&x, &merged).unwrap();
        prop_assert!(
            approx_eq(&g.value(y), &expect, 1e-3),
            "err {}",
            metalora_tensor::max_rel_err(&g.value(y), &expect)
        );
    }

    #[test]
    fn conv_lora_factorisation_prop(
        i in 1usize..5, o in 1usize..5, r in 1usize..4, stride in 1usize..3,
        seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let base = Conv2d::new_no_bias("c", i, o, 3, stride, 1, &mut rng).unwrap();
        let spec = base.spec();
        let cl = ConvLora::new(
            "c",
            Box::new(base),
            LoraConfig { rank: r, alpha: r as f32 },
            &mut rng,
        );
        cl.b.set_value(init::uniform(&[r, o], -1.0, 1.0, &mut rng));
        let x = init::uniform(&[1, i, 6, 6], -1.0, 1.0, &mut rng);

        // Factored delta.
        let mut g = Graph::inference();
        let xv = g.input(x.clone());
        let y = cl.forward(&mut g, xv, &Ctx::none()).unwrap();
        let saved = cl.b.value();
        cl.b.set_value(Tensor::zeros(saved.dims()));
        let mut g2 = Graph::inference();
        let xv2 = g2.input(x.clone());
        let yb = cl.forward(&mut g2, xv2, &Ctx::none()).unwrap();
        cl.b.set_value(saved);
        let factored = ops::sub(&g.value(y), &g2.value(yb)).unwrap();

        // Dense delta conv (Eq. 5).
        let full = metalora_tensor::conv::conv2d(
            &x, &cl.delta_weight().unwrap(), spec, spec,
        ).unwrap();
        prop_assert!(
            approx_eq(&factored, &full, 1e-2),
            "err {}",
            metalora_tensor::max_rel_err(&factored, &full)
        );
        let _ = ConvSpec::new(3, stride, 1).unwrap();
    }

    #[test]
    fn meta_cp_matches_eq6_prop(
        i in 1usize..7, o in 1usize..7, r in 1usize..4, seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let base = Linear::new_no_bias("fc", i, o, &mut rng);
        let m = MetaLoraCpLinear::new(
            "fc",
            Box::new(base),
            LoraConfig { rank: r, alpha: r as f32 },
            &mut rng,
        );
        m.b.set_value(init::uniform(&[r, o], -1.0, 1.0, &mut rng));
        let c = init::uniform(&[r], -1.0, 1.0, &mut rng);
        let dw = m.delta_weight_for(&c).unwrap();
        let oracle = einsum("ir,ro,r->io", &[&m.a.value(), &m.b.value(), &c]).unwrap();
        prop_assert!(approx_eq(&dw, &oracle, 1e-3));
    }

    #[test]
    fn meta_tr_matches_eq7_prop(
        i in 1usize..6, o in 1usize..6, r in 1usize..4, seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let base = Linear::new_no_bias("fc", i, o, &mut rng);
        let m = MetaLoraTrLinear::new(
            "fc",
            Box::new(base),
            LoraConfig { rank: r, alpha: r as f32 },
            &mut rng,
        );
        m.b.set_value(init::uniform(&[r, o, r], -1.0, 1.0, &mut rng));
        let c = init::uniform(&[r, r], -1.0, 1.0, &mut rng);
        let dw = m.delta_weight_for(&c).unwrap();
        let oracle = einsum("xiy,yoz,zx->io", &[&m.a.value(), &m.b.value(), &c]).unwrap();
        prop_assert!(approx_eq(&dw, &oracle, 1e-3));

        // Zero seed ⇒ zero delta; the forward respects it too.
        let zero = m.delta_weight_for(&Tensor::zeros(&[r, r])).unwrap();
        prop_assert!(zero.norm() == 0.0);
    }

    #[test]
    fn adapters_freeze_their_base(
        i in 2usize..6, o in 2usize..6, seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let base = Linear::new("fc", i, o, &mut rng);
        let lora = LoraLinear::new("fc", Box::new(base), LoraConfig::default(), &mut rng);
        let trainable: Vec<String> = lora
            .params()
            .iter()
            .filter(|p| p.trainable())
            .map(|p| p.name())
            .collect();
        prop_assert_eq!(trainable.len(), 2);
        prop_assert!(trainable.iter().all(|n| n.contains("lora_")));
    }

    #[test]
    fn meta_cp_per_sample_delta_matches_batch_forward(
        i in 2usize..6, o in 2usize..6, r in 1usize..4, n in 1usize..4,
        seed in 0u64..500,
    ) {
        // Batched forward with per-sample seeds ≡ per-sample Eq. 6 deltas.
        let mut rng = init::rng(seed);
        let base = Linear::new_no_bias("fc", i, o, &mut rng);
        let w0 = base.weight().value();
        let m = MetaLoraCpLinear::new(
            "fc",
            Box::new(base),
            LoraConfig { rank: r, alpha: r as f32 },
            &mut rng,
        );
        m.b.set_value(init::uniform(&[r, o], -1.0, 1.0, &mut rng));
        let x = init::uniform(&[n, i], -1.0, 1.0, &mut rng);
        let seeds = init::uniform(&[n, r], -1.0, 1.0, &mut rng);
        let mut g = Graph::inference();
        let xv = g.input(x.clone());
        let sv = g.input(seeds.clone());
        let y = g_value(&m, &mut g, xv, sv);
        for row in 0..n {
            let c = seeds.index_axis0(row).unwrap();
            let dw = m.delta_weight_for(&c).unwrap();
            let merged = ops::add(&w0, &dw).unwrap();
            let xr = x.index_axis0(row).unwrap().reshape(&[1, i]).unwrap();
            let expect = ops::matmul(&xr, &merged).unwrap();
            let got = y.index_axis0(row).unwrap().reshape(&[1, o]).unwrap();
            prop_assert!(
                approx_eq(&got, &expect, 1e-2),
                "row {row}: err {}",
                metalora_tensor::max_rel_err(&got, &expect)
            );
        }
    }
}

fn g_value(
    m: &MetaLoraCpLinear,
    g: &mut Graph,
    x: metalora_autograd::Var,
    seed: metalora_autograd::Var,
) -> Tensor {
    let y = m.forward(g, x, &Ctx::with_seed(seed)).unwrap();
    g.value(y)
}
