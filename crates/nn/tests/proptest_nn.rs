//! Property-based tests for layers, backbones and optimisers.

use metalora_autograd::{Graph, ParamRef};
use metalora_nn::models::{Mixer, MixerConfig, Mlp, MlpConfig, ResNet, ResNetConfig};
use metalora_nn::{
    Adam, Backbone, BatchNorm2d, Checkpoint, Conv2d, Ctx, LayerNorm, Linear, Module, Optimizer, Sgd,
};
use metalora_tensor::{init, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn linear_shapes_hold(
        n in 1usize..5, i in 1usize..8, o in 1usize..8, seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let l = Linear::new("fc", i, o, &mut rng);
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[n, i], -1.0, 1.0, &mut rng));
        let y = l.forward(&mut g, x, &Ctx::none()).unwrap();
        prop_assert_eq!(g.dims(y), vec![n, o]);
        prop_assert_eq!(l.num_params(), i * o + o);
    }

    #[test]
    fn conv_output_geometry(
        n in 1usize..3, i in 1usize..4, o in 1usize..4,
        k in 1usize..4, stride in 1usize..3, hw in 6usize..10,
        seed in 0u64..500,
    ) {
        let pad = k / 2;
        let mut rng = init::rng(seed);
        let c = Conv2d::new("conv", i, o, k, stride, pad, &mut rng).unwrap();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[n, i, hw, hw], -1.0, 1.0, &mut rng));
        let y = c.forward(&mut g, x, &Ctx::none()).unwrap();
        let expect = (hw + 2 * pad - k) / stride + 1;
        prop_assert_eq!(g.dims(y), vec![n, o, expect, expect]);
    }

    #[test]
    fn layer_norm_lanes_are_standardised(
        n in 1usize..5, d in 2usize..8, seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let ln = LayerNorm::new("ln", d);
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[n, d], -3.0, 3.0, &mut rng));
        let y = ln.forward(&mut g, x, &Ctx::none()).unwrap();
        let v = g.value(y);
        for lane in 0..n {
            let row = &v.data()[lane * d..(lane + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            prop_assert!(mean.abs() < 1e-3, "lane {lane} mean {mean}");
        }
    }

    #[test]
    fn batch_norm_train_output_standardised(
        n in 2usize..4, c in 1usize..4, hw in 2usize..5, seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let bn = BatchNorm2d::new("bn", c);
        let mut g = Graph::new();
        let x = g.input(init::normal(&[n, c, hw, hw], 3.0, 2.0, &mut rng));
        let y = bn.forward(&mut g, x, &Ctx::none()).unwrap();
        let v = g.value(y);
        // Per-channel output mean ≈ 0 in training mode.
        let m = n * hw * hw;
        for ci in 0..c {
            let mut acc = 0.0f32;
            for ni in 0..n {
                let base = ((ni * c + ci) * hw) * hw;
                acc += v.data()[base..base + hw * hw].iter().sum::<f32>();
            }
            prop_assert!((acc / m as f32).abs() < 1e-2);
        }
    }

    #[test]
    fn backbone_features_match_declared_dim(seed in 0u64..200) {
        let mut rng = init::rng(seed);
        let rn = ResNet::new(
            &ResNetConfig {
                in_channels: 3,
                channels: vec![4, 6],
                blocks_per_stage: 1,
                num_classes: 5,
            },
            &mut rng,
        )
        .unwrap();
        let mx = Mixer::new(
            &MixerConfig {
                in_channels: 3,
                image_size: 8,
                patch_size: 4,
                dim: 10,
                token_hidden: 6,
                channel_hidden: 12,
                depth: 1,
                num_classes: 5,
            },
            &mut rng,
        )
        .unwrap();
        let mlp = Mlp::new(
            "m",
            &MlpConfig {
                in_dim: 6,
                hidden: vec![9],
                out_dim: 4,
            },
            &mut rng,
        );
        let mut g = Graph::inference();
        let xi = g.input(init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng));
        let f = rn.features(&mut g, xi, &Ctx::none()).unwrap();
        prop_assert_eq!(g.dims(f), vec![2, rn.feature_dim()]);
        let f = mx.features(&mut g, xi, &Ctx::none()).unwrap();
        prop_assert_eq!(g.dims(f), vec![2, mx.feature_dim()]);
        let xv = g.input(init::uniform(&[2, 6], -1.0, 1.0, &mut rng));
        let f = mlp.features(&mut g, xv, &Ctx::none()).unwrap();
        prop_assert_eq!(g.dims(f), vec![2, mlp.feature_dim()]);
    }

    #[test]
    fn sgd_descends_any_quadratic(
        dim in 1usize..6, lr in 0.01f32..0.3, seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let p = ParamRef::new("x", init::uniform(&[dim], -5.0, 5.0, &mut rng));
        let start = p.value().norm();
        let mut opt = Sgd::new(vec![p.clone()], lr);
        for _ in 0..50 {
            p.accumulate_grad(&p.value()); // ∇(½‖x‖²) = x
            opt.step();
        }
        prop_assert!(p.value().norm() < start.max(1e-3), "did not descend");
    }

    #[test]
    fn adam_descends_any_quadratic(
        dim in 1usize..6, seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let p = ParamRef::new("x", init::uniform(&[dim], -5.0, 5.0, &mut rng));
        let start = p.value().norm();
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        for _ in 0..150 {
            p.accumulate_grad(&p.value());
            opt.step();
        }
        prop_assert!(p.value().norm() < start.max(1e-2));
    }

    #[test]
    fn frozen_params_survive_optimisation(seed in 0u64..500) {
        let mut rng = init::rng(seed);
        let frozen = ParamRef::frozen("f", init::uniform(&[3], -1.0, 1.0, &mut rng));
        let live = ParamRef::new("l", init::uniform(&[3], -1.0, 1.0, &mut rng));
        let before = frozen.value();
        let mut opt = Adam::new(vec![frozen.clone(), live.clone()], 0.5);
        for _ in 0..10 {
            frozen.accumulate_grad(&Tensor::ones(&[3]));
            live.accumulate_grad(&Tensor::ones(&[3]));
            opt.step();
        }
        prop_assert!(metalora_tensor::approx_eq(&before, &frozen.value(), 0.0));
        prop_assert!(!metalora_tensor::approx_eq(&before, &live.value(), 1e-6));
    }

    #[test]
    fn a_damaged_checkpoint_file_is_an_error_never_a_panic_or_a_partial_load(
        cut in 0usize..10_000, byte in 0usize..8, seed in 0u64..500,
    ) {
        let cfg = MlpConfig { in_dim: 3, hidden: vec![4], out_dim: 2 };
        let source = Mlp::new("m", &cfg, &mut init::rng(seed));
        let json = Checkpoint::capture(&source).unwrap().to_json().unwrap();
        prop_assert!(json.is_ascii());
        let at = json.len() * cut / 10_000;

        // Truncated anywhere before the end: the document is incomplete.
        prop_assert!(Checkpoint::from_json(&json[..at]).is_err());

        // One byte overwritten. Structural damage is an `Err`; damage the
        // format cannot see (a digit, a letter of a name) parses — and
        // then a strict `apply` either commits whole or changes nothing.
        let mut damaged = json.clone().into_bytes();
        damaged[at] = b"}\"[,x9\\:"[byte];
        let damaged = String::from_utf8(damaged).unwrap();
        let target = Mlp::new("m", &cfg, &mut init::rng(seed + 1));
        let values = |m: &Mlp| -> Vec<Vec<u32>> {
            m.params()
                .iter()
                .map(|p| p.value().data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let before = values(&target);
        if let Ok(ck) = Checkpoint::from_json(&damaged) {
            if ck.apply(&target).is_err() {
                prop_assert_eq!(values(&target), before);
            }
        }
    }
}
