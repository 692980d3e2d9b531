//! PEFT adapters inside full backbones: freezing discipline, learning
//! behaviour and parameter-efficiency claims.

use metalora::autograd::Graph;
use metalora::nn::models::{Mixer, ResNet};
use metalora::nn::{Ctx, Module, Optimizer, Sgd};
use metalora::peft::meta::MetaFormat;
use metalora::peft::{inject, LoraConfig, ParamReport};
use metalora::tensor::{init, Tensor};
use metalora::ExperimentConfig;

fn quick_resnet(seed: u64) -> ResNet {
    let cfg = ExperimentConfig::quick();
    ResNet::new(&cfg.resnet(), &mut init::rng(seed)).unwrap()
}

fn quick_mixer(seed: u64) -> Mixer {
    let cfg = ExperimentConfig::quick();
    Mixer::new(&cfg.mixer(), &mut init::rng(seed)).unwrap()
}

fn batch(seed: u64, n: usize, size: usize) -> (Tensor, Vec<usize>) {
    let mut rng = init::rng(seed);
    let x = init::uniform(&[n, 3, size, size], 0.0, 1.0, &mut rng);
    let labels = (0..n).map(|i| i % 8).collect();
    (x, labels)
}

/// One training step on the adapter params; returns (before, after) loss.
fn one_step(model: &dyn Module, params: Vec<metalora::autograd::ParamRef>, seed: u64) -> (f32, f32) {
    let (x, labels) = batch(seed, 8, 16);
    let run = |model: &dyn Module| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let logits = model.forward(&mut g, xv, &Ctx::none()).unwrap();
        let loss = g.softmax_cross_entropy(logits, &labels).unwrap();
        (g, loss)
    };
    let (mut g, loss) = run(model);
    let before = g.value(loss).item().unwrap();
    g.backward(loss).unwrap();
    g.flush_grads();
    let mut opt = Sgd::new(params, 0.5);
    opt.step();
    let (g2, loss2) = run(model);
    (before, g2.value(loss2).item().unwrap())
}

#[test]
fn lora_step_reduces_loss_resnet() {
    let mut rng = init::rng(1);
    let mut net = quick_resnet(1);
    let inj = inject::lora(&mut net, LoraConfig::default(), &mut rng);
    let (before, after) = one_step(&net, inj.adapter_params, 2);
    assert!(after < before, "{after} !< {before}");
}

#[test]
fn lora_step_reduces_loss_mixer() {
    let mut rng = init::rng(2);
    let mut net = quick_mixer(2);
    let inj = inject::lora(&mut net, LoraConfig::default(), &mut rng);
    let (before, after) = one_step(&net, inj.adapter_params, 3);
    assert!(after < before, "{after} !< {before}");
}

#[test]
fn meta_cp_step_reduces_loss_resnet() {
    let mut rng = init::rng(3);
    let net = quick_resnet(3);
    let (meta, inj) =
        inject::meta_into_resnet(net, MetaFormat::Cp, LoraConfig::default(), 16, &mut rng)
            .unwrap();
    let (before, after) = one_step(&meta, inj.adapter_params, 4);
    assert!(after < before, "{after} !< {before}");
}

#[test]
fn meta_tr_step_reduces_loss_mixer() {
    let mut rng = init::rng(4);
    let net = quick_mixer(4);
    let (meta, inj) =
        inject::meta_into_mixer(net, MetaFormat::Tr, LoraConfig::default(), 16, &mut rng)
            .unwrap();
    let (before, after) = one_step(&meta, inj.adapter_params, 5);
    assert!(after < before, "{after} !< {before}");
}

#[test]
fn frozen_base_never_moves_under_adapter_training() {
    let mut rng = init::rng(5);
    let mut net = quick_resnet(5);
    let snapshot: Vec<Tensor> = net
        .params()
        .iter()
        .map(|p| p.value())
        .collect();
    let inj = inject::lora(&mut net, LoraConfig::default(), &mut rng);
    for _ in 0..3 {
        one_step(&net, inj.adapter_params.clone(), 6);
    }
    let frozen_now: Vec<Tensor> = net
        .params()
        .iter()
        .filter(|p| !p.trainable())
        .map(|p| p.value())
        .collect();
    // Every original backbone tensor is still bit-identical somewhere in
    // the frozen set.
    for t in &snapshot {
        assert!(
            frozen_now
                .iter()
                .any(|u| metalora::tensor::approx_eq(t, u, 0.0)),
            "a frozen parameter moved"
        );
    }
}

#[test]
fn trainable_fraction_shrinks_with_backbone_growth() {
    // The "0.1–1%" claim scales with backbone size: the bigger net must
    // have a strictly smaller trainable fraction at fixed rank.
    let mut rng = init::rng(6);
    let small_cfg = ExperimentConfig::quick();
    let mut small = ResNet::new(&small_cfg.resnet(), &mut rng).unwrap();
    let std_cfg = ExperimentConfig::standard();
    let mut big = ResNet::new(&std_cfg.resnet(), &mut rng).unwrap();
    let lc = LoraConfig {
        rank: 2,
        alpha: 4.0,
    };
    inject::lora(&mut small, lc, &mut rng);
    inject::lora(&mut big, lc, &mut rng);
    let fs = ParamReport::of(&small).fraction();
    let fb = ParamReport::of(&big).fraction();
    assert!(fb < fs, "big {fb} !< small {fs}");
    assert!(fb < 0.2, "standard backbone adapter fraction {fb}");
}

#[test]
fn meta_seed_depends_on_input_shift() {
    // The generated seed must differ between identity and inverted views
    // of the same underlying content — the mechanism behind task-aware
    // adaptation.
    let mut rng = init::rng(7);
    let net = quick_resnet(7);
    let (meta, _) =
        inject::meta_into_resnet(net, MetaFormat::Cp, LoraConfig::default(), 16, &mut rng)
            .unwrap();
    let (x, _) = batch(8, 4, 16);
    let x_inv = metalora::tensor::ops::map(&x, |v| 1.0 - v);
    let mut g = Graph::inference();
    let a = g.input(x);
    let b = g.input(x_inv);
    let sa = meta.generate_seed(&mut g, a).unwrap();
    let sb = meta.generate_seed(&mut g, b).unwrap();
    assert!(!metalora::tensor::approx_eq(
        &g.value(sa),
        &g.value(sb),
        1e-4
    ));
}

#[test]
fn multi_lora_slots_specialise() {
    // Train slot 0 on one label mapping and slot 1 on a permuted mapping;
    // each slot should fit its own mapping better.
    let mut rng = init::rng(13);
    let mut net = quick_resnet(8);
    let inj = inject::multi(&mut net, 2, LoraConfig::default(), &mut rng);
    let (x, labels) = batch(9, 8, 16);
    let permuted: Vec<usize> = labels.iter().map(|&l| (l + 4) % 8).collect();

    let mut opt = Sgd::new(inj.adapter_params.clone(), 0.4);
    for _ in 0..25 {
        for (slot, lab) in [(0usize, &labels), (1usize, &permuted)] {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let logits = net.forward(&mut g, xv, &Ctx::with_adapter(slot)).unwrap();
            let loss = g.softmax_cross_entropy(logits, lab).unwrap();
            g.backward(loss).unwrap();
            g.flush_grads();
            opt.step();
        }
    }
    let loss_with = |slot: usize, lab: &[usize]| {
        let mut g = Graph::inference();
        let xv = g.input(x.clone());
        let logits = net.forward(&mut g, xv, &Ctx::with_adapter(slot)).unwrap();
        let loss = g.softmax_cross_entropy(logits, lab).unwrap();
        g.value(loss).item().unwrap()
    };
    assert!(
        loss_with(0, &labels) < loss_with(1, &labels),
        "slot 0 should fit mapping 0 best"
    );
    assert!(
        loss_with(1, &permuted) < loss_with(0, &permuted),
        "slot 1 should fit mapping 1 best"
    );
}
