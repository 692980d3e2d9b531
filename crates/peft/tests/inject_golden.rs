//! Characterization of PEFT injection: every method on every backbone.
//!
//! One row per {LoRA, Multi-LoRA, MetaLoRA-CP, MetaLoRA-TR, static-seed
//! MetaLoRA-CP} × {ResNet, Mixer, ViT} at a tiny configuration pins what an injection produces and
//! what one training step on it computes:
//!
//! * the injected parameter names, in order (they are checkpoint keys),
//!   as their count, first and last name and a hash of the whole list;
//! * `Injection.layers`;
//! * the tape length after one forward pass plus the loss;
//! * the bits of the loss, and hashes of the bits of the logits and of
//!   every adapter gradient.
//!
//! A refactor of the adapters or of the injection walk that keeps the op
//! chain, the parameter names and the RNG draw order keeps every row.
//!
//! After an *intentional* change, regenerate with
//! `cargo test -p metalora-peft --test inject_golden -- --nocapture` and
//! copy the printed rows over [`GOLDEN`].

use metalora_autograd::{Graph, ParamRef};
use metalora_nn::models::{
    Mixer, MixerConfig, ResNet, ResNetConfig, TransformerConfig, VisionTransformer,
};
use metalora_nn::{Ctx, Injectable, Module};
use metalora_peft::inject::{self, Injection};
use metalora_peft::meta::MetaFormat;
use metalora_peft::LoraConfig;
use metalora_tensor::{init, Tensor};
use rand::rngs::StdRng;

const LORA: LoraConfig = LoraConfig {
    rank: 2,
    alpha: 2.0,
};
const BANKS: usize = 3;
const BATCH: usize = 2;
const SIDE: usize = 8;
const LABELS: [usize; BATCH] = [1, 3];

#[derive(Debug, Clone, Copy)]
enum Method {
    Lora,
    Multi,
    MetaCp,
    MetaTr,
    StaticCp,
}

#[derive(Debug, Clone, Copy)]
enum Arch {
    ResNet,
    Mixer,
    Vit,
}

fn resnet(rng: &mut StdRng) -> ResNet {
    let cfg = ResNetConfig {
        in_channels: 3,
        channels: vec![4, 8],
        blocks_per_stage: 1,
        num_classes: 4,
    };
    ResNet::new(&cfg, rng).unwrap()
}

fn mixer(rng: &mut StdRng) -> Mixer {
    let cfg = MixerConfig {
        in_channels: 3,
        image_size: SIDE,
        patch_size: 4,
        dim: 8,
        token_hidden: 6,
        channel_hidden: 10,
        depth: 1,
        num_classes: 4,
    };
    Mixer::new(&cfg, rng).unwrap()
}

fn vit(rng: &mut StdRng) -> VisionTransformer {
    let cfg = TransformerConfig {
        in_channels: 3,
        image_size: SIDE,
        patch_size: 4,
        dim: 8,
        heads: 2,
        mlp_hidden: 12,
        depth: 1,
        num_classes: 4,
    };
    VisionTransformer::new(&cfg, rng).unwrap()
}

/// Builds the backbone, injects `method` and returns the model to step,
/// the injection and the context a training step runs under.
fn inject(method: Method, arch: Arch, rng: &mut StdRng) -> (Box<dyn Module>, Injection, Ctx) {
    let mut net: Box<dyn Injectable> = match arch {
        Arch::ResNet => Box::new(resnet(rng)),
        Arch::Mixer => Box::new(mixer(rng)),
        Arch::Vit => Box::new(vit(rng)),
    };
    match method {
        Method::Lora => {
            let inj = inject::lora(net.as_mut(), LORA, rng);
            (net, inj, Ctx::none())
        }
        Method::Multi => {
            let inj = inject::multi(net.as_mut(), BANKS, LORA, rng);
            (net, inj, Ctx::with_adapter(1))
        }
        Method::MetaCp | Method::MetaTr => {
            let format = match method {
                Method::MetaCp => MetaFormat::Cp,
                _ => MetaFormat::Tr,
            };
            let (meta, inj) = inject::meta(net, format, LORA, 6, rng).unwrap();
            (Box::new(meta), inj, Ctx::none())
        }
        Method::StaticCp => {
            let (meta, inj) = inject::static_seed(net, LORA, rng).unwrap();
            (Box::new(meta), inj, Ctx::none())
        }
    }
}

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bits_hash<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    fnv(tensors
        .into_iter()
        .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes())))
}

/// Moves every zero-initialised adapter factor off zero, so gradients
/// flow along both branches of each factored update.
fn bump_zero_inits(params: &[ParamRef]) {
    let mut rng = init::rng(71);
    for p in params {
        if p.value().norm() == 0.0 {
            p.set_value(init::uniform(&p.dims(), -0.5, 0.5, &mut rng));
        }
    }
}

/// One case's row: the parameter count, first and last name and the hash
/// of every name in order, `Injection.layers`, the tape length after the
/// forward pass and the loss, the loss bits, and the hashes of the logits'
/// and the adapter gradients' bits.
fn run(method: Method, arch: Arch) -> String {
    let mut rng = init::rng(17);
    let (model, inj, ctx) = inject(method, arch, &mut rng);
    let params = &inj.adapter_params;
    bump_zero_inits(params);
    let names: Vec<String> = params.iter().map(|p| p.name()).collect();

    let mut g = Graph::new();
    let images = init::uniform(&[BATCH, 3, SIDE, SIDE], -1.0, 1.0, &mut init::rng(72));
    let x = g.input(images);
    let logits = model.forward(&mut g, x, &ctx).unwrap();
    let loss = g.softmax_cross_entropy(logits, &LABELS).unwrap();
    let tape = g.len();
    let loss_bits = g.value(loss).data()[0].to_bits();
    let logits_hash = bits_hash([&g.value(logits)]);
    g.backward(loss).unwrap();
    g.flush_grads();
    let grads: Vec<Tensor> = params.iter().map(|p| p.grad()).collect();

    format!(
        "{} {} {} {:016x} {} {tape} {loss_bits:08x} {logits_hash:016x} {:016x}",
        names.len(),
        names[0],
        names[names.len() - 1],
        fnv(names.join("\n").into_bytes()),
        inj.layers,
        bits_hash(&grads),
    )
}

#[test]
fn every_method_on_every_backbone_matches_its_golden() {
    let rows: Vec<String> = GOLDEN.iter().map(|&(m, a, _)| run(m, a)).collect();
    for ((m, a, _), row) in GOLDEN.iter().zip(&rows) {
        println!("    (Method::{m:?}, Arch::{a:?}, \"{row}\"),");
    }
    for ((m, a, want), got) in GOLDEN.iter().zip(&rows) {
        assert_eq!(got, want, "{m:?} on {a:?}");
    }
}

#[rustfmt::skip]
const GOLDEN: [(Method, Arch, &str); 15] = [
    (Method::Lora, Arch::ResNet, "10 lora_conv0.conv_lora_a lora_conv4.conv_lora_b 57516994ea6c5b58 5 78 3fb7e334 3bc20554a777df4b f95e59d6c44e6e7c"),
    (Method::Lora, Arch::Mixer, "8 lora_fc0.lora_a lora_fc3.lora_b b7299c710d1d0fb5 4 69 3fafebbc f03661483ef29cac cbc72076c17ba3c7"),
    (Method::Lora, Arch::Vit, "12 lora_vit0.lora_a lora_vit5.lora_b 9fbdff7382d56e7f 6 103 3fed00c6 66fc71957acca0ad efe960d2c608f91b"),
    (Method::Multi, Arch::ResNet, "30 multi_conv0.multi_conv_lora_a0 multi_conv4.multi_conv_lora_b2 0bb1b5b78bb391d4 5 78 3fd331d6 d633ef2df8c86ead 14cd724aad90fc98"),
    (Method::Multi, Arch::Mixer, "24 multi_fc0.multi_lora_a0 multi_fc3.multi_lora_b2 f2b4567da6712785 4 69 3faeb053 e6d77fdfce3cde81 d25e9f05209c8744"),
    (Method::Multi, Arch::Vit, "36 multi_vit0.multi_lora_a0 multi_vit5.multi_lora_b2 92d1ff2bc97723df 6 103 3ff86866 d23752cc50161507 269f771432ceda32"),
    (Method::MetaCp, Arch::ResNet, "14 meta_conv0.meta_cp_conv_a mapping.b2 8bd91390d362f872 5 134 3fba33f3 417cb1c917d7dfcc a0bf98ed2f982475"),
    (Method::MetaCp, Arch::Mixer, "12 meta_fc0.meta_cp_a mapping.b2 5afded022d29a827 4 137 3fa63d54 21fe618fdfb58ac4 7bee51966e0f7b22"),
    (Method::MetaCp, Arch::Vit, "16 meta_vit0.meta_cp_a mapping.b2 1e46c029b2f769ef 6 203 3ff82796 f49fdafefabffc76 0e328e90126f0511"),
    (Method::MetaTr, Arch::ResNet, "14 meta_conv0.meta_tr_conv_a mapping.b2 06ecaf3fa7e63326 5 174 3f971c3d f0903f03b745dd24 6fb574ab094b972e"),
    (Method::MetaTr, Arch::Mixer, "12 meta_fc0.meta_tr_a mapping.b2 95c171a5baf18af7 4 165 3fb8a370 dbb69f48659a0ec5 53089fc9fa935808"),
    (Method::MetaTr, Arch::Vit, "16 meta_vit0.meta_tr_a mapping.b2 81ee25c94ea9d277 6 245 4001f33d edf02c6135c3ee8e c76299663640e6a0"),
    (Method::StaticCp, Arch::ResNet, "11 meta_conv0.meta_cp_conv_a static_seed 84683136b3aa10ac 5 109 3fb877ca b077029dbdf80484 41bfbc3a41b0adeb"),
    (Method::StaticCp, Arch::Mixer, "9 meta_fc0.meta_cp_a static_seed 8da0bbe758cae665 4 90 3fa5001a bb2efeb67f3991d9 9f625676736d6367"),
    (Method::StaticCp, Arch::Vit, "13 meta_vit0.meta_cp_a static_seed 488e680cead3363d 6 134 3ff9af30 dad209e9e734f810 764732a53f83826a"),
];
