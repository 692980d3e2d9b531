//! A frozen backbone is not differentiated — and nothing that trains can
//! tell.
//!
//! For each PEFT method one adapt step is run twice on the same model and
//! batch: as production runs it (backbone frozen, the image a data leaf),
//! and as the "differentiate everything" reference (the backbone's
//! parameters marked trainable without handing them to anything, the image
//! a [`Graph::variable`]). Adapter and mapping-net gradients must agree
//! bitwise, while the frozen step issues strictly less GEMM work — pinned
//! here to its exact count, so dead backward work cannot creep back in.
//!
//! The counters and the workspace arena are process-global, so every test
//! in this file holds [`serial`] from its first line: building and
//! dropping a model moves the live-tensor count another test may be
//! measuring.

use metalora_autograd::{Graph, ParamRef};
use metalora_nn::models::{Mixer, MixerConfig, ResNet, ResNetConfig};
use metalora_nn::{Backbone, Ctx, Module};
use metalora_peft::inject;
use metalora_peft::meta::MetaFormat;
use metalora_peft::LoraConfig;
use metalora_tensor::{init, workspace, Tensor};
use std::sync::{Mutex, MutexGuard};

const LORA: LoraConfig = LoraConfig {
    rank: 2,
    alpha: 2.0,
};
const BATCH: usize = 3;
const SIDE: usize = 8;
const LABELS: [usize; BATCH] = [0, 3, 1];

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn mixer_cfg() -> MixerConfig {
    MixerConfig {
        in_channels: 3,
        image_size: SIDE,
        patch_size: 4,
        dim: 8,
        token_hidden: 6,
        channel_hidden: 10,
        depth: 2,
        num_classes: 4,
    }
}

fn resnet_cfg() -> ResNetConfig {
    ResNetConfig {
        in_channels: 3,
        channels: vec![4, 8],
        blocks_per_stage: 1,
        num_classes: 4,
    }
}

fn images(seed: u64) -> Tensor {
    init::uniform(&[BATCH, 3, SIDE, SIDE], -1.0, 1.0, &mut init::rng(seed))
}

/// `(calls, flops)` of the GEMM kernel so far.
fn gemm_counters() -> (u64, u64) {
    let snap = metalora_obs::counters::snapshot();
    let k = snap
        .kernels
        .iter()
        .find(|k| k.kernel == "matmul")
        .expect("the matmul kernel row");
    (k.calls, k.flops)
}

/// One training step — forward, cross-entropy, backward, flush — as
/// `core::pipeline::adapt_train` runs it, with the image entering as data
/// or as a differentiable leaf. Returns the step's GEMM `(calls, flops)`.
fn step(model: &dyn Module, x: &Tensor, ctx: &Ctx, differentiable_image: bool) -> (u64, u64) {
    model.zero_grad();
    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    let mut g = Graph::new();
    let xv = if differentiable_image {
        g.variable(x.clone())
    } else {
        g.input(x.clone())
    };
    let logits = model.forward(&mut g, xv, ctx).unwrap();
    let loss = g.softmax_cross_entropy(logits, &LABELS).unwrap();
    g.backward(loss).unwrap();
    g.flush_grads();
    let work = gemm_counters();
    metalora_obs::set_enabled(false);
    metalora_obs::reset();
    work
}

fn grad_bits(params: &[ParamRef]) -> Vec<(String, Vec<u32>)> {
    params
        .iter()
        .map(|p| {
            (
                p.name(),
                p.grad().data().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// Moves every zero-initialised adapter factor off zero, so gradients
/// flow along both branches of each factored update.
fn bump_zero_inits(params: &[ParamRef], seed: u64) {
    let mut rng = init::rng(seed);
    for p in params {
        if p.value().norm() == 0.0 {
            p.set_value(init::uniform(&p.dims(), -0.5, 0.5, &mut rng));
        }
    }
}

/// The frozen step against the differentiate-everything reference on one
/// injected model; `frozen_work` pins the frozen step's GEMM traffic.
fn check_frozen_equals_reference(
    model: &dyn Module,
    adapters: &[ParamRef],
    ctx: &Ctx,
    frozen_work: (u64, u64),
) {
    bump_zero_inits(adapters, 91);
    let x = images(92);
    let frozen: Vec<ParamRef> = model
        .params()
        .into_iter()
        .filter(|p| !p.trainable())
        .collect();
    assert!(!frozen.is_empty(), "injection freezes the backbone");

    let work = step(model, &x, ctx, false);
    let got = grad_bits(adapters);
    assert!(
        got.iter()
            .any(|(_, g)| g.iter().any(|&b| f32::from_bits(b) != 0.0)),
        "the adapters receive gradient"
    );
    for p in &frozen {
        assert_eq!(
            p.grad().norm(),
            0.0,
            "frozen {} received gradient",
            p.name()
        );
    }

    for p in &frozen {
        p.set_trainable(true);
    }
    let reference_work = step(model, &x, ctx, true);
    let reference = grad_bits(adapters);
    assert!(
        frozen.iter().any(|p| p.grad().norm() > 0.0),
        "the reference does differentiate the backbone"
    );
    for p in &frozen {
        p.set_trainable(false);
    }

    assert_eq!(
        got, reference,
        "adapter gradients differ from the reference"
    );
    assert_eq!(work, frozen_work, "GEMM (calls, flops) of the frozen step");
    assert!(
        work.0 < reference_work.0 && work.1 < reference_work.1,
        "frozen {work:?} is not below the reference {reference_work:?}"
    );
}

#[test]
fn mixer_meta_cp() {
    let _g = serial();
    let mut rng = init::rng(1);
    let net = Mixer::new(&mixer_cfg(), &mut rng).unwrap();
    let (meta, inj) = inject::meta_into_mixer(net, MetaFormat::Cp, LORA, 6, &mut rng).unwrap();
    check_frozen_equals_reference(&meta, &inj.adapter_params, &Ctx::none(), (79, 76_824));
}

#[test]
fn resnet_meta_tr() {
    let _g = serial();
    let mut rng = init::rng(2);
    let net = ResNet::new(&resnet_cfg(), &mut rng).unwrap();
    let (meta, inj) = inject::meta_into_resnet(net, MetaFormat::Tr, LORA, 6, &mut rng).unwrap();
    check_frozen_equals_reference(&meta, &inj.adapter_params, &Ctx::none(), (68, 1_291_056));
}

#[test]
fn resnet_meta_cp_conv() {
    let _g = serial();
    let mut rng = init::rng(3);
    let net = ResNet::new(&resnet_cfg(), &mut rng).unwrap();
    let (meta, inj) = inject::meta_into_resnet(net, MetaFormat::Cp, LORA, 6, &mut rng).unwrap();
    check_frozen_equals_reference(&meta, &inj.adapter_params, &Ctx::none(), (53, 980_376));
}

#[test]
fn mixer_plain_lora() {
    let _g = serial();
    let mut rng = init::rng(4);
    let mut net = Mixer::new(&mixer_cfg(), &mut rng).unwrap();
    let inj = inject::lora(&mut net, LORA, &mut rng);
    check_frozen_equals_reference(&net, &inj.adapter_params, &Ctx::none(), (65, 54_528));
}

#[test]
fn resnet_multi_lora() {
    let _g = serial();
    let mut rng = init::rng(5);
    let mut net = ResNet::new(&resnet_cfg(), &mut rng).unwrap();
    let inj = inject::multi(&mut net, 3, LORA, &mut rng);
    check_frozen_equals_reference(
        &net,
        &inj.adapter_params,
        &Ctx::with_adapter(1),
        (42, 741_504),
    );
}

/// With every parameter trainable (pretraining, full fine-tuning) the only
/// thing left to prune is the gradient of the image itself: every
/// parameter gradient is bitwise the differentiate-everything one, and the
/// GEMM traffic differs by exactly the first layer's `dX` product.
fn check_all_trainable(model: &dyn Module, first_layer_dx_flops: u64) {
    model.set_trainable(true);
    let params = model.params();
    let x = images(93);
    let work = step(model, &x, &Ctx::none(), false);
    let got = grad_bits(&params);
    let reference_work = step(model, &x, &Ctx::none(), true);
    assert_eq!(got, grad_bits(&params));
    assert_eq!(reference_work.0 - work.0, 1, "exactly one GEMM is pruned");
    assert_eq!(reference_work.1 - work.1, first_layer_dx_flops);
}

#[test]
fn full_fine_tuning_loses_only_the_first_layers_dx() {
    let _g = serial();
    let (m, r) = (mixer_cfg(), resnet_cfg());
    // Patch embedding: dX = G[N·T, D] · Wᵀ[D, C·P·P].
    let tokens = (SIDE / m.patch_size) * (SIDE / m.patch_size);
    let patch_dim = m.in_channels * m.patch_size * m.patch_size;
    let mixer = Mixer::new(&m, &mut init::rng(6)).unwrap();
    check_all_trainable(&mixer, (2 * BATCH * tokens * m.dim * patch_dim) as u64);
    // Stem conv (3×3, stride 1, pad 1): dcols = G[N·H·W, O] · Wᵀ[O, C·9].
    let resnet = ResNet::new(&r, &mut init::rng(7)).unwrap();
    check_all_trainable(
        &resnet,
        (2 * BATCH * SIDE * SIDE * r.channels[0] * r.in_channels * 9) as u64,
    );
}

/// Peak tensor bytes alive while `f` runs (the arena is emptied first, so
/// a pooled buffer cannot stand in for a fresh allocation).
fn peak_tensor_bytes(f: impl FnOnce()) -> u64 {
    workspace::clear();
    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    f();
    let peak = metalora_obs::counters::snapshot().peak_tensor_bytes;
    metalora_obs::set_enabled(false);
    metalora_obs::reset();
    peak
}

/// The probe phase embeds on inference tapes (`Adapted::embed_images` is
/// `Backbone::features` under `Graph::inference()`): no backward will ever
/// read them, so they hold no normalised inputs. (No tape saves conv
/// patches: `dW` rebuilds them from the input.)
///
/// An inference tape runs batch norm on its running statistics, as four
/// tape nodes where a training tape runs one, so the two tapes' footprints
/// are not comparable. Each is compared with itself instead: an inference
/// tape weighs the same whether the model trains or not, and a training
/// tape with everything differentiated weighs at least every x̂ more than
/// one with nothing to differentiate.
#[test]
fn an_inference_tape_holds_no_saved_activations() {
    let _g = serial();
    let mut rng = init::rng(8);
    let cfg = resnet_cfg();
    let net = ResNet::new(&cfg, &mut rng).unwrap();
    let (meta, inj) = inject::meta_into_resnet(net, MetaFormat::Tr, LORA, 6, &mut rng).unwrap();
    bump_zero_inits(&inj.adapter_params, 94);
    let x = images(95);

    // The peak of one embedding pass with every parameter and the image
    // differentiable (`trainable`) or none of them.
    let peak = |tape: fn() -> Graph, trainable: bool| {
        meta.set_trainable(trainable);
        peak_tensor_bytes(|| {
            let mut g = tape();
            let xv = if trainable {
                g.variable(x.clone())
            } else {
                g.input(x.clone())
            };
            meta.features(&mut g, xv, &Ctx::none()).unwrap();
        })
    };
    let (inference, inference_trainable) = (peak(Graph::inference, false), peak(Graph::inference, true));
    assert_eq!(
        inference, inference_trainable,
        "an inference tape kept something for a trainable operand"
    );
    let (idle, saving) = (peak(Graph::new, false), peak(Graph::new, true));
    // A floor on what the saving tape must hold beyond the idle one: the
    // stem batch norm's x̂ [N, O, H, W], once per backbone pass.
    let stem_saved = 4 * BATCH * SIDE * SIDE * cfg.channels[0];
    assert!(
        idle + 2 * stem_saved as u64 <= saving,
        "the idle training tape peaked at {idle} B, the saving tape at {saving} B"
    );
}
