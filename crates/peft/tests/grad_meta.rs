//! Finite-difference gradient checks for the adapter families:
//! Conv-LoRA (Eq. 5) and both MetaLoRA formats (CP, Eq. 6; TR, Eq. 7)
//! end-to-end through the parameter-space mapping net.
//!
//! Every zero-initialised up-factor is bumped to a random value first, so
//! gradients actually flow along both branches of each factored path.

use metalora_autograd::check::grad_check_params;
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_nn::{Backbone, Conv2d, Ctx, Linear, LinearLike, Module};
use metalora_peft::meta::{MappingNet, MetaLora, MetaLoraCpLinear, MetaLoraTrLinear};
use metalora_peft::{ConvLora, LoraConfig};
use metalora_tensor::init;

const CFG: LoraConfig = LoraConfig { rank: 2, alpha: 2.0 };

#[test]
fn conv_lora_gradients_match_finite_differences() {
    let mut rng = init::rng(11);
    let base = Conv2d::new_no_bias("c", 2, 3, 3, 1, 1, &mut rng).unwrap();
    let cl = ConvLora::new("c", Box::new(base), CFG, &mut rng);
    cl.b.set_value(init::uniform(&[2, 3], -0.5, 0.5, &mut rng));
    let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);

    let report = grad_check_params(&cl.adapter_params(), 1e-2, |g| {
        let xv = g.input(x.clone());
        let y = cl.forward(g, xv, &Ctx::none())?;
        g.mean_all(y)
    })
    .unwrap();
    assert!(report.passes(1e-2), "{report:?}");
}

/// One-layer backbone whose single dense layer consumes the ctx seed —
/// the smallest host that exercises a MetaLoRA adapter end-to-end.
struct TinyBackbone<L> {
    layer: L,
}

impl<L: Module + LinearLike> Module for TinyBackbone<L> {
    fn forward(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> metalora_peft::Result<Var> {
        let y = self.layer.forward(g, x, ctx)?;
        Ok(g.tanh(y))
    }
    fn params(&self) -> Vec<ParamRef> {
        self.layer.params()
    }
}

impl<L: Module + LinearLike> Backbone for TinyBackbone<L> {
    fn features(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> metalora_peft::Result<Var> {
        self.forward(g, x, ctx)
    }
    fn feature_dim(&self) -> usize {
        self.layer.out_features()
    }
}

/// Builds the MetaLoRA host, bumps the zero-init core to `b_dims` random
/// values, and grad-checks adapter + mapping parameters jointly through
/// `MetaLora::forward` (extraction pass, seed generation, gated delta).
fn check_meta<L: Module + LinearLike + 'static>(
    seed_dim: usize,
    b_dims: &[usize],
    make: impl FnOnce(Box<Linear>, &mut rand::rngs::StdRng) -> L,
    core_of: impl Fn(&L) -> (ParamRef, ParamRef),
) {
    let mut rng = init::rng(13);
    let base = Box::new(Linear::new("fc", 3, 3, &mut rng));
    let layer = make(base, &mut rng);
    let (a, b) = core_of(&layer);
    b.set_value(init::uniform(b_dims, -0.5, 0.5, &mut rng));
    let mapping = MappingNet::new("map", 3, 4, seed_dim, &mut rng);
    let mut params = vec![a, b];
    params.extend(mapping.params());
    let meta = MetaLora::new(Box::new(TinyBackbone { layer }), mapping).unwrap();
    let x = init::uniform(&[2, 3], -1.0, 1.0, &mut rng);

    let report = grad_check_params(&params, 1e-2, |g| {
        let xv = g.input(x.clone());
        let y = meta.forward(g, xv, &Ctx::none())?;
        g.mean_all(y)
    })
    .unwrap();
    assert!(report.passes(1e-2), "{report:?}");

    // The frozen base must stay out of the gradient flow entirely.
    let mut g = Graph::new();
    let xv = g.input(x.clone());
    let y = meta.forward(&mut g, xv, &Ctx::none()).unwrap();
    let l = g.mean_all(y).unwrap();
    g.backward(l).unwrap();
    g.flush_grads();
    for p in meta.backbone().params() {
        if !p.trainable() {
            assert_eq!(p.grad().norm(), 0.0, "frozen {} moved", p.name());
        }
    }
}

#[test]
fn meta_cp_gradients_flow_through_mapping_net() {
    check_meta(
        CFG.rank,
        &[2, 3],
        |base, rng| MetaLoraCpLinear::new("fc", base, CFG, rng),
        |l| (l.a.clone(), l.b.clone()),
    );
}

#[test]
fn meta_tr_gradients_flow_through_mapping_net() {
    check_meta(
        CFG.rank * CFG.rank,
        &[2, 3, 2],
        |base, rng| MetaLoraTrLinear::new("fc", base, CFG, rng),
        |l| (l.a.clone(), l.b.clone()),
    );
}

#[test]
fn meta_cp_seed_gradient_reaches_every_mapping_parameter() {
    // Stronger than norm > 0 on the stacked vector: each of the four
    // mapping tensors individually receives signal once B is non-zero.
    let mut rng = init::rng(17);
    let base = Box::new(Linear::new("fc", 3, 3, &mut rng));
    let layer = MetaLoraCpLinear::new("fc", base, CFG, &mut rng);
    layer.b.set_value(init::uniform(&[2, 3], -0.5, 0.5, &mut rng));
    let mapping = MappingNet::new("map", 3, 4, CFG.rank, &mut rng);
    let map_params = mapping.params();
    let meta = MetaLora::new(Box::new(TinyBackbone { layer }), mapping).unwrap();

    for p in &map_params {
        p.zero_grad();
    }
    let mut g = Graph::new();
    let x = g.input(init::uniform(&[4, 3], -1.0, 1.0, &mut rng));
    let y = meta.forward(&mut g, x, &Ctx::none()).unwrap();
    let l = g.mean_all(y).unwrap();
    g.backward(l).unwrap();
    g.flush_grads();
    for p in &map_params {
        assert!(p.grad().norm() > 0.0, "{} received no gradient", p.name());
    }
}
