//! The static-seed ablation: MetaLoRA's architecture with the mapping net
//! replaced by a single **learned constant** seed shared across all
//! inputs.
//!
//! This isolates the paper's central claim. If MetaLoRA's gains came only
//! from the CP/TR parameterisation of ΔW, a learned-constant seed would
//! match it; if they come from *input-conditioned* generation (the
//! meta-learning part), the static variant should behave like plain LoRA
//! on unseen task shifts. The pipeline adapts it as
//! `Method::StaticSeedCp` (`metalora::pipeline::adapt`), and the
//! `ablation_static_seed` bench runs the comparison through the
//! experiment grid (`metalora::table1`).

use crate::inject::Injection;
use crate::meta::MetaFormat;
use crate::{LoraConfig, Result};
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_nn::{Backbone, Ctx, Injectable, Module};
use metalora_tensor::{init, TensorError};
use rand::rngs::StdRng;

/// A backbone injected with MetaLoRA layers whose seed is one trainable
/// vector instead of a generated, per-input one.
pub struct StaticSeedLora {
    backbone: Box<dyn Backbone>,
    /// The learned constant seed `[1, seed_dim]`; adapters broadcast it
    /// over the batch.
    pub seed: ParamRef,
}

impl StaticSeedLora {
    /// Wraps an already MetaLoRA-injected backbone with a trainable
    /// constant seed of width `seed_dim` (R for CP, R² for TR).
    pub fn new(backbone: Box<dyn Backbone>, seed_dim: usize, rng: &mut StdRng) -> Result<Self> {
        if seed_dim == 0 {
            return Err(TensorError::InvalidArgument(
                "static seed width must be >= 1".into(),
            ));
        }
        // Small random init mirrors the mapping net's near-zero start.
        let s = init::normal(&[1, seed_dim], 0.0, 0.1, rng);
        Ok(StaticSeedLora {
            backbone,
            seed: ParamRef::new("static_seed", s),
        })
    }

    /// Injects MetaLoRA-CP adapters into every injection point of `net`
    /// and drives them with one constant seed; the injection's parameters
    /// are the adapters' followed by the seed.
    pub fn inject(
        mut net: Box<dyn Injectable>,
        cfg: LoraConfig,
        rng: &mut StdRng,
    ) -> Result<(Self, Injection)> {
        let format = MetaFormat::Cp;
        let mut inj = crate::inject::meta_layers(net.as_mut(), format, cfg, rng);
        let ss = StaticSeedLora::new(net, format.seed_dim(cfg.rank), rng)?;
        inj.adapter_params.push(ss.seed.clone());
        Ok((ss, inj))
    }

    /// The wrapped backbone.
    pub fn backbone(&self) -> &dyn Backbone {
        self.backbone.as_ref()
    }

    fn seeded_ctx(&self, g: &mut Graph) -> Var {
        g.bind(&self.seed)
    }
}

impl Module for StaticSeedLora {
    fn forward(&self, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Var> {
        let seed = self.seeded_ctx(g);
        self.backbone.forward(g, x, &Ctx::with_seed(seed))
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = self.backbone.params();
        v.push(self.seed.clone());
        v
    }

    fn buffers(&self) -> Vec<ParamRef> {
        self.backbone.buffers()
    }
}

impl Backbone for StaticSeedLora {
    fn features(&self, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Var> {
        let seed = self.seeded_ctx(g);
        self.backbone.features(g, x, &Ctx::with_seed(seed))
    }

    fn feature_dim(&self) -> usize {
        self.backbone.feature_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_tensor::Tensor;
    use metalora_nn::models::{ResNet, ResNetConfig};
    use metalora_nn::Optimizer;

    fn injected_resnet(rng: &mut StdRng) -> (ResNet, Vec<ParamRef>) {
        let cfg = ResNetConfig {
            in_channels: 3,
            channels: vec![4, 8],
            blocks_per_stage: 1,
            num_classes: 4,
        };
        let mut net = ResNet::new(&cfg, rng).unwrap();
        let lora = LoraConfig {
            rank: 2,
            alpha: 4.0,
        };
        let inj = crate::inject::meta_layers(&mut net, MetaFormat::Cp, lora, rng);
        (net, inj.adapter_params)
    }

    #[test]
    fn forward_and_features_run_with_broadcast_seed() {
        let mut rng = init::rng(1);
        let (net, _) = injected_resnet(&mut rng);
        let ss = StaticSeedLora::new(Box::new(net), MetaFormat::Cp.seed_dim(2), &mut rng)
            .unwrap();
        let mut g = Graph::inference();
        let x = g.input(init::uniform(&[3, 3, 16, 16], -1.0, 1.0, &mut rng));
        let y = ss.forward(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(y), vec![3, 4]);
        let f = ss.features(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(f), vec![3, ss.feature_dim()]);
    }

    #[test]
    fn seed_is_trainable_and_receives_gradient() {
        let mut rng = init::rng(2);
        let (net, mut params) = injected_resnet(&mut rng);
        let ss =
            StaticSeedLora::new(Box::new(net), 2, &mut rng).unwrap();
        params.push(ss.seed.clone());
        // Make an adapter B nonzero so the seed's gradient path is live.
        for p in &params {
            if p.name().contains("_b") {
                p.set_value(init::uniform(&p.dims(), -0.3, 0.3, &mut rng));
            }
        }
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut rng));
        let y = ss.forward(&mut g, x, &Ctx::none()).unwrap();
        let l = g.softmax_cross_entropy(y, &[0, 1]).unwrap();
        g.backward(l).unwrap();
        g.flush_grads();
        assert!(ss.seed.grad().norm() > 0.0, "static seed must learn");
        let mut opt = metalora_nn::Sgd::new(params, 0.1);
        let before = ss.seed.value();
        opt.step();
        assert!(!metalora_tensor::approx_eq(&before, &ss.seed.value(), 0.0));
    }

    #[test]
    fn same_seed_for_every_input() {
        // Unlike MetaLoRA, two different inputs see the same ΔW: the
        // output difference equals the base-function difference plus the
        // same adapter response — verified indirectly by checking that a
        // duplicated input row produces identical rows (no per-sample
        // variation source).
        let mut rng = init::rng(3);
        let (net, params) = injected_resnet(&mut rng);
        for p in &params {
            if p.name().contains("_b") {
                p.set_value(init::uniform(&p.dims(), -0.3, 0.3, &mut rng));
            }
        }
        let ss = StaticSeedLora::new(Box::new(net), 2, &mut rng).unwrap();
        let row = init::uniform(&[3, 16, 16], -1.0, 1.0, &mut rng);
        let xv = Tensor::stack(&[row.clone(), row]).unwrap();
        let mut g = Graph::inference();
        let x = g.input(xv);
        let y = ss.forward(&mut g, x, &Ctx::none()).unwrap();
        let v = g.value(y);
        assert!(metalora_tensor::approx_eq(
            &v.index_axis0(0).unwrap(),
            &v.index_axis0(1).unwrap(),
            1e-5
        ));
    }

    #[test]
    fn validates_seed_dim() {
        let mut rng = init::rng(4);
        let (net, _) = injected_resnet(&mut rng);
        assert!(StaticSeedLora::new(Box::new(net), 0, &mut rng).is_err());
    }
}
