//! Standard LoRA for dense layers: `y = base(x) + (α/R)·(x·A)·B`.
//!
//! [`Lora`] is the method label for both layer kinds; its convolutional
//! form is [`crate::conv_lora`].

use crate::adapter::{dense_lora, dense_pair, ungated, Adapter, Update};
use crate::{LoraConfig, Result};
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_nn::{BoxLinear, Ctx, LinearLike};
use metalora_tensor::Tensor;
use rand::rngs::StdRng;

/// The LoRA method: one always-on factor pair.
pub struct Lora;

/// A frozen dense layer plus a trainable rank-`R` update: `a = A:[I, R]`
/// (Kaiming-uniform), `b = B:[R, O]` (zero).
pub type LoraLinear = Adapter<dyn LinearLike, Lora>;

impl Update<dyn LinearLike> for Lora {
    type Factor = ParamRef;

    fn delta(layer: &LoraLinear, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Option<Var>> {
        dense_lora(g, x, &layer.a, &layer.b, ungated).map(Some)
    }
}

impl LoraLinear {
    /// Wraps `base`, freezing its parameters.
    pub fn new(name: &str, base: BoxLinear, cfg: LoraConfig, rng: &mut StdRng) -> Self {
        Self::wrap(base, cfg, |l| {
            dense_pair(l, cfg.rank, name, "lora", "", rng)
        })
    }

    /// Materialises the dense update `ΔW = (α/R)·A·B : [I, O]`.
    pub fn delta_weight(&self) -> Result<Tensor> {
        crate::merge::lora_delta(&self.a.value(), &self.b.value(), self.config().scaling())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_nn::{Linear, Module};
    use metalora_tensor::{approx_eq, init, ops};

    fn setup() -> (LoraLinear, StdRng) {
        let mut rng = init::rng(1);
        let base = Linear::new("fc", 6, 4, &mut rng);
        let lora = LoraLinear::new(
            "fc",
            Box::new(base),
            LoraConfig {
                rank: 2,
                alpha: 4.0,
            },
            &mut rng,
        );
        (lora, rng)
    }

    #[test]
    fn zero_init_matches_base() {
        let (lora, mut rng) = setup();
        let xv = init::uniform(&[3, 6], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.input(xv.clone());
        let y_adapted = lora.forward(&mut g, x, &Ctx::none()).unwrap();
        let y_base = lora.base.forward(&mut g, x, &Ctx::none()).unwrap();
        assert!(approx_eq(&g.value(y_adapted), &g.value(y_base), 1e-6));
        assert!(approx_eq(&lora.delta_weight().unwrap(), &Tensor::zeros(&[6, 4]), 0.0));
    }

    #[test]
    fn base_is_frozen_adapter_is_trainable() {
        let (lora, _) = setup();
        assert!(lora.base.params().iter().all(|p| !p.trainable()));
        assert!(lora.adapter_params().iter().all(|p| p.trainable()));
        // Trainable params are exactly A and B: 6·2 + 2·4.
        assert_eq!(lora.num_trainable_params(), 20);
        assert!(lora.num_params() > 20);
    }

    #[test]
    fn forward_matches_delta_weight_after_update() {
        let (lora, mut rng) = setup();
        // Give B a nonzero value so the delta is active.
        lora.b
            .set_value(init::uniform(&[2, 4], -0.5, 0.5, &mut rng));
        let xv = init::uniform(&[5, 6], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.input(xv.clone());
        let y = lora.forward(&mut g, x, &Ctx::none()).unwrap();
        let y_base = lora.base.forward(&mut g, x, &Ctx::none()).unwrap();
        // Oracle: y_base + x·ΔW.
        let delta = ops::matmul(&xv, &lora.delta_weight().unwrap()).unwrap();
        let expect = ops::add(&g.value(y_base), &delta).unwrap();
        assert!(approx_eq(&g.value(y), &expect, 1e-4));
    }

    #[test]
    fn gradients_reach_adapter_not_base() {
        let (lora, mut rng) = setup();
        let xv = init::uniform(&[3, 6], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.input(xv);
        let y = lora.forward(&mut g, x, &Ctx::none()).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        g.flush_grads();
        // B starts at zero but its gradient is nonzero (x·A is not zero).
        assert!(lora.b.grad().norm() > 0.0);
        // Frozen base receives no flushed gradient.
        for p in lora.base.params() {
            assert_eq!(p.grad().norm(), 0.0);
        }
    }

    #[test]
    fn exposes_base_dims() {
        let (lora, _) = setup();
        assert_eq!(lora.in_features(), 6);
        assert_eq!(lora.out_features(), 4);
        assert_eq!(lora.config().rank, 2);
    }
}
