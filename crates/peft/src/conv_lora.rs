//! **Conv-LoRA** (Eq. 5 / Fig. 3): a low-rank update for convolutional
//! tensors.
//!
//! For a base weight `𝒲:[K, K, I, O]` the update is
//! `Δ𝒲 = 𝒜 ×₄ B = Σ_r 𝒜[·,·,·,r] ⊗ B[r,·]` with trainable
//! `𝒜:[K, K, I, R]` and `B:[R, O]`. As Fig. 3 shows, applying `Δ𝒲` is
//! exactly a *small* convolution (R output channels) followed by a 1×1
//! channel-recovery convolution — that factored path is what the
//! forward executes; [`ConvLora::delta_weight`] materialises
//! the full tensor so tests and the Fig. 3 bench can verify the identity.

use crate::adapter::{conv_lora, conv_pair, ungated, Adapter, Update};
use crate::lora::Lora;
use crate::{LoraConfig, Result};
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_nn::{BoxConv, ConvLike, Ctx};
use metalora_tensor::Tensor;
use rand::rngs::StdRng;

/// A frozen convolution plus a trainable Conv-LoRA update:
/// `a = 𝒜:[K, K, I, R]` (He), `b = B:[R, O]` (zero).
pub type ConvLora = Adapter<dyn ConvLike, Lora>;

impl Update<dyn ConvLike> for Lora {
    type Factor = ParamRef;

    fn delta(layer: &ConvLora, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Option<Var>> {
        conv_lora(&*layer.base, g, x, &layer.a, &layer.b, ungated).map(Some)
    }
}

impl ConvLora {
    /// Wraps `base`, freezing its parameters.
    pub fn new(name: &str, base: BoxConv, cfg: LoraConfig, rng: &mut StdRng) -> Self {
        Self::wrap(base, cfg, |c| {
            conv_pair(c, cfg.rank, name, "conv_lora", "", rng)
        })
    }

    /// Materialises `Δ𝒲 = (α/R)·(𝒜 ×₄ B) : [K, K, I, O]` (Eq. 5).
    pub fn delta_weight(&self) -> Result<Tensor> {
        crate::merge::conv_lora_delta(&self.a.value(), &self.b.value(), self.config().scaling())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_nn::{Conv2d, Module};
    use metalora_tensor::conv::ConvSpec;
    use metalora_tensor::{approx_eq, contract, conv, init, ops};

    fn setup(stride: usize) -> (ConvLora, StdRng) {
        let mut rng = init::rng(3);
        let base = Conv2d::new_no_bias("conv", 3, 5, 3, stride, 1, &mut rng).unwrap();
        let cl = ConvLora::new(
            "conv",
            Box::new(base),
            LoraConfig {
                rank: 2,
                alpha: 2.0,
            },
            &mut rng,
        );
        (cl, rng)
    }

    #[test]
    fn zero_init_matches_base() {
        let (cl, mut rng) = setup(1);
        let xv = init::uniform(&[2, 3, 6, 6], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.input(xv);
        let y = cl.forward(&mut g, x, &Ctx::none()).unwrap();
        let yb = cl.base.forward(&mut g, x, &Ctx::none()).unwrap();
        assert!(approx_eq(&g.value(y), &g.value(yb), 1e-6));
    }

    #[test]
    fn factored_forward_equals_full_delta_conv() {
        // The Fig. 3 identity: small-conv → 1×1-conv == conv with Δ𝒲.
        for stride in [1, 2] {
            let (cl, mut rng) = setup(stride);
            cl.b.set_value(init::uniform(&[2, 5], -0.5, 0.5, &mut rng));
            let xv = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);

            let mut g = Graph::new();
            let x = g.input(xv.clone());
            let y = cl.forward(&mut g, x, &Ctx::none()).unwrap();
            let yb = cl.base.forward(&mut g, x, &Ctx::none()).unwrap();
            let factored_delta = ops::sub(&g.value(y), &g.value(yb)).unwrap();

            let dw = cl.delta_weight().unwrap();
            let full_delta = conv::conv2d(&xv, &dw, cl.spec(), cl.spec()).unwrap();
            assert!(
                approx_eq(&factored_delta, &full_delta, 1e-3),
                "stride {stride}: err {}",
                metalora_tensor::max_rel_err(&factored_delta, &full_delta)
            );
        }
    }

    #[test]
    fn delta_weight_shape_and_rank() {
        let (cl, mut rng) = setup(1);
        cl.b.set_value(init::uniform(&[2, 5], -0.5, 0.5, &mut rng));
        let dw = cl.delta_weight().unwrap();
        assert_eq!(dw.dims(), &[3, 3, 3, 5]);
        // Channel-matricised Δ𝒲 has rank ≤ R: check via the contraction
        // structure — reconstruct from the factors and compare.
        let oracle =
            contract::contract_naive(&cl.a.value(), &cl.b.value(), &[3], &[0]).unwrap();
        assert!(approx_eq(&dw, &ops::scale(&oracle, 1.0), 1e-4));
    }

    #[test]
    fn param_efficiency() {
        let (cl, _) = setup(1);
        // Adapter: 3·3·3·2 + 2·5 = 64 ≪ base 3·3·3·5 = 135.
        assert_eq!(cl.num_trainable_params(), 64);
        assert_eq!(cl.num_params(), 135 + 64);
    }

    #[test]
    fn gradients_flow_to_adapter_only() {
        let (cl, mut rng) = setup(1);
        let xv = init::uniform(&[1, 3, 6, 6], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.input(xv);
        let y = cl.forward(&mut g, x, &Ctx::none()).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        g.flush_grads();
        assert!(cl.b.grad().norm() > 0.0);
        for p in cl.base.params() {
            assert_eq!(p.grad().norm(), 0.0);
        }
    }

    #[test]
    fn exposes_base_geometry() {
        let (cl, _) = setup(2);
        assert_eq!(cl.in_channels(), 3);
        assert_eq!(cl.out_channels(), 5);
        assert_eq!(cl.spec(), ConvSpec::new(3, 2, 1).unwrap());
    }
}
