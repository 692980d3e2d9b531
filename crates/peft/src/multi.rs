//! The Multi-LoRA baseline (Wang et al. 2023, the paper's ref. 27): a bank of
//! independent LoRA adapters, one per training task, selected through
//! [`Ctx::adapter`].
//!
//! At evaluation time on unseen tasks the harness routes each episode to
//! the bank entry whose training task is nearest in feature space — the
//! best a *static* adapter bank can do, and the contrast MetaLoRA's
//! per-input generation is measured against.

use crate::adapter::{conv_lora, conv_pair, dense_lora, dense_pair, ungated, Adapter, Update};
use crate::{LoraConfig, Result};
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_nn::{BoxConv, BoxLinear, ConvLike, Ctx, LinearLike};
use metalora_tensor::TensorError;
use rand::rngs::StdRng;

/// The Multi-LoRA method: `K` independent factor pairs, one selected per
/// forward.
pub struct Multi;

/// A frozen dense layer plus `K` independent LoRA adapters: per slot
/// `a[k] = A_k:[I, R]`, `b[k] = B_k:[R, O]`.
pub type MultiLoraLinear = Adapter<dyn LinearLike, Multi>;

/// A frozen convolution plus `K` independent Conv-LoRA adapters: per slot
/// `a[k] = 𝒜_k:[K, K, I, R]`, `b[k] = B_k:[R, O]`.
pub type MultiLoraConv = Adapter<dyn ConvLike, Multi>;

/// Resolves the selected slot. `None` means "no adapter": the layer
/// computes the frozen base function only — the same convention as the
/// MetaLoRA layers' missing-seed case, and what the harness uses to read
/// *base* features for centroid routing.
fn check_slot(adapter: Option<usize>, banks: usize) -> Result<Option<usize>> {
    match adapter {
        Some(k) if k >= banks => Err(TensorError::IndexOutOfRange {
            index: k,
            len: banks,
        }),
        slot => Ok(slot),
    }
}

impl Update<dyn LinearLike> for Multi {
    type Factor = Vec<ParamRef>;

    fn delta(layer: &MultiLoraLinear, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Option<Var>> {
        let slot = check_slot(ctx.adapter, layer.banks())?;
        slot.map(|k| dense_lora(g, x, &layer.a[k], &layer.b[k], ungated))
            .transpose()
    }
}

impl Update<dyn ConvLike> for Multi {
    type Factor = Vec<ParamRef>;

    fn delta(layer: &MultiLoraConv, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Option<Var>> {
        let slot = check_slot(ctx.adapter, layer.banks())?;
        slot.map(|k| conv_lora(&*layer.base, g, x, &layer.a[k], &layer.b[k], ungated))
            .transpose()
    }
}

impl<L: ?Sized> Adapter<L, Multi>
where
    Multi: Update<L, Factor = Vec<ParamRef>>,
{
    /// Number of adapter slots.
    pub fn banks(&self) -> usize {
        self.a.len()
    }
}

impl MultiLoraLinear {
    /// Wraps `base` with `banks` adapter slots, freezing the base.
    pub fn new(
        name: &str,
        base: BoxLinear,
        banks: usize,
        cfg: LoraConfig,
        rng: &mut StdRng,
    ) -> Self {
        Self::wrap(base, cfg, |l| {
            (0..banks)
                .map(|k| dense_pair(l, cfg.rank, name, "multi_lora", &k.to_string(), rng))
                .unzip()
        })
    }
}

impl MultiLoraConv {
    /// Wraps `base` with `banks` adapter slots, freezing the base.
    pub fn new(name: &str, base: BoxConv, banks: usize, cfg: LoraConfig, rng: &mut StdRng) -> Self {
        Self::wrap(base, cfg, |c| {
            (0..banks)
                .map(|k| conv_pair(c, cfg.rank, name, "multi_conv_lora", &k.to_string(), rng))
                .unzip()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_nn::{Conv2d, Linear, Module};
    use metalora_tensor::{approx_eq, init};

    fn linear_bank() -> (MultiLoraLinear, StdRng) {
        let mut rng = init::rng(4);
        let base = Linear::new("fc", 5, 3, &mut rng);
        let m = MultiLoraLinear::new(
            "fc",
            Box::new(base),
            3,
            LoraConfig {
                rank: 2,
                alpha: 2.0,
            },
            &mut rng,
        );
        (m, rng)
    }

    #[test]
    fn adapter_selection_semantics() {
        let (m, mut rng) = linear_bank();
        m.b[0].set_value(init::uniform(&[2, 3], -1.0, 1.0, &mut rng));
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 5], -1.0, 1.0, &mut rng));
        // No selection → frozen base function.
        let y_none = m.forward(&mut g, x, &Ctx::none()).unwrap();
        let y_base = m.base.forward(&mut g, x, &Ctx::none()).unwrap();
        assert!(approx_eq(&g.value(y_none), &g.value(y_base), 1e-6));
        // Out-of-range slot is an error; in-range applies the adapter.
        assert!(m.forward(&mut g, x, &Ctx::with_adapter(3)).is_err());
        let y0 = m.forward(&mut g, x, &Ctx::with_adapter(0)).unwrap();
        assert!(!approx_eq(&g.value(y0), &g.value(y_base), 1e-4));
    }

    #[test]
    fn slots_are_independent() {
        let (m, mut rng) = linear_bank();
        // Perturb slot 1's B only.
        m.b[1].set_value(init::uniform(&[2, 3], -1.0, 1.0, &mut rng));
        let xv = init::uniform(&[2, 5], -1.0, 1.0, &mut rng);
        let out = |slot: usize| {
            let mut g = Graph::new();
            let x = g.input(xv.clone());
            let y = m.forward(&mut g, x, &Ctx::with_adapter(slot)).unwrap();
            g.value(y)
        };
        let y0 = out(0);
        let y1 = out(1);
        let y2 = out(2);
        assert!(approx_eq(&y0, &y2, 1e-6), "untouched slots identical");
        assert!(!approx_eq(&y0, &y1, 1e-3), "perturbed slot differs");
    }

    #[test]
    fn bank_size_and_params() {
        let (m, _) = linear_bank();
        assert_eq!(m.banks(), 3);
        // 3 slots × (5·2 + 2·3) = 48 trainable.
        assert_eq!(m.num_trainable_params(), 48);
        assert_eq!(m.in_features(), 5);
        assert_eq!(m.out_features(), 3);
    }

    #[test]
    fn only_selected_slot_gets_gradient() {
        let (m, mut rng) = linear_bank();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 5], -1.0, 1.0, &mut rng));
        let y = m.forward(&mut g, x, &Ctx::with_adapter(1)).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        g.flush_grads();
        assert!(m.b[1].grad().norm() > 0.0);
        assert_eq!(m.b[0].grad().norm(), 0.0);
        assert_eq!(m.b[2].grad().norm(), 0.0);
    }

    #[test]
    fn conv_bank_matches_single_conv_lora_behaviour() {
        let mut rng = init::rng(5);
        let base = Conv2d::new_no_bias("c", 2, 4, 3, 1, 1, &mut rng).unwrap();
        let m = MultiLoraConv::new(
            "c",
            Box::new(base),
            2,
            LoraConfig {
                rank: 2,
                alpha: 2.0,
            },
            &mut rng,
        );
        assert_eq!(m.banks(), 2);
        assert_eq!(m.spec().kernel, 3);
        let xv = init::uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut rng);
        // Zero-init: any slot equals base.
        let mut g = Graph::new();
        let x = g.input(xv);
        let y0 = m.forward(&mut g, x, &Ctx::with_adapter(0)).unwrap();
        let yb = m.base.forward(&mut g, x, &Ctx::none()).unwrap();
        assert!(approx_eq(&g.value(y0), &g.value(yb), 1e-6));
        // No selection falls back to the base path.
        let mut g2 = Graph::new();
        let x2 = g2.input(metalora_tensor::Tensor::zeros(&[1, 2, 5, 5]));
        assert!(m.forward(&mut g2, x2, &Ctx::none()).is_ok());
        assert!(m.forward(&mut g2, x2, &Ctx::with_adapter(5)).is_err());
    }
}
