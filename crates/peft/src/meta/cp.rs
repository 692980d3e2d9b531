//! MetaLoRA in CP format (Eq. 6 and its convolutional variant,
//! Sec. III-D).
//!
//! For a dense layer the per-input update is
//! `ΔW_n = Λ ×₁ A ×₂ B ×₃ c_n = Σ_r A[·,r]·B[r,·]·c_n[r]`,
//! applied factored as `Δy_n = (α/R)·((x_n·A) ⊙ c_n)·B` — the seed simply
//! gates the rank channels, so the extra cost over plain LoRA is one
//! elementwise multiply.

use crate::adapter::{conv_lora, conv_pair, dense_lora, dense_pair, Adapter, Update};
use crate::meta::layer_seed;
use crate::{LoraConfig, Result};
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_nn::{BoxConv, BoxLinear, ConvLike, Ctx, LinearLike};
use metalora_tensor::Tensor;
use rand::rngs::StdRng;

/// The MetaLoRA-CP method: the generated seed `c_n : [R]` gates the rank
/// channels of a LoRA pair.
pub struct MetaCp;

/// Dense MetaLoRA-CP adapter: `a = A:[I, R]`, `b = B:[R, O]` (zero), as
/// in Eq. 6. With no seed in the [`Ctx`] the layer computes the frozen
/// base function only (the feature-extraction pass).
pub type MetaLoraCpLinear = Adapter<dyn LinearLike, MetaCp>;

/// Convolutional MetaLoRA-CP adapter (Sec. III-D): the rank channels of
/// the small convolution (`a = 𝒜:[K, K, I, R]`) are gated per input by
/// the generated `c`, then recovered with the 1×1 convolution
/// (`b = B:[R, O]`, zero).
pub type MetaLoraCpConv = Adapter<dyn ConvLike, MetaCp>;

impl Update<dyn LinearLike> for MetaCp {
    type Factor = ParamRef;

    fn delta(layer: &MetaLoraCpLinear, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Option<Var>> {
        let rows = g.dims(x)[0];
        let rank = layer.config().rank;
        let Some(seed) = layer_seed(g, ctx, rows, rank, "MetaLoraCpLinear")? else {
            return Ok(None);
        };
        dense_lora(g, x, &layer.a, &layer.b, |g, xa| g.mul(xa, seed)).map(Some) // ⊙ c_n
    }
}

impl Update<dyn ConvLike> for MetaCp {
    type Factor = ParamRef;

    fn delta(layer: &MetaLoraCpConv, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Option<Var>> {
        let n = g.dims(x)[0];
        let rank = layer.config().rank;
        let Some(seed) = layer_seed(g, ctx, n, rank, "MetaLoraCpConv")? else {
            return Ok(None);
        };
        let gate = |g: &mut Graph, u| {
            let c = g.reshape(seed, &[n, rank, 1, 1])?;
            g.mul(u, c)
        };
        conv_lora(&*layer.base, g, x, &layer.a, &layer.b, gate).map(Some)
    }
}

impl MetaLoraCpLinear {
    /// Wraps `base`, freezing its parameters.
    pub fn new(name: &str, base: BoxLinear, cfg: LoraConfig, rng: &mut StdRng) -> Self {
        Self::wrap(base, cfg, |l| {
            dense_pair(l, cfg.rank, name, "meta_cp", "", rng)
        })
    }

    /// Materialises `ΔW` for one concrete seed `c : [R]` — Eq. 6 verbatim,
    /// used by tests and the Fig. 4 bench.
    pub fn delta_weight_for(&self, c: &Tensor) -> Result<Tensor> {
        crate::merge::cp_delta(&self.a.value(), &self.b.value(), c, self.config().scaling())
    }
}

impl MetaLoraCpConv {
    /// Wraps `base`, freezing its parameters.
    pub fn new(name: &str, base: BoxConv, cfg: LoraConfig, rng: &mut StdRng) -> Self {
        Self::wrap(base, cfg, |c| {
            conv_pair(c, cfg.rank, name, "meta_cp_conv", "", rng)
        })
    }

    /// Materialises `Δ𝒲 : [K, K, I, O]` for one concrete seed `c : [R]`
    /// (Sec. III-D, CP form): `Σ_r 𝒜[·,·,·,r]·c[r] ⊗ B[r,·]` — the dense
    /// network of [`crate::merge::cp_delta`] over the flattened
    /// `K·K·I` axis. A seed that is not `R` values long is an error.
    pub fn delta_weight_for(&self, c: &Tensor) -> Result<Tensor> {
        let (a, b) = (self.a.value(), self.b.value());
        let (k, i, r) = (a.dims()[0], a.dims()[2], a.dims()[3]);
        let a2 = a.reshape(&[k * k * i, r])?;
        let d = crate::merge::cp_delta(&a2, &b, c, self.config().scaling())?;
        d.reshape(&[k, k, i, b.dims()[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_nn::{Conv2d, Linear, Module};
    use metalora_tensor::conv::ConvSpec;
    use metalora_tensor::{approx_eq, conv, einsum::einsum, init, ops};

    fn setup_linear() -> (MetaLoraCpLinear, StdRng) {
        let mut rng = init::rng(7);
        let base = Linear::new("fc", 5, 4, &mut rng);
        let m = MetaLoraCpLinear::new(
            "fc",
            Box::new(base),
            LoraConfig {
                rank: 3,
                alpha: 3.0,
            },
            &mut rng,
        );
        (m, rng)
    }

    #[test]
    fn no_seed_means_base_function() {
        let (m, mut rng) = setup_linear();
        m.b.set_value(init::uniform(&[3, 4], -1.0, 1.0, &mut rng));
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 5], -1.0, 1.0, &mut rng));
        let y = m.forward(&mut g, x, &Ctx::none()).unwrap();
        let yb = m.base.forward(&mut g, x, &Ctx::none()).unwrap();
        assert!(approx_eq(&g.value(y), &g.value(yb), 1e-6));
    }

    #[test]
    fn factored_forward_matches_eq6_materialisation() {
        let (m, mut rng) = setup_linear();
        m.b.set_value(init::uniform(&[3, 4], -1.0, 1.0, &mut rng));
        // One sample, one concrete seed.
        let xv = init::uniform(&[1, 5], -1.0, 1.0, &mut rng);
        let cv = init::uniform(&[3], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.input(xv.clone());
        let seed = g.input(cv.reshaped(&[1, 3]).unwrap());
        let y = m.forward(&mut g, x, &Ctx::with_seed(seed)).unwrap();
        let yb = m.base.forward(&mut g, x, &Ctx::none()).unwrap();
        let got_delta = ops::sub(&g.value(y), &g.value(yb)).unwrap();
        // Oracle: x · ΔW(c) with ΔW from Eq. 6.
        let dw = m.delta_weight_for(&cv).unwrap();
        let expect = ops::matmul(&xv, &dw).unwrap();
        assert!(approx_eq(&got_delta, &expect, 1e-4));
        // Cross-check ΔW against the einsum of Eq. 6.
        let e = einsum("ir,ro,r->io", &[&m.a.value(), &m.b.value(), &cv]).unwrap();
        assert!(approx_eq(&dw, &ops::scale(&e, m.config().scaling()), 1e-4));
    }

    #[test]
    fn per_sample_seeds_give_per_sample_deltas() {
        let (m, mut rng) = setup_linear();
        m.b.set_value(init::uniform(&[3, 4], -1.0, 1.0, &mut rng));
        // Same input row twice, different seeds → different outputs.
        let row = init::uniform(&[1, 5], -1.0, 1.0, &mut rng);
        let xv = Tensor::stack(&[
            row.reshaped(&[5]).unwrap(),
            row.reshaped(&[5]).unwrap(),
        ])
        .unwrap();
        let seeds =
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[2, 3]).unwrap();
        let mut g = Graph::new();
        let x = g.input(xv);
        let s = g.input(seeds);
        let y = m.forward(&mut g, x, &Ctx::with_seed(s)).unwrap();
        let v = g.value(y);
        let row0 = v.index_axis0(0).unwrap();
        let row1 = v.index_axis0(1).unwrap();
        assert!(!approx_eq(&row0, &row1, 1e-5), "seeds must differentiate");
    }

    #[test]
    fn seed_shape_is_validated() {
        let (m, mut rng) = setup_linear();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 5], -1.0, 1.0, &mut rng));
        let bad = g.input(Tensor::zeros(&[2, 4]));
        assert!(m.forward(&mut g, x, &Ctx::with_seed(bad)).is_err());
    }

    #[test]
    fn gradients_reach_factors_and_seed() {
        let (m, mut rng) = setup_linear();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 5], -1.0, 1.0, &mut rng));
        let seed = g.input(init::uniform(&[2, 3], -1.0, 1.0, &mut rng));
        let y = m.forward(&mut g, x, &Ctx::with_seed(seed)).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        g.flush_grads();
        // B zero-init but gets gradient; seed gets gradient only through B,
        // which is zero — so instead check B's gradient and A's absence.
        assert!(m.b.grad().norm() > 0.0, "B must receive gradient");
        for p in m.base.params() {
            assert_eq!(p.grad().norm(), 0.0);
        }
    }

    #[test]
    fn conv_variant_matches_materialised_delta() {
        let mut rng = init::rng(8);
        let base = Conv2d::new_no_bias("c", 2, 4, 3, 1, 1, &mut rng).unwrap();
        let m = MetaLoraCpConv::new(
            "c",
            Box::new(base),
            LoraConfig {
                rank: 2,
                alpha: 2.0,
            },
            &mut rng,
        );
        m.b.set_value(init::uniform(&[2, 4], -0.5, 0.5, &mut rng));
        let xv = init::uniform(&[1, 2, 6, 6], -1.0, 1.0, &mut rng);
        let cv = init::uniform(&[2], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.input(xv.clone());
        let seed = g.input(cv.reshaped(&[1, 2]).unwrap());
        let y = m.forward(&mut g, x, &Ctx::with_seed(seed)).unwrap();
        let yb = m.base.forward(&mut g, x, &Ctx::none()).unwrap();
        let got = ops::sub(&g.value(y), &g.value(yb)).unwrap();
        let dw = m.delta_weight_for(&cv).unwrap();
        let spec = ConvSpec::new(3, 1, 1).unwrap();
        let expect = conv::conv2d(&xv, &dw, spec, spec).unwrap();
        assert!(
            approx_eq(&got, &expect, 1e-3),
            "err {}",
            metalora_tensor::max_rel_err(&got, &expect)
        );
    }

    #[test]
    fn conv_delta_weight_for_rejects_a_seed_of_the_wrong_length() {
        let mut rng = init::rng(10);
        let base = Conv2d::new_no_bias("c", 3, 4, 3, 1, 1, &mut rng).unwrap();
        let cfg = LoraConfig {
            rank: 2,
            alpha: 2.0,
        };
        let m = MetaLoraCpConv::new("c", Box::new(base), cfg, &mut rng);
        assert_eq!(
            m.delta_weight_for(&Tensor::ones(&[2])).unwrap().dims(),
            &[3, 3, 3, 4]
        );
        for len in [1, 5] {
            assert!(
                matches!(
                    m.delta_weight_for(&Tensor::ones(&[len])),
                    Err(metalora_tensor::TensorError::InvalidArgument(_))
                ),
                "a {len}-value seed at rank 2"
            );
        }
    }

    #[test]
    fn conv_variant_no_seed_is_base() {
        let mut rng = init::rng(9);
        let base = Conv2d::new_no_bias("c", 2, 3, 3, 2, 1, &mut rng).unwrap();
        let m = MetaLoraCpConv::new("c", Box::new(base), LoraConfig::default(), &mut rng);
        assert_eq!(m.in_channels(), 2);
        assert_eq!(m.out_channels(), 3);
        assert_eq!(m.spec().stride, 2);
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 2, 6, 6], -1.0, 1.0, &mut rng));
        let y = m.forward(&mut g, x, &Ctx::none()).unwrap();
        let yb = m.base.forward(&mut g, x, &Ctx::none()).unwrap();
        assert!(approx_eq(&g.value(y), &g.value(yb), 1e-6));
    }
}
