//! MetaLoRA in Tensor-Ring format (Eq. 7 and its convolutional variant,
//! Sec. III-D).
//!
//! For a dense layer the per-input update is
//! `ΔW_n = Σ_{r0,r1,r2} 𝒜[r0,·,r1]·ℬ[r1,·,r2]·C_n[r2,r0]`
//! with trained cores `𝒜:[R, I, R]`, `ℬ:[R, O, R]` and the generated seed
//! matrix `C_n:[R, R]`. The forward never materialises `ΔW`: it hands the
//! network `"ni,xiy,yoz,nzx->no"` (`x = r0`, `y = r1`, `z = r2`) to the
//! contraction planner (`metalora_tensor::contract`), which orders it by
//! flops — the seed closes the ring *before* ℬ opens the output axis:
//!
//! ```text
//! t₁[n, r0, r1]  = Σ_i       x[n,i]·𝒜[r0,i,r1]          matmul  2·N·I·R²
//! t₂[n, r1, r2]  = Σ_r0      t₁[n,r0,r1]·C_n[r2,r0]      matmul  2·N·R³ (batched over n)
//! Δy[n, o]       = Σ_{r1,r2} t₂[n,r1,r2]·ℬ[r1,o,r2]      matmul  2·N·R²·O
//! ```
//!
//! so no intermediate is larger than `N·max(R², O)`. The convolutional
//! variant runs the small convolution to the bond pair and contracts its
//! output with the same planner (`"nxyp,nzx,yoz->nop"`, `p = OH·OW`).
//! `metalora_serve::forward::meta_tr_linear` hands the same spec and
//! shapes to the same planner over plain tensors, which is what keeps
//! tape and serve bitwise equal.
//!
//! Seed layout: the mapping net emits `[N, R·R]` flattened **r2-major**
//! (`C[n, r2·R + r0]`).

use crate::meta::{check_seed, expand_seed};
use crate::{LoraConfig, Result};
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_nn::{BoxConv, BoxLinear, ConvLike, Ctx, LinearLike, Module};
use metalora_tensor::conv::ConvSpec;
use metalora_tensor::{contract, init, Tensor, TensorError};
use rand::rngs::StdRng;

/// Dense MetaLoRA-TR adapter. With no seed in the [`Ctx`] the layer
/// computes the frozen base function only.
pub struct MetaLoraTrLinear {
    base: BoxLinear,
    /// Core `𝒜 : [R, I, R]` (Eq. 7).
    pub a: ParamRef,
    /// Core `ℬ : [R, O, R]` (Eq. 7), zero-initialised.
    pub b: ParamRef,
    cfg: LoraConfig,
}

impl MetaLoraTrLinear {
    /// Wraps `base`, freezing its parameters.
    pub fn new(name: &str, base: BoxLinear, cfg: LoraConfig, rng: &mut StdRng) -> Self {
        for p in base.params() {
            p.set_trainable(false);
        }
        let (i, o) = (base.in_features(), base.out_features());
        let r = cfg.rank;
        // Modest init so t₁ stays O(1); ℬ zero keeps the initial delta 0.
        let a = init::normal(&[r, i, r], 0.0, (1.0 / i as f32).sqrt(), rng);
        MetaLoraTrLinear {
            base,
            a: ParamRef::new(format!("{name}.meta_tr_a"), a),
            b: ParamRef::new(format!("{name}.meta_tr_b"), Tensor::zeros(&[r, o, r])),
            cfg,
        }
    }

    /// Adapter-only parameters.
    pub fn adapter_params(&self) -> Vec<ParamRef> {
        vec![self.a.clone(), self.b.clone()]
    }

    /// Materialises `ΔW` for one concrete seed `C : [R, R]` (Eq. 7
    /// verbatim; `C[r2, r0]`), used by tests and the Fig. 4 bench.
    pub fn delta_weight_for(&self, c: &Tensor) -> Result<Tensor> {
        crate::merge::tr_delta(&self.a.value(), &self.b.value(), c, self.cfg.scaling())
    }

    /// The LoRA configuration.
    pub fn config(&self) -> LoraConfig {
        self.cfg
    }

    /// The factored `Δy` for `x:[N,I]` and per-row seeds `[N, R·R]`.
    fn delta(&self, g: &mut Graph, x: Var, seed: Var, n: usize) -> Result<Var> {
        let r = self.cfg.rank;
        let a = g.bind(&self.a);
        let b = g.bind(&self.b);
        let c = g.reshape(seed, &[n, r, r])?; // C[n, r2, r0]
        let dy = g.contract("ni,xiy,yoz,nzx->no", &[x, a, b, c])?;
        Ok(g.scale(dy, self.cfg.scaling()))
    }
}

impl Module for MetaLoraTrLinear {
    fn forward(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var> {
        let y = self.base.forward(g, x, ctx)?;
        let Some(seed) = ctx.seed else {
            return Ok(y);
        };
        // Inside a Mixer the batch axis arrives flattened to N·k rows;
        // repeat each sample's seed accordingly.
        let rows = g.dims(x)[0];
        let seed = expand_seed(g, seed, rows, "MetaLoraTrLinear")?;
        check_seed(g, seed, rows, self.cfg.rank * self.cfg.rank, "MetaLoraTrLinear")?;
        let dy = self.delta(g, x, seed, rows)?;
        g.add(y, dy)
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = self.base.params();
        v.push(self.a.clone());
        v.push(self.b.clone());
        v
    }

    fn buffers(&self) -> Vec<ParamRef> {
        self.base.buffers()
    }
}

impl LinearLike for MetaLoraTrLinear {
    fn in_features(&self) -> usize {
        self.base.in_features()
    }
    fn out_features(&self) -> usize {
        self.base.out_features()
    }
}

/// Convolutional MetaLoRA-TR adapter (Sec. III-D): the spatial kernel
/// lives in the `𝒜` core (`𝒜 : [K, K, I, R·R]`, bond pair on the output
/// channels of the small convolution), `ℬ : [R, O, R]` recovers channels
/// and the generated `C_n : [R, R]` closes the ring per input.
pub struct MetaLoraTrConv {
    base: BoxConv,
    /// Small filters `𝒜 : [K, K, I, R·R]` (last axis r0-major `r0·R+r1`).
    pub a: ParamRef,
    /// Core `ℬ : [R, O, R]`, zero-initialised.
    pub b: ParamRef,
    cfg: LoraConfig,
    spec: ConvSpec,
}

impl MetaLoraTrConv {
    /// Wraps `base`, freezing its parameters.
    pub fn new(name: &str, base: BoxConv, cfg: LoraConfig, rng: &mut StdRng) -> Result<Self> {
        for p in base.params() {
            p.set_trainable(false);
        }
        let (k, i, o) = (base.kernel(), base.in_channels(), base.out_channels());
        let spec = ConvSpec::new(k, base.stride(), base.padding())?;
        let r = cfg.rank;
        let a = init::he_normal(&[k, k, i, r * r], i * k * k, rng);
        Ok(MetaLoraTrConv {
            base,
            a: ParamRef::new(format!("{name}.meta_tr_conv_a"), a),
            b: ParamRef::new(format!("{name}.meta_tr_conv_b"), Tensor::zeros(&[r, o, r])),
            cfg,
            spec,
        })
    }

    /// Adapter-only parameters.
    pub fn adapter_params(&self) -> Vec<ParamRef> {
        vec![self.a.clone(), self.b.clone()]
    }

    /// Materialises `Δ𝒲 : [K, K, I, O]` for one concrete seed
    /// `C : [R, R]` (`C[r2, r0]`): the dense-TR network of
    /// [`crate::merge::tr_delta`] over the flattened `s = K·K·I` axis.
    pub fn delta_weight_for(&self, c: &Tensor) -> Result<Tensor> {
        let (a, b) = (self.a.value(), self.b.value());
        let r = self.cfg.rank;
        let bonds_ok = matches!(
            (a.dims(), b.dims()),
            (&[_, _, _, rr], &[r1, _, r2]) if [rr, r1, r2] == [r * r, r, r]
        );
        if !bonds_ok || c.dims() != [r, r] {
            return Err(TensorError::InvalidArgument(format!(
                "MetaLoraTrConv::delta_weight_for: rank {r} needs A [K,K,I,R·R], B [R,O,R] and \
                 a seed [R,R], got A {:?}, B {:?}, seed {:?}",
                a.dims(),
                b.dims(),
                c.dims()
            )));
        }
        let (k, i, o) = (a.dims()[0], a.dims()[2], b.dims()[1]);
        let a3 = a.reshape(&[k * k * i, r, r])?; // [s, r0, r1]
        let d = contract::contract_spec("sxy,yoz,zx->so", &[&a3, &b, c])?;
        Ok(crate::merge::scaled(d.reshape(&[k, k, i, o])?, self.cfg.scaling()))
    }
}

impl Module for MetaLoraTrConv {
    fn forward(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var> {
        let y = self.base.forward(g, x, ctx)?;
        let Some(seed) = ctx.seed else {
            return Ok(y);
        };
        let dims = g.dims(x);
        let n = dims[0];
        let r = self.cfg.rank;
        let seed = expand_seed(g, seed, n, "MetaLoraTrConv")?;
        check_seed(g, seed, n, r * r, "MetaLoraTrConv")?;
        let o = self.base.out_channels();
        let oh = self.spec.out_size(dims[2])?;
        let ow = self.spec.out_size(dims[3])?;

        let a = g.bind(&self.a);
        let b = g.bind(&self.b);
        // Small conv to the bond pair: [N, r0·r1, OH, OW].
        let u = g.conv2d(x, a, self.spec, self.spec)?;
        // Close the ring over the bonds, per sample and output position.
        let u = g.reshape(u, &[n, r, r, oh * ow])?; // [N, r0, r1, P]
        let c = g.reshape(seed, &[n, r, r])?; // C[n, r2, r0]
        let dy = g.contract("nxyp,nzx,yoz->nop", &[u, c, b])?;
        let dy = g.reshape(dy, &[n, o, oh, ow])?;
        let dy = g.scale(dy, self.cfg.scaling());
        g.add(y, dy)
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = self.base.params();
        v.push(self.a.clone());
        v.push(self.b.clone());
        v
    }

    fn buffers(&self) -> Vec<ParamRef> {
        self.base.buffers()
    }
}

impl ConvLike for MetaLoraTrConv {
    fn in_channels(&self) -> usize {
        self.base.in_channels()
    }
    fn out_channels(&self) -> usize {
        self.base.out_channels()
    }
    fn kernel(&self) -> usize {
        self.base.kernel()
    }
    fn stride(&self) -> usize {
        self.base.stride()
    }
    fn padding(&self) -> usize {
        self.base.padding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_nn::{Conv2d, Linear};
    use metalora_tensor::{approx_eq, conv, ops};

    fn setup_linear() -> (MetaLoraTrLinear, StdRng) {
        let mut rng = init::rng(11);
        let base = Linear::new("fc", 6, 4, &mut rng);
        let m = MetaLoraTrLinear::new(
            "fc",
            Box::new(base),
            LoraConfig {
                rank: 2,
                alpha: 2.0,
            },
            &mut rng,
        );
        (m, rng)
    }

    /// Flattens a `[R, R]` seed matrix `C[r2, r0]` into the `[1, R·R]`
    /// layout the adapters expect.
    fn flatten_seed(c: &Tensor) -> Tensor {
        c.reshaped(&[1, c.len()]).unwrap()
    }

    #[test]
    fn no_seed_means_base_function() {
        let (m, mut rng) = setup_linear();
        m.b.set_value(init::uniform(&[2, 4, 2], -1.0, 1.0, &mut rng));
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[3, 6], -1.0, 1.0, &mut rng));
        let y = m.forward(&mut g, x, &Ctx::none()).unwrap();
        let yb = m.base.forward(&mut g, x, &Ctx::none()).unwrap();
        assert!(approx_eq(&g.value(y), &g.value(yb), 1e-6));
    }

    #[test]
    fn factored_forward_matches_eq7_materialisation() {
        let (m, mut rng) = setup_linear();
        m.b.set_value(init::uniform(&[2, 4, 2], -1.0, 1.0, &mut rng));
        let xv = init::uniform(&[1, 6], -1.0, 1.0, &mut rng);
        let cv = init::uniform(&[2, 2], -1.0, 1.0, &mut rng); // C[r2, r0]
        let mut g = Graph::new();
        let x = g.input(xv.clone());
        let seed = g.input(flatten_seed(&cv));
        let y = m.forward(&mut g, x, &Ctx::with_seed(seed)).unwrap();
        let yb = m.base.forward(&mut g, x, &Ctx::none()).unwrap();
        let got = ops::sub(&g.value(y), &g.value(yb)).unwrap();
        let dw = m.delta_weight_for(&cv).unwrap();
        let expect = ops::matmul(&xv, &dw).unwrap();
        assert!(
            approx_eq(&got, &expect, 1e-4),
            "err {}",
            metalora_tensor::max_rel_err(&got, &expect)
        );
    }

    #[test]
    fn seed_identity_vs_zero() {
        // C = 0 → no delta; C = I → some delta (with nonzero ℬ).
        let (m, mut rng) = setup_linear();
        m.b.set_value(init::uniform(&[2, 4, 2], -1.0, 1.0, &mut rng));
        let xv = init::uniform(&[1, 6], -1.0, 1.0, &mut rng);
        let run = |cv: &Tensor, m: &MetaLoraTrLinear, xv: &Tensor| {
            let mut g = Graph::new();
            let x = g.input(xv.clone());
            let seed = g.input(flatten_seed(cv));
            let y = m.forward(&mut g, x, &Ctx::with_seed(seed)).unwrap();
            let yb = m.base.forward(&mut g, x, &Ctx::none()).unwrap();
            ops::sub(&g.value(y), &g.value(yb)).unwrap()
        };
        let zero = run(&Tensor::zeros(&[2, 2]), &m, &xv);
        assert!(zero.norm() < 1e-6);
        let eye = run(&Tensor::eye(2), &m, &xv);
        assert!(eye.norm() > 1e-4);
    }

    #[test]
    fn per_sample_seeds_differentiate() {
        let (m, mut rng) = setup_linear();
        m.b.set_value(init::uniform(&[2, 4, 2], -1.0, 1.0, &mut rng));
        let row = init::uniform(&[6], -1.0, 1.0, &mut rng);
        let xv = Tensor::stack(&[row.clone(), row]).unwrap();
        let mut seeds = Tensor::zeros(&[2, 4]);
        seeds.data_mut()[0] = 1.0; // sample 0: C[0,0]=1
        seeds.data_mut()[4 + 3] = 1.0; // sample 1: C[1,1]=1
        let mut g = Graph::new();
        let x = g.input(xv);
        let s = g.input(seeds);
        let y = m.forward(&mut g, x, &Ctx::with_seed(s)).unwrap();
        let v = g.value(y);
        assert!(!approx_eq(
            &v.index_axis0(0).unwrap(),
            &v.index_axis0(1).unwrap(),
            1e-5
        ));
    }

    #[test]
    fn seed_shape_validated() {
        let (m, mut rng) = setup_linear();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 6], -1.0, 1.0, &mut rng));
        let bad = g.input(Tensor::zeros(&[2, 2])); // needs R² = 4
        assert!(m.forward(&mut g, x, &Ctx::with_seed(bad)).is_err());
    }

    #[test]
    fn gradients_reach_b_core() {
        let (m, mut rng) = setup_linear();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 6], -1.0, 1.0, &mut rng));
        let seed = g.input(init::uniform(&[2, 4], -1.0, 1.0, &mut rng));
        let y = m.forward(&mut g, x, &Ctx::with_seed(seed)).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        g.flush_grads();
        assert!(m.b.grad().norm() > 0.0);
        for p in m.base.params() {
            assert_eq!(p.grad().norm(), 0.0);
        }
    }

    #[test]
    fn conv_variant_matches_materialised_delta() {
        let mut rng = init::rng(12);
        let base = Conv2d::new_no_bias("c", 2, 3, 3, 1, 1, &mut rng).unwrap();
        let m = MetaLoraTrConv::new(
            "c",
            Box::new(base),
            LoraConfig {
                rank: 2,
                alpha: 2.0,
            },
            &mut rng,
        )
        .unwrap();
        m.b.set_value(init::uniform(&[2, 3, 2], -0.5, 0.5, &mut rng));
        let xv = init::uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let cv = init::uniform(&[2, 2], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.input(xv.clone());
        let seed = g.input(flatten_seed(&cv));
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
    fn conv_variant_strided_shapes() {
        let mut rng = init::rng(13);
        let base = Conv2d::new_no_bias("c", 3, 4, 3, 2, 1, &mut rng).unwrap();
        let m = MetaLoraTrConv::new(
            "c",
            Box::new(base),
            LoraConfig {
                rank: 2,
                alpha: 4.0,
            },
            &mut rng,
        )
        .unwrap();
        m.b.set_value(init::uniform(&[2, 4, 2], -0.5, 0.5, &mut rng));
        assert_eq!(m.kernel(), 3);
        assert_eq!(m.stride(), 2);
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng));
        let seed = g.input(init::uniform(&[2, 4], -1.0, 1.0, &mut rng));
        let y = m.forward(&mut g, x, &Ctx::with_seed(seed)).unwrap();
        assert_eq!(g.dims(y), vec![2, 4, 4, 4]);
    }
}
