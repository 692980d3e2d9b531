//! The frozen-base shell every PEFT layer shares.
//!
//! A method differs from another only in the update it adds to a frozen
//! layer (Eq. 5 for Conv-LoRA, Eq. 6 for CP, Eq. 7 for Tensor-Ring). So one
//! generic [`Adapter`] owns what they all do — freeze the base, hold the
//! two factors, run `y = base(x) + (α/R)·Δ(x)`, list parameters, delegate
//! the base geometry — and a method is a marker type implementing
//! [`Update`] for a base kind (`dyn LinearLike` or `dyn ConvLike`): its
//! factor type and its `Δ` op chain. The eight public adapter names are
//! aliases of `Adapter<kind, method>`, so each is still its own type.

use crate::{LoraConfig, Result};
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_nn::{ConvLike, Ctx, Layer, LinearLike, Module};
use metalora_tensor::conv::ConvSpec;
use metalora_tensor::{init, Tensor};
use rand::rngs::StdRng;

/// One PEFT method's update for a frozen layer of kind `L`.
pub trait Update<L: ?Sized>: Sized + 'static {
    /// One factor: a single parameter, or one per bank slot.
    type Factor: Factor;

    /// The unscaled update `Δ` for input `x`, or `None` when `ctx` selects
    /// the frozen base function (no seed, no bank slot). The shell scales
    /// it by `α/R` and adds it to the base output.
    fn delta(layer: &Adapter<L, Self>, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Option<Var>>;
}

/// A trained factor of an [`Adapter`].
pub trait Factor {
    /// Appends its parameters, in order.
    fn push_to(&self, params: &mut Vec<ParamRef>);
}

impl Factor for ParamRef {
    fn push_to(&self, params: &mut Vec<ParamRef>) {
        params.push(self.clone());
    }
}

impl Factor for Vec<ParamRef> {
    fn push_to(&self, params: &mut Vec<ParamRef>) {
        params.extend(self.iter().cloned());
    }
}

/// A frozen base layer of kind `L` plus the trainable factors of method
/// `U`. Every factor pair starts with `b = 0`, so the wrapped layer
/// initially computes exactly the base function.
pub struct Adapter<L: ?Sized, U: Update<L>> {
    pub(crate) base: Box<L>,
    /// First factor: `A`, `𝒜` (one per slot for a bank).
    pub a: U::Factor,
    /// Second factor: `B`, `ℬ` (one per slot for a bank), zero-initialised.
    pub b: U::Factor,
    cfg: LoraConfig,
}

impl<L: ?Sized + Module, U: Update<L>> Adapter<L, U> {
    /// Wraps `base`, freezing its parameters; `factors` draws `(a, b)`
    /// for the frozen base.
    pub(crate) fn wrap(
        base: Box<L>,
        cfg: LoraConfig,
        factors: impl FnOnce(&L) -> (U::Factor, U::Factor),
    ) -> Self {
        for p in base.params() {
            p.set_trainable(false);
        }
        let (a, b) = factors(&base);
        Adapter { base, a, b, cfg }
    }

    /// Adapter-only parameters (what an optimiser should receive): every
    /// `a`, then every `b`.
    pub fn adapter_params(&self) -> Vec<ParamRef> {
        let mut v = Vec::new();
        self.a.push_to(&mut v);
        self.b.push_to(&mut v);
        v
    }

    /// The LoRA configuration.
    pub fn config(&self) -> LoraConfig {
        self.cfg
    }
}

impl<L: ?Sized + Module, U: Update<L>> Module for Adapter<L, U> {
    fn forward(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var> {
        let y = self.base.forward(g, x, ctx)?;
        let Some(delta) = U::delta(self, g, x, ctx)? else {
            return Ok(y);
        };
        let delta = g.scale(delta, self.cfg.scaling());
        g.add(y, delta)
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = self.base.params();
        v.extend(self.adapter_params());
        v
    }

    fn buffers(&self) -> Vec<ParamRef> {
        self.base.buffers()
    }
}

impl<U: Update<dyn LinearLike>> LinearLike for Adapter<dyn LinearLike, U> {
    fn in_features(&self) -> usize {
        self.base.in_features()
    }
    fn out_features(&self) -> usize {
        self.base.out_features()
    }
}

impl<U: Update<dyn ConvLike>> ConvLike for Adapter<dyn ConvLike, U> {
    fn in_channels(&self) -> usize {
        self.base.in_channels()
    }
    fn out_channels(&self) -> usize {
        self.base.out_channels()
    }
    fn spec(&self) -> ConvSpec {
        self.base.spec()
    }
}

impl<U: Update<dyn LinearLike>> From<Adapter<dyn LinearLike, U>> for Layer {
    fn from(adapter: Adapter<dyn LinearLike, U>) -> Layer {
        Layer::Linear(Box::new(adapter))
    }
}

impl<U: Update<dyn ConvLike>> From<Adapter<dyn ConvLike, U>> for Layer {
    fn from(adapter: Adapter<dyn ConvLike, U>) -> Layer {
        Layer::Conv(Box::new(adapter))
    }
}

/// The factor pair `{name}.{tag}_a{slot}` = `a`, `{name}.{tag}_b{slot}` = `b`.
pub(crate) fn pair(
    name: &str,
    tag: &str,
    slot: &str,
    a: Tensor,
    b: Tensor,
) -> (ParamRef, ParamRef) {
    let a = ParamRef::new(format!("{name}.{tag}_a{slot}"), a);
    (a, ParamRef::new(format!("{name}.{tag}_b{slot}"), b))
}

/// The dense LoRA pair: `A:[I, R]` (Kaiming-uniform), `B:[R, O]` (zero).
pub(crate) fn dense_pair(
    base: &dyn LinearLike,
    rank: usize,
    name: &str,
    tag: &str,
    slot: &str,
    rng: &mut StdRng,
) -> (ParamRef, ParamRef) {
    let (i, o) = (base.in_features(), base.out_features());
    let a = init::lora_a_init(&[i, rank], i, rng);
    pair(name, tag, slot, a, Tensor::zeros(&[rank, o]))
}

/// The Conv-LoRA pair: `𝒜:[K, K, I, R]` (He), `B:[R, O]` (zero).
pub(crate) fn conv_pair(
    base: &dyn ConvLike,
    rank: usize,
    name: &str,
    tag: &str,
    slot: &str,
    rng: &mut StdRng,
) -> (ParamRef, ParamRef) {
    let (k, i) = (base.spec().kernel, base.in_channels());
    let a = init::he_normal(&[k, k, i, rank], i * k * k, rng);
    let b = Tensor::zeros(&[rank, base.out_channels()]);
    pair(name, tag, slot, a, b)
}

/// The dense LoRA chain `gate(x·A)·B`.
pub(crate) fn dense_lora(
    g: &mut Graph,
    x: Var,
    a: &ParamRef,
    b: &ParamRef,
    gate: impl FnOnce(&mut Graph, Var) -> Result<Var>,
) -> Result<Var> {
    let a = g.bind(a);
    let b = g.bind(b);
    let xa = g.matmul(x, a)?; // [N, R]
    let xa = gate(g, xa)?;
    g.matmul(xa, b) // [N, O]
}

/// The Conv-LoRA chain of Fig. 3: a `K×K` convolution with `𝒜` to `R`
/// channels, `gate` on those channels, then the 1×1 recovery convolution
/// with `B`.
pub(crate) fn conv_lora(
    base: &dyn ConvLike,
    g: &mut Graph,
    x: Var,
    a: &ParamRef,
    b: &ParamRef,
    gate: impl FnOnce(&mut Graph, Var) -> Result<Var>,
) -> Result<Var> {
    let spec = base.spec();
    let a = g.bind(a);
    let b = g.bind(b);
    let u = g.conv2d(x, a, spec, spec)?; // [N, R, OH, OW]
    let u = gate(g, u)?;
    let rank = g.dims(u)[1];
    let b4 = g.reshape(b, &[1, 1, rank, base.out_channels()])?;
    g.conv2d(u, b4, ConvSpec::POINTWISE, ConvSpec::POINTWISE) // [N, O, OH, OW]
}

/// The identity gate of the plain LoRA chains.
pub(crate) fn ungated(_: &mut Graph, v: Var) -> Result<Var> {
    Ok(v)
}
