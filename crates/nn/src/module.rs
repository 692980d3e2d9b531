//! Module traits and the forward context that threads PEFT state through
//! a backbone.

use metalora_autograd::{Graph, ParamRef, Var};
use metalora_tensor::conv::ConvSpec;

use crate::Result;

/// Per-forward context consumed by adapted layers.
///
/// Plain layers ignore it. PEFT layers read:
/// * [`Ctx::seed`] — the parameter seed produced by the MetaLoRA mapping
///   net for the current batch (`c:[N, R]` for CP, `C:[N, R·R]` for TR,
///   as a graph [`Var`] so gradients flow back into the mapping net);
/// * [`Ctx::adapter`] — the adapter index a Multi-LoRA bank should apply.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    /// Generated parameter seed for MetaLoRA layers.
    pub seed: Option<Var>,
    /// Selected adapter slot for Multi-LoRA banks.
    pub adapter: Option<usize>,
}

impl Ctx {
    /// Context with no PEFT state (plain forward).
    pub fn none() -> Self {
        Ctx::default()
    }

    /// Context carrying a generated seed.
    pub fn with_seed(seed: Var) -> Self {
        Ctx {
            seed: Some(seed),
            adapter: None,
        }
    }

    /// Context selecting a Multi-LoRA adapter slot.
    pub fn with_adapter(adapter: usize) -> Self {
        Ctx {
            seed: None,
            adapter: Some(adapter),
        }
    }
}

/// Anything with a forward pass and parameters.
pub trait Module {
    /// Runs the forward computation on the tape.
    fn forward(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var>;

    /// All parameters, including frozen ones.
    fn params(&self) -> Vec<ParamRef>;

    /// Non-gradient state that must persist with the model (e.g. batch
    /// norm running statistics). Never given to optimisers; captured by
    /// checkpoints. Default: none.
    fn buffers(&self) -> Vec<ParamRef> {
        Vec::new()
    }

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Number of scalar parameters an optimiser would update.
    fn num_trainable_params(&self) -> usize {
        self.params()
            .iter()
            .filter(|p| p.trainable())
            .map(|p| p.len())
            .sum()
    }

    /// Freezes (`false`) or unfreezes (`true`) every parameter.
    fn set_trainable(&self, trainable: bool) {
        for p in self.params() {
            p.set_trainable(trainable);
        }
    }

    /// Clears every accumulated gradient.
    fn zero_grad(&self) {
        for p in self.params() {
            p.zero_grad();
        }
    }
}

/// A dense layer: maps `[N, I] → [N, O]`. Implemented by [`crate::Linear`]
/// and by every linear PEFT adapter.
pub trait LinearLike: Module {
    /// Input feature dimension `I`.
    fn in_features(&self) -> usize;
    /// Output feature dimension `O`.
    fn out_features(&self) -> usize;
}

/// A 2-D convolution layer: maps `[N, I, H, W] → [N, O, OH, OW]`.
/// Implemented by [`crate::Conv2d`] and every conv PEFT adapter.
pub trait ConvLike: Module {
    /// Input channels `I`.
    fn in_channels(&self) -> usize;
    /// Output channels `O`.
    fn out_channels(&self) -> usize;
    /// The validated spatial spec: square kernel `K`, stride, padding.
    fn spec(&self) -> ConvSpec;
}

/// Boxed dense layer, the unit of PEFT injection.
pub type BoxLinear = Box<dyn LinearLike>;
/// Boxed convolution layer, the unit of PEFT injection.
pub type BoxConv = Box<dyn ConvLike>;

/// A classification backbone that can also expose its penultimate
/// embedding — the vector the KNN probe of Table I and the MetaLoRA
/// feature extractor consume.
pub trait Backbone: Module {
    /// Embedding of the input batch: `[N, feature_dim]`, before the
    /// classification head.
    fn features(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var>;

    /// Dimension of [`Backbone::features`].
    fn feature_dim(&self) -> usize;
}

/// A layer at a PEFT injection point, by kind.
pub enum Layer {
    /// A dense injection point.
    Linear(BoxLinear),
    /// A convolutional injection point.
    Conv(BoxConv),
}

/// A backbone with PEFT injection points: the layers an adapter wraps.
///
/// The model names its points; what wraps them (and how the adapters are
/// named) is the PEFT crate's one injection walk.
pub trait Injectable: Backbone {
    /// Tag of the injection points in adapter names: `conv` for the
    /// ResNet's convolutions, `fc` for the Mixer's mixing layers, `vit`
    /// for the transformer's projections.
    fn site(&self) -> &'static str;

    /// Replaces every injection point `l`, in a fixed order, with `f(l)`.
    /// `f` must hand back a layer of the kind it was given.
    fn replace_layers(&mut self, f: &mut dyn FnMut(Layer) -> Layer);
}

/// Replaces the dense layer in `slot` with `f(layer)`.
pub(crate) fn replace_linear(slot: &mut BoxLinear, f: &mut dyn FnMut(Layer) -> Layer) {
    let old = std::mem::replace(slot, Box::new(Vacant));
    match f(Layer::Linear(old)) {
        Layer::Linear(new) => *slot = new,
        Layer::Conv(_) => panic!("a dense injection point was handed back a convolution"),
    }
}

/// Replaces the convolution in `slot` with `f(layer)`.
pub(crate) fn replace_conv(slot: &mut BoxConv, f: &mut dyn FnMut(Layer) -> Layer) {
    let old = std::mem::replace(slot, Box::new(Vacant));
    match f(Layer::Conv(old)) {
        Layer::Conv(new) => *slot = new,
        Layer::Linear(_) => panic!("a convolutional injection point was handed back a dense layer"),
    }
}

/// Holds an injection point while [`replace_linear`] / [`replace_conv`]
/// own its layer; never survives the call, never runs.
struct Vacant;

impl Module for Vacant {
    fn forward(&self, _g: &mut Graph, _x: Var, _ctx: &Ctx) -> Result<Var> {
        unreachable!("a vacant injection point never runs")
    }
    fn params(&self) -> Vec<ParamRef> {
        Vec::new()
    }
}

impl LinearLike for Vacant {
    fn in_features(&self) -> usize {
        0
    }
    fn out_features(&self) -> usize {
        0
    }
}

impl ConvLike for Vacant {
    fn in_channels(&self) -> usize {
        0
    }
    fn out_channels(&self) -> usize {
        0
    }
    fn spec(&self) -> ConvSpec {
        ConvSpec::POINTWISE
    }
}

/// Deduplicates parameters that appear multiple times (shared cells), by
/// identity. Keeps first occurrence order.
pub fn dedup_params(params: Vec<ParamRef>) -> Vec<ParamRef> {
    let mut seen = std::collections::HashSet::new();
    params
        .into_iter()
        .filter(|p| seen.insert(p.cell_id()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_tensor::Tensor;

    struct Toy {
        w: ParamRef,
    }

    impl Module for Toy {
        fn forward(&self, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Var> {
            let w = g.bind(&self.w);
            g.matmul(x, w)
        }
        fn params(&self) -> Vec<ParamRef> {
            vec![self.w.clone()]
        }
    }

    #[test]
    fn module_default_helpers() {
        let m = Toy {
            w: ParamRef::new("w", Tensor::ones(&[3, 2])),
        };
        assert_eq!(m.num_params(), 6);
        assert_eq!(m.num_trainable_params(), 6);
        m.set_trainable(false);
        assert_eq!(m.num_trainable_params(), 0);
        m.set_trainable(true);
        m.params()[0].accumulate_grad(&Tensor::ones(&[3, 2]));
        m.zero_grad();
        assert_eq!(m.params()[0].grad().data(), &[0.0; 6]);
    }

    #[test]
    fn ctx_constructors() {
        let c = Ctx::none();
        assert!(c.seed.is_none() && c.adapter.is_none());
        let c = Ctx::with_adapter(3);
        assert_eq!(c.adapter, Some(3));
        let mut g = Graph::new();
        let v = g.input(Tensor::zeros(&[1]));
        let c = Ctx::with_seed(v);
        assert!(c.seed.is_some());
    }

    #[test]
    fn dedup_params_by_cell() {
        let p = ParamRef::new("a", Tensor::zeros(&[1]));
        let q = ParamRef::new("b", Tensor::zeros(&[1]));
        let out = dedup_params(vec![p.clone(), q.clone(), p.clone()]);
        assert_eq!(out.len(), 2);
        assert!(out[0].same_cell(&p));
        assert!(out[1].same_cell(&q));
    }
}
