//! **MetaLoRA** (Sec. III of the paper): task-aware parameter generation.
//!
//! The Fig. 4 pipeline, as implemented here:
//!
//! 1. **Feature extraction** — the *frozen pretrained* backbone embeds the
//!    input batch (`Backbone::features` with an empty [`Ctx`]; MetaLoRA
//!    layers apply no delta when no seed is present, so this pass sees the
//!    pure pretrained function, exactly the paper's "pre-trained ResNet"
//!    extractor).
//! 2. **Parameter-space mapping net** — a two-layer MLP maps features to
//!    the parameter seed: `c:[N, R]` (CP) or `C:[N, R·R]` (TR).
//! 3. **Tensor-based integration** — every adapted layer contracts the
//!    seed with its trained factor tensors to realise a *per-input* ΔW
//!    (Eq. 6 for CP, Eq. 7 for TR; Sec. III-D for the convolutional
//!    variants).
//!
//! Gradients flow through the seed back into the mapping net, so factors
//! and generator are trained jointly end-to-end.
//!
//! The static-seed ablation (A5) is the same [`MetaLora`] model with steps
//! 1 and 2 replaced by one learned constant seed shared by every input
//! ([`MetaLora::with_learned_seed`]; `inject::static_seed`).

mod cp;
mod tr;

pub use cp::{MetaLoraCpConv, MetaLoraCpLinear};
pub use tr::{MetaLoraTrConv, MetaLoraTrLinear};

use crate::Result;
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_nn::{Backbone, Ctx, Module};
use metalora_tensor::{init, ops, Tensor, TensorError};
use rand::rngs::StdRng;

/// Which tensor-network format integrates the generated seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaFormat {
    /// CANDECOMP/PARAFAC — seed is a vector `c : [R]` per input (Eq. 6).
    Cp,
    /// Tensor-Ring — seed is a matrix `C : [R, R]` per input (Eq. 7).
    Tr,
}

impl MetaFormat {
    /// Width of the seed the mapping net must emit for rank `rank`.
    pub fn seed_dim(&self, rank: usize) -> usize {
        match self {
            MetaFormat::Cp => rank,
            MetaFormat::Tr => rank * rank,
        }
    }
}

/// The seed one adapted layer applies, or `None` on the extraction pass
/// (no seed in scope: the layer computes the pure pretrained function).
///
/// The seed is `[N, seed_dim]`, one row per sample. Inside a Mixer the
/// input's leading axis arrives flattened to `rows = N·k` in sample-major
/// order (the token/channel mixing reshapes), so each seed row is repeated
/// `k` times; `rows` that is not a multiple of `N` is an error.
pub(crate) fn layer_seed(
    g: &mut Graph,
    ctx: &Ctx,
    rows: usize,
    seed_dim: usize,
    what: &str,
) -> Result<Option<Var>> {
    let Some(seed) = ctx.seed else {
        return Ok(None);
    };
    let dims = g.dims(seed);
    let n = match dims[..] {
        [n, d] if d == seed_dim => n,
        _ => {
            return Err(TensorError::InvalidArgument(format!(
                "{what}: seed shape {dims:?}, expected [N, {seed_dim}]"
            )))
        }
    };
    if rows == n {
        return Ok(Some(seed));
    }
    if n == 0 || !rows.is_multiple_of(n) {
        return Err(TensorError::InvalidArgument(format!(
            "{what}: cannot align seed batch {n} with {rows} activation rows"
        )));
    }
    let k = rows / n;
    // [N, D] → [N, 1, D] ⊙ ones[1, k, 1] → [N, k, D] → [N·k, D].
    let s = g.reshape(seed, &[n, 1, seed_dim])?;
    let ones = g.input(Tensor::ones(&[1, k, 1]));
    let rep = g.mul(s, ones)?;
    g.reshape(rep, &[rows, seed_dim]).map(Some)
}

/// The parameter-space mapping net (Sec. III-B-2): feature vector →
/// parameter seed, as a two-layer GELU MLP.
///
/// The output layer is initialised small (σ scaled by 0.1) so generated
/// seeds start near zero, which combined with the adapters' zero-init
/// up-factors keeps the initial delta at exactly zero while still letting
/// gradients reach both the factors and the generator.
pub struct MappingNet {
    w1: ParamRef,
    b1: ParamRef,
    w2: ParamRef,
    b2: ParamRef,
    in_dim: usize,
    out_dim: usize,
}

impl MappingNet {
    /// Builds a mapping net `in_dim → hidden → out_dim`.
    pub fn new(name: &str, in_dim: usize, hidden: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let w1 = init::he_normal(&[in_dim, hidden], in_dim, rng);
        let w2 = ops::scale(&init::he_normal(&[hidden, out_dim], hidden, rng), 0.1);
        MappingNet {
            w1: ParamRef::new(format!("{name}.w1"), w1),
            b1: ParamRef::new(format!("{name}.b1"), Tensor::zeros(&[hidden])),
            w2: ParamRef::new(format!("{name}.w2"), w2),
            b2: ParamRef::new(format!("{name}.b2"), Tensor::zeros(&[out_dim])),
            in_dim,
            out_dim,
        }
    }

    /// Seed width produced per input.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Feature width consumed per input.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Generates seeds for a feature batch `[N, in_dim] → [N, out_dim]`.
    /// The output passes through `tanh` so seeds stay bounded — the
    /// factors carry the magnitude.
    pub fn generate(&self, g: &mut Graph, features: Var) -> Result<Var> {
        let w1 = g.bind(&self.w1);
        let b1 = g.bind(&self.b1);
        let w2 = g.bind(&self.w2);
        let b2 = g.bind(&self.b2);
        let h = g.linear(features, w1, b1)?;
        let h = g.gelu(h);
        let s = g.linear(h, w2, b2)?;
        Ok(g.tanh(s))
    }

    /// Value snapshots of `(w1, b1, w2, b2)` — what a serving engine needs
    /// to run [`MappingNet::generate`]'s math tape-free on another thread
    /// (`metalora_serve::forward::MappingSnapshot::generate`; parameter
    /// cells themselves are `Rc`-based and not `Send`).
    pub fn export_weights(&self) -> (Tensor, Tensor, Tensor, Tensor) {
        (
            self.w1.value(),
            self.b1.value(),
            self.w2.value(),
            self.b2.value(),
        )
    }
}

impl Module for MappingNet {
    fn forward(&self, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Var> {
        self.generate(g, x)
    }

    fn params(&self) -> Vec<ParamRef> {
        vec![
            self.w1.clone(),
            self.b1.clone(),
            self.w2.clone(),
            self.b2.clone(),
        ]
    }
}

/// Records the health of one generated seed batch under group
/// `mapping/seed`: mean per-sample L2 norm (in `weight_norm`) plus
/// NaN/Inf sentinel counts. Purely passive — reads the seed value into
/// `f64` side sums and never touches the graph — and taken on every
/// generation pass (on its own step counter, next to the optimizer's), so
/// CP and TR seed generation are directly comparable in run logs.
fn probe_seed_health(g: &Graph, seed: Var) {
    if !metalora_obs::enabled() {
        return;
    }
    let Some(step) = metalora_obs::health::begin_seed_probe() else {
        return;
    };
    let value = g.value(seed);
    let dims = g.dims(seed);
    let n = dims.first().copied().unwrap_or(0);
    let (mut sum_norm, mut nan, mut inf) = (0.0f64, 0u64, 0u64);
    let row_len = (value.len() / n.max(1)).max(1);
    for row in value.data().chunks(row_len) {
        let mut sq = 0.0f64;
        for &v in row {
            if v.is_nan() {
                nan += 1;
            } else if v.is_infinite() {
                inf += 1;
            } else {
                sq += v as f64 * v as f64;
            }
        }
        sum_norm += sq.sqrt();
    }
    let mean_norm = if n > 0 { sum_norm / n as f64 } else { 0.0 };
    metalora_obs::health::record(
        "mapping/seed",
        step,
        f64::NAN, // no gradient at generation time
        f64::NAN, // not an update
        mean_norm,
        nan,
        inf,
    );
}

/// Where a [`MetaLora`]'s adapters take their seed from.
enum SeedSource {
    /// The paper's model: the mapping net generates one seed per input
    /// from the frozen backbone's own features.
    Generated(MappingNet),
    /// The static-seed ablation (A5): one learned constant `[1, seed_dim]`
    /// that every input shares; the adapters broadcast it over the batch.
    Learned(ParamRef),
}

/// The full MetaLoRA model (Fig. 4): a backbone whose layers have been
/// injected with MetaLoRA adapters, plus the source of their seed — the
/// mapping net that generates it from the frozen backbone's own features,
/// or, for the static-seed ablation, one learned constant.
pub struct MetaLora {
    backbone: Box<dyn Backbone>,
    seed: SeedSource,
}

impl MetaLora {
    /// Wraps an already-injected backbone. `mapping.in_dim()` must equal
    /// the backbone's feature dimension.
    pub fn new(backbone: Box<dyn Backbone>, mapping: MappingNet) -> Result<Self> {
        if mapping.in_dim() != backbone.feature_dim() {
            return Err(TensorError::InvalidArgument(format!(
                "mapping net consumes {} features but backbone emits {}",
                mapping.in_dim(),
                backbone.feature_dim()
            )));
        }
        Ok(MetaLora { backbone, seed: SeedSource::Generated(mapping) })
    }

    /// Wraps an already-injected backbone with one trainable constant
    /// seed of width `seed_dim` (R for CP, R² for TR) in place of the
    /// mapping net: the static-seed ablation, which isolates the paper's
    /// claim that the gains come from *input-conditioned* seeds.
    pub fn with_learned_seed(
        backbone: Box<dyn Backbone>,
        seed_dim: usize,
        rng: &mut StdRng,
    ) -> Result<Self> {
        if seed_dim == 0 {
            return Err(TensorError::InvalidArgument("static seed width must be >= 1".into()));
        }
        // Small random init mirrors the mapping net's near-zero start.
        let s = init::normal(&[1, seed_dim], 0.0, 0.1, rng);
        let seed = SeedSource::Learned(ParamRef::new("static_seed", s));
        Ok(MetaLora { backbone, seed })
    }

    /// The seed for a batch — step 1 + 2 of the pipeline, or the learned
    /// constant `[1, seed_dim]`.
    pub fn generate_seed(&self, g: &mut Graph, x: Var) -> Result<Var> {
        match &self.seed {
            SeedSource::Generated(mapping) => {
                // Extraction pass: no seed in scope ⇒ no delta ⇒ this is
                // the frozen pretrained function.
                let feats = self.backbone.features(g, x, &Ctx::none())?;
                let seed = mapping.generate(g, feats)?;
                probe_seed_health(g, seed);
                Ok(seed)
            }
            SeedSource::Learned(seed) => Ok(g.bind(seed)),
        }
    }

    /// The seed source's trainable parameters: the mapping net's four, or
    /// the learned constant.
    pub(crate) fn seed_params(&self) -> Vec<ParamRef> {
        match &self.seed {
            SeedSource::Generated(mapping) => mapping.params(),
            SeedSource::Learned(seed) => vec![seed.clone()],
        }
    }

    /// The mapping net, if the seed is generated.
    pub fn mapping(&self) -> Option<&MappingNet> {
        match &self.seed {
            SeedSource::Generated(mapping) => Some(mapping),
            SeedSource::Learned(_) => None,
        }
    }

    /// Access to the wrapped backbone.
    pub fn backbone(&self) -> &dyn Backbone {
        self.backbone.as_ref()
    }
}

impl Module for MetaLora {
    fn forward(&self, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Var> {
        let seed = self.generate_seed(g, x)?;
        self.backbone.forward(g, x, &Ctx::with_seed(seed))
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = self.backbone.params();
        v.extend(self.seed_params());
        v
    }

    fn buffers(&self) -> Vec<ParamRef> {
        self.backbone.buffers()
    }
}

impl Backbone for MetaLora {
    fn features(&self, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Var> {
        let seed = self.generate_seed(g, x)?;
        self.backbone.features(g, x, &Ctx::with_seed(seed))
    }

    fn feature_dim(&self) -> usize {
        self.backbone.feature_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_nn::models::{Mlp, MlpConfig, ResNet, ResNetConfig};
    use metalora_nn::Optimizer;

    #[test]
    fn seed_dims_per_format() {
        assert_eq!(MetaFormat::Cp.seed_dim(4), 4);
        assert_eq!(MetaFormat::Tr.seed_dim(4), 16);
    }

    #[test]
    fn mapping_net_shapes_and_bounds() {
        let mut rng = init::rng(1);
        let m = MappingNet::new("map", 8, 16, 4, &mut rng);
        assert_eq!(m.in_dim(), 8);
        assert_eq!(m.out_dim(), 4);
        assert_eq!(m.num_params(), 8 * 16 + 16 + 16 * 4 + 4);
        let mut g = Graph::new();
        let f = g.input(init::uniform(&[5, 8], -2.0, 2.0, &mut rng));
        let s = m.generate(&mut g, f).unwrap();
        assert_eq!(g.dims(s), vec![5, 4]);
        assert!(g.value(s).data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn mapping_net_is_input_dependent() {
        let mut rng = init::rng(2);
        let m = MappingNet::new("map", 4, 8, 3, &mut rng);
        let mut g = Graph::new();
        let f1 = g.input(init::uniform(&[1, 4], -1.0, 1.0, &mut rng));
        let f2 = g.input(init::uniform(&[1, 4], -1.0, 1.0, &mut rng));
        let s1 = m.generate(&mut g, f1).unwrap();
        let s2 = m.generate(&mut g, f2).unwrap();
        assert!(!metalora_tensor::approx_eq(
            &g.value(s1),
            &g.value(s2),
            1e-6
        ));
    }

    #[test]
    fn meta_lora_validates_feature_dim() {
        let mut rng = init::rng(3);
        let backbone = Mlp::new(
            "b",
            &MlpConfig {
                in_dim: 6,
                hidden: vec![10],
                out_dim: 4,
            },
            &mut rng,
        );
        let bad = MappingNet::new("map", 7, 8, 4, &mut rng);
        assert!(MetaLora::new(Box::new(backbone), bad).is_err());
    }

    #[test]
    fn meta_lora_forward_runs_and_params_include_mapping() {
        let mut rng = init::rng(4);
        let backbone = Mlp::new(
            "b",
            &MlpConfig {
                in_dim: 6,
                hidden: vec![10],
                out_dim: 4,
            },
            &mut rng,
        );
        let nb = backbone.num_params();
        let mapping = MappingNet::new("map", 10, 8, 3, &mut rng);
        let nm = mapping.num_params();
        let ml = MetaLora::new(Box::new(backbone), mapping).unwrap();
        assert_eq!(ml.num_params(), nb + nm);
        assert_eq!(ml.feature_dim(), 10);
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 6], -1.0, 1.0, &mut rng));
        let y = ml.forward(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(y), vec![2, 4]);
        let f = ml.features(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(f), vec![2, 10]);
    }

    #[test]
    fn seed_generation_records_health_probe() {
        let mut rng = init::rng(5);
        let backbone = Mlp::new(
            "b",
            &MlpConfig {
                in_dim: 6,
                hidden: vec![10],
                out_dim: 4,
            },
            &mut rng,
        );
        let mapping = MappingNet::new("mapping", 10, 8, 3, &mut rng);
        let ml = MetaLora::new(Box::new(backbone), mapping).unwrap();

        metalora_obs::set_enabled(true);
        metalora_obs::reset();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 6], -1.0, 1.0, &mut rng));
        ml.generate_seed(&mut g, x).unwrap();
        let records = metalora_obs::health::snapshot();
        metalora_obs::reset();
        metalora_obs::set_enabled(false);

        let r = records
            .iter()
            .find(|r| r.group == "mapping/seed")
            .expect("seed probe record");
        assert!(r.weight_norm >= 0.0 && r.weight_norm <= 3.0f64.sqrt() + 1e-6);
        assert!(r.grad_norm.is_nan() && r.update_ratio.is_nan());
        assert_eq!((r.nan_count, r.inf_count), (0, 0));
    }

    #[test]
    fn check_seed_validates_shape() {
        let mut g = Graph::new();
        let s = g.input(Tensor::zeros(&[3, 4]));
        let ctx = Ctx::with_seed(s);
        assert!(layer_seed(&mut g, &ctx, 3, 4, "t").unwrap().is_some());
        assert!(layer_seed(&mut g, &ctx, 2, 4, "t").is_err());
        assert!(layer_seed(&mut g, &ctx, 3, 5, "t").is_err());
        assert!(layer_seed(&mut g, &Ctx::none(), 3, 4, "t").unwrap().is_none());
    }

    fn injected_resnet(rng: &mut StdRng) -> (ResNet, Vec<ParamRef>) {
        let cfg = ResNetConfig {
            in_channels: 3,
            channels: vec![4, 8],
            blocks_per_stage: 1,
            num_classes: 4,
        };
        let mut net = ResNet::new(&cfg, rng).unwrap();
        let lora = crate::LoraConfig {
            rank: 2,
            alpha: 4.0,
        };
        let inj = crate::inject::meta_layers(&mut net, MetaFormat::Cp, lora, rng);
        (net, inj.adapter_params)
    }

    #[test]
    fn learned_seed_forward_and_features_run_with_broadcast_seed() {
        let mut rng = init::rng(1);
        let (net, _) = injected_resnet(&mut rng);
        let ss = MetaLora::with_learned_seed(Box::new(net), MetaFormat::Cp.seed_dim(2), &mut rng)
            .unwrap();
        let mut g = Graph::inference();
        let x = g.input(init::uniform(&[3, 3, 16, 16], -1.0, 1.0, &mut rng));
        let y = ss.forward(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(y), vec![3, 4]);
        let f = ss.features(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(f), vec![3, ss.feature_dim()]);
    }

    #[test]
    fn learned_seed_is_trainable_and_receives_gradient() {
        let mut rng = init::rng(2);
        let (net, mut params) = injected_resnet(&mut rng);
        let ss = MetaLora::with_learned_seed(Box::new(net), 2, &mut rng).unwrap();
        assert!(ss.mapping().is_none());
        let seed = ss.params().pop().unwrap();
        assert_eq!(seed.name(), "static_seed");
        params.push(seed.clone());
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
        assert!(seed.grad().norm() > 0.0, "static seed must learn");
        let mut opt = metalora_nn::Sgd::new(params, 0.1);
        let before = seed.value();
        opt.step();
        assert!(!metalora_tensor::approx_eq(&before, &seed.value(), 0.0));
    }

    #[test]
    fn learned_seed_is_the_same_for_every_input() {
        // Unlike a generated seed, two different inputs see the same ΔW:
        // verified indirectly by checking that a duplicated input row
        // produces identical rows (no per-sample variation source).
        let mut rng = init::rng(3);
        let (net, params) = injected_resnet(&mut rng);
        for p in &params {
            if p.name().contains("_b") {
                p.set_value(init::uniform(&p.dims(), -0.3, 0.3, &mut rng));
            }
        }
        let ss = MetaLora::with_learned_seed(Box::new(net), 2, &mut rng).unwrap();
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
    fn learned_seed_validates_seed_dim() {
        let mut rng = init::rng(4);
        let (net, _) = injected_resnet(&mut rng);
        assert!(MetaLora::with_learned_seed(Box::new(net), 0, &mut rng).is_err());
    }
}
