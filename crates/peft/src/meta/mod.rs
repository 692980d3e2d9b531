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

mod cp;
mod static_seed;
mod tr;

pub use cp::{MetaLoraCpConv, MetaLoraCpLinear};
pub use static_seed::StaticSeedLora;
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

/// Validates a seed var against the expected `[N, seed_dim]` shape.
pub(crate) fn check_seed(g: &Graph, seed: Var, n: usize, seed_dim: usize, what: &str) -> Result<()> {
    let dims = g.dims(seed);
    if dims != [n, seed_dim] {
        return Err(TensorError::InvalidArgument(format!(
            "{what}: seed shape {dims:?}, expected [{n}, {seed_dim}]"
        )));
    }
    Ok(())
}

/// Aligns a per-sample seed `[N, D]` with an activation whose leading axis
/// has been flattened to `N·k` rows in sample-major order (as the Mixer's
/// token/channel mixing reshapes do): each seed row is repeated `k` times.
///
/// Returns the seed unchanged when `rows == N`; errors when `rows` is not
/// a multiple of `N`.
pub(crate) fn expand_seed(g: &mut Graph, seed: Var, rows: usize, what: &str) -> Result<Var> {
    let dims = g.dims(seed);
    if dims.len() != 2 {
        return Err(TensorError::InvalidArgument(format!(
            "{what}: seed must be [N, D], got {dims:?}"
        )));
    }
    let (n, d) = (dims[0], dims[1]);
    if rows == n {
        return Ok(seed);
    }
    if n == 0 || !rows.is_multiple_of(n) {
        return Err(TensorError::InvalidArgument(format!(
            "{what}: cannot align seed batch {n} with {rows} activation rows"
        )));
    }
    let k = rows / n;
    // [N, D] → [N, 1, D] ⊙ ones[1, k, 1] → [N, k, D] → [N·k, D].
    let s = g.reshape(seed, &[n, 1, d])?;
    let ones = g.input(Tensor::ones(&[1, k, 1]));
    let rep = g.mul(s, ones)?;
    g.reshape(rep, &[n * k, d])
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
/// `f64` side sums and never touches the graph — and strided by the same
/// `METALORA_OBS_SAMPLE` clock as optimizer probes (on its own counter),
/// so CP and TR seed generation are directly comparable in run logs.
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

/// The full MetaLoRA model (Fig. 4): a backbone whose layers have been
/// injected with MetaLoRA adapters, plus the mapping net that generates
/// their seeds from the frozen backbone's own features.
pub struct MetaLora {
    backbone: Box<dyn Backbone>,
    mapping: MappingNet,
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
        Ok(MetaLora { backbone, mapping })
    }

    /// The generated seed for a batch — step 1 + 2 of the pipeline.
    pub fn generate_seed(&self, g: &mut Graph, x: Var) -> Result<Var> {
        // Extraction pass: no seed in scope ⇒ MetaLoRA layers contribute
        // no delta ⇒ this is the frozen pretrained function.
        let feats = self.backbone.features(g, x, &Ctx::none())?;
        let seed = self.mapping.generate(g, feats)?;
        probe_seed_health(g, seed);
        Ok(seed)
    }

    /// Access to the mapping net (e.g. for parameter accounting).
    pub fn mapping(&self) -> &MappingNet {
        &self.mapping
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
        v.extend(self.mapping.params());
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
    use metalora_nn::models::{Mlp, MlpConfig};

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
        metalora_obs::health::set_sample_stride(1);
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 6], -1.0, 1.0, &mut rng));
        ml.generate_seed(&mut g, x).unwrap();
        let records = metalora_obs::health::snapshot();
        metalora_obs::health::set_sample_stride(0);
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
        assert!(check_seed(&g, s, 3, 4, "t").is_ok());
        assert!(check_seed(&g, s, 2, 4, "t").is_err());
        assert!(check_seed(&g, s, 3, 5, "t").is_err());
    }
}
