//! Basic layers: Linear, Conv2d, BatchNorm2d, LayerNorm.

use crate::module::{ConvLike, Ctx, LinearLike, Module};
use crate::Result;
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_tensor::conv::ConvSpec;
use metalora_tensor::{init, ops, Tensor, TensorError};
use rand::rngs::StdRng;

/// Dense layer `y = x·W + b` with `W:[I, O]`.
pub struct Linear {
    weight: ParamRef,
    bias: Option<ParamRef>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// He-initialised dense layer with bias.
    pub fn new(name: &str, in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let w = init::he_normal(&[in_features, out_features], in_features, rng);
        Linear {
            weight: ParamRef::new(format!("{name}.weight"), w),
            bias: Some(ParamRef::new(
                format!("{name}.bias"),
                Tensor::zeros(&[out_features]),
            )),
            in_features,
            out_features,
        }
    }

    /// Dense layer without bias.
    pub fn new_no_bias(
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut l = Self::new(name, in_features, out_features, rng);
        l.bias = None;
        l
    }

    /// The weight parameter (shared cell).
    pub fn weight(&self) -> &ParamRef {
        &self.weight
    }

    /// The bias parameter, if present.
    pub fn bias(&self) -> Option<&ParamRef> {
        self.bias.as_ref()
    }
}

impl Module for Linear {
    fn forward(&self, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Var> {
        let w = g.bind(&self.weight);
        match &self.bias {
            Some(b) => {
                let bv = g.bind(b);
                g.linear(x, w, bv)
            }
            None => g.matmul(x, w),
        }
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            v.push(b.clone());
        }
        v
    }
}

impl LinearLike for Linear {
    fn in_features(&self) -> usize {
        self.in_features
    }
    fn out_features(&self) -> usize {
        self.out_features
    }
}

/// 2-D convolution with the paper's weight layout `𝒲:[K, K, I, O]`,
/// square kernel, symmetric stride/padding and optional bias.
pub struct Conv2d {
    weight: ParamRef,
    bias: Option<ParamRef>,
    in_channels: usize,
    out_channels: usize,
    spec: ConvSpec,
}

impl Conv2d {
    /// He-initialised convolution.
    pub fn new(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let spec = ConvSpec::new(kernel, stride, padding)?;
        let fan_in = in_channels * kernel * kernel;
        let w = init::he_normal(&[kernel, kernel, in_channels, out_channels], fan_in, rng);
        Ok(Conv2d {
            weight: ParamRef::new(format!("{name}.weight"), w),
            bias: Some(ParamRef::new(
                format!("{name}.bias"),
                Tensor::zeros(&[out_channels]),
            )),
            in_channels,
            out_channels,
            spec,
        })
    }

    /// Convolution without bias (conventional before batch norm).
    pub fn new_no_bias(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let mut c = Self::new(name, in_channels, out_channels, kernel, stride, padding, rng)?;
        c.bias = None;
        Ok(c)
    }

    /// The weight parameter (shared cell).
    pub fn weight(&self) -> &ParamRef {
        &self.weight
    }

    /// The bias parameter, if present.
    pub fn bias(&self) -> Option<&ParamRef> {
        self.bias.as_ref()
    }
}

impl Module for Conv2d {
    fn forward(&self, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Var> {
        let w = g.bind(&self.weight);
        let y = g.conv2d(x, w, self.spec, self.spec)?;
        match &self.bias {
            Some(b) => {
                let bv = g.bind(b);
                // [O] → [O,1,1] so broadcasting aligns with [N,O,OH,OW].
                let bv = g.reshape(bv, &[self.out_channels, 1, 1])?;
                g.add(y, bv)
            }
            None => Ok(y),
        }
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            v.push(b.clone());
        }
        v
    }
}

impl ConvLike for Conv2d {
    fn in_channels(&self) -> usize {
        self.in_channels
    }
    fn out_channels(&self) -> usize {
        self.out_channels
    }
    fn spec(&self) -> ConvSpec {
        self.spec
    }
}

/// Batch normalisation over `(N, H, W)` per channel, with running
/// statistics for inference.
///
/// The running statistics are *buffers*: frozen [`ParamRef`]s updated in
/// place during training forwards, excluded from [`Module::params`] (so
/// optimisers and `set_trainable` never touch them) but included in
/// [`Module::buffers`] so checkpoints persist them.
pub struct BatchNorm2d {
    gamma: ParamRef,
    beta: ParamRef,
    running_mean: ParamRef,
    running_var: ParamRef,
    momentum: f32,
    eps: f32,
    channels: usize,
}

impl BatchNorm2d {
    /// Standard BN with `momentum = 0.1`, `eps = 1e-5`.
    pub fn new(name: &str, channels: usize) -> Self {
        BatchNorm2d {
            gamma: ParamRef::new(format!("{name}.gamma"), Tensor::ones(&[channels])),
            beta: ParamRef::new(format!("{name}.beta"), Tensor::zeros(&[channels])),
            running_mean: ParamRef::frozen(
                format!("{name}.running_mean"),
                Tensor::zeros(&[channels]),
            ),
            running_var: ParamRef::frozen(
                format!("{name}.running_var"),
                Tensor::ones(&[channels]),
            ),
            momentum: 0.1,
            eps: 1e-5,
            channels,
        }
    }

    /// Snapshot of the running statistics `(mean, var)`.
    pub fn running_stats(&self) -> (Tensor, Tensor) {
        (self.running_mean.value(), self.running_var.value())
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Var> {
        let gamma = g.bind(&self.gamma);
        let beta = g.bind(&self.beta);
        if g.is_training() {
            let (y, mean, var) = g.batch_norm2d(x, gamma, beta, self.eps)?;
            // Exponential moving average of the batch statistics.
            let m = self.momentum;
            let rm = ops::add_scaled(&ops::scale(&self.running_mean.value(), 1.0 - m), &mean, m)?;
            let rv = ops::add_scaled(&ops::scale(&self.running_var.value(), 1.0 - m), &var, m)?;
            self.running_mean.update_value(|t| *t = rm);
            self.running_var.update_value(|t| *t = rv);
            Ok(y)
        } else {
            // y = γ·(x − μ)·invstd + β with fixed running statistics.
            let c = self.channels;
            let mean = self.running_mean.value().reshape(&[c, 1, 1])?;
            let eps = self.eps;
            let invstd = ops::map(&self.running_var.value(), move |v| 1.0 / (v + eps).sqrt())
                .reshape(&[c, 1, 1])?;
            let mv = g.input(mean);
            let sv = g.input(invstd);
            let centered = g.sub(x, mv)?;
            let scaled = g.mul(centered, sv)?;
            let gamma = g.reshape(gamma, &[c, 1, 1])?;
            let beta = g.reshape(beta, &[c, 1, 1])?;
            let y = g.mul(scaled, gamma)?;
            g.add(y, beta)
        }
    }

    fn params(&self) -> Vec<ParamRef> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn buffers(&self) -> Vec<ParamRef> {
        vec![self.running_mean.clone(), self.running_var.clone()]
    }
}

/// Layer normalisation over the last axis with affine parameters.
pub struct LayerNorm {
    gamma: ParamRef,
    beta: ParamRef,
    eps: f32,
}

impl LayerNorm {
    /// LN over a last axis of extent `dim`.
    pub fn new(name: &str, dim: usize) -> Self {
        LayerNorm {
            gamma: ParamRef::new(format!("{name}.gamma"), Tensor::ones(&[dim])),
            beta: ParamRef::new(format!("{name}.beta"), Tensor::zeros(&[dim])),
            eps: 1e-5,
        }
    }
}

impl Module for LayerNorm {
    fn forward(&self, g: &mut Graph, x: Var, _ctx: &Ctx) -> Result<Var> {
        let gamma = g.bind(&self.gamma);
        let beta = g.bind(&self.beta);
        g.layer_norm(x, gamma, beta, self.eps)
    }

    fn params(&self) -> Vec<ParamRef> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Validates a `[N, I]` activation against a layer's expected input width.
pub fn check_in_features(x_dims: &[usize], expected: usize, what: &str) -> Result<()> {
    if x_dims.len() != 2 || x_dims[1] != expected {
        return Err(TensorError::InvalidArgument(format!(
            "{what}: expected [N, {expected}] input, got {x_dims:?}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_tensor::approx_eq;

    fn rng() -> StdRng {
        init::rng(42)
    }

    #[test]
    fn linear_forward_and_params() {
        let l = Linear::new("fc", 3, 2, &mut rng());
        assert_eq!(l.in_features(), 3);
        assert_eq!(l.out_features(), 2);
        assert_eq!(l.num_params(), 3 * 2 + 2);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[4, 3]));
        let y = l.forward(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(y), vec![4, 2]);
    }

    #[test]
    fn linear_no_bias() {
        let l = Linear::new_no_bias("fc", 3, 2, &mut rng());
        assert_eq!(l.num_params(), 6);
        assert!(l.bias().is_none());
    }

    #[test]
    fn linear_trains_toward_target() {
        // One-step sanity: gradient step reduces MSE.
        let l = Linear::new("fc", 2, 1, &mut rng());
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let t = Tensor::from_vec(vec![1.0, -1.0], &[2, 1]).unwrap();
        let loss_at = |l: &Linear| {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let y = l.forward(&mut g, xv, &Ctx::none()).unwrap();
            let tv = g.input(t.clone());
            let d = g.sub(y, tv).unwrap();
            let d2 = g.mul(d, d).unwrap();
            let loss = g.mean_all(d2).unwrap();
            (g, loss)
        };
        let (mut g, loss) = loss_at(&l);
        let before = g.value(loss).item().unwrap();
        g.backward(loss).unwrap();
        g.flush_grads();
        for p in l.params() {
            let gr = p.grad();
            p.update_value(|v| {
                for (a, &b) in v.data_mut().iter_mut().zip(gr.data()) {
                    *a -= 0.1 * b;
                }
            });
        }
        let (g2, loss2) = loss_at(&l);
        let after = g2.value(loss2).item().unwrap();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn conv2d_forward_shape_and_bias_broadcast() {
        let c = Conv2d::new("conv", 3, 5, 3, 1, 1, &mut rng()).unwrap();
        assert_eq!(c.in_channels(), 3);
        assert_eq!(c.out_channels(), 5);
        assert_eq!(c.spec().kernel, 3);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[2, 3, 8, 8]));
        let y = c.forward(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(y), vec![2, 5, 8, 8]);
        // Zero input → output equals broadcast bias (zero-init) = 0.
        assert!(g.value(y).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn conv2d_stride_changes_spatial_dims() {
        let c = Conv2d::new_no_bias("conv", 2, 4, 3, 2, 1, &mut rng()).unwrap();
        assert_eq!(c.spec(), ConvSpec::new(3, 2, 1).unwrap());
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[1, 2, 8, 8]));
        let y = c.forward(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(y), vec![1, 4, 4, 4]);
    }

    #[test]
    fn batch_norm_train_vs_eval() {
        let bn = BatchNorm2d::new("bn", 2);
        let mut rng = rng();
        let xv = init::normal(&[4, 2, 3, 3], 5.0, 2.0, &mut rng);

        // Training: output is normalised; running stats move toward batch.
        let mut g = Graph::new();
        let x = g.input(xv.clone());
        let y = bn.forward(&mut g, x, &Ctx::none()).unwrap();
        let out = g.value(y);
        let m = ops::mean_all(&out);
        assert!(m.abs() < 0.1, "train-mode output mean {m}");
        let (rm, rv) = bn.running_stats();
        assert!(rm.data().iter().all(|&v| v > 0.0), "running mean moved");
        assert!(rv.data().iter().any(|&v| (v - 1.0).abs() > 1e-3));

        // Inference: uses running stats, no stat mutation.
        let mut g = Graph::inference();
        let x = g.input(xv);
        let y = bn.forward(&mut g, x, &Ctx::none()).unwrap();
        let (rm2, _) = bn.running_stats();
        assert!(approx_eq(&rm, &rm2, 0.0), "eval must not touch stats");
        assert_eq!(g.dims(y), vec![4, 2, 3, 3]);
    }

    #[test]
    fn batch_norm_eval_matches_train_after_convergence() {
        // Feed the same batch many times; running stats converge to batch
        // stats, so eval output approaches train output.
        let bn = BatchNorm2d::new("bn", 1);
        let mut r = rng();
        let xv = init::normal(&[8, 1, 4, 4], -3.0, 1.5, &mut r);
        let mut train_out = None;
        for _ in 0..200 {
            let mut g = Graph::new();
            let x = g.input(xv.clone());
            let y = bn.forward(&mut g, x, &Ctx::none()).unwrap();
            train_out = Some(g.value(y));
        }
        let mut g = Graph::inference();
        let x = g.input(xv);
        let y = bn.forward(&mut g, x, &Ctx::none()).unwrap();
        assert!(approx_eq(&g.value(y), &train_out.unwrap(), 0.05));
    }

    #[test]
    fn layer_norm_layer() {
        let ln = LayerNorm::new("ln", 4);
        assert_eq!(ln.num_params(), 8);
        let mut g = Graph::new();
        let x = g.input(Tensor::arange(0.0, 1.0, 8).reshape(&[2, 4]).unwrap());
        let y = ln.forward(&mut g, x, &Ctx::none()).unwrap();
        let v = g.value(y);
        for l in 0..2 {
            let s: f32 = v.data()[l * 4..(l + 1) * 4].iter().sum();
            assert!(s.abs() < 1e-4);
        }
    }

    #[test]
    fn check_in_features_helper() {
        assert!(check_in_features(&[4, 3], 3, "fc").is_ok());
        assert!(check_in_features(&[4, 2], 3, "fc").is_err());
        assert!(check_in_features(&[4], 4, "fc").is_err());
    }
}
