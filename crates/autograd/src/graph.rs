//! The tape: node arena, forward builder methods and the op vocabulary.
//!
//! Every node carries one bit, **gradient demand**, decided when it is
//! pushed: a leaf has demand iff it is a [`Graph::variable`] or a trainable
//! [`Graph::bind`] on a training tape; an op node has demand iff any of its
//! operands (`Op::parents`) has. [`Graph::backward`] visits only nodes with
//! demand and builds only the operand gradients that have it, and a builder
//! saves an activation (`xhat`, `probs`) only for a
//! node whose backward will read it. Data — images, features, constants —
//! enters through [`Graph::input`] and is never differentiated.

use crate::param::ParamRef;
use crate::Result;
use metalora_tensor::contract::{Lowering, Plan};
use metalora_tensor::conv::{self, ConvSpec};
use metalora_tensor::ops::GemmDesc;
use metalora_tensor::{ops, Tensor, TensorError};

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the
/// graph that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Everything the backward pass needs to know about one op application.
///
/// Variants store saved activations where recomputation would be wasteful
/// (softmax probabilities, normalisation statistics) — as `Option`s,
/// `None` when no operand that would read them has gradient demand.
#[derive(Debug)]
pub(crate) enum Op {
    /// Input or bound parameter.
    Leaf,
    /// Elementwise `a + b` with broadcasting.
    Add(Var, Var),
    /// Elementwise `a - b` with broadcasting.
    Sub(Var, Var),
    /// Hadamard `a ⊙ b` with broadcasting.
    Mul(Var, Var),
    /// `s · a`.
    Scale(Var, f32),
    /// Matrix product `a · b`, per batch slice for rank-3 operands.
    Matmul(Var, Var),
    /// Dense layer `x · w + b`, the bias added in the GEMM's store.
    Linear(Var, Var, Var),
    /// Softmax over the last axis (stores the output).
    Softmax(Var),
    /// Reshape (stores the input shape for the backward reshape).
    Reshape(Var, Vec<usize>),
    /// Axis permutation (stores the forward permutation).
    Permute(Var, Vec<usize>),
    /// `max(x, 0)`.
    Relu(Var),
    /// GELU, tanh approximation.
    Gelu(Var),
    /// Hyperbolic tangent (stores the output).
    Tanh(Var),
    /// Mean softmax cross-entropy against integer labels; stores softmax
    /// probabilities for the fused backward.
    SoftmaxCrossEntropy {
        logits: Var,
        labels: Vec<usize>,
        probs: Option<Tensor>,
    },
    /// Layer norm over the last axis with affine parameters.
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        saved: Option<NormSaved>,
    },
    /// Batch norm over `(N, H, W)` per channel of `[N, C, H, W]`.
    BatchNorm2d {
        x: Var,
        gamma: Var,
        beta: Var,
        saved: Option<NormSaved>,
    },
    /// 2-D convolution; saves nothing — `dW` rebuilds its patches from the
    /// input `x`, which the tape holds anyway.
    Conv2d {
        x: Var,
        w: Var,
        h_spec: ConvSpec,
        w_spec: ConvSpec,
    },
    /// `[N, C, H, W] → [N, C]` spatial mean.
    GlobalAvgPool2d(Var),
    /// Mean over one axis.
    MeanAxis(Var, usize),
    /// Mean of all elements → scalar.
    MeanAll(Var),
}

/// What a normalisation saves for its backward: the normalised input and
/// the per-lane (layer norm) or per-channel (batch norm) `1/σ`.
#[derive(Debug)]
pub(crate) struct NormSaved {
    pub(crate) xhat: Tensor,
    pub(crate) invstd: Tensor,
}

impl Op {
    /// The operands of this op application (at most three). Gradient
    /// demand is inherited along exactly these edges.
    pub(crate) fn parents(&self) -> impl Iterator<Item = Var> {
        let p = match self {
            Op::Leaf => [None; 3],
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Matmul(a, b) => {
                [Some(*a), Some(*b), None]
            }
            Op::Conv2d { x, w, .. } => [Some(*x), Some(*w), None],
            Op::Linear(x, w, b) => [Some(*x), Some(*w), Some(*b)],
            Op::LayerNorm { x, gamma, beta, .. } | Op::BatchNorm2d { x, gamma, beta, .. } => {
                [Some(*x), Some(*gamma), Some(*beta)]
            }
            Op::Scale(a, _)
            | Op::Softmax(a)
            | Op::Reshape(a, _)
            | Op::Permute(a, _)
            | Op::Relu(a)
            | Op::Gelu(a)
            | Op::Tanh(a)
            | Op::GlobalAvgPool2d(a)
            | Op::MeanAxis(a, _)
            | Op::MeanAll(a)
            | Op::SoftmaxCrossEntropy { logits: a, .. } => [Some(*a), None, None],
        };
        p.into_iter().flatten()
    }
}

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) grad: Option<Tensor>,
    pub(crate) op: Op,
    /// Gradient demand: whether `backward` must differentiate this node.
    pub(crate) demand: bool,
}

/// A single forward/backward tape.
///
/// Typical step:
/// ```
/// use metalora_autograd::{Graph, ParamRef};
/// use metalora_tensor::Tensor;
///
/// let w = ParamRef::new("w", Tensor::ones(&[3, 2]));
/// let mut g = Graph::new();
/// let x = g.input(Tensor::ones(&[4, 3]));
/// let wv = g.bind(&w);
/// let y = g.matmul(x, wv).unwrap();
/// let loss = g.mean_all(y).unwrap();
/// g.backward(loss).unwrap();
/// g.flush_grads();
/// assert_eq!(w.grad().dims(), &[3, 2]);
/// ```
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    /// Parameters bound this step: `(node index, handle)`.
    pub(crate) bound: Vec<(usize, ParamRef)>,
    /// Training-mode flag consumed by the batch-norm wrapper upstream.
    training: bool,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty tape in training mode.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            bound: Vec::new(),
            training: true,
        }
    }

    /// Creates an empty tape in inference mode.
    pub fn inference() -> Self {
        Graph {
            nodes: Vec::new(),
            bound: Vec::new(),
            training: false,
        }
    }

    /// Whether the tape was created in training mode.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether any of `vars` has gradient demand — the one inheritance
    /// rule, asked by [`Graph::push`] and by the builders that decide what
    /// to save.
    fn demand(&self, vars: impl IntoIterator<Item = Var>) -> bool {
        vars.into_iter().any(|v| self.nodes[v.0].demand)
    }

    fn record(&mut self, value: Tensor, op: Op, demand: bool) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            demand,
        });
        Var(self.nodes.len() - 1)
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let demand = self.demand(op.parents());
        self.record(value, op, demand)
    }

    /// A leaf; an inference tape has no demand anywhere.
    fn leaf(&mut self, value: Tensor, demand: bool) -> Var {
        self.record(value, Op::Leaf, demand && self.training)
    }

    /// Adds a *data* leaf: an image batch, a feature matrix, a constant.
    /// It has no gradient demand — nothing is back-propagated into it and
    /// [`Graph::grad`] reads zeros. Use [`Graph::variable`] for a leaf to
    /// differentiate.
    pub fn input(&mut self, value: Tensor) -> Var {
        self.leaf(value, false)
    }

    /// Adds a differentiable leaf: [`Graph::backward`] fills its gradient.
    pub fn variable(&mut self, value: Tensor) -> Var {
        self.leaf(value, true)
    }

    /// Binds a shared parameter as a leaf; its gradient is delivered back
    /// by [`Graph::flush_grads`]. A frozen parameter is bound as data:
    /// no gradient is built for it, and a subgraph of frozen parameters
    /// and [`Graph::input`]s is not differentiated at all.
    pub fn bind(&mut self, p: &ParamRef) -> Var {
        let v = self.leaf(p.value(), p.trainable());
        if p.trainable() {
            self.bound.push((v.0, p.clone()));
        }
        v
    }

    /// Value of a node (clone).
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes[v.0].value.clone()
    }

    /// Shape of a node's value.
    pub fn dims(&self, v: Var) -> Vec<usize> {
        self.nodes[v.0].value.dims().to_vec()
    }

    /// Gradient of a node after [`Graph::backward`]; zeros if the node did
    /// not participate or has no gradient demand.
    pub fn grad(&self, v: Var) -> Tensor {
        match &self.nodes[v.0].grad {
            Some(g) => g.clone(),
            None => Tensor::zeros(self.nodes[v.0].value.dims()),
        }
    }

    // ---- elementwise algebra -------------------------------------------

    /// `a + b` (broadcasting).
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = ops::add(&self.nodes[a.0].value, &self.nodes[b.0].value)?;
        Ok(self.push(v, Op::Add(a, b)))
    }

    /// `a - b` (broadcasting).
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = ops::sub(&self.nodes[a.0].value, &self.nodes[b.0].value)?;
        Ok(self.push(v, Op::Sub(a, b)))
    }

    /// `a ⊙ b` (broadcasting).
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = ops::mul(&self.nodes[a.0].value, &self.nodes[b.0].value)?;
        Ok(self.push(v, Op::Mul(a, b)))
    }

    /// `s · a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = ops::scale(&self.nodes[a.0].value, s);
        self.push(v, Op::Scale(a, s))
    }

    // ---- linear algebra -------------------------------------------------

    /// `a · b` for matrices, or `a[b]·b[b]` per slice for rank-3 operands
    /// sharing the leading batch axis (multi-head attention's products).
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = ops::matmul(&self.nodes[a.0].value, &self.nodes[b.0].value)?;
        Ok(self.push(v, Op::Matmul(a, b)))
    }

    /// Dense layer `x·W + b` for `x:[N,I]`, `W:[I,O]`, `b:[O]`: one node,
    /// the bias added in the GEMM's store — the call `nn::infer::linear`
    /// makes, so tape ≡ serve holds by construction. It is bitwise the
    /// `matmul` + broadcast `add` pair: each element is the same full-`k`
    /// accumulation followed by the same single add of `b[j]`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Result<Var> {
        let (wv, bv) = (&self.nodes[w.0].value, &self.nodes[b.0].value);
        // `gemm` checks only the bias length: a `[O, 1]` bias, which the
        // broadcast add read as a column, must not pass as a row.
        if wv.rank() != 2 || bv.dims() != [wv.dims()[1]] {
            return Err(TensorError::ShapeMismatch {
                op: "linear bias",
                lhs: wv.dims().to_vec(),
                rhs: bv.dims().to_vec(),
            });
        }
        let v = ops::gemm(&GemmDesc::new(&self.nodes[x.0].value, wv).epilogue(Some(bv)))?;
        Ok(self.push(v, Op::Linear(x, w, b)))
    }

    /// Softmax over the last axis (any rank ≥ 1), numerically stabilised.
    pub fn softmax(&mut self, a: Var) -> Result<Var> {
        let x = &self.nodes[a.0].value;
        if x.rank() == 0 {
            return Err(TensorError::InvalidArgument(
                "softmax on a scalar".into(),
            ));
        }
        let c = *x.dims().last().expect("rank >= 1");
        if c == 0 {
            return Err(TensorError::InvalidArgument(
                "softmax over empty axis".into(),
            ));
        }
        let lanes = x.len() / c;
        let mut out = Tensor::zeros(x.dims());
        for l in 0..lanes {
            let row = &x.data()[l * c..(l + 1) * c];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            let dst = &mut out.data_mut()[l * c..(l + 1) * c];
            for (d, &v) in dst.iter_mut().zip(row) {
                *d = (v - m).exp();
                denom += *d;
            }
            for d in dst.iter_mut() {
                *d /= denom;
            }
        }
        Ok(self.push(out, Op::Softmax(a)))
    }

    /// Reshape to `dims`.
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Result<Var> {
        let v = self.nodes[a.0].value.reshaped(dims)?;
        let from = self.nodes[a.0].value.dims().to_vec();
        Ok(self.push(v, Op::Reshape(a, from)))
    }

    /// Permute axes.
    pub fn permute(&mut self, a: Var, perm: &[usize]) -> Result<Var> {
        let v = ops::permute(&self.nodes[a.0].value, perm)?;
        Ok(self.push(v, Op::Permute(a, perm.to_vec())))
    }

    // ---- activations -----------------------------------------------------

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = ops::map(&self.nodes[a.0].value, |x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// GELU (tanh approximation): [`ops::gelu`], the vector body
    /// tape-free inference runs too, so both are bitwise equal. Its
    /// backward is [`ops::gelu_backward`].
    pub fn gelu(&mut self, a: Var) -> Var {
        let v = ops::gelu(&self.nodes[a.0].value);
        self.push(v, Op::Gelu(a))
    }

    /// tanh: [`ops::tanh`], bitwise fdlibm's `tanhf` on every host and
    /// SIMD level, and the body tape-free inference runs too.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = ops::tanh(&self.nodes[a.0].value);
        self.push(v, Op::Tanh(a))
    }

    // ---- losses -----------------------------------------------------------

    /// Mean softmax cross-entropy of logits `[N, C]` against integer
    /// labels. Returns a scalar node.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Result<Var> {
        let l = &self.nodes[logits.0].value;
        if l.rank() != 2 {
            return Err(TensorError::InvalidArgument(
                "softmax_cross_entropy expects [N, C] logits".into(),
            ));
        }
        let (n, c) = (l.dims()[0], l.dims()[1]);
        if labels.len() != n {
            return Err(TensorError::InvalidArgument(format!(
                "{} labels for batch of {n}",
                labels.len()
            )));
        }
        if let Some(&bad) = labels.iter().find(|&&y| y >= c) {
            return Err(TensorError::IndexOutOfRange { index: bad, len: c });
        }
        let mut probs = self.demand([logits]).then(|| Tensor::zeros(&[n, c]));
        let mut loss = 0.0f32;
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let row = &l.data()[i * c..(i + 1) * c];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for &x in row {
                denom += (x - m).exp();
            }
            let log_denom = denom.ln() + m;
            if let Some(probs) = &mut probs {
                for (p, &x) in probs.data_mut()[i * c..(i + 1) * c].iter_mut().zip(row) {
                    *p = (x - log_denom).exp();
                }
            }
            loss -= l.data()[i * c + labels[i]] - log_denom;
        }
        loss /= n as f32;
        Ok(self.push(
            Tensor::scalar(loss),
            Op::SoftmaxCrossEntropy {
                logits,
                labels: labels.to_vec(),
                probs,
            },
        ))
    }

    // ---- normalisation ------------------------------------------------

    /// Layer norm over the last axis with affine `gamma`/`beta`
    /// (both `[C]` where `C` is the last-axis extent).
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Result<Var> {
        let xv = &self.nodes[x.0].value;
        if xv.rank() < 1 {
            return Err(TensorError::InvalidArgument(
                "layer_norm needs rank >= 1".into(),
            ));
        }
        let c = *xv.dims().last().expect("rank >= 1");
        let gv = &self.nodes[gamma.0].value;
        let bv = &self.nodes[beta.0].value;
        if gv.dims() != [c] || bv.dims() != [c] {
            return Err(TensorError::ShapeMismatch {
                op: "layer_norm affine",
                lhs: gv.dims().to_vec(),
                rhs: vec![c],
            });
        }
        let lanes = xv.len() / c;
        let mut saved = self.demand([x, gamma, beta]).then(|| NormSaved {
            xhat: Tensor::zeros(xv.dims()),
            invstd: Tensor::zeros(&[lanes]),
        });
        let mut out = Tensor::zeros(xv.dims());
        for l in 0..lanes {
            let row = &xv.data()[l * c..(l + 1) * c];
            let mean = row.iter().sum::<f32>() / c as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / c as f32;
            let istd = 1.0 / (var + eps).sqrt();
            if let Some(s) = &mut saved {
                s.invstd.data_mut()[l] = istd;
            }
            #[allow(clippy::needless_range_loop)]
            for j in 0..c {
                let xh = (row[j] - mean) * istd;
                if let Some(s) = &mut saved {
                    s.xhat.data_mut()[l * c + j] = xh;
                }
                out.data_mut()[l * c + j] = xh * gv.data()[j] + bv.data()[j];
            }
        }
        Ok(self.push(
            out,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                saved,
            },
        ))
    }

    /// Batch norm of `[N, C, H, W]` over `(N, H, W)` per channel, with
    /// affine `gamma`/`beta` of shape `[C]`. Returns
    /// `(output, batch_mean, batch_var)` so callers can maintain running
    /// statistics for inference.
    pub fn batch_norm2d(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    ) -> Result<(Var, Tensor, Tensor)> {
        let xv = &self.nodes[x.0].value;
        if xv.rank() != 4 {
            return Err(TensorError::InvalidArgument(
                "batch_norm2d expects [N, C, H, W]".into(),
            ));
        }
        let (n, c, h, w) = (xv.dims()[0], xv.dims()[1], xv.dims()[2], xv.dims()[3]);
        let gv = &self.nodes[gamma.0].value;
        let bv = &self.nodes[beta.0].value;
        if gv.dims() != [c] || bv.dims() != [c] {
            return Err(TensorError::ShapeMismatch {
                op: "batch_norm2d affine",
                lhs: gv.dims().to_vec(),
                rhs: vec![c],
            });
        }
        let m = (n * h * w).max(1) as f32;
        let mut mean = Tensor::zeros(&[c]);
        let mut var = Tensor::zeros(&[c]);
        for ci in 0..c {
            let mut acc = 0.0f32;
            for ni in 0..n {
                let base = ((ni * c + ci) * h) * w;
                acc += xv.data()[base..base + h * w].iter().sum::<f32>();
            }
            mean.data_mut()[ci] = acc / m;
        }
        for ci in 0..c {
            let mu = mean.data()[ci];
            let mut acc = 0.0f32;
            for ni in 0..n {
                let base = ((ni * c + ci) * h) * w;
                acc += xv.data()[base..base + h * w]
                    .iter()
                    .map(|&v| (v - mu) * (v - mu))
                    .sum::<f32>();
            }
            var.data_mut()[ci] = acc / m;
        }
        let mut saved = self.demand([x, gamma, beta]).then(|| NormSaved {
            xhat: Tensor::zeros(xv.dims()),
            invstd: Tensor::zeros(&[c]),
        });
        let mut out = Tensor::zeros(xv.dims());
        for ci in 0..c {
            let istd = 1.0 / (var.data()[ci] + eps).sqrt();
            if let Some(s) = &mut saved {
                s.invstd.data_mut()[ci] = istd;
            }
            let (mu, gam, bet) = (mean.data()[ci], gv.data()[ci], bv.data()[ci]);
            for ni in 0..n {
                let base = ((ni * c + ci) * h) * w;
                for k in 0..h * w {
                    let xh = (xv.data()[base + k] - mu) * istd;
                    if let Some(s) = &mut saved {
                        s.xhat.data_mut()[base + k] = xh;
                    }
                    out.data_mut()[base + k] = xh * gam + bet;
                }
            }
        }
        let v = self.push(
            out,
            Op::BatchNorm2d {
                x,
                gamma,
                beta,
                saved,
            },
        );
        Ok((v, mean, var))
    }

    // ---- convolution & pooling ------------------------------------------

    /// 2-D convolution of `x:[N,C,H,W]` with paper-layout weight
    /// `w:[KH,KW,C,O]`.
    pub fn conv2d(&mut self, x: Var, w: Var, h_spec: ConvSpec, w_spec: ConvSpec) -> Result<Var> {
        let out = conv::conv2d(&self.nodes[x.0].value, &self.nodes[w.0].value, h_spec, w_spec)?;
        Ok(self.push(out, Op::Conv2d { x, w, h_spec, w_spec }))
    }

    /// Global average pooling `[N,C,H,W] → [N,C]`.
    pub fn global_avg_pool2d(&mut self, x: Var) -> Result<Var> {
        let xv = &self.nodes[x.0].value;
        if xv.rank() != 4 {
            return Err(TensorError::InvalidArgument(
                "global_avg_pool2d expects [N, C, H, W]".into(),
            ));
        }
        let (n, c, h, w) = (xv.dims()[0], xv.dims()[1], xv.dims()[2], xv.dims()[3]);
        let hw = (h * w).max(1) as f32;
        let mut out = Tensor::zeros(&[n, c]);
        for ni in 0..n {
            for ci in 0..c {
                let base = ((ni * c + ci) * h) * w;
                out.data_mut()[ni * c + ci] =
                    xv.data()[base..base + h * w].iter().sum::<f32>() / hw;
            }
        }
        Ok(self.push(out, Op::GlobalAvgPool2d(x)))
    }

    // ---- reductions -----------------------------------------------------

    /// Mean over one axis.
    pub fn mean_axis(&mut self, a: Var, axis: usize) -> Result<Var> {
        let v = ops::mean_axis(&self.nodes[a.0].value, axis)?;
        Ok(self.push(v, Op::MeanAxis(a, axis)))
    }

    /// Mean of all elements → scalar node.
    pub fn mean_all(&mut self, a: Var) -> Result<Var> {
        let v = Tensor::scalar(ops::mean_all(&self.nodes[a.0].value));
        Ok(self.push(v, Op::MeanAll(a)))
    }

    // ---- compound helpers -------------------------------------------------

    /// Contracts a tensor network given as a label `spec`
    /// (`"ni,xiy,yoz,nzx->no"`): the plan
    /// `metalora_tensor::contract::contract_spec` would run, recorded as
    /// `permute` / `reshape` / `matmul` nodes — the same `ops::`
    /// calls in the same order, hence bitwise the tape-free result.
    pub fn contract(&mut self, spec: &str, operands: &[Var]) -> Result<Var> {
        let dims: Vec<&[usize]> = operands.iter().map(|v| self.nodes[v.0].value.dims()).collect();
        let plan = Plan::new(spec, &dims)?;
        plan.run(self, operands.iter().copied())
    }
}

impl Lowering for Graph {
    type Val = Var;

    fn permute(&mut self, v: Var, perm: &[usize]) -> Result<Var> {
        Graph::permute(self, v, perm)
    }
    fn reshape(&mut self, v: Var, dims: &[usize]) -> Result<Var> {
        Graph::reshape(self, v, dims)
    }
    fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        Graph::matmul(self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_tensor::approx_eq;

    #[test]
    fn forward_values_basic_ops() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let b = g.input(Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap());
        let s = g.add(a, b).unwrap();
        assert_eq!(g.value(s).data(), &[4.0, 7.0]);
        let d = g.sub(b, a).unwrap();
        assert_eq!(g.value(d).data(), &[2.0, 3.0]);
        let m = g.mul(a, b).unwrap();
        assert_eq!(g.value(m).data(), &[3.0, 10.0]);
        let sc = g.scale(a, -2.0);
        assert_eq!(g.value(sc).data(), &[-2.0, -4.0]);
        assert_eq!(g.len(), 6);
        assert!(!g.is_empty());
    }

    #[test]
    fn bind_respects_trainable() {
        let p = ParamRef::new("w", Tensor::ones(&[1]));
        let f = ParamRef::frozen("c", Tensor::ones(&[1]));
        let mut g = Graph::new();
        g.bind(&p);
        g.bind(&f);
        assert_eq!(g.bound.len(), 1);
    }

    #[test]
    fn softmax_ce_forward_matches_manual() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::from_vec(vec![1.0, 2.0, 0.5, 0.1, 0.1, 3.0], &[2, 3]).unwrap());
        let loss = g.softmax_cross_entropy(logits, &[1, 2]).unwrap();
        // Manual: row softmax log-probs.
        let lse1 = (1.0f32.exp() + 2.0f32.exp() + 0.5f32.exp()).ln();
        let lse2 = (0.1f32.exp() + 0.1f32.exp() + 3.0f32.exp()).ln();
        let expect = ((lse1 - 2.0) + (lse2 - 3.0)) / 2.0;
        assert!((g.value(loss).item().unwrap() - expect).abs() < 1e-5);
    }

    #[test]
    fn softmax_ce_validates() {
        let mut g = Graph::new();
        let l = g.input(Tensor::zeros(&[2, 3]));
        assert!(g.softmax_cross_entropy(l, &[0]).is_err());
        assert!(g.softmax_cross_entropy(l, &[0, 3]).is_err());
        let v = g.input(Tensor::zeros(&[3]));
        assert!(g.softmax_cross_entropy(v, &[0, 1, 2]).is_err());
    }

    #[test]
    fn layer_norm_normalises_lanes() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let gamma = g.input(Tensor::ones(&[2]));
        let beta = g.input(Tensor::zeros(&[2]));
        let y = g.layer_norm(x, gamma, beta, 1e-5).unwrap();
        let v = g.value(y);
        // Each lane normalised to mean 0.
        assert!((v.data()[0] + v.data()[1]).abs() < 1e-5);
        assert!((v.data()[2] + v.data()[3]).abs() < 1e-5);
        assert!(v.data()[1] > 0.0 && v.data()[0] < 0.0);
    }

    #[test]
    fn batch_norm_normalises_channels() {
        let mut g = Graph::new();
        let x = g.input(Tensor::arange(0.0, 1.0, 16).reshape(&[2, 2, 2, 2]).unwrap());
        let gamma = g.input(Tensor::ones(&[2]));
        let beta = g.input(Tensor::zeros(&[2]));
        let (y, mean, var) = g.batch_norm2d(x, gamma, beta, 1e-5).unwrap();
        let v = g.value(y);
        // Channel 0 entries: 0..3 and 8..11 → mean 5.5.
        assert!((mean.data()[0] - 5.5).abs() < 1e-5);
        assert!(var.data()[0] > 0.0);
        // Output channel means ≈ 0.
        let mut acc = 0.0;
        for ni in 0..2 {
            for k in 0..4 {
                acc += v.data()[ni * 8 + k];
            }
        }
        assert!(acc.abs() < 1e-4);
    }

    #[test]
    fn conv2d_forward_matches_tensor_kernel() {
        let mut rng = metalora_tensor::init::rng(1);
        let xv = metalora_tensor::init::uniform(&[2, 3, 5, 5], -1.0, 1.0, &mut rng);
        let wv = metalora_tensor::init::uniform(&[3, 3, 3, 4], -1.0, 1.0, &mut rng);
        let spec = ConvSpec::new(3, 1, 1).unwrap();
        let mut g = Graph::new();
        let x = g.input(xv.clone());
        let w = g.input(wv.clone());
        let y = g.conv2d(x, w, spec, spec).unwrap();
        let oracle = conv::conv2d(&xv, &wv, spec, spec).unwrap();
        assert!(approx_eq(&g.value(y), &oracle, 1e-5));
    }

    #[test]
    fn global_avg_pool_values() {
        let mut g = Graph::new();
        let x = g.input(Tensor::arange(0.0, 1.0, 8).reshape(&[1, 2, 2, 2]).unwrap());
        let y = g.global_avg_pool2d(x).unwrap();
        assert_eq!(g.value(y).data(), &[1.5, 5.5]);
    }

    #[test]
    fn gelu_shape_and_known_points() {
        let at = |x: f32| ops::gelu(&Tensor::scalar(x)).data()[0];
        assert!(at(0.0).abs() < 1e-7);
        assert!((at(10.0) - 10.0).abs() < 1e-3);
        assert!(at(-10.0).abs() < 1e-3);
        // Derivative at 0 is 0.5.
        let one = Tensor::scalar(1.0);
        let slope = ops::gelu_backward(&Tensor::scalar(0.0), &one).unwrap().data()[0];
        assert!((slope - 0.5).abs() < 1e-5);
    }
}
