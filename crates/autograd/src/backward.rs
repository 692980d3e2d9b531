//! The reverse sweep: gradient rules for every op in [`crate::graph::Op`].
//!
//! The sweep differentiates only what has gradient demand (see
//! [`crate::graph`]): a node without it is never handed a gradient, and a
//! rule builds an operand's gradient only if that operand has demand.
//! Every gradient that is built comes from the same `ops::` call on the
//! same operands as if everything were differentiated, and consumers are
//! still visited in descending node order, so each surviving slot sums the
//! same terms in the same order — pruning is bitwise-invisible.

use crate::graph::{gelu_bwd, Graph, Node, NormSaved, Op, Var};
use crate::Result;
use metalora_tensor::conv;
use metalora_tensor::{ops, workspace, Tensor, TensorError};

/// Reduces a gradient of broadcast shape back to the original operand
/// shape: sums over prepended axes, then over axes the operand held at
/// extent 1.
fn reduce_to_shape(g: &Tensor, target_dims: &[usize]) -> Result<Tensor> {
    let mut g = g.clone();
    while g.rank() > target_dims.len() {
        g = ops::sum_axis(&g, 0)?;
    }
    #[allow(clippy::needless_range_loop)]
    for axis in 0..target_dims.len() {
        if target_dims[axis] == 1 && g.dims()[axis] != 1 {
            let summed = ops::sum_axis(&g, axis)?;
            // Re-insert the unit axis.
            let mut dims = summed.dims().to_vec();
            dims.insert(axis, 1);
            g = summed.reshape(&dims)?;
        }
    }
    debug_assert_eq!(g.dims(), target_dims);
    Ok(g)
}

/// Broadcasts a reduced gradient (axis removed) back along `axis` with
/// extent `d` — the adjoint of `sum_axis`.
fn broadcast_axis(g: &Tensor, axis: usize, d: usize) -> Result<Tensor> {
    let mut dims = g.dims().to_vec();
    dims.insert(axis, d);
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let mut out = workspace::zeroed_tensor(&dims);
    let src = g.data();
    let dst = out.data_mut();
    for o in 0..outer {
        let lane = &src[o * inner..(o + 1) * inner];
        for m in 0..d {
            let base = (o * d + m) * inner;
            dst[base..base + inner].copy_from_slice(lane);
        }
    }
    Ok(out)
}

/// The saved activations of a node the sweep reached: forward keeps them
/// whenever an operand whose gradient reads them has demand.
fn saved<T>(s: &Option<T>) -> &T {
    s.as_ref()
        .expect("forward saves what the gradient of an operand with demand reads")
}

/// Adds `grad(nodes)` into the gradient slot of `nodes[v]` — if `v` has
/// gradient demand; otherwise the gradient is never built. When the slot
/// is already occupied the new term is consumed by the addition; its
/// buffer goes back to the workspace arena, where the next backward
/// temporary picks it up.
fn accumulate(
    nodes: &mut [Node],
    v: Var,
    grad: impl FnOnce(&[Node]) -> Result<Tensor>,
) -> Result<()> {
    if !nodes[v.0].demand {
        return Ok(());
    }
    let t = grad(nodes)?;
    let slot = &mut nodes[v.0].grad;
    match slot {
        Some(g) => {
            debug_assert_eq!(g.dims(), t.dims());
            for (a, &b) in g.data_mut().iter_mut().zip(t.data()) {
                *a += b;
            }
            workspace::recycle(t);
        }
        None => *slot = Some(t),
    }
    Ok(())
}

impl Graph {
    /// Runs the reverse sweep from a **scalar** root, filling the `grad`
    /// slot of every node with gradient demand that influences it. Slots
    /// are cleared first, so each call leaves exactly that root's
    /// gradients; a root without demand (nothing trainable upstream, or an
    /// inference tape) is `Ok` and does no work.
    pub fn backward(&mut self, root: Var) -> Result<()> {
        if self.nodes[root.0].value.len() != 1 {
            return Err(TensorError::InvalidArgument(format!(
                "backward root must be scalar, got shape {:?}",
                self.nodes[root.0].value.dims()
            )));
        }
        for node in &mut self.nodes {
            node.grad = None;
        }
        if !self.nodes[root.0].demand {
            return Ok(());
        }
        // One span per reverse sweep: backward dominates training time, so
        // its duration histogram (and timeline block, when tracing) is the
        // first thing to look at in a slow run.
        let _sweep = metalora_obs::span!("backward");
        let root_dims = self.nodes[root.0].value.dims().to_vec();
        self.nodes[root.0].grad = Some(Tensor::ones(&root_dims));

        for i in (0..=root.0).rev() {
            // Parents always precede their consumers, so splitting at `i`
            // gives mutable access to all parent slots. A node without
            // demand was never handed a gradient and is skipped here.
            let (parents, rest) = self.nodes.split_at_mut(i);
            let node = &mut rest[0];
            let Some(mut upstream) = node.grad.take() else {
                continue;
            };
            let g = &upstream;

            match &node.op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    accumulate(parents, *a, |p| reduce_to_shape(g, p[a.0].value.dims()))?;
                    accumulate(parents, *b, |p| reduce_to_shape(g, p[b.0].value.dims()))?;
                }
                Op::Sub(a, b) => {
                    accumulate(parents, *a, |p| reduce_to_shape(g, p[a.0].value.dims()))?;
                    accumulate(parents, *b, |p| {
                        reduce_to_shape(&ops::neg(g), p[b.0].value.dims())
                    })?;
                }
                Op::Mul(a, b) => {
                    accumulate(parents, *a, |p| {
                        let ga = ops::mul(g, &p[b.0].value)?;
                        reduce_to_shape(&ga, p[a.0].value.dims())
                    })?;
                    accumulate(parents, *b, |p| {
                        let gb = ops::mul(g, &p[a.0].value)?;
                        reduce_to_shape(&gb, p[b.0].value.dims())
                    })?;
                }
                Op::Scale(a, s) => {
                    accumulate(parents, *a, |_| Ok(ops::scale(g, *s)))?;
                }
                Op::Matmul(a, b) => {
                    // dA = G·Bᵀ, dB = Aᵀ·G (per batch slice at rank 3).
                    accumulate(parents, *a, |p| ops::matmul_transpose_b(g, &p[b.0].value))?;
                    accumulate(parents, *b, |p| ops::matmul_transpose_a(&p[a.0].value, g))?;
                }
                Op::Softmax(a) => {
                    // dx = y ⊙ (g − Σ_lane(g ⊙ y)).
                    let y = &node.value;
                    accumulate(parents, *a, |_| {
                        let c = *y.dims().last().expect("rank >= 1");
                        let lanes = y.len() / c;
                        let mut dx = workspace::zeroed_tensor(y.dims());
                        for l in 0..lanes {
                            let yr = &y.data()[l * c..(l + 1) * c];
                            let gr = &g.data()[l * c..(l + 1) * c];
                            let dot: f32 = yr.iter().zip(gr).map(|(&yv, &gv)| yv * gv).sum();
                            let dst = &mut dx.data_mut()[l * c..(l + 1) * c];
                            for ((d, &yv), &gv) in dst.iter_mut().zip(yr).zip(gr) {
                                *d = yv * (gv - dot);
                            }
                        }
                        Ok(dx)
                    })?;
                }
                Op::Reshape(a, from) => {
                    accumulate(parents, *a, |_| g.reshaped(from))?;
                }
                Op::Permute(a, perm) => {
                    accumulate(parents, *a, |_| {
                        let mut inv = vec![0usize; perm.len()];
                        for (dst, &src) in perm.iter().enumerate() {
                            inv[src] = dst;
                        }
                        ops::permute(g, &inv)
                    })?;
                }
                Op::Relu(a) => {
                    accumulate(parents, *a, |p| {
                        ops::zip_with(g, &p[a.0].value, |gy, x| if x > 0.0 { gy } else { 0.0 })
                    })?;
                }
                Op::Gelu(a) => {
                    accumulate(parents, *a, |p| {
                        ops::zip_with(g, &p[a.0].value, |gy, x| gy * gelu_bwd(x))
                    })?;
                }
                Op::Tanh(a) => {
                    let y = &node.value;
                    accumulate(parents, *a, |_| {
                        ops::zip_with(g, y, |gy, y| gy * (1.0 - y * y))
                    })?;
                }
                Op::Sigmoid(a) => {
                    let y = &node.value;
                    accumulate(parents, *a, |_| {
                        ops::zip_with(g, y, |gy, y| gy * y * (1.0 - y))
                    })?;
                }
                Op::SoftmaxCrossEntropy {
                    logits,
                    labels,
                    probs,
                } => {
                    accumulate(parents, *logits, |_| {
                        let probs = saved(probs);
                        let gs = g.item()?;
                        let (n, c) = (probs.dims()[0], probs.dims()[1]);
                        let mut gl = probs.clone();
                        for (i, &y) in labels.iter().enumerate() {
                            gl.data_mut()[i * c + y] -= 1.0;
                        }
                        Ok(ops::scale(&gl, gs / n as f32))
                    })?;
                }
                Op::MseLoss { pred, target } => {
                    accumulate(parents, *pred, |p| {
                        let gs = g.item()?;
                        let n = target.len().max(1) as f32;
                        let gp = ops::zip_with(&p[pred.0].value, target, |p, t| 2.0 * (p - t))?;
                        Ok(ops::scale(&gp, gs / n))
                    })?;
                }
                Op::LayerNorm {
                    x,
                    gamma,
                    beta,
                    saved: s,
                } => {
                    let NormSaved { xhat, invstd } = saved(s);
                    let c = *xhat.dims().last().expect("rank >= 1");
                    let lanes = xhat.len() / c;
                    accumulate(parents, *x, |p| {
                        let gv = &p[gamma.0].value;
                        let cf = c as f32;
                        let mut dx = workspace::zeroed_tensor(xhat.dims());
                        for l in 0..lanes {
                            let istd = invstd.data()[l];
                            let grow = &g.data()[l * c..(l + 1) * c];
                            let xrow = &xhat.data()[l * c..(l + 1) * c];
                            let mut sum_dxhat = 0.0f32;
                            let mut sum_dxhat_xhat = 0.0f32;
                            for j in 0..c {
                                let dxh = grow[j] * gv.data()[j];
                                sum_dxhat += dxh;
                                sum_dxhat_xhat += dxh * xrow[j];
                            }
                            for j in 0..c {
                                let dxh = grow[j] * gv.data()[j];
                                dx.data_mut()[l * c + j] =
                                    istd * (dxh - sum_dxhat / cf - xrow[j] * sum_dxhat_xhat / cf);
                            }
                        }
                        Ok(dx)
                    })?;
                    accumulate(parents, *gamma, |_| {
                        let mut dgamma = workspace::zeroed_tensor(&[c]);
                        for (grow, xrow) in g.data().chunks(c).zip(xhat.data().chunks(c)) {
                            for ((d, &gy), &xh) in dgamma.data_mut().iter_mut().zip(grow).zip(xrow)
                            {
                                *d += gy * xh;
                            }
                        }
                        Ok(dgamma)
                    })?;
                    accumulate(parents, *beta, |_| {
                        let mut dbeta = workspace::zeroed_tensor(&[c]);
                        for grow in g.data().chunks(c) {
                            for (d, &gy) in dbeta.data_mut().iter_mut().zip(grow) {
                                *d += gy;
                            }
                        }
                        Ok(dbeta)
                    })?;
                }
                Op::BatchNorm2d {
                    x,
                    gamma,
                    beta,
                    saved: s,
                } => {
                    let NormSaved { xhat, invstd } = saved(s);
                    let (n, c, h, w) = (
                        xhat.dims()[0],
                        xhat.dims()[1],
                        xhat.dims()[2],
                        xhat.dims()[3],
                    );
                    let m = (n * h * w) as f32;
                    // Per-channel sums: dβ and dγ themselves, and what dX
                    // centres against.
                    let mut dgamma = workspace::zeroed_tensor(&[c]);
                    let mut dbeta = workspace::zeroed_tensor(&[c]);
                    for ci in 0..c {
                        let mut sdy = 0.0f32;
                        let mut sdyx = 0.0f32;
                        for ni in 0..n {
                            let base = ((ni * c + ci) * h) * w;
                            for k in 0..h * w {
                                let gy = g.data()[base + k];
                                sdy += gy;
                                sdyx += gy * xhat.data()[base + k];
                            }
                        }
                        dgamma.data_mut()[ci] = sdyx;
                        dbeta.data_mut()[ci] = sdy;
                    }
                    accumulate(parents, *x, |p| {
                        let gv = &p[gamma.0].value;
                        let mut dx = workspace::zeroed_tensor(xhat.dims());
                        for ci in 0..c {
                            let scale = gv.data()[ci] * invstd.data()[ci];
                            let sdy = dbeta.data()[ci] / m;
                            let sdyx = dgamma.data()[ci] / m;
                            for ni in 0..n {
                                let base = ((ni * c + ci) * h) * w;
                                for k in 0..h * w {
                                    let gy = g.data()[base + k];
                                    let xh = xhat.data()[base + k];
                                    dx.data_mut()[base + k] = scale * (gy - sdy - xh * sdyx);
                                }
                            }
                        }
                        Ok(dx)
                    })?;
                    accumulate(parents, *gamma, |_| Ok(dgamma))?;
                    accumulate(parents, *beta, |_| Ok(dbeta))?;
                }
                Op::Conv2d {
                    x,
                    w,
                    h_spec,
                    w_spec,
                } => {
                    let (hs, ws) = (*h_spec, *w_spec);
                    let xd = parents[x.0].value.dims();
                    let (n, c, h, wd) = (xd[0], xd[1], xd[2], xd[3]);
                    let (o, oh, ow) = (g.dims()[1], g.dims()[2], g.dims()[3]);
                    // dX: per image dcolsᵀ_n [C·KH·KW, OH·OW] = Wm · G_n,
                    // with G read as stored ([N, O, OH·OW]) and Wm shared
                    // by the batch, then col2im.
                    upstream = upstream.reshape(&[n, o, oh * ow])?;
                    accumulate(parents, *x, |p| {
                        let wm = conv::weight_to_matrix(&p[w.0].value)?;
                        let dcols_t = ops::gemm(&ops::GemmDesc::new(&wm, &upstream))?;
                        let dx = conv::col2im(&dcols_t, n, c, h, wd, hs, ws)?;
                        workspace::recycle(dcols_t);
                        Ok(dx)
                    })?;
                    upstream = upstream.reshape(&[n, o, oh, ow])?;
                    // dW = colsᵀ·G over patches rebuilt from x.
                    accumulate(parents, *w, |p| {
                        conv::conv2d_weight_grad(&p[x.0].value, &upstream, hs, ws)
                    })?;
                }
                Op::GlobalAvgPool2d(a) => {
                    accumulate(parents, *a, |p| {
                        let xv = &p[a.0].value;
                        let (n, c, h, w) = (xv.dims()[0], xv.dims()[1], xv.dims()[2], xv.dims()[3]);
                        let hw = (h * w) as f32;
                        let mut dx = workspace::zeroed_tensor(xv.dims());
                        for ni in 0..n {
                            for cci in 0..c {
                                let gy = g.data()[ni * c + cci] / hw;
                                let base = ((ni * c + cci) * h) * w;
                                for k in 0..h * w {
                                    dx.data_mut()[base + k] = gy;
                                }
                            }
                        }
                        Ok(dx)
                    })?;
                }
                Op::SumAxis(a, axis) => {
                    accumulate(parents, *a, |p| {
                        broadcast_axis(g, *axis, p[a.0].value.dims()[*axis])
                    })?;
                }
                Op::MeanAxis(a, axis) => {
                    accumulate(parents, *a, |p| {
                        let d = p[a.0].value.dims()[*axis];
                        let b = broadcast_axis(g, *axis, d)?;
                        Ok(ops::scale(&b, 1.0 / d as f32))
                    })?;
                }
                Op::MeanAll(a) => {
                    accumulate(parents, *a, |p| {
                        let gs = g.item()?;
                        let n = p[a.0].value.len().max(1) as f32;
                        Ok(Tensor::full(p[a.0].value.dims(), gs / n))
                    })?;
                }
                Op::Dropout { x, mask } => {
                    accumulate(parents, *x, |_| ops::mul(g, saved(mask)))?;
                }
            }
            node.grad = Some(upstream);
        }
        Ok(())
    }

    /// Delivers the gradients of every bound trainable parameter into its
    /// shared cell. Multiple bindings of the same parameter accumulate.
    pub fn flush_grads(&self) {
        for (idx, p) in &self.bound {
            if let Some(g) = &self.nodes[*idx].grad {
                p.accumulate_grad(g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamRef;

    #[test]
    fn backward_requires_scalar_root() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[2]));
        assert!(g.backward(x).is_err());
    }

    #[test]
    fn linear_chain_gradients() {
        // loss = mean(3·(a + b)) → dL/da = dL/db = 3/len.
        let mut g = Graph::new();
        let a = g.variable(Tensor::zeros(&[4]));
        let b = g.variable(Tensor::ones(&[4]));
        let s = g.add(a, b).unwrap();
        let sc = g.scale(s, 3.0);
        let l = g.mean_all(sc).unwrap();
        g.backward(l).unwrap();
        assert_eq!(g.grad(a).data(), &[0.75; 4]);
        assert_eq!(g.grad(b).data(), &[0.75; 4]);
    }

    #[test]
    fn fanout_accumulates() {
        // loss = mean(x + x) → dL/dx = 2/len each.
        let mut g = Graph::new();
        let x = g.variable(Tensor::zeros(&[2]));
        let y = g.add(x, x).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        assert_eq!(g.grad(x).data(), &[1.0, 1.0]);
    }

    #[test]
    fn broadcast_add_reduces_gradient() {
        // [2,3] + [3] bias: bias grad is the column sum of upstream.
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[2, 3]));
        let b = g.variable(Tensor::zeros(&[3]));
        let y = g.add(x, b).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        assert_eq!(g.grad(b).dims(), &[3]);
        // Each bias entry feeds 2 outputs of 6 total: grad = 2/6.
        for &v in g.grad(b).data() {
            assert!((v - 2.0 / 6.0).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_gradient_shapes_and_values() {
        let mut g = Graph::new();
        let a = g.variable(Tensor::ones(&[2, 3]));
        let b = g.variable(Tensor::ones(&[3, 4]));
        let y = g.matmul(a, b).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        // dL/dy = 1/8 each; dA = (1/8)·1·Bᵀ rows sum to 4·(1/8).
        assert_eq!(g.grad(a).dims(), &[2, 3]);
        assert_eq!(g.grad(b).dims(), &[3, 4]);
        for &v in g.grad(a).data() {
            assert!((v - 0.5).abs() < 1e-6);
        }
        for &v in g.grad(b).data() {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_ce_gradient_sums_to_zero_per_row() {
        let mut g = Graph::new();
        let logits =
            g.variable(Tensor::from_vec(vec![2.0, -1.0, 0.3, 0.0, 0.0, 0.0], &[2, 3]).unwrap());
        let l = g.softmax_cross_entropy(logits, &[0, 2]).unwrap();
        g.backward(l).unwrap();
        let gl = g.grad(logits);
        for i in 0..2 {
            let s: f32 = gl.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "row {i} grad sum {s}");
        }
        // True-label entry must have negative gradient.
        assert!(gl.get(&[0, 0]).unwrap() < 0.0);
        assert!(gl.get(&[1, 2]).unwrap() < 0.0);
    }

    #[test]
    fn flush_grads_accumulates_into_params() {
        let w = ParamRef::new("w", Tensor::ones(&[2, 2]));
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[1, 2]));
        let wv = g.bind(&w);
        let y = g.matmul(x, wv).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        g.flush_grads();
        assert!(w.grad().data().iter().all(|&v| (v - 0.5).abs() < 1e-6));
        // Second flush doubles (accumulation semantics).
        g.flush_grads();
        assert!(w.grad().data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn same_param_bound_twice_accumulates() {
        // y = x·W + x·W → dW = 2·(xᵀ·g).
        let w = ParamRef::new("w", Tensor::ones(&[2, 2]));
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[1, 2]));
        let w1 = g.bind(&w);
        let w2 = g.bind(&w);
        let y1 = g.matmul(x, w1).unwrap();
        let y2 = g.matmul(x, w2).unwrap();
        let y = g.add(y1, y2).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        g.flush_grads();
        // Each binding contributes xᵀ·(1/2) = 0.5 per entry → 1.0 total.
        assert!(w.grad().data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn unused_nodes_get_zero_grad() {
        let mut g = Graph::new();
        let x = g.variable(Tensor::ones(&[2]));
        let unused = g.variable(Tensor::ones(&[5]));
        let l = g.mean_all(x).unwrap();
        g.backward(l).unwrap();
        assert_eq!(g.grad(unused).data(), &[0.0; 5]);
    }

    #[test]
    fn a_second_sweep_does_not_accumulate_into_the_first() {
        let mut g = Graph::new();
        let x = g.variable(Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[4]).unwrap());
        let y = g.scale(x, 3.0);
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        let once = g.grad(x);
        assert_eq!(once.data(), &[0.75; 4]);
        g.backward(l).unwrap();
        assert_eq!(g.grad(x).data(), once.data());
    }

    #[test]
    fn each_sweep_leaves_only_its_own_roots_gradients() {
        // Two roots on one tape, the second recorded after the first and
        // reaching a leaf the first does not.
        let mut g = Graph::new();
        let x = g.variable(Tensor::ones(&[2]));
        let z = g.variable(Tensor::ones(&[2]));
        let l1 = g.mean_all(x).unwrap();
        let xz = g.mul(x, z).unwrap();
        let s = g.scale(xz, 4.0);
        let l2 = g.mean_all(s).unwrap();
        g.backward(l2).unwrap();
        assert_eq!(g.grad(x).data(), &[2.0, 2.0]);
        assert_eq!(g.grad(z).data(), &[2.0, 2.0]);
        // The earlier root: nothing of the later sweep survives, not even
        // in nodes past it.
        g.backward(l1).unwrap();
        assert_eq!(g.grad(x).data(), &[0.5, 0.5]);
        assert_eq!(g.grad(z).data(), &[0.0, 0.0]);
        assert_eq!(g.grad(l2).data(), &[0.0]);
        g.backward(l2).unwrap();
        assert_eq!(g.grad(x).data(), &[2.0, 2.0]);
    }

    #[test]
    fn data_leaves_and_frozen_binds_are_not_differentiated() {
        let w = ParamRef::new("w", Tensor::ones(&[2, 2]));
        let f = ParamRef::frozen("f", Tensor::ones(&[2, 2]));
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[1, 2]));
        let fv = g.bind(&f);
        let h = g.matmul(x, fv).unwrap();
        let wv = g.bind(&w);
        let y = g.matmul(h, wv).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        // `h` is data · frozen: no demand, no slot, zeros on read.
        assert!(g.nodes[x.0].grad.is_none());
        assert!(g.nodes[fv.0].grad.is_none());
        assert!(g.nodes[h.0].grad.is_none());
        assert_eq!(g.grad(h).data(), &[0.0, 0.0]);
        assert!(g.grad(wv).data().iter().all(|&v| v == 1.0));
        // A root with no demand upstream is Ok and leaves every slot empty.
        let dead = g.mean_all(h).unwrap();
        g.backward(dead).unwrap();
        assert!(g.nodes.iter().all(|n| n.grad.is_none()));
    }

    #[test]
    fn an_inference_tape_saves_nothing_and_has_no_demand() {
        let w = ParamRef::new("w", Tensor::ones(&[3, 3, 2, 2]));
        let spec = conv::ConvSpec::new(3, 1, 1).unwrap();
        let mut g = Graph::inference();
        let x = g.variable(Tensor::ones(&[1, 2, 4, 4]));
        let wv = g.bind(&w);
        let y = g.conv2d(x, wv, spec, spec).unwrap();
        assert!(g.nodes.iter().all(|n| !n.demand));
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        g.flush_grads();
        assert_eq!(w.grad().norm(), 0.0);
    }

    #[test]
    fn reduce_to_shape_handles_leading_and_unit_axes() {
        let g = Tensor::ones(&[2, 3, 4]);
        let r = reduce_to_shape(&g, &[3, 4]).unwrap();
        assert_eq!(r.data(), &[2.0; 12]);
        let r = reduce_to_shape(&g, &[1, 4]).unwrap();
        assert_eq!(r.dims(), &[1, 4]);
        assert_eq!(r.data(), &[6.0; 4]);
    }

    #[test]
    fn broadcast_axis_is_adjoint_of_sum_axis() {
        let mut rng = metalora_tensor::init::rng(1);
        let x = metalora_tensor::init::uniform(&[2, 3, 4], -1.0, 1.0, &mut rng);
        let y = metalora_tensor::init::uniform(&[2, 4], -1.0, 1.0, &mut rng);
        // <sum_axis(x,1), y> == <x, broadcast_axis(y,1,3)>.
        let sx = ops::sum_axis(&x, 1).unwrap();
        let lhs: f32 = sx.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let by = broadcast_axis(&y, 1, 3).unwrap();
        let rhs: f32 = x.data().iter().zip(by.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn tanh_sigmoid_backward_use_saved_output() {
        let mut g = Graph::new();
        let x = g.variable(Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap());
        let t = g.tanh(x);
        let l = g.mean_all(t).unwrap();
        g.backward(l).unwrap();
        let y = 0.5f32.tanh();
        let expect = (1.0 - y * y) / 2.0;
        assert!((g.grad(x).data()[0] - expect).abs() < 1e-5);

        let mut g = Graph::new();
        let x = g.variable(Tensor::from_vec(vec![0.3], &[1]).unwrap());
        let s = g.sigmoid(x);
        let l = g.mean_all(s).unwrap();
        g.backward(l).unwrap();
        let y = 1.0 / (1.0 + (-0.3f32).exp());
        assert!((g.grad(x).data()[0] - y * (1.0 - y)).abs() < 1e-5);
    }

    #[test]
    fn conv2d_backward_shapes() {
        let mut rng = metalora_tensor::init::rng(2);
        let spec = conv::ConvSpec::new(3, 2, 1).unwrap();
        let mut g = Graph::new();
        let x = g.variable(metalora_tensor::init::uniform(
            &[2, 3, 6, 6],
            -1.0,
            1.0,
            &mut rng,
        ));
        let w = g.variable(metalora_tensor::init::uniform(
            &[3, 3, 3, 5],
            -1.0,
            1.0,
            &mut rng,
        ));
        let y = g.conv2d(x, w, spec, spec).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        assert_eq!(g.grad(x).dims(), &[2, 3, 6, 6]);
        assert_eq!(g.grad(w).dims(), &[3, 3, 3, 5]);
        assert!(g.grad(w).norm() > 0.0);
    }

    #[test]
    fn permute_backward_restores_layout() {
        let mut rng = metalora_tensor::init::rng(3);
        let xv = metalora_tensor::init::uniform(&[2, 3, 4], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let x = g.variable(xv);
        let p = g.permute(x, &[2, 0, 1]).unwrap();
        let l = g.mean_all(p).unwrap();
        g.backward(l).unwrap();
        // Gradient of a mean through a permutation is uniform.
        let gx = g.grad(x);
        assert_eq!(gx.dims(), &[2, 3, 4]);
        assert!(gx.data().iter().all(|&v| (v - 1.0 / 24.0).abs() < 1e-7));
    }

    #[test]
    fn dropout_backward_masks() {
        let mut g = Graph::new();
        let x = g.variable(Tensor::ones(&[100]));
        let mut rng = metalora_tensor::init::rng(5);
        let y = g.dropout(x, 0.5, &mut rng).unwrap();
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        let gx = g.grad(x);
        let yv = g.value(y);
        for (gv, &ov) in gx.data().iter().zip(yv.data()) {
            if ov == 0.0 {
                assert_eq!(*gv, 0.0);
            } else {
                assert!((gv - 2.0 / 100.0).abs() < 1e-6);
            }
        }
    }
}
