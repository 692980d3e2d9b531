//! Convolution kernels.
//!
//! Two implementations, deliberately:
//!
//! * [`conv2d`] — the production path: one matrix multiply of the patch
//!   matrix `[N·OH·OW, C·KH·KW]` by the weight. The packed GEMM packs its
//!   row strips straight from the unpadded image (zeros at padding
//!   positions), so neither a padded copy nor the patch matrix is ever
//!   built. Only under a forced reference kernel, which cannot read the
//!   image, does [`im2col`] build the patches for it — the same elements,
//!   so the same bits. The product runs through the GEMM's counters and
//!   tile-grid scheduler — conv threading scales with the GEMM, not with
//!   anything here. [`im2col`] also builds `dW`'s patches at backward
//!   time, and
//!   [`col2im`] sums `dX` from the transposed patch gradient
//!   `[N, C·KH·KW, OH·OW]`, walking destination rows;
//! * the *dummy tensor* path of Eq. 2 / Fig. 2 of the paper —
//!   [`dummy_tensor`] materialises the binary tensor
//!   `𝒫 ∈ {0,1}^{α×α'×β}` with `𝒫[j,j',k] = 1 ⇔ j = s·j' + k − p`, and
//!   [`conv1d_via_dummy`]/[`conv2d_via_dummy`] evaluate convolution as a
//!   pure tensor-network contraction. The two paths agreeing numerically
//!   *is* the Fig. 2 reproduction (bench `dummy_conv`, binary
//!   `fig2_dummy_conv`).
//!
//! Convolution weights follow the paper's layout `𝒲 ∈ ℝ^{K_h×K_w×I×O}`
//! (spatial, in-channels, out-channels); activations are `[N, C, H, W]`.

use crate::contract::contract;
use crate::ops::microkernel::{use_packed, Lhs, Patches, StridedGemm};
use crate::ops::{gemm, run_gemm, GemmDesc};
use crate::par::par_row_blocks;
use crate::{workspace, Result, Tensor, TensorError};

/// Spatial geometry of a convolution along one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Kernel extent.
    pub kernel: usize,
    /// Stride `s ≥ 1`.
    pub stride: usize,
    /// Symmetric zero padding `p`.
    pub pad: usize,
}

impl ConvSpec {
    /// The 1×1, stride-1, unpadded spec of a channel-mixing convolution.
    pub const POINTWISE: ConvSpec = ConvSpec {
        kernel: 1,
        stride: 1,
        pad: 0,
    };

    /// Creates a spec, validating `kernel, stride ≥ 1`.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Result<Self> {
        if kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "conv spec kernel={kernel} stride={stride} must be >= 1"
            )));
        }
        Ok(ConvSpec {
            kernel,
            stride,
            pad,
        })
    }

    /// Output extent for an input of size `n`:
    /// `⌊(n + 2p − k)/s⌋ + 1`.
    pub fn out_size(&self, n: usize) -> Result<usize> {
        let padded = n + 2 * self.pad;
        if padded < self.kernel {
            return Err(TensorError::InvalidArgument(format!(
                "input {n} (+2×{} pad) smaller than kernel {}",
                self.pad, self.kernel
            )));
        }
        Ok((padded - self.kernel) / self.stride + 1)
    }
}

/// Builds the binary dummy tensor `𝒫 ∈ {0,1}^{α×α'×β}` of Eq. 2:
/// `𝒫[j, j', k] = 1` iff `j = s·j' + k − p`.
pub fn dummy_tensor(alpha: usize, spec: ConvSpec) -> Result<Tensor> {
    let alpha_p = spec.out_size(alpha)?;
    let beta = spec.kernel;
    let mut p = Tensor::zeros(&[alpha, alpha_p, beta]);
    for jp in 0..alpha_p {
        for k in 0..beta {
            let j = (spec.stride * jp + k) as isize - spec.pad as isize;
            if j >= 0 && (j as usize) < alpha {
                p.set(&[j as usize, jp, k], 1.0)?;
            }
        }
    }
    Ok(p)
}

/// Direct 1-D convolution (cross-correlation, as in Eq. 2):
/// `y[j'] = Σ_k a[s·j' + k − p]·b[k]` with zero padding.
pub fn conv1d_direct(a: &Tensor, b: &Tensor, spec: ConvSpec) -> Result<Tensor> {
    if a.rank() != 1 || b.rank() != 1 {
        return Err(TensorError::InvalidArgument(
            "conv1d_direct expects two vectors".into(),
        ));
    }
    if b.len() != spec.kernel {
        return Err(TensorError::InvalidArgument(format!(
            "kernel vector length {} != spec kernel {}",
            b.len(),
            spec.kernel
        )));
    }
    let alpha = a.len();
    let out_len = spec.out_size(alpha)?;
    let mut y = Tensor::zeros(&[out_len]);
    for jp in 0..out_len {
        let mut acc = 0.0f32;
        for k in 0..spec.kernel {
            let j = (spec.stride * jp + k) as isize - spec.pad as isize;
            if j >= 0 && (j as usize) < alpha {
                acc += a.data()[j as usize] * b.data()[k];
            }
        }
        y.data_mut()[jp] = acc;
    }
    Ok(y)
}

/// 1-D convolution evaluated as the tensor-network contraction of Eq. 2:
/// `y = (𝒫 ×ⱼ a) ×ₖ b`.
pub fn conv1d_via_dummy(a: &Tensor, b: &Tensor, spec: ConvSpec) -> Result<Tensor> {
    if a.rank() != 1 || b.rank() != 1 {
        return Err(TensorError::InvalidArgument(
            "conv1d_via_dummy expects two vectors".into(),
        ));
    }
    if b.len() != spec.kernel {
        return Err(TensorError::InvalidArgument(format!(
            "kernel vector length {} != spec kernel {}",
            b.len(),
            spec.kernel
        )));
    }
    let p = dummy_tensor(a.len(), spec)?; // [α, α', β]
    let pa = contract(&p, a, &[0], &[0])?; // [α', β]
    contract(&pa, b, &[1], &[0]) // [α']
}

/// Copies `x:[N,C,H,W]` into the interior of the pre-zeroed padded buffer
/// `dst:[N,C,H+2ph,W+2pw]`.
fn pad_hw_into(x: &Tensor, ph: usize, pw: usize, dst: &mut [f32]) {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (hp, wp) = (h + 2 * ph, w + 2 * pw);
    let src = x.data();
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                let s = ((ni * c + ci) * h + hi) * w;
                let d = ((ni * c + ci) * hp + hi + ph) * wp + pw;
                dst[d..d + w].copy_from_slice(&src[s..s + w]);
            }
        }
    }
}

/// im2col: lowers `[N, C, H, W]` to patch matrix
/// `[N·OH·OW, C·KH·KW]` (column layout: channel-major, then `kh`, `kw`).
pub fn im2col(x: &Tensor, h_spec: ConvSpec, w_spec: ConvSpec) -> Result<Tensor> {
    if x.rank() != 4 {
        return Err(TensorError::InvalidArgument(
            "im2col expects [N, C, H, W]".into(),
        ));
    }
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let oh = h_spec.out_size(h)?;
    let ow = w_spec.out_size(w)?;
    let (kh, kw) = (h_spec.kernel, w_spec.kernel);
    let (hp, wp) = (h + 2 * h_spec.pad, w + 2 * w_spec.pad);
    // With no padding the input image already has the gather layout; only
    // a real pad needs the enlarged copy, and that scratch comes from (and
    // returns to) the workspace arena.
    let padded: Option<workspace::WorkspaceGuard> =
        if h_spec.pad == 0 && w_spec.pad == 0 {
            None
        } else {
            let mut g = workspace::take_zeroed(n * c * hp * wp);
            pad_hw_into(x, h_spec.pad, w_spec.pad, &mut g);
            Some(g)
        };
    let src: &[f32] = match &padded {
        Some(g) => g,
        None => x.data(),
    };
    let cols_w = c * kh * kw;
    let mut cols = workspace::zeroed_tensor(&[n * oh * ow, cols_w]);
    // One patch row per (ni, ohi, owi); rows are pure gathers from the
    // shared padded image, so the split is trivially deterministic.
    par_row_blocks(cols.data_mut(), cols_w.max(1), cols_w, |first, block| {
        for (r, row) in block.chunks_mut(cols_w.max(1)).enumerate() {
            let ri = first + r;
            let (ni, rem) = (ri / (oh * ow), ri % (oh * ow));
            let (ohi, owi) = (rem / ow, rem % ow);
            let h0 = ohi * h_spec.stride;
            let w0 = owi * w_spec.stride;
            for ci in 0..c {
                for khi in 0..kh {
                    let s = ((ni * c + ci) * hp + h0 + khi) * wp + w0;
                    let d = (ci * kh + khi) * kw;
                    row[d..d + kw].copy_from_slice(&src[s..s + kw]);
                }
            }
        }
    });
    Ok(cols)
}

/// col2im: sums the transposed patch gradient `colsᵀ:[N, C·KH·KW, OH·OW]`
/// (image `n`'s `colsᵀ` is the transpose of its rows of the [`im2col`]
/// matrix) onto a zero `[N, C, H, W]` image — the adjoint of [`im2col`],
/// used by the conv backward pass. Contributions that land in the padding
/// are dropped.
///
/// The walk is `(n, c, oh, kh, kw descending, ow)`: each step adds one
/// contiguous run of a `colsᵀ` row into one image row (at stride `sw`).
/// A destination element is reached from `(oh, ow)` pairs only, at most
/// once per `(oh, kh)` step, and within such a step a higher `kw` pairs
/// with a lower `ow`, so every element receives its additions in
/// increasing `(oh, ow)` order — the order of scattering the patch rows
/// one after another.
pub fn col2im(
    cols_t: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    h_spec: ConvSpec,
    w_spec: ConvSpec,
) -> Result<Tensor> {
    let oh = h_spec.out_size(h)?;
    let ow = w_spec.out_size(w)?;
    let (kh, kw, sw, pw) = (h_spec.kernel, w_spec.kernel, w_spec.stride, w_spec.pad);
    let (ckk, pix) = (c * kh * kw, oh * ow);
    if cols_t.dims() != [n, ckk, pix] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols_t.dims().to_vec(),
            rhs: vec![n, ckk, pix],
        });
    }
    let src = cols_t.data();
    // Overlapping patches only ever collide *within* one image, so the
    // walk parallelises over `ni`.
    let img = c * h * w;
    let mut out = workspace::zeroed_tensor(&[n, c, h, w]);
    par_row_blocks(out.data_mut(), img.max(1), ckk * pix, |first, block| {
        for (r, image) in block.chunks_mut(img.max(1)).enumerate() {
            let grad = &src[(first + r) * ckk * pix..][..ckk * pix];
            for (ci, plane) in image.chunks_mut(h * w).enumerate() {
                for ohi in 0..oh {
                    for khi in 0..kh {
                        let ih = (ohi * h_spec.stride + khi).wrapping_sub(h_spec.pad);
                        if ih >= h {
                            continue;
                        }
                        let dst = &mut plane[ih * w..][..w];
                        for kwi in (0..kw).rev() {
                            // The `ow` whose column `ow·sw + kw − pw` lies in the image.
                            let lo = pw.saturating_sub(kwi).div_ceil(sw);
                            let hi = (w + pw).saturating_sub(kwi).div_ceil(sw).min(ow);
                            if lo >= hi {
                                continue;
                            }
                            let row = &grad[((ci * kh + khi) * kw + kwi) * pix + ohi * ow..];
                            let run = &row[lo..hi];
                            let iw = lo * sw + kwi - pw;
                            if sw == 1 {
                                for (d, &g) in dst[iw..].iter_mut().zip(run) {
                                    *d += g;
                                }
                            } else {
                                for (d, &g) in dst[iw..].iter_mut().step_by(sw).zip(run) {
                                    *d += g;
                                }
                            }
                        }
                    }
                }
            }
        }
    });
    Ok(out)
}

/// The weight gradient of [`conv2d`] for the output gradient
/// `g:[N, O, OH, OW]`: `dW = colsᵀ·G` over the patches of `x`, which are
/// built here (the tape saves none), in the paper layout `[KH, KW, C, O]`.
pub fn conv2d_weight_grad(
    x: &Tensor,
    g: &Tensor,
    h_spec: ConvSpec,
    w_spec: ConvSpec,
) -> Result<Tensor> {
    if x.rank() != 4 || g.rank() != 4 {
        return Err(TensorError::InvalidArgument(
            "conv2d_weight_grad expects x:[N,C,H,W], g:[N,O,OH,OW]".into(),
        ));
    }
    let c = x.dims()[1];
    let (n, o, oh, ow) = (g.dims()[0], g.dims()[1], g.dims()[2], g.dims()[3]);
    let gm = crate::ops::permute(g, &[0, 2, 3, 1])?.reshape(&[n * oh * ow, o])?;
    // Dropped, not recycled: parked in the arena, each shape's patch
    // buffer would stay resident for the rest of the run.
    let cols = im2col(x, h_spec, w_spec)?; // [N·OH·OW, C·KH·KW]
    let dwm = gemm(&GemmDesc::new(&cols, &gm).transpose_a())?; // [C·KH·KW, O]
    crate::ops::permute(&dwm.reshape(&[c, h_spec.kernel, w_spec.kernel, o])?, &[1, 2, 0, 3])
}

/// Reshapes a paper-layout weight `𝒲:[KH, KW, I, O]` into the
/// `[C·KH·KW, O]` matrix matching the [`im2col`] column layout.
pub fn weight_to_matrix(w: &Tensor) -> Result<Tensor> {
    if w.rank() != 4 {
        return Err(TensorError::InvalidArgument(
            "weight_to_matrix expects [KH, KW, I, O]".into(),
        ));
    }
    let (kh, kw, i, o) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
    // [KH,KW,I,O] → [I,KH,KW,O] then flatten the first three axes.
    let p = crate::ops::permute(w, &[2, 0, 1, 3])?;
    p.reshape(&[i * kh * kw, o])
}

/// 2-D convolution (cross-correlation) of `x:[N, C, H, W]` with the
/// paper-layout weight `𝒲:[KH, KW, C, O]`. Output `[N, O, OH, OW]`.
pub fn conv2d(x: &Tensor, w: &Tensor, h_spec: ConvSpec, w_spec: ConvSpec) -> Result<Tensor> {
    conv2d_bias(x, w, None, h_spec, w_spec)
}

/// [`conv2d`] with a fused per-output-channel `bias` (length `O`) added
/// inside the production GEMM's store. The conv bias broadcast (`[O,1,1]`
/// over `[N,O,OH,OW]`) is exactly a per-column bias on the pre-permute
/// `[N·OH·OW, O]` GEMM output (column = output channel), and the trailing
/// permute is a pure element copy, so adding the bias before the permute
/// is bitwise-identical to a separate broadcast-add pass after it.
///
/// The GEMM keeps `M = N·OH·OW` rows with the weight as its small right
/// operand: the transposed form `[O, OH·OW]` per image measured slower,
/// because `M = O` leaves short strips and the image-sized right operand
/// is packed once and re-read once per strip.
pub fn conv2d_bias(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    h_spec: ConvSpec,
    w_spec: ConvSpec,
) -> Result<Tensor> {
    if x.rank() != 4 || w.rank() != 4 {
        return Err(TensorError::InvalidArgument(
            "conv2d expects x:[N,C,H,W], w:[KH,KW,C,O]".into(),
        ));
    }
    if w.dims()[0] != h_spec.kernel || w.dims()[1] != w_spec.kernel {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d kernel",
            lhs: w.dims().to_vec(),
            rhs: vec![h_spec.kernel, w_spec.kernel],
        });
    }
    if x.dims()[1] != w.dims()[2] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d channels",
            lhs: x.dims().to_vec(),
            rhs: w.dims().to_vec(),
        });
    }
    let (n, c, h, ww) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let o = w.dims()[3];
    let oh = h_spec.out_size(h)?;
    let ow = w_spec.out_size(ww)?;
    if let Some(b) = bias.filter(|b| b.len() != o) {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d bias",
            lhs: vec![b.len()],
            rhs: vec![o],
        });
    }
    let wm = weight_to_matrix(w)?; // [C·KH·KW, O]
    // The bias lands at the GEMM store, per column = per output channel;
    // the permute below only moves finished elements.
    let out = if use_packed() {
        let k = c * h_spec.kernel * w_spec.kernel;
        let patches = Patches { x: x.data(), c, h, w: ww, oh, ow, h_spec, w_spec };
        let g = StridedGemm {
            a: Lhs::Patches(patches),
            b: wm.data(),
            b_batch: k * o,
            b_ks: o,
            b_cs: 1,
            bs: 1,
            m: n * oh * ow,
            n: o,
            k,
            bias: bias.map(Tensor::data),
        };
        Tensor::from_vec(run_gemm(&g, x.len() + wm.len()), &[n * oh * ow, o])?
    } else {
        // The forced reference kernel reads only strided operands.
        let cols = im2col(x, h_spec, w_spec)?; // [N·OH·OW, C·KH·KW]
        let out = gemm(&GemmDesc::new(&cols, &wm).epilogue(bias))?; // [N·OH·OW, O]
        // The patch matrix came from the arena; hand it straight back.
        workspace::recycle(cols);
        out
    };
    // Counted at this entry point *and* inside the GEMM above — see the
    // layering note in `metalora_obs::counters`.
    metalora_obs::counters::record_kernel(
        metalora_obs::counters::Kernel::Conv,
        (2 * n * oh * ow * w.len()) as u64,
        (4 * (x.len() + w.len() + out.len())) as u64,
    );
    // [N,OH,OW,O] → [N,O,OH,OW].
    let out = out.reshape(&[n, oh, ow, o])?;
    crate::ops::permute(&out, &[0, 3, 1, 2])
}

/// 2-D convolution evaluated as a pure tensor-network contraction with two
/// dummy tensors (the Fig. 2 construction):
///
/// `Y[n,o,h',w'] = Σ_{h,w,kh,kw,c} 𝒫_h[h,h',kh]·𝒫_w[w,w',kw]·X[n,c,h,w]·𝒲[kh,kw,c,o]`.
///
/// Exponentially clearer, polynomially slower — used as the oracle for
/// [`conv2d`] and by the Fig. 2 bench.
pub fn conv2d_via_dummy(
    x: &Tensor,
    w: &Tensor,
    h_spec: ConvSpec,
    w_spec: ConvSpec,
) -> Result<Tensor> {
    if x.rank() != 4 || w.rank() != 4 {
        return Err(TensorError::InvalidArgument(
            "conv2d_via_dummy expects x:[N,C,H,W], w:[KH,KW,C,O]".into(),
        ));
    }
    let (h, ww) = (x.dims()[2], x.dims()[3]);
    let ph = dummy_tensor(h, h_spec)?; // [H, OH, KH]
    let pw = dummy_tensor(ww, w_spec)?; // [W, OW, KW]

    // X ×_h 𝒫_h: [N,C,H,W] × [H,OH,KH] over h → [N,C,W,OH,KH].
    let t = contract(x, &ph, &[2], &[0])?;
    // × 𝒫_w over w → [N,C,OH,KH,OW,KW].
    let t = contract(&t, &pw, &[2], &[0])?;
    // × 𝒲 over (kh, kw, c) → [N,OH,OW,O].
    // t axes: [n, c, oh, kh, ow, kw]; w axes: [kh, kw, c, o].
    let y = contract(&t, w, &[3, 5, 1], &[0, 1, 2])?;
    // [N, OH, OW, O] → [N, O, OH, OW].
    crate::ops::permute(&y, &[0, 3, 1, 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, init};

    fn spec(k: usize, s: usize, p: usize) -> ConvSpec {
        ConvSpec::new(k, s, p).unwrap()
    }

    #[test]
    fn out_size_formula() {
        assert_eq!(spec(3, 1, 1).out_size(8).unwrap(), 8);
        assert_eq!(spec(3, 2, 1).out_size(8).unwrap(), 4);
        assert_eq!(spec(1, 1, 0).out_size(5).unwrap(), 5);
        assert_eq!(spec(5, 1, 0).out_size(5).unwrap(), 1);
        assert!(spec(7, 1, 0).out_size(5).is_err());
        assert!(ConvSpec::new(0, 1, 0).is_err());
        assert!(ConvSpec::new(3, 0, 0).is_err());
    }

    #[test]
    fn dummy_tensor_is_binary_and_correct() {
        let s = spec(3, 1, 1);
        let p = dummy_tensor(5, s).unwrap();
        assert_eq!(p.dims(), &[5, 5, 3]);
        for (idx, v) in p.indexed_iter() {
            let (j, jp, k) = (idx[0] as isize, idx[1] as isize, idx[2] as isize);
            let expect = if j == jp + k - 1 { 1.0 } else { 0.0 };
            assert_eq!(v, expect, "P[{j},{jp},{k}]");
        }
    }

    #[test]
    fn conv1d_dummy_matches_direct() {
        let mut r = init::rng(1);
        for (len, k, st, pad) in [(8, 3, 1, 1), (9, 3, 2, 0), (6, 1, 1, 0), (5, 5, 1, 2)] {
            let s = spec(k, st, pad);
            let a = init::uniform(&[len], -1.0, 1.0, &mut r);
            let b = init::uniform(&[k], -1.0, 1.0, &mut r);
            let direct = conv1d_direct(&a, &b, s).unwrap();
            let tn = conv1d_via_dummy(&a, &b, s).unwrap();
            assert!(
                approx_eq(&direct, &tn, 1e-4),
                "mismatch for len={len} k={k} s={st} p={pad}"
            );
        }
    }

    #[test]
    fn conv1d_known_values() {
        // [1,2,3] * [1,1] stride 1 pad 0 → [3, 5].
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let y = conv1d_direct(&a, &b, spec(2, 1, 0)).unwrap();
        assert_eq!(y.data(), &[3.0, 5.0]);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with identity channel map leaves input unchanged.
        let mut r = init::rng(2);
        let x = init::uniform(&[2, 3, 4, 4], -1.0, 1.0, &mut r);
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        for c in 0..3 {
            w.set(&[0, 0, c, c], 1.0).unwrap();
        }
        let y = conv2d(&x, &w, spec(1, 1, 0), spec(1, 1, 0)).unwrap();
        assert!(approx_eq(&y, &x, 1e-5));
    }

    #[test]
    fn conv2d_matches_dummy_tensor_network() {
        let mut r = init::rng(3);
        for (hw, k, st, pad) in [(6, 3, 1, 1), (8, 3, 2, 1), (5, 1, 1, 0)] {
            let x = init::uniform(&[2, 3, hw, hw], -1.0, 1.0, &mut r);
            let w = init::uniform(&[k, k, 3, 4], -1.0, 1.0, &mut r);
            let fast = conv2d(&x, &w, spec(k, st, pad), spec(k, st, pad)).unwrap();
            let tn = conv2d_via_dummy(&x, &w, spec(k, st, pad), spec(k, st, pad)).unwrap();
            assert!(
                approx_eq(&fast, &tn, 1e-3),
                "hw={hw} k={k} s={st} p={pad}, err={}",
                crate::max_rel_err(&fast, &tn)
            );
        }
    }

    #[test]
    fn conv2d_known_sum_kernel() {
        // All-ones 2x2 kernel on a single channel computes patch sums.
        let x = Tensor::arange(1.0, 1.0, 9).reshape(&[1, 1, 3, 3]).unwrap();
        let w = Tensor::ones(&[2, 2, 1, 1]);
        let y = conv2d(&x, &w, spec(2, 1, 0), spec(2, 1, 0)).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        // Patches: (1+2+4+5)=12, (2+3+5+6)=16, (4+5+7+8)=24, (5+6+8+9)=28.
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_validates_shapes() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[3, 3, 2, 4]); // wrong in-channels
        assert!(conv2d(&x, &w, spec(3, 1, 1), spec(3, 1, 1)).is_err());
        let w2 = Tensor::zeros(&[2, 3, 3, 4]); // kernel mismatch with spec
        assert!(conv2d(&x, &w2, spec(3, 1, 1), spec(3, 1, 1)).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(yᵀ)> — the defining adjoint
        // identity, checked with random tensors (`col2im` takes each
        // image's patch gradient transposed).
        let mut r = init::rng(4);
        let (n, c, h, w) = (2, 2, 5, 5);
        let hs = spec(3, 2, 1);
        let ws = spec(3, 2, 1);
        let x = init::uniform(&[n, c, h, w], -1.0, 1.0, &mut r);
        let cols = im2col(&x, hs, ws).unwrap();
        let y = init::uniform(cols.dims(), -1.0, 1.0, &mut r);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let (pix, ckk) = (cols.dims()[0] / n, cols.dims()[1]);
        let y_t = crate::ops::permute(&y.reshape(&[n, pix, ckk]).unwrap(), &[0, 2, 1]).unwrap();
        let back = col2im(&y_t, n, c, h, w, hs, ws).unwrap();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn conv2d_bias_act_matches_separate_passes_bitwise() {
        let mut r = init::rng(11);
        for (hw, k, st, pad) in [(6, 3, 1, 1), (8, 3, 2, 1), (5, 1, 1, 0)] {
            let x = init::uniform(&[2, 3, hw, hw], -1.0, 1.0, &mut r);
            let w = init::uniform(&[k, k, 3, 4], -1.0, 1.0, &mut r);
            let bias = init::uniform(&[4], -1.0, 1.0, &mut r);
            let fused =
                conv2d_bias(&x, &w, Some(&bias), spec(k, st, pad), spec(k, st, pad)).unwrap();
            // Separate sequence: conv, then the [O,1,1] broadcast add.
            let y = conv2d(&x, &w, spec(k, st, pad), spec(k, st, pad)).unwrap();
            let b = bias.clone().reshape(&[4, 1, 1]).unwrap();
            let sep = crate::ops::add(&y, &b).unwrap();
            assert_eq!(fused.shape(), sep.shape());
            for (i, (f, s)) in fused.data().iter().zip(sep.data()).enumerate() {
                assert_eq!(f.to_bits(), s.to_bits(), "elem {i} hw={hw} k={k}");
            }
        }
    }

    #[test]
    fn conv2d_bias_act_validates_bias_width() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[3, 3, 3, 4]);
        let bad = Tensor::zeros(&[5]); // o = 4
        assert!(conv2d_bias(&x, &w, Some(&bad), spec(3, 1, 1), spec(3, 1, 1)).is_err());
        // No bias still works and matches plain conv2d.
        let y = conv2d_bias(&x, &w, None, spec(3, 1, 1), spec(3, 1, 1)).unwrap();
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn weight_to_matrix_layout() {
        // Single entry round-trips to the expected flat slot.
        let mut w = Tensor::zeros(&[2, 2, 3, 4]); // KH,KW,I,O
        w.set(&[1, 0, 2, 3], 7.0).unwrap();
        let m = weight_to_matrix(&w).unwrap();
        assert_eq!(m.dims(), &[3 * 2 * 2, 4]);
        // Column layout: (c=2, kh=1, kw=0) → 2*4 + 1*2 + 0 = 10.
        assert_eq!(m.get(&[10, 3]).unwrap(), 7.0);
    }
}
