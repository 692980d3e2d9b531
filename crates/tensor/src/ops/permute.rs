//! Axis permutation (generalised transpose). Output is materialised
//! contiguously so downstream kernels never see strided data.

use crate::shape::validate_permutation;
use crate::{Result, Tensor, TensorError};

/// Reorders axes so output axis `k` is input axis `perm[k]`.
///
/// The output is written one innermost-axis run at a time: an odometer
/// walks the outer output axes, and each run is gathered from the input
/// at that axis's stride — a slice copy when the stride is 1. Pure data
/// movement, so the result is the element-wise definition bit for bit.
pub fn permute(t: &Tensor, perm: &[usize]) -> Result<Tensor> {
    validate_permutation(perm, t.rank())?;
    let out_shape = t.shape().permuted(perm)?;
    let in_strides = t.shape().strides();
    // Stride of output axis k in the *input* buffer.
    let gather_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let mut out = vec![0.0f32; t.len()];
    let src = t.data();
    if !out.is_empty() {
        // A rank-0 tensor is one run of one element.
        let (&run, outer) = out_shape.dims().split_last().unwrap_or((&1, &[]));
        let run_stride = gather_strides.last().copied().unwrap_or(1);
        let mut idx = vec![0usize; outer.len()];
        let mut src_off = 0usize;
        for dst in out.chunks_exact_mut(run) {
            if run_stride == 1 {
                dst.copy_from_slice(&src[src_off..src_off + run]);
            } else {
                for (d, s) in dst.iter_mut().zip(src[src_off..].iter().step_by(run_stride)) {
                    *d = *s;
                }
            }
            // Odometer increment, maintaining src_off incrementally.
            for k in (0..outer.len()).rev() {
                idx[k] += 1;
                src_off += gather_strides[k];
                if idx[k] < outer[k] {
                    break;
                }
                src_off -= outer[k] * gather_strides[k];
                idx[k] = 0;
            }
        }
    }
    Tensor::from_vec(out, out_shape.dims())
}

/// Swaps two axes (special case of [`permute`]).
pub fn swap_axes(t: &Tensor, a: usize, b: usize) -> Result<Tensor> {
    let r = t.rank();
    if a >= r {
        return Err(TensorError::AxisOutOfRange { axis: a, rank: r });
    }
    if b >= r {
        return Err(TensorError::AxisOutOfRange { axis: b, rank: r });
    }
    let mut perm: Vec<usize> = (0..r).collect();
    perm.swap(a, b);
    permute(t, &perm)
}

/// Matrix transpose, with a blocked kernel for cache friendliness.
pub fn transpose2d(t: &Tensor) -> Result<Tensor> {
    if t.rank() != 2 {
        return Err(TensorError::InvalidArgument(format!(
            "transpose2d on rank-{} tensor",
            t.rank()
        )));
    }
    let (m, n) = (t.dims()[0], t.dims()[1]);
    let src = t.data();
    let mut out = vec![0.0f32; m * n];
    const B: usize = 32;
    for ib in (0..m).step_by(B) {
        for jb in (0..n).step_by(B) {
            for i in ib..(ib + B).min(m) {
                for j in jb..(jb + B).min(n) {
                    out[j * m + i] = src[i * n + j];
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, m])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, init};

    #[test]
    fn transpose2d_known() {
        let t = Tensor::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let tt = transpose2d(&t).unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.data(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn transpose2d_involution() {
        let mut r = init::rng(11);
        let t = init::uniform(&[37, 53], -1.0, 1.0, &mut r);
        let back = transpose2d(&transpose2d(&t).unwrap()).unwrap();
        assert!(approx_eq(&t, &back, 0.0));
    }

    #[test]
    fn permute_matches_manual_indexing() {
        let t = Tensor::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap();
        let p = permute(&t, &[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[4, 2, 3]);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(
                        p.get(&[k, i, j]).unwrap(),
                        t.get(&[i, j, k]).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn permute_identity_is_noop() {
        let t = Tensor::arange(0.0, 1.0, 12).reshape(&[3, 4]).unwrap();
        let p = permute(&t, &[0, 1]).unwrap();
        assert_eq!(p, t);
    }

    #[test]
    fn permute_agrees_with_transpose2d() {
        let mut r = init::rng(7);
        let t = init::uniform(&[9, 13], -1.0, 1.0, &mut r);
        assert!(approx_eq(
            &permute(&t, &[1, 0]).unwrap(),
            &transpose2d(&t).unwrap(),
            0.0
        ));
    }

    #[test]
    fn swap_axes_checks_range() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(swap_axes(&t, 0, 2).is_err());
        assert_eq!(swap_axes(&t, 0, 1).unwrap().dims(), &[3, 2]);
    }

    #[test]
    fn permute_rejects_bad_permutations() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(permute(&t, &[0]).is_err());
        assert!(permute(&t, &[1, 1]).is_err());
        assert!(transpose2d(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn permute_empty_tensor() {
        let t = Tensor::zeros(&[0, 3]);
        let p = permute(&t, &[1, 0]).unwrap();
        assert_eq!(p.dims(), &[3, 0]);
    }
}
