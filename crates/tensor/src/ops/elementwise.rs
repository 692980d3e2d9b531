//! Elementwise operations with NumPy-style broadcasting.
//!
//! The same-shape paths run through [`crate::par::par_row_blocks`]; each
//! output element depends on one input slot, so the parallel split is
//! trivially bitwise-deterministic. The broadcast path keeps its serial
//! odometer walk.

use crate::par::par_row_blocks;
use crate::shape::Shape;
use crate::{Result, Tensor, TensorError};

/// Applies `f` to every element, producing a new tensor of the same shape.
pub fn map(t: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let src = t.data();
    let mut data = vec![0.0f32; src.len()];
    par_row_blocks(&mut data, 1, 1, |first, block| {
        let end = first + block.len();
        for (o, &x) in block.iter_mut().zip(&src[first..end]) {
            *o = f(x);
        }
    });
    Tensor::from_vec(data, t.dims()).expect("same shape")
}

/// Combines two tensors elementwise with broadcasting.
///
/// Shapes are aligned on trailing axes; an axis of extent 1 is repeated.
pub fn zip_with(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Result<Tensor> {
    if a.shape() == b.shape() {
        // Fast path: identical shapes, no index arithmetic.
        let (ad, bd) = (a.data(), b.data());
        let mut data = vec![0.0f32; ad.len()];
        par_row_blocks(&mut data, 1, 1, |first, block| {
            let end = first + block.len();
            for ((o, &x), &y) in block.iter_mut().zip(&ad[first..end]).zip(&bd[first..end]) {
                *o = f(x, y);
            }
        });
        return Tensor::from_vec(data, a.dims());
    }
    let out_shape = a.shape().broadcast(b.shape())?;
    let mut out = Tensor::zeros(out_shape.dims());
    let a_strides = broadcast_strides(a.shape(), &out_shape)?;
    let b_strides = broadcast_strides(b.shape(), &out_shape)?;
    let out_dims = out_shape.dims().to_vec();
    let (a_data, b_data) = (a.data(), b.data());
    let out_data = out.data_mut();
    let mut idx = vec![0usize; out_dims.len()];
    for out_slot in out_data.iter_mut() {
        let mut a_off = 0usize;
        let mut b_off = 0usize;
        for (k, &i) in idx.iter().enumerate() {
            a_off += i * a_strides[k];
            b_off += i * b_strides[k];
        }
        *out_slot = f(a_data[a_off], b_data[b_off]);
        // Odometer increment.
        for k in (0..out_dims.len()).rev() {
            idx[k] += 1;
            if idx[k] < out_dims[k] {
                break;
            }
            idx[k] = 0;
        }
    }
    Ok(out)
}

/// Strides of `src` viewed under the broadcast `target` shape: broadcast
/// axes get stride 0 so the same element is reused.
fn broadcast_strides(src: &Shape, target: &Shape) -> Result<Vec<usize>> {
    let offset = target.rank() - src.rank();
    let src_strides = src.strides();
    let mut out = vec![0usize; target.rank()];
    for k in 0..target.rank() {
        if k < offset {
            out[k] = 0;
        } else {
            let sd = src.dims()[k - offset];
            let td = target.dims()[k];
            if sd == td {
                out[k] = src_strides[k - offset];
            } else if sd == 1 {
                out[k] = 0;
            } else {
                return Err(TensorError::ShapeMismatch {
                    op: "broadcast",
                    lhs: src.dims().to_vec(),
                    rhs: target.dims().to_vec(),
                });
            }
        }
    }
    Ok(out)
}

/// `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_with(a, b, |x, y| x + y)
}

/// `a - b` with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_with(a, b, |x, y| x - y)
}

/// Hadamard product with broadcasting.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_with(a, b, |x, y| x * y)
}

/// Elementwise division with broadcasting.
pub fn div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_with(a, b, |x, y| x / y)
}

/// `s * t`.
pub fn scale(t: &Tensor, s: f32) -> Tensor {
    map(t, |x| s * x)
}

/// `-t`.
pub fn neg(t: &Tensor) -> Tensor {
    map(t, |x| -x)
}

/// Tanh-approximated GELU, the single shared definition: the autograd
/// tape's forward delegates here, and tape-free inference maps it over a
/// finished product, so both compute bit-identical activations.
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// `a + s * b` for same-shaped tensors — the axpy workhorse of the
/// optimisers, done in a single pass.
pub fn add_scaled(a: &Tensor, b: &Tensor, s: f32) -> Result<Tensor> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "add_scaled",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (ad, bd) = (a.data(), b.data());
    let mut data = vec![0.0f32; ad.len()];
    par_row_blocks(&mut data, 1, 2, |first, block| {
        let end = first + block.len();
        for ((o, &x), &y) in block.iter_mut().zip(&ad[first..end]).zip(&bd[first..end]) {
            *o = x + s * y;
        }
    });
    Tensor::from_vec(data, a.dims())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    #[test]
    fn same_shape_ops() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let b = t(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(add(&a, &b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(sub(&b, &a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(mul(&a, &b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(div(&b, &a).unwrap().data(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn broadcast_row_and_column() {
        // [2,3] + [3] — bias add pattern.
        let m = t(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[2, 3]);
        let row = t(vec![10.0, 20.0, 30.0], &[3]);
        let r = add(&m, &row).unwrap();
        assert_eq!(r.data(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);

        // [2,1] * [1,3] — outer-product pattern.
        let c = t(vec![2.0, 3.0], &[2, 1]);
        let d = t(vec![1.0, 10.0, 100.0], &[1, 3]);
        let r = mul(&c, &d).unwrap();
        assert_eq!(r.dims(), &[2, 3]);
        assert_eq!(r.data(), &[2.0, 20.0, 200.0, 3.0, 30.0, 300.0]);
    }

    #[test]
    fn broadcast_with_scalar_tensor() {
        let m = t(vec![1.0, 2.0], &[2]);
        let s = Tensor::scalar(10.0);
        assert_eq!(add(&m, &s).unwrap().data(), &[11.0, 12.0]);
        assert_eq!(add(&s, &m).unwrap().data(), &[11.0, 12.0]);
    }

    #[test]
    fn broadcast_incompatible_errors() {
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0, 2.0, 3.0], &[3]);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn map_and_scale_and_neg() {
        let a = t(vec![1.0, -2.0], &[2]);
        assert_eq!(map(&a, f32::abs).data(), &[1.0, 2.0]);
        assert_eq!(scale(&a, 3.0).data(), &[3.0, -6.0]);
        assert_eq!(neg(&a).data(), &[-1.0, 2.0]);
    }

    #[test]
    fn add_scaled_requires_same_shape() {
        let a = t(vec![1.0, 1.0], &[2]);
        let b = t(vec![2.0, 4.0], &[2]);
        assert_eq!(add_scaled(&a, &b, 0.5).unwrap().data(), &[2.0, 3.0]);
        assert!(add_scaled(&a, &Tensor::zeros(&[3]), 1.0).is_err());
    }

    #[test]
    fn broadcast_3d() {
        // [2,2,2] + [2] broadcasts over the last axis.
        let a = Tensor::arange(0.0, 1.0, 8).reshape(&[2, 2, 2]).unwrap();
        let b = t(vec![100.0, 200.0], &[2]);
        let r = add(&a, &b).unwrap();
        assert_eq!(r.get(&[0, 0, 0]).unwrap(), 100.0);
        assert_eq!(r.get(&[1, 1, 1]).unwrap(), 207.0);
    }
}
