//! Elementwise operations with NumPy-style broadcasting.
//!
//! The same-shape paths are one pass over the data. The broadcast path
//! walks **runs**, as `ops::permute` does: adjacent output axes that both
//! operands step through alike are coalesced, an odometer runs over the
//! outer axes, and over the innermost run each operand is contiguous or
//! held fixed. Each output element is still one call of the closure on
//! the same two input elements, so the walk is bitwise the per-element
//! definition (`tests/broadcast_equiv.rs`).

use crate::shape::Shape;
use crate::{Result, Tensor, TensorError};

/// Applies `f` to every element, producing a new tensor of the same shape.
pub fn map(t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let data = t.data().iter().map(|&x| f(x)).collect();
    Tensor::from_vec(data, t.dims()).expect("same shape")
}

/// Combines two tensors elementwise with broadcasting.
///
/// Shapes are aligned on trailing axes; an axis of extent 1 is repeated.
pub fn zip_with(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    if a.shape() == b.shape() {
        // Fast path: identical shapes, no index arithmetic.
        let data = a.data().iter().zip(b.data()).map(|(&x, &y)| f(x, y)).collect();
        return Tensor::from_vec(data, a.dims());
    }
    let out_shape = a.shape().broadcast(b.shape())?;
    let axes = coalesce(
        out_shape.dims(),
        &broadcast_strides(a.shape(), &out_shape)?,
        &broadcast_strides(b.shape(), &out_shape)?,
    );
    let (a_data, b_data) = (a.data(), b.data());
    let mut data = vec![0.0f32; out_shape.num_elements()];
    if !data.is_empty() {
        // An output of no axis beyond extent 1 is one run of one element.
        let (&(run, a_step, b_step), outer) = axes.split_last().unwrap_or((&(1, 0, 0), &[]));
        let mut idx = vec![0usize; outer.len()];
        let (mut a_off, mut b_off) = (0usize, 0usize);
        for dst in data.chunks_exact_mut(run) {
            let (x, y) = (&a_data[a_off..], &b_data[b_off..]);
            match (a_step, b_step) {
                (1, 1) => {
                    for ((o, &p), &q) in dst.iter_mut().zip(&x[..run]).zip(&y[..run]) {
                        *o = f(p, q);
                    }
                }
                (1, 0) => {
                    let q = y[0];
                    for (o, &p) in dst.iter_mut().zip(&x[..run]) {
                        *o = f(p, q);
                    }
                }
                (0, 1) => {
                    let p = x[0];
                    for (o, &q) in dst.iter_mut().zip(&y[..run]) {
                        *o = f(p, q);
                    }
                }
                // Any other pair of strides; only the single element of
                // an output with no axis beyond extent 1 lands here.
                _ => {
                    for (j, o) in dst.iter_mut().enumerate() {
                        *o = f(x[j * a_step], y[j * b_step]);
                    }
                }
            }
            // Odometer increment over the outer axes.
            for (k, &(extent, a_stride, b_stride)) in outer.iter().enumerate().rev() {
                idx[k] += 1;
                a_off += a_stride;
                b_off += b_stride;
                if idx[k] < extent {
                    break;
                }
                a_off -= extent * a_stride;
                b_off -= extent * b_stride;
                idx[k] = 0;
            }
        }
    }
    Tensor::from_vec(data, out_shape.dims())
}

/// The broadcast walk's axes, outermost first, as `(extent, stride in a,
/// stride in b)`: extent-1 axes dropped, and an axis folded into the next
/// inner one whenever both operands step across the pair as across one
/// axis. The innermost stride of each operand is then 1 or 0.
fn coalesce(
    dims: &[usize],
    a_strides: &[usize],
    b_strides: &[usize],
) -> Vec<(usize, usize, usize)> {
    let mut axes: Vec<(usize, usize, usize)> = Vec::with_capacity(dims.len());
    for k in (0..dims.len()).rev().filter(|&k| dims[k] != 1) {
        match axes.last_mut() {
            Some((extent, a, b))
                if a_strides[k] == *a * *extent && b_strides[k] == *b * *extent =>
            {
                *extent *= dims[k];
            }
            _ => axes.push((dims[k], a_strides[k], b_strides[k])),
        }
    }
    axes.reverse();
    axes
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
    let data = a.data().iter().zip(b.data()).map(|(&x, &y)| x + s * y).collect();
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
