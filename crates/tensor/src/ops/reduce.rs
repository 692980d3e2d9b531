//! Reductions: full and per-axis sums, means, maxima and argmax.
//!
//! Every reduction accumulates each output element in increasing index
//! order along the reduced axis.

use crate::{Result, Tensor, TensorError};

/// Sum of all elements.
pub fn sum_all(t: &Tensor) -> f32 {
    t.data().iter().sum()
}

/// Mean of all elements (0 for an empty tensor).
pub fn mean_all(t: &Tensor) -> f32 {
    if t.is_empty() {
        0.0
    } else {
        sum_all(t) / t.len() as f32
    }
}

/// Decomposes a shape around `axis` into `(outer, mid, inner)` extents so a
/// reduction walks `outer × inner` strided lanes of length `mid`.
fn axis_split(t: &Tensor, axis: usize) -> Result<(usize, usize, usize)> {
    if axis >= t.rank() {
        return Err(TensorError::AxisOutOfRange {
            axis,
            rank: t.rank(),
        });
    }
    let dims = t.dims();
    let outer: usize = dims[..axis].iter().product();
    let mid = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    Ok((outer, mid, inner))
}

fn reduced_dims(t: &Tensor, axis: usize) -> Vec<usize> {
    let mut dims = t.dims().to_vec();
    dims.remove(axis);
    dims
}

/// Sums over one axis; the output drops that axis.
pub fn sum_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    let (outer, mid, inner) = axis_split(t, axis)?;
    let src = t.data();
    let mut out = vec![0.0f32; outer * inner];
    for (o, dst) in out.chunks_mut(inner.max(1)).enumerate() {
        for m in 0..mid {
            let base = (o * mid + m) * inner;
            for (d, &s) in dst.iter_mut().zip(&src[base..base + inner]) {
                *d += s;
            }
        }
    }
    Tensor::from_vec(out, &reduced_dims(t, axis))
}

/// Mean over one axis; the output drops that axis.
pub fn mean_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    let n = t.shape().dim(axis)? as f32;
    let summed = sum_axis(t, axis)?;
    Ok(crate::ops::scale(&summed, 1.0 / n))
}

/// Maximum over one axis; the output drops that axis. Errors if the axis
/// has extent 0.
pub fn max_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    let (outer, mid, inner) = axis_split(t, axis)?;
    if mid == 0 {
        return Err(TensorError::InvalidArgument(
            "max over empty axis".into(),
        ));
    }
    let src = t.data();
    let mut out = vec![f32::NEG_INFINITY; outer * inner];
    for (o, dst) in out.chunks_mut(inner.max(1)).enumerate() {
        for m in 0..mid {
            let base = (o * mid + m) * inner;
            for (d, &s) in dst.iter_mut().zip(&src[base..base + inner]) {
                if s > *d {
                    *d = s;
                }
            }
        }
    }
    Tensor::from_vec(out, &reduced_dims(t, axis))
}

/// Index of the maximum along the *last* axis, for a rank-≥1 tensor.
/// Returns a `Vec<usize>` with one entry per leading-lane (e.g. per batch
/// row for logits `[batch, classes]`). Ties resolve to the first maximum.
pub fn argmax(t: &Tensor) -> Result<Vec<usize>> {
    if t.rank() == 0 {
        return Err(TensorError::InvalidArgument("argmax on scalar".into()));
    }
    let last = *t.dims().last().expect("rank >= 1");
    if last == 0 {
        return Err(TensorError::InvalidArgument(
            "argmax over empty axis".into(),
        ));
    }
    let argmax_row = |row: &[f32]| {
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        debug_assert!(!row[best].is_nan(), "argmax over NaN data");
        best
    };
    Ok(t.data().chunks_exact(last).map(argmax_row).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    #[test]
    fn sum_and_mean_all() {
        let a = Tensor::arange(1.0, 1.0, 4);
        assert_eq!(sum_all(&a), 10.0);
        assert_eq!(mean_all(&a), 2.5);
        assert_eq!(mean_all(&Tensor::zeros(&[0])), 0.0);
    }

    #[test]
    fn sum_axis_matrix() {
        let m = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(sum_axis(&m, 0).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(sum_axis(&m, 1).unwrap().data(), &[6.0, 15.0]);
        assert!(sum_axis(&m, 2).is_err());
    }

    #[test]
    fn sum_axis_3d_middle() {
        let c = Tensor::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap();
        let s = sum_axis(&c, 1).unwrap();
        assert_eq!(s.dims(), &[2, 4]);
        // s[0,0] = c[0,0,0] + c[0,1,0] + c[0,2,0] = 0 + 4 + 8.
        assert_eq!(s.get(&[0, 0]).unwrap(), 12.0);
        assert_eq!(s.get(&[1, 3]).unwrap(), 15.0 + 19.0 + 23.0);
    }

    #[test]
    fn mean_axis_matches_manual() {
        let m = t(vec![2.0, 4.0, 6.0, 8.0], &[2, 2]);
        assert_eq!(mean_axis(&m, 0).unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn max_axis_behaviour() {
        let m = t(vec![1.0, 9.0, -3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(max_axis(&m, 1).unwrap().data(), &[9.0, 6.0]);
        assert_eq!(max_axis(&m, 0).unwrap().data(), &[4.0, 9.0, 6.0]);
        assert!(max_axis(&Tensor::zeros(&[2, 0]), 1).is_err());
    }

    #[test]
    fn argmax_rows_and_ties() {
        let m = t(vec![0.1, 0.9, 0.0, 0.5, 0.5, 0.2], &[2, 3]);
        assert_eq!(argmax(&m).unwrap(), vec![1, 0]);
        let v = t(vec![3.0, 1.0, 2.0], &[3]);
        assert_eq!(argmax(&v).unwrap(), vec![0]);
        assert!(argmax(&Tensor::scalar(1.0)).is_err());
    }
}
