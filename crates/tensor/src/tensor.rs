//! The core dense tensor type.

use crate::shape::{IndexIter, Shape};
use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// Data is always contiguous; operations that change the logical layout
/// (permute, reshape-with-copy) materialise a new buffer. This keeps the
/// kernel code simple and predictable at the model scales used by the
/// MetaLoRA experiments.
///
/// Buffer lifetimes are reported to `metalora_obs` (peak tensor bytes
/// alive) when instrumentation is enabled; every construction must go
/// through [`Tensor::from_parts`] and every buffer hand-off through
/// [`Tensor::take_data`] so allocs and frees stay paired.
#[derive(Debug, PartialEq, Serialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor::from_parts(self.shape.clone(), self.data.clone())
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        metalora_obs::counters::track_free(self.data.capacity() * 4);
    }
}

impl Deserialize for Tensor {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let shape = Shape::from_value(v.field("shape")?)?;
        let data = Vec::<f32>::from_value(v.field("data")?)?;
        if data.len() != shape.num_elements() {
            return Err(serde::Error(format!(
                "tensor data length {} does not match shape {:?}",
                data.len(),
                shape.dims()
            )));
        }
        Ok(Tensor::from_parts(shape, data))
    }
}

impl Tensor {
    /// The one true constructor: pairs the buffer with its shape and
    /// reports the allocation to the observability layer (matched by the
    /// `Drop` impl / [`Tensor::take_data`]).
    fn from_parts(shape: Shape, data: Vec<f32>) -> Self {
        metalora_obs::counters::track_alloc(data.capacity() * 4);
        Tensor { shape, data }
    }

    /// Moves the buffer out, un-reporting it; the tensor is left empty
    /// so its `Drop` frees (and reports) nothing.
    fn take_data(&mut self) -> Vec<f32> {
        let data = std::mem::take(&mut self.data);
        metalora_obs::counters::track_free(data.capacity() * 4);
        data
    }

    /// Builds a tensor from a flat row-major buffer and a shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.num_elements() {
            return Err(TensorError::DataShapeMismatch {
                data_len: data.len(),
                shape: dims.to_vec(),
            });
        }
        Ok(Tensor::from_parts(shape, data))
    }

    /// A tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor::from_parts(shape, vec![0.0; n])
    }

    /// A tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor::from_parts(shape, vec![value; n])
    }

    /// A rank-0 tensor holding one value.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_parts(Shape::new(&[]), vec![value])
    }

    /// The `n×n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Evenly spaced values `start, start+step, …` of length `n`, shaped
    /// `[n]`.
    pub fn arange(start: f32, step: f32, n: usize) -> Self {
        let data = (0..n).map(|i| start + step * i as f32).collect();
        Tensor::from_parts(Shape::new(&[n]), data)
    }

    /// Tensor shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Axis extents as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        self.take_data()
    }

    /// Element at a multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.flat_index(idx)?])
    }

    /// Sets the element at a multi-index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], value: f32) -> Result<()> {
        let flat = self.shape.flat_index(idx)?;
        self.data[flat] = value;
        Ok(())
    }

    /// The single value of a rank-0 or one-element tensor.
    pub fn item(&self) -> Result<f32> {
        if self.data.len() == 1 {
            Ok(self.data[0])
        } else {
            Err(TensorError::InvalidArgument(format!(
                "item() on tensor with {} elements",
                self.data.len()
            )))
        }
    }

    /// Reinterprets the buffer under a new shape with the same element
    /// count. O(1) — the buffer is moved, not copied.
    pub fn reshape(mut self, dims: &[usize]) -> Result<Self> {
        let target = Shape::new(dims);
        if target.num_elements() != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.data.len(),
                to: dims.to_vec(),
            });
        }
        Ok(Tensor::from_parts(target, self.take_data()))
    }

    /// Like [`Tensor::reshape`] but borrows and copies.
    pub fn reshaped(&self, dims: &[usize]) -> Result<Self> {
        self.clone().reshape(dims)
    }

    /// Iterator over `(multi_index, value)` pairs in row-major order.
    pub fn indexed_iter(&self) -> impl Iterator<Item = (Vec<usize>, f32)> + '_ {
        IndexIter::new(&self.shape).map(move |idx| {
            let flat = self.shape.flat_index(&idx).expect("iter index in range");
            (idx, self.data[flat])
        })
    }

    /// Extracts the sub-tensor obtained by fixing axis 0 to `index`
    /// (e.g. row of a matrix, sample of a batch).
    pub fn index_axis0(&self, index: usize) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::InvalidArgument(
                "index_axis0 on scalar".into(),
            ));
        }
        let d0 = self.dims()[0];
        if index >= d0 {
            return Err(TensorError::IndexOutOfRange { index, len: d0 });
        }
        let sub: usize = self.dims()[1..].iter().product();
        let data = self.data[index * sub..(index + 1) * sub].to_vec();
        Tensor::from_vec(data, &self.dims()[1..])
    }

    /// Writes `src` into the axis-0 slot `index` (inverse of
    /// [`Tensor::index_axis0`]).
    pub fn set_axis0(&mut self, index: usize, src: &Tensor) -> Result<()> {
        if self.rank() == 0 {
            return Err(TensorError::InvalidArgument("set_axis0 on scalar".into()));
        }
        let d0 = self.dims()[0];
        if index >= d0 {
            return Err(TensorError::IndexOutOfRange { index, len: d0 });
        }
        if src.dims() != &self.dims()[1..] {
            return Err(TensorError::ShapeMismatch {
                op: "set_axis0",
                lhs: self.dims().to_vec(),
                rhs: src.dims().to_vec(),
            });
        }
        let sub: usize = self.dims()[1..].iter().product();
        self.data[index * sub..(index + 1) * sub].copy_from_slice(src.data());
        Ok(())
    }

    /// Stacks equally shaped tensors along a new leading axis.
    pub fn stack(parts: &[Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or_else(|| {
            TensorError::InvalidArgument("stack of zero tensors".into())
        })?;
        let mut dims = vec![parts.len()];
        dims.extend_from_slice(first.dims());
        let mut out = Tensor::zeros(&dims);
        for (i, p) in parts.iter().enumerate() {
            out.set_axis0(i, p)?;
        }
        Ok(out)
    }

    /// Frobenius norm (√Σx²).
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.0).data(), &[7.0, 7.0]);
        assert_eq!(Tensor::scalar(4.0).item().unwrap(), 4.0);
        let e = Tensor::eye(3);
        assert_eq!(e.get(&[1, 1]).unwrap(), 1.0);
        assert_eq!(e.get(&[1, 2]).unwrap(), 0.0);
        let a = Tensor::arange(1.0, 0.5, 4);
        assert_eq!(a.data(), &[1.0, 1.5, 2.0, 2.5]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 5.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 5.0);
        assert_eq!(t.data()[5], 5.0);
    }

    #[test]
    fn reshape_moves_without_copy_semantics() {
        let t = Tensor::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.get(&[1, 0]).unwrap(), 3.0);
        assert!(t.reshaped(&[4]).is_err());
    }

    #[test]
    fn item_rejects_multielement() {
        assert!(Tensor::zeros(&[2]).item().is_err());
    }

    #[test]
    fn index_axis0_and_set_axis0() {
        let t = Tensor::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let row = t.index_axis0(1).unwrap();
        assert_eq!(row.data(), &[3.0, 4.0, 5.0]);

        let mut u = Tensor::zeros(&[2, 3]);
        u.set_axis0(0, &row).unwrap();
        assert_eq!(u.data()[..3], [3.0, 4.0, 5.0]);
        assert!(u.set_axis0(2, &row).is_err());
        assert!(u.set_axis0(0, &Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn stack_builds_batch() {
        let a = Tensor::ones(&[2]);
        let b = Tensor::full(&[2], 2.0);
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 1.0, 2.0, 2.0]);
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn norm_and_finite_checks() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert!((t.norm() - 5.0).abs() < 1e-6);
        assert!(!t.has_non_finite());
        let bad = Tensor::from_vec(vec![f32::NAN], &[1]).unwrap();
        assert!(bad.has_non_finite());
    }

    #[test]
    fn indexed_iter_row_major() {
        let t = Tensor::arange(0.0, 1.0, 4).reshape(&[2, 2]).unwrap();
        let pairs: Vec<_> = t.indexed_iter().collect();
        assert_eq!(pairs[0], (vec![0, 0], 0.0));
        assert_eq!(pairs[3], (vec![1, 1], 3.0));
    }

    #[test]
    fn serde_roundtrip() {
        let t = Tensor::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
