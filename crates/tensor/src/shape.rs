//! Shape and stride algebra: row-major strides, flat↔multi index
//! conversion, broadcasting rules and permutation validation.

use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// The extents of a tensor along each axis.
///
/// A `Shape` is a thin, validated wrapper over `Vec<usize>`. Rank-0 shapes
/// (scalars) are permitted and have `num_elements() == 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Builds a shape from axis extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Extents as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (1 for a scalar shape).
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent along `axis`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.0
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Row-major (C-order) strides: the last axis is contiguous.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-index to the flat row-major offset. Marked
    /// `#[inline]` because the synthetic-image renderer calls it once per
    /// pixel through [`crate::Tensor::set`] from another crate; left to
    /// the optimiser, whether it was inlined there flipped with unrelated
    /// edits to this crate, and episode sampling ran ≈ 2.5× slower when
    /// it was not.
    #[inline]
    pub fn flat_index(&self, idx: &[usize]) -> Result<usize> {
        if idx.len() != self.rank() {
            return Err(TensorError::InvalidArgument(format!(
                "index of length {} for rank-{} shape",
                idx.len(),
                self.rank()
            )));
        }
        let mut flat = 0usize;
        for (axis, (&i, &d)) in idx.iter().zip(&self.0).enumerate() {
            if i >= d {
                return Err(TensorError::IndexOutOfRange { index: i, len: d });
            }
            let _ = axis;
            flat = flat * d + i;
        }
        Ok(flat)
    }

    /// Converts a flat row-major offset back to a multi-index.
    pub fn multi_index(&self, mut flat: usize) -> Result<Vec<usize>> {
        let n = self.num_elements();
        if flat >= n {
            return Err(TensorError::IndexOutOfRange { index: flat, len: n });
        }
        let mut idx = vec![0usize; self.rank()];
        for (slot, &d) in idx.iter_mut().zip(&self.0).rev() {
            *slot = flat % d;
            flat /= d;
        }
        Ok(idx)
    }

    /// Computes the shape resulting from NumPy-style broadcasting of two
    /// shapes, aligning trailing axes. Axes must match or one of them be 1.
    pub fn broadcast(&self, other: &Shape) -> Result<Shape> {
        let r = self.rank().max(other.rank());
        let mut out = vec![0usize; r];
        for (k, slot) in out.iter_mut().enumerate() {
            let a = if k < r - self.rank() {
                1
            } else {
                self.0[k - (r - self.rank())]
            };
            let b = if k < r - other.rank() {
                1
            } else {
                other.0[k - (r - other.rank())]
            };
            *slot = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return Err(TensorError::ShapeMismatch {
                    op: "broadcast",
                    lhs: self.0.clone(),
                    rhs: other.0.clone(),
                });
            };
        }
        Ok(Shape(out))
    }

    /// Validates that `perm` is a permutation of `0..rank` and returns the
    /// permuted shape.
    pub fn permuted(&self, perm: &[usize]) -> Result<Shape> {
        validate_permutation(perm, self.rank())?;
        Ok(Shape(perm.iter().map(|&p| self.0[p]).collect()))
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

/// Checks that `perm` is a valid permutation of `0..rank`.
pub fn validate_permutation(perm: &[usize], rank: usize) -> Result<()> {
    if perm.len() != rank {
        return Err(TensorError::InvalidArgument(format!(
            "permutation of length {} for rank {rank}",
            perm.len()
        )));
    }
    let mut seen = vec![false; rank];
    for &p in perm {
        if p >= rank || seen[p] {
            return Err(TensorError::InvalidArgument(format!(
                "invalid permutation {perm:?} for rank {rank}"
            )));
        }
        seen[p] = true;
    }
    Ok(())
}

/// An odometer-style iterator over all multi-indices of a shape, in
/// row-major order. Used by generic (non-kernel) fallback paths.
pub struct IndexIter {
    dims: Vec<usize>,
    current: Vec<usize>,
    done: bool,
}

impl IndexIter {
    /// Creates an iterator over all indices of `shape`.
    pub fn new(shape: &Shape) -> Self {
        let done = shape.num_elements() == 0;
        IndexIter {
            dims: shape.dims().to_vec(),
            current: vec![0; shape.rank()],
            done,
        }
    }
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let out = self.current.clone();
        // Odometer increment from the last axis.
        let mut axis = self.dims.len();
        loop {
            if axis == 0 {
                self.done = true;
                break;
            }
            axis -= 1;
            self.current[axis] += 1;
            if self.current[axis] < self.dims[axis] {
                break;
            }
            self.current[axis] = 0;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn flat_and_multi_index_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        for flat in 0..s.num_elements() {
            let idx = s.multi_index(flat).unwrap();
            assert_eq!(s.flat_index(&idx).unwrap(), flat);
        }
    }

    #[test]
    fn flat_index_rejects_out_of_range() {
        let s = Shape::new(&[2, 3]);
        assert!(s.flat_index(&[2, 0]).is_err());
        assert!(s.flat_index(&[0]).is_err());
        assert!(s.multi_index(6).is_err());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.num_elements(), 1);
        assert_eq!(s.flat_index(&[]).unwrap(), 0);
        assert_eq!(s.multi_index(0).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::new(&[3, 1]);
        let b = Shape::new(&[1, 4]);
        assert_eq!(a.broadcast(&b).unwrap().dims(), &[3, 4]);

        let a = Shape::new(&[5, 3, 1]);
        let b = Shape::new(&[3, 4]);
        assert_eq!(a.broadcast(&b).unwrap().dims(), &[5, 3, 4]);

        let a = Shape::new(&[2]);
        let b = Shape::new(&[3]);
        assert!(a.broadcast(&b).is_err());
    }

    #[test]
    fn permuted_shape() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.permuted(&[2, 0, 1]).unwrap().dims(), &[4, 2, 3]);
        assert!(s.permuted(&[0, 0, 1]).is_err());
        assert!(s.permuted(&[0, 1]).is_err());
    }

    #[test]
    fn index_iter_covers_all_in_order() {
        let s = Shape::new(&[2, 3]);
        let all: Vec<_> = IndexIter::new(&s).collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], vec![0, 0]);
        assert_eq!(all[1], vec![0, 1]);
        assert_eq!(all[5], vec![1, 2]);
    }

    #[test]
    fn index_iter_empty_shape() {
        let s = Shape::new(&[0, 3]);
        assert_eq!(IndexIter::new(&s).count(), 0);
    }

    #[test]
    fn index_iter_scalar() {
        let s = Shape::new(&[]);
        let all: Vec<_> = IndexIter::new(&s).collect();
        assert_eq!(all, vec![Vec::<usize>::new()]);
    }
}
