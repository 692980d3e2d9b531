//! # metalora-tensor
//!
//! A dense, row-major, `f32` tensor engine built from scratch for the
//! MetaLoRA reproduction. It provides every numeric substrate the paper
//! relies on:
//!
//! * shape/stride algebra and broadcasting ([`shape`]),
//! * the core [`Tensor`] type with constructors, views and iteration,
//! * elementwise / reduction / permutation kernels and a blocked matmul
//!   ([`ops`]),
//! * **general pairwise tensor contraction** (Eq. 1 of the paper), the
//!   planner that lowers a whole contraction network to `gemm` in cost
//!   order ([`contract`]), and the direct-sum oracle both are tested
//!   against ([`einsum`]),
//! * convolution, both direct (one GEMM over the patch matrix, packed
//!   from the image) and expressed as a tensor-network
//!   contraction through the binary *dummy tensor* 𝒫 (Eq. 2, Fig. 2)
//!   ([`conv`]),
//! * dense linear algebra — Jacobi SVD and pseudo-inverse — ([`linalg`]),
//! * the **CP** (CANDECOMP/PARAFAC, Eq. 3–4) and **Tensor-Ring** formats with
//!   ALS / SVD-based decomposition drivers ([`decomp`]),
//! * seeded random initialisers ([`init`]).
//!
//! Design notes: tensors own a contiguous `Vec<f32>`; permutations produce
//! materialised tensors (simple, cache-friendly, adequate at the scales the
//! experiments run at). All fallible public operations return
//! [`Result<T, TensorError>`] rather than panicking.

pub mod conv;
pub mod contract;
pub mod decomp;
pub mod einsum;
pub mod error;
pub mod init;
pub mod linalg;
pub mod ops;
pub mod par;
pub mod shape;
pub mod tensor;
pub mod workspace;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Returns `true` when `a` and `b` agree elementwise within `tol`
/// (absolute on small values, relative on large ones).
pub fn approx_eq(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    a.data()
        .iter()
        .zip(b.data())
        .all(|(&x, &y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

/// Maximum elementwise deviation between two same-shaped tensors, scaled by
/// `1 + max(|a|,|b|)`; `f32::INFINITY` when shapes differ.
pub fn max_rel_err(a: &Tensor, b: &Tensor) -> f32 {
    if a.shape() != b.shape() {
        return f32::INFINITY;
    }
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x - y).abs() / (1.0 + x.abs().max(y.abs())))
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn approx_eq_same_tensor() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        assert!(approx_eq(&t, &t, 1e-6));
    }

    #[test]
    fn approx_eq_shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(!approx_eq(&a, &b, 1.0));
        assert!(max_rel_err(&a, &b).is_infinite());
    }

    #[test]
    fn max_rel_err_reports_deviation() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.5], &[2]).unwrap();
        let e = max_rel_err(&a, &b);
        assert!(e > 0.13 && e < 0.15, "e = {e}");
    }
}
