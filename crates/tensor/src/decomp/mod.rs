//! Tensor-network formats: CP (CANDECOMP/PARAFAC, Eq. 3–4) and Tensor-Ring,
//! plus the matricization helpers (`unfold`/`fold`, Khatri–Rao) their
//! decomposition drivers are built from.
//!
//! Convention: `unfold(t, n)` is the row-major mode-`n` matricization —
//! mode `n` becomes the rows, the remaining modes keep their original
//! relative order along the columns (first remaining mode varies slowest).
//! [`khatri_rao`] uses the matching Kronecker order so the classic ALS
//! identity `X₍ₙ₎ ≈ Aⁿ·diag(λ)·KR(others)ᵀ` holds exactly.

mod cp;
mod tr;

pub use cp::{cp_als, CpFormat};
pub use tr::{tr_svd, TrFormat};

use crate::ops::permute;
use crate::{Result, Tensor, TensorError};

/// Mode-`n` matricization: `[I_n, ∏_{m≠n} I_m]`, remaining modes in
/// original order.
pub fn unfold(t: &Tensor, mode: usize) -> Result<Tensor> {
    if mode >= t.rank() {
        return Err(TensorError::AxisOutOfRange {
            axis: mode,
            rank: t.rank(),
        });
    }
    let mut perm = vec![mode];
    perm.extend((0..t.rank()).filter(|&k| k != mode));
    let p = permute(t, &perm)?;
    let rows = t.dims()[mode];
    let cols = t.len() / rows.max(1);
    p.reshape(&[rows, cols])
}

/// Inverse of [`unfold`]: folds a `[I_n, ∏ others]` matrix back into the
/// original `dims`.
pub fn fold(m: &Tensor, mode: usize, dims: &[usize]) -> Result<Tensor> {
    if mode >= dims.len() {
        return Err(TensorError::AxisOutOfRange {
            axis: mode,
            rank: dims.len(),
        });
    }
    let expected: usize = dims.iter().product();
    if m.len() != expected {
        return Err(TensorError::ReshapeMismatch {
            from: m.len(),
            to: dims.to_vec(),
        });
    }
    if m.rank() != 2 || m.dims()[0] != dims[mode] {
        return Err(TensorError::ShapeMismatch {
            op: "fold",
            lhs: m.dims().to_vec(),
            rhs: dims.to_vec(),
        });
    }
    let mut permuted_dims = vec![dims[mode]];
    permuted_dims.extend(
        (0..dims.len())
            .filter(|&k| k != mode)
            .map(|k| dims[k]),
    );
    let t = m.reshaped(&permuted_dims)?;
    // Invert the unfold permutation.
    let mut perm = vec![mode];
    perm.extend((0..dims.len()).filter(|&k| k != mode));
    let mut inv = vec![0usize; dims.len()];
    for (dst, &src) in perm.iter().enumerate() {
        inv[src] = dst;
    }
    permute(&t, &inv)
}

/// Column-wise Khatri–Rao product of `[I, R]` and `[J, R]` → `[I·J, R]`;
/// the first factor varies slowest (row-major order, matching [`unfold`]).
pub fn khatri_rao(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 || a.dims()[1] != b.dims()[1] {
        return Err(TensorError::ShapeMismatch {
            op: "khatri_rao",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (i, r) = (a.dims()[0], a.dims()[1]);
    let j = b.dims()[0];
    let mut out = vec![0.0f32; i * j * r];
    let (ad, bd) = (a.data(), b.data());
    for ii in 0..i {
        for jj in 0..j {
            let row = (ii * j + jj) * r;
            for rr in 0..r {
                out[row + rr] = ad[ii * r + rr] * bd[jj * r + rr];
            }
        }
    }
    Tensor::from_vec(out, &[i * j, r])
}

/// Khatri–Rao product of a list of factor matrices (left-to-right, first
/// factor varying slowest). Errors on an empty list.
pub fn khatri_rao_list(factors: &[&Tensor]) -> Result<Tensor> {
    let first = factors.first().ok_or_else(|| {
        TensorError::InvalidArgument("khatri_rao_list of zero factors".into())
    })?;
    let mut acc = (*first).clone();
    for f in &factors[1..] {
        acc = khatri_rao(&acc, f)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, init};

    #[test]
    fn unfold_fold_roundtrip_all_modes() {
        let mut r = init::rng(1);
        let t = init::uniform(&[2, 3, 4, 5], -1.0, 1.0, &mut r);
        for mode in 0..4 {
            let u = unfold(&t, mode).unwrap();
            assert_eq!(u.dims()[0], t.dims()[mode]);
            let back = fold(&u, mode, t.dims()).unwrap();
            assert!(approx_eq(&t, &back, 0.0), "mode {mode}");
        }
    }

    #[test]
    fn unfold_mode0_is_plain_reshape() {
        let t = Tensor::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap();
        let u = unfold(&t, 0).unwrap();
        assert_eq!(u.data(), t.data());
        assert_eq!(u.dims(), &[2, 12]);
    }

    #[test]
    fn unfold_known_entries() {
        let t = Tensor::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap();
        let u = unfold(&t, 1).unwrap(); // [3, 8], columns ordered (i0, i2)
        // u[j, i0*4 + i2] == t[i0, j, i2].
        assert_eq!(u.get(&[2, 4 + 3]).unwrap(), t.get(&[1, 2, 3]).unwrap());
    }

    #[test]
    fn fold_validates() {
        let m = Tensor::zeros(&[3, 8]);
        assert!(fold(&m, 3, &[2, 3, 4]).is_err());
        assert!(fold(&m, 0, &[2, 3, 4]).is_err()); // 24 elements but rows=3≠2
        assert!(unfold(&Tensor::zeros(&[2, 2]), 2).is_err());
    }

    #[test]
    fn khatri_rao_small_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let k = khatri_rao(&a, &b).unwrap();
        assert_eq!(k.dims(), &[4, 2]);
        // Column 0: kron([1,3],[5,7]) = [5,7,15,21]; column 1: kron([2,4],[6,8]).
        assert_eq!(k.get(&[0, 0]).unwrap(), 5.0);
        assert_eq!(k.get(&[1, 0]).unwrap(), 7.0);
        assert_eq!(k.get(&[2, 0]).unwrap(), 15.0);
        assert_eq!(k.get(&[3, 1]).unwrap(), 32.0);
    }

    #[test]
    fn khatri_rao_validates() {
        assert!(khatri_rao(&Tensor::zeros(&[2, 2]), &Tensor::zeros(&[2, 3])).is_err());
        assert!(khatri_rao(&Tensor::zeros(&[2]), &Tensor::zeros(&[2, 2])).is_err());
        assert!(khatri_rao_list(&[]).is_err());
    }

    #[test]
    fn khatri_rao_matches_unfold_of_rank_one() {
        // For X = a ∘ b ∘ c, X_(0) = a · kr(b, c)ᵀ — validates that our
        // unfold and KR orders agree.
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]).unwrap();
        let c = Tensor::from_vec(vec![6.0, 7.0], &[2]).unwrap();
        let x = crate::contract::outer(&crate::contract::outer(&a, &b).unwrap(), &c).unwrap();
        let x0 = unfold(&x, 0).unwrap();
        let kr = khatri_rao(
            &b.reshaped(&[3, 1]).unwrap(),
            &c.reshaped(&[2, 1]).unwrap(),
        )
        .unwrap();
        let expect =
            crate::ops::matmul_transpose_b(&a.reshaped(&[2, 1]).unwrap(), &kr).unwrap();
        assert!(approx_eq(&x0, &expect, 1e-5));
    }
}
