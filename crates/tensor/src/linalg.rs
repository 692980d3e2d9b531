//! Small dense linear algebra, written from scratch: one-sided Jacobi SVD
//! and the Moore–Penrose pseudo-inverse built on it.
//!
//! These routines power the CP-ALS and TR-SVD decomposition drivers. They
//! target matrices up to a few hundred rows/columns — the regime of every
//! experiment in the reproduction — and favour clarity plus numerical
//! robustness (convergence checks, a singular-value cutoff) over peak speed.

use crate::ops::{matmul, transpose2d};
use crate::{Result, Tensor, TensorError};

fn require_matrix(t: &Tensor, what: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::InvalidArgument(format!(
            "{what}: expected a matrix, got rank {}",
            t.rank()
        )));
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Result of a singular value decomposition `A = U·diag(s)·Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `[m, r]`, orthonormal columns.
    pub u: Tensor,
    /// Singular values in non-increasing order, length `r = min(m, n)`.
    pub s: Vec<f32>,
    /// Right singular vectors as `Vᵀ`, `[r, n]`, orthonormal rows.
    pub vt: Tensor,
}

/// Thin SVD via one-sided Jacobi rotations on the (possibly transposed)
/// input. Robust and accurate for the moderate sizes used here.
pub fn svd(a: &Tensor) -> Result<Svd> {
    let (m, n) = require_matrix(a, "svd")?;
    // One-sided Jacobi orthogonalises columns; work with the orientation
    // that has fewer columns.
    if n > m {
        // A = U S Vᵀ ⇔ Aᵀ = V S Uᵀ.
        let t = transpose2d(a)?;
        let Svd { u, s, vt } = svd(&t)?;
        return Ok(Svd {
            u: transpose2d(&vt)?,
            s,
            vt: transpose2d(&u)?,
        });
    }

    let mut u = a.data().to_vec(); // m x n, columns rotate toward orthogonal
    let mut v = vec![0.0f32; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    let max_sweeps = 60;
    let eps = 1e-10f64;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries for the (p,q) column pair.
                let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                for i in 0..m {
                    let x = u[i * n + p] as f64;
                    let y = u[i * n + q] as f64;
                    app += x * x;
                    aqq += y * y;
                    apq += x * y;
                }
                off += apq * apq;
                if apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                // Jacobi rotation annihilating the (p,q) Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let x = u[i * n + p];
                    let y = u[i * n + q];
                    u[i * n + p] = (c as f32) * x - (s as f32) * y;
                    u[i * n + q] = (s as f32) * x + (c as f32) * y;
                }
                for i in 0..n {
                    let x = v[i * n + p];
                    let y = v[i * n + q];
                    v[i * n + p] = (c as f32) * x - (s as f32) * y;
                    v[i * n + q] = (s as f32) * x + (c as f32) * y;
                }
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
    }

    // Column norms are the singular values.
    let mut order: Vec<usize> = (0..n).collect();
    let mut sigmas = vec![0.0f32; n];
    for (j, sig) in sigmas.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for i in 0..m {
            acc += u[i * n + j] * u[i * n + j];
        }
        *sig = acc.sqrt();
    }
    order.sort_by(|&a, &b| sigmas[b].partial_cmp(&sigmas[a]).expect("finite sv"));

    let mut u_out = vec![0.0f32; m * n];
    let mut vt_out = vec![0.0f32; n * n];
    let mut s_out = vec![0.0f32; n];
    for (dst, &src) in order.iter().enumerate() {
        let sig = sigmas[src];
        s_out[dst] = sig;
        if sig > 1e-12 {
            for i in 0..m {
                u_out[i * n + dst] = u[i * n + src] / sig;
            }
        }
        for i in 0..n {
            vt_out[dst * n + i] = v[i * n + src];
        }
    }
    Ok(Svd {
        u: Tensor::from_vec(u_out, &[m, n])?,
        s: s_out,
        vt: Tensor::from_vec(vt_out, &[n, n])?,
    })
}

/// Moore–Penrose pseudo-inverse via the SVD, with singular values below
/// `rcond · s_max` treated as zero.
pub fn pinv(a: &Tensor, rcond: f32) -> Result<Tensor> {
    let (m, n) = require_matrix(a, "pinv")?;
    let Svd { u, s, vt } = svd(a)?;
    let smax = s.first().copied().unwrap_or(0.0);
    let cutoff = rcond * smax;
    let r = s.len();
    // pinv = V · diag(1/s) · Uᵀ  — build V·diag first.
    let v = transpose2d(&vt)?; // n x r
    let mut vs = vec![0.0f32; n * r];
    for i in 0..n {
        for j in 0..r {
            let inv = if s[j] > cutoff && s[j] > 0.0 {
                1.0 / s[j]
            } else {
                0.0
            };
            vs[i * r + j] = v.data()[i * r + j] * inv;
        }
    }
    let vs = Tensor::from_vec(vs, &[n, r])?;
    let ut = transpose2d(&u)?; // r x m
    let out = matmul(&vs, &ut)?;
    debug_assert_eq!(out.dims(), &[n, m]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul_transpose_a;
    use crate::{approx_eq, init};

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn svd_reconstructs() {
        let mut rng = init::rng(3);
        for (m, n) in [(6, 4), (4, 6), (5, 5)] {
            let a = init::uniform(&[m, n], -1.0, 1.0, &mut rng);
            let Svd { u, s, vt } = svd(&a).unwrap();
            let r = s.len();
            assert_eq!(r, m.min(n));
            // U diag(s) Vᵀ.
            let mut us = u.clone();
            for i in 0..m {
                for j in 0..r {
                    let v = us.get(&[i, j]).unwrap() * s[j];
                    us.set(&[i, j], v).unwrap();
                }
            }
            let back = matmul(&us, &vt).unwrap();
            assert!(approx_eq(&back, &a, 1e-3), "SVD reconstruct {m}x{n}");
            // Singular values sorted non-increasing and non-negative.
            for w in s.windows(2) {
                assert!(w[0] >= w[1] - 1e-6);
            }
            assert!(s.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn svd_orthogonality() {
        let mut rng = init::rng(5);
        let a = init::uniform(&[7, 4], -1.0, 1.0, &mut rng);
        let Svd { u, s: _, vt } = svd(&a).unwrap();
        let utu = matmul_transpose_a(&u, &u).unwrap();
        assert!(approx_eq(&utu, &Tensor::eye(4), 1e-3));
        let vvt = matmul(&vt, &transpose2d(&vt).unwrap()).unwrap();
        assert!(approx_eq(&vvt, &Tensor::eye(4), 1e-3));
    }

    #[test]
    fn svd_rank_one() {
        // Known SVD: outer product of unit-ish vectors.
        let a = Tensor::from_vec(vec![2.0, 4.0, 1.0, 2.0], &[2, 2]).unwrap();
        let Svd { s, .. } = svd(&a).unwrap();
        assert!(s[1] < 1e-5, "second sv should vanish, got {}", s[1]);
        let expect = (4.0f32 + 16.0 + 1.0 + 4.0).sqrt();
        assert!((s[0] - expect).abs() < 1e-4);
    }

    #[test]
    fn pinv_satisfies_moore_penrose() {
        let mut rng = init::rng(6);
        let a = init::uniform(&[5, 3], -1.0, 1.0, &mut rng);
        let p = pinv(&a, 1e-6).unwrap();
        assert_eq!(p.dims(), &[3, 5]);
        // A · A⁺ · A = A.
        let apa = matmul(&matmul(&a, &p).unwrap(), &a).unwrap();
        assert!(approx_eq(&apa, &a, 1e-3));
        // A⁺ · A · A⁺ = A⁺.
        let pap = matmul(&matmul(&p, &a).unwrap(), &p).unwrap();
        assert!(approx_eq(&pap, &p, 1e-3));
    }
}
