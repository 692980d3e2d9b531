//! A mini-einsum: readable tensor-network expressions for tests, examples
//! and the figure-verification benches.
//!
//! Grammar: `"ab,bc->ac"` — lowercase ASCII labels, one or more operands,
//! an explicit output. Unlike the pairwise [`contract`] kernel and the
//! planner built on it, this evaluator is fully general: labels may appear
//! in any number of operands (hyper-edges, as the CP chain `"ir,ro,r->io"`
//! of Eq. 6 requires), may repeat within an operand (diagonals) and may be
//! summed out of a single operand. Evaluation is direct summation —
//! O(∏out · ∏summed) — which makes `einsum` the *reference oracle* the unit
//! and property tests check the optimised kernels against
//! (`tests/contract_plan_prop.rs` pins the planner to it). No library path
//! calls it: every tensor-network update in `peft` and `serve` is a spec
//! handed to [`contract_spec`], which lowers it to `gemm` in cost order,
//! and the obs `einsum` kernel counter of a serve or training run reads 0.
//! Its callers are tests, `examples/tensor_networks.rs` and
//! `bin/fig1_contraction`.
//!
//! [`contract`]: crate::contract::contract
//! [`contract_spec`]: crate::contract::contract_spec

use crate::shape::{IndexIter, Shape};
use crate::{Result, Tensor, TensorError};

/// One parsed operand: its index labels.
type Labels = Vec<char>;

fn parse_spec(spec: &str) -> Result<(Vec<Labels>, Labels)> {
    let (inputs, output) = spec.split_once("->").ok_or_else(|| {
        TensorError::InvalidArgument(format!("einsum spec `{spec}` missing `->`"))
    })?;
    let parse_side = |s: &str| -> Result<Labels> {
        let mut v = Vec::new();
        for ch in s.chars() {
            if !ch.is_ascii_lowercase() {
                return Err(TensorError::InvalidArgument(format!(
                    "einsum label `{ch}` (only a-z allowed)"
                )));
            }
            v.push(ch);
        }
        Ok(v)
    };
    let ins: Result<Vec<Labels>> = inputs.split(',').map(parse_side).collect();
    let ins = ins?;
    let out = parse_side(output)?;
    let mut sorted = out.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != out.len() {
        return Err(TensorError::InvalidArgument(
            "einsum output repeats a label".into(),
        ));
    }
    Ok((ins, out))
}

/// Evaluates an einsum expression over the given operands.
pub fn einsum(spec: &str, operands: &[&Tensor]) -> Result<Tensor> {
    let (input_labels, out_labels) = parse_spec(spec)?;
    if input_labels.len() != operands.len() {
        return Err(TensorError::InvalidArgument(format!(
            "einsum spec has {} operands but {} tensors given",
            input_labels.len(),
            operands.len()
        )));
    }

    // Assign a consistent extent to every label.
    let mut extents: Vec<(char, usize)> = Vec::new();
    for (labels, t) in input_labels.iter().zip(operands) {
        if labels.len() != t.rank() {
            return Err(TensorError::InvalidArgument(format!(
                "einsum operand `{}` has {} labels for rank-{} tensor",
                labels.iter().collect::<String>(),
                labels.len(),
                t.rank()
            )));
        }
        for (axis, &c) in labels.iter().enumerate() {
            let d = t.dims()[axis];
            match extents.iter().find(|(l, _)| *l == c) {
                Some(&(_, e)) if e != d => {
                    return Err(TensorError::ShapeMismatch {
                        op: "einsum",
                        lhs: vec![e],
                        rhs: vec![d],
                    });
                }
                Some(_) => {}
                None => extents.push((c, d)),
            }
        }
    }
    for &c in &out_labels {
        if !extents.iter().any(|(l, _)| *l == c) {
            return Err(TensorError::InvalidArgument(format!(
                "einsum output label `{c}` not present in any operand"
            )));
        }
    }

    let extent_of = |c: char| -> usize {
        extents
            .iter()
            .find(|(l, _)| *l == c)
            .expect("label validated")
            .1
    };
    let sum_labels: Labels = extents
        .iter()
        .map(|&(c, _)| c)
        .filter(|c| !out_labels.contains(c))
        .collect();

    let out_dims: Vec<usize> = out_labels.iter().map(|&c| extent_of(c)).collect();
    let sum_dims: Vec<usize> = sum_labels.iter().map(|&c| extent_of(c)).collect();

    // Pre-resolve, per operand axis, where in (out_idx ++ sum_idx) its
    // index lives — avoids char lookups in the hot loop.
    let slot_of = |c: char| -> usize {
        if let Some(p) = out_labels.iter().position(|&x| x == c) {
            p
        } else {
            out_labels.len() + sum_labels.iter().position(|&x| x == c).expect("covered")
        }
    };
    let operand_slots: Vec<Vec<usize>> = input_labels
        .iter()
        .map(|labels| labels.iter().map(|&c| slot_of(c)).collect())
        .collect();
    let strides: Vec<Vec<usize>> = operands.iter().map(|t| t.shape().strides()).collect();

    let out_shape = Shape::new(&out_dims);
    let sum_shape = Shape::new(&sum_dims);
    let mut out = Tensor::zeros(&out_dims);
    let mut combined = vec![0usize; out_dims.len() + sum_dims.len()];
    for (flat, out_idx) in IndexIter::new(&out_shape).enumerate() {
        combined[..out_idx.len()].copy_from_slice(&out_idx);
        let mut acc = 0.0f32;
        for sum_idx in IndexIter::new(&sum_shape) {
            combined[out_idx.len()..].copy_from_slice(&sum_idx);
            let mut prod = 1.0f32;
            for (op, (slots, st)) in operands.iter().zip(operand_slots.iter().zip(&strides)) {
                let mut off = 0usize;
                for (&slot, &stride) in slots.iter().zip(st) {
                    off += combined[slot] * stride;
                }
                prod *= op.data()[off];
                if prod == 0.0 {
                    break;
                }
            }
            acc += prod;
        }
        out.data_mut()[flat] = acc;
    }
    // Direct summation: each (out, summed) index pair multiplies all
    // operands together and accumulates once.
    let terms = out.len() as u64 * sum_dims.iter().product::<usize>() as u64;
    let in_elems: usize = operands.iter().map(|t| t.len()).sum();
    metalora_obs::counters::record_kernel(
        metalora_obs::counters::Kernel::Einsum,
        terms * (operands.len() as u64 + 1),
        (4 * (in_elems + out.len())) as u64,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, init, ops};

    #[test]
    fn einsum_matmul() {
        let mut r = init::rng(1);
        let a = init::uniform(&[3, 4], -1.0, 1.0, &mut r);
        let b = init::uniform(&[4, 5], -1.0, 1.0, &mut r);
        let e = einsum("ij,jk->ik", &[&a, &b]).unwrap();
        assert!(approx_eq(&e, &ops::matmul(&a, &b).unwrap(), 1e-5));
    }

    #[test]
    fn einsum_output_permutation() {
        let mut r = init::rng(2);
        let a = init::uniform(&[3, 4], -1.0, 1.0, &mut r);
        let b = init::uniform(&[4, 5], -1.0, 1.0, &mut r);
        let e = einsum("ij,jk->ki", &[&a, &b]).unwrap();
        let m = ops::transpose2d(&ops::matmul(&a, &b).unwrap()).unwrap();
        assert!(approx_eq(&e, &m, 1e-5));
    }

    #[test]
    fn einsum_cp_hyperedge_chain() {
        // The CP chain of Eq. 6: sum_r A[i,r] B[r,o] c[r] — label r appears
        // in all three operands.
        let mut rng = init::rng(3);
        let a = init::uniform(&[6, 3], -1.0, 1.0, &mut rng);
        let b = init::uniform(&[3, 5], -1.0, 1.0, &mut rng);
        let c = init::uniform(&[3], -1.0, 1.0, &mut rng);
        let e = einsum("ir,ro,r->io", &[&a, &b, &c]).unwrap();
        // Oracle: scale B's rows by c, then matmul.
        let mut bs = b.clone();
        for r in 0..3 {
            for o in 0..5 {
                let v = bs.get(&[r, o]).unwrap() * c.data()[r];
                bs.set(&[r, o], v).unwrap();
            }
        }
        let oracle = ops::matmul(&a, &bs).unwrap();
        assert!(approx_eq(&e, &oracle, 1e-4));
    }

    #[test]
    fn einsum_sums_out_free_labels() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let e = einsum("ij->i", &[&m]).unwrap();
        assert_eq!(e.data(), &[3.0, 7.0]);
    }

    #[test]
    fn einsum_trace_and_diagonal() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let tr = einsum("ii->", &[&m]).unwrap();
        assert_eq!(tr.item().unwrap(), 5.0);
        let d = einsum("ii->i", &[&m]).unwrap();
        assert_eq!(d.data(), &[1.0, 4.0]);
    }

    #[test]
    fn einsum_batched_outer() {
        // b is a genuine batch label shared across operands and output.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let y = Tensor::from_vec(vec![1.0, 10.0, 100.0, 1000.0], &[2, 2]).unwrap();
        let e = einsum("bi,bj->bij", &[&x, &y]).unwrap();
        assert_eq!(e.dims(), &[2, 2, 2]);
        assert_eq!(e.get(&[0, 0, 1]).unwrap(), 1.0 * 10.0);
        assert_eq!(e.get(&[1, 1, 0]).unwrap(), 4.0 * 100.0);
    }

    #[test]
    fn einsum_outer_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let e = einsum("i,j->ij", &[&a, &b]).unwrap();
        assert_eq!(e.data(), &[3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn einsum_rejects_invalid_specs() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(einsum("ij,jk", &[&t, &t]).is_err()); // missing ->
        assert!(einsum("ij->ii", &[&t]).is_err()); // repeated output
        assert!(einsum("ij->ik", &[&t]).is_err()); // unknown output label
        assert!(einsum("iJ->i", &[&t]).is_err()); // non-lowercase
        assert!(einsum("ijk->i", &[&t]).is_err()); // rank mismatch
        assert!(einsum("ij,jk->ik", &[&t]).is_err()); // operand count
        let u = Tensor::zeros(&[2, 3]);
        assert!(einsum("ij,jk->ik", &[&u, &u]).is_err()); // j: 3 vs 2
    }

    #[test]
    fn einsum_agrees_with_contract_kernel() {
        let mut r = init::rng(8);
        let a = init::uniform(&[3, 4, 5], -1.0, 1.0, &mut r);
        let b = init::uniform(&[5, 4, 2], -1.0, 1.0, &mut r);
        let fast = crate::contract::contract(&a, &b, &[1, 2], &[1, 0]).unwrap();
        let slow = einsum("ijk,kjm->im", &[&a, &b]).unwrap();
        assert!(approx_eq(&fast, &slow, 1e-4));
    }

    #[test]
    fn einsum_tensor_ring_chain() {
        // Eq. 7: sum_{r0,r1,r2} A[r0,i,r1] B[r1,o,r2] C[r2,r0].
        let (r0, i, o) = (2usize, 4usize, 3usize);
        let mut rng = init::rng(5);
        let a = init::uniform(&[r0, i, r0], -1.0, 1.0, &mut rng);
        let b = init::uniform(&[r0, o, r0], -1.0, 1.0, &mut rng);
        let c = init::uniform(&[r0, r0], -1.0, 1.0, &mut rng);
        let e = einsum("xiy,yoz,zx->io", &[&a, &b, &c]).unwrap();
        assert_eq!(e.dims(), &[i, o]);
        let mut oracle = Tensor::zeros(&[i, o]);
        for ii in 0..i {
            for oo in 0..o {
                let mut acc = 0.0;
                for x in 0..r0 {
                    for y in 0..r0 {
                        for z in 0..r0 {
                            acc += a.get(&[x, ii, y]).unwrap()
                                * b.get(&[y, oo, z]).unwrap()
                                * c.get(&[z, x]).unwrap();
                        }
                    }
                }
                oracle.set(&[ii, oo], acc).unwrap();
            }
        }
        assert!(approx_eq(&e, &oracle, 1e-4));
    }
}
