//! Merging adapter deltas into base weights — the standard LoRA
//! deployment step: after adaptation, fold `ΔW` into `W` once and serve
//! the plain layer with zero adapter overhead.
//!
//! Static adapters (LoRA, Conv-LoRA, one slot of a Multi-LoRA bank) merge
//! exactly. MetaLoRA's update is input-conditioned and cannot be merged in
//! general; [`snapshot_cp`]/[`snapshot_tr`] produce the merged weights for
//! one *fixed* seed — a "task snapshot" frozen for deployment to a single
//! known task.

use crate::meta::{MetaLoraCpLinear, MetaLoraTrLinear};
use crate::{ConvLora, LoraLinear, Result};
use metalora_autograd::ParamRef;
use metalora_tensor::{contract, ops, workspace, Tensor, TensorError};

fn add_into(weight: &ParamRef, delta: &Tensor) -> Result<()> {
    if weight.dims() != delta.dims() {
        return Err(TensorError::ShapeMismatch {
            op: "merge",
            lhs: weight.dims(),
            rhs: delta.dims().to_vec(),
        });
    }
    weight.update_value(|w| {
        for (a, &b) in w.data_mut().iter_mut().zip(delta.data()) {
            *a += b;
        }
    });
    Ok(())
}

// ---- tensor-level delta/merge helpers ---------------------------------
//
// The adapter structs above this layer hold `ParamRef` cells, which are
// `Rc`-based and cannot cross threads. The serving engine instead keeps
// value snapshots and calls these free functions; the struct methods
// (`LoraLinear::delta_weight` etc.) delegate here so both paths compute
// the identical float sequence.

/// `s · d` in the buffer `d` already owns: per element the same product
/// as `ops::scale` (f32 `*` commutes bitwise), without a second `[I,O]`
/// tensor alive beside the first.
pub(crate) fn scaled(mut d: Tensor, s: f32) -> Tensor {
    for v in d.data_mut() {
        *v *= s;
    }
    d
}

/// `ΔW = scaling · A·B` for dense LoRA factors `a:[I,R]`, `b:[R,O]`.
pub fn lora_delta(a: &Tensor, b: &Tensor, scaling: f32) -> Result<Tensor> {
    Ok(scaled(ops::matmul(a, b)?, scaling))
}

/// `Δ𝒲 = scaling · 𝒜 ×₃ B` for Conv-LoRA factors `a:[K,K,I,R]`,
/// `b:[R,O]` (Eq. 5's recovery contraction over the rank axis).
pub fn conv_lora_delta(a: &Tensor, b: &Tensor, scaling: f32) -> Result<Tensor> {
    Ok(scaled(contract::contract(a, b, &[3], &[0])?, scaling))
}

/// `ΔW(c)` for MetaLoRA-CP factors `a:[I,R]`, `b:[R,O]` and one fixed
/// seed `c` of `R` elements — Eq. 6 as the network `"ir,r,ro->io"`: the
/// hyper-edge `r` rides the first pairing as a batch label and is summed
/// by the second.
pub fn cp_delta(a: &Tensor, b: &Tensor, c: &Tensor, scaling: f32) -> Result<Tensor> {
    let &[_, r] = a.dims() else {
        return Err(TensorError::InvalidArgument(format!(
            "cp_delta: factor A must be [I,R], got {:?}",
            a.dims()
        )));
    };
    if c.len() != r {
        return Err(TensorError::InvalidArgument(format!(
            "cp_delta: seed has {} elements, rank is {r}",
            c.len()
        )));
    }
    let c = c.reshaped(&[r])?;
    Ok(scaled(contract::contract_spec("ir,r,ro->io", &[a, &c, b])?, scaling))
}

/// `ΔW(C)` for MetaLoRA-TR cores `a:[R,I,R]`, `b:[R,O,R]` and one fixed
/// seed matrix `C:[R,R]` (`C[r2, r0]`) — Eq. 7 as the network
/// `"xiy,yoz,zx->io"`, which the planner closes seed-first: `C·𝒜`
/// (`2·R³·I` flops), then one `[I,R²]·[R²,O]` GEMM.
pub fn tr_delta(a: &Tensor, b: &Tensor, c: &Tensor, scaling: f32) -> Result<Tensor> {
    match (a.dims(), b.dims(), c.dims()) {
        (&[r0, _, r1], &[b1, _, r2], &[c2, c0]) if (r0, r1, r2) == (c0, b1, c2) => {}
        (a, b, c) => {
            return Err(TensorError::InvalidArgument(format!(
                "tr_delta: cores must be A [R,I,R], B [R,O,R] and the seed [R,R] with matching \
                 bonds, got A {a:?}, B {b:?}, seed {c:?}"
            )))
        }
    }
    Ok(scaled(contract::contract_spec("xiy,yoz,zx->io", &[a, b, c])?, scaling))
}

/// `W + ΔW` into a fresh tensor whose buffer is drawn from the workspace
/// arena — the allocation pattern of the serving engine's merged-weight
/// cache, where merged weights churn as tenants are evicted and
/// re-merged. Each element is written once, as the same `w[i] + delta[i]`
/// sum as the in-place [`merge_lora_linear`] fold, so repeated merges of
/// the same operands are bitwise identical.
pub fn merge_into(base: &Tensor, delta: &Tensor) -> Result<Tensor> {
    if base.dims() != delta.dims() {
        return Err(TensorError::ShapeMismatch {
            op: "merge",
            lhs: base.dims().to_vec(),
            rhs: delta.dims().to_vec(),
        });
    }
    let sums = base.data().iter().zip(delta.data()).map(|(&w, &d)| w + d);
    workspace::tensor_from_iter(base.dims(), sums)
}

/// Folds a [`LoraLinear`]'s current delta into the given base weight cell
/// (the wrapped layer's `weight()` parameter) and zeroes the adapter's
/// up-projection so the wrapped forward keeps computing the same function.
pub fn merge_lora_linear(adapter: &LoraLinear, base_weight: &ParamRef) -> Result<()> {
    let delta = adapter.delta_weight()?;
    add_into(base_weight, &delta)?;
    adapter
        .b
        .set_value(Tensor::zeros(&adapter.b.dims()));
    Ok(())
}

/// Folds a [`ConvLora`]'s current delta into the given base weight cell.
pub fn merge_conv_lora(adapter: &ConvLora, base_weight: &ParamRef) -> Result<()> {
    let delta = adapter.delta_weight()?;
    add_into(base_weight, &delta)?;
    adapter
        .b
        .set_value(Tensor::zeros(&adapter.b.dims()));
    Ok(())
}

/// Merged dense weight `W + ΔW(c)` for a MetaLoRA-CP layer frozen at one
/// seed `c : [R]` — a single-task deployment snapshot.
pub fn snapshot_cp(adapter: &MetaLoraCpLinear, base_weight: &Tensor, c: &Tensor) -> Result<Tensor> {
    let delta = adapter.delta_weight_for(c)?;
    ops::add(base_weight, &delta)
}

/// Merged dense weight `W + ΔW(C)` for a MetaLoRA-TR layer frozen at one
/// seed `C : [R, R]`.
pub fn snapshot_tr(adapter: &MetaLoraTrLinear, base_weight: &Tensor, c: &Tensor) -> Result<Tensor> {
    let delta = adapter.delta_weight_for(c)?;
    ops::add(base_weight, &delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoraConfig;
    use metalora_autograd::Graph;
    use metalora_nn::{Conv2d, Ctx, Linear, Module};
    use metalora_tensor::{approx_eq, init};

    #[test]
    fn merged_lora_linear_preserves_function() {
        let mut rng = init::rng(1);
        let base = Linear::new("fc", 6, 4, &mut rng);
        let w = base.weight().clone();
        let lora = LoraLinear::new(
            "fc",
            Box::new(base),
            LoraConfig {
                rank: 2,
                alpha: 4.0,
            },
            &mut rng,
        );
        lora.b.set_value(init::uniform(&[2, 4], -0.5, 0.5, &mut rng));
        let x = init::uniform(&[3, 6], -1.0, 1.0, &mut rng);

        let out = |l: &LoraLinear, x: &Tensor| {
            let mut g = Graph::inference();
            let xv = g.input(x.clone());
            let y = l.forward(&mut g, xv, &Ctx::none()).unwrap();
            g.value(y)
        };
        let before = out(&lora, &x);
        merge_lora_linear(&lora, &w).unwrap();
        let after = out(&lora, &x);
        assert!(
            approx_eq(&before, &after, 1e-4),
            "merge changed the function: err {}",
            metalora_tensor::max_rel_err(&before, &after)
        );
        // Adapter is now inert.
        assert_eq!(lora.delta_weight().unwrap().norm(), 0.0);
    }

    #[test]
    fn merged_conv_lora_preserves_function() {
        let mut rng = init::rng(2);
        let base = Conv2d::new_no_bias("c", 3, 5, 3, 1, 1, &mut rng).unwrap();
        let w = base.weight().clone();
        let cl = ConvLora::new(
            "c",
            Box::new(base),
            LoraConfig {
                rank: 2,
                alpha: 2.0,
            },
            &mut rng,
        )
        .unwrap();
        cl.b.set_value(init::uniform(&[2, 5], -0.5, 0.5, &mut rng));
        let x = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);

        let out = |l: &ConvLora, x: &Tensor| {
            let mut g = Graph::inference();
            let xv = g.input(x.clone());
            let y = l.forward(&mut g, xv, &Ctx::none()).unwrap();
            g.value(y)
        };
        let before = out(&cl, &x);
        merge_conv_lora(&cl, &w).unwrap();
        let after = out(&cl, &x);
        assert!(approx_eq(&before, &after, 1e-3));
    }

    #[test]
    fn merge_validates_shapes() {
        let mut rng = init::rng(3);
        let base = Linear::new("fc", 6, 4, &mut rng);
        let lora = LoraLinear::new("fc", Box::new(base), LoraConfig::default(), &mut rng);
        let wrong = ParamRef::new("w", Tensor::zeros(&[5, 4]));
        assert!(merge_lora_linear(&lora, &wrong).is_err());
    }

    #[test]
    fn cp_snapshot_matches_seeded_forward() {
        let mut rng = init::rng(4);
        let base = Linear::new_no_bias("fc", 5, 3, &mut rng);
        let w0 = base.weight().value();
        let m = MetaLoraCpLinear::new(
            "fc",
            Box::new(base),
            LoraConfig {
                rank: 2,
                alpha: 2.0,
            },
            &mut rng,
        );
        m.b.set_value(init::uniform(&[2, 3], -0.5, 0.5, &mut rng));
        let c = init::uniform(&[2], -1.0, 1.0, &mut rng);
        let snap = snapshot_cp(&m, &w0, &c).unwrap();

        // Forward with the seed == x · snapshot.
        let x = init::uniform(&[2, 5], -1.0, 1.0, &mut rng);
        let mut g = Graph::inference();
        let xv = g.input(x.clone());
        let seed = g.input(Tensor::stack(&[c.clone(), c.clone()]).unwrap());
        let y = m.forward(&mut g, xv, &Ctx::with_seed(seed)).unwrap();
        let expect = ops::matmul(&x, &snap).unwrap();
        assert!(approx_eq(&g.value(y), &expect, 1e-3));
    }

    #[test]
    fn tr_snapshot_matches_seeded_forward() {
        let mut rng = init::rng(5);
        let base = Linear::new_no_bias("fc", 4, 3, &mut rng);
        let w0 = base.weight().value();
        let m = MetaLoraTrLinear::new(
            "fc",
            Box::new(base),
            LoraConfig {
                rank: 2,
                alpha: 2.0,
            },
            &mut rng,
        );
        m.b.set_value(init::uniform(&[2, 3, 2], -0.5, 0.5, &mut rng));
        let c = init::uniform(&[2, 2], -1.0, 1.0, &mut rng);
        let snap = snapshot_tr(&m, &w0, &c).unwrap();

        let x = init::uniform(&[1, 4], -1.0, 1.0, &mut rng);
        let mut g = Graph::inference();
        let xv = g.input(x.clone());
        let seed = g.input(c.reshaped(&[1, 4]).unwrap());
        let y = m.forward(&mut g, xv, &Ctx::with_seed(seed)).unwrap();
        let expect = ops::matmul(&x, &snap).unwrap();
        assert!(approx_eq(&g.value(y), &expect, 1e-3));
    }
}
