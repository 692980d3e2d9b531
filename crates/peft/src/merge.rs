//! Merging adapter deltas into base weights — the standard LoRA
//! deployment step: after adaptation, fold `ΔW` into `W` once and serve
//! the plain layer with zero adapter overhead.
//!
//! Static adapters (LoRA, Conv-LoRA, one slot of a Multi-LoRA bank) merge
//! exactly. MetaLoRA's update is input-conditioned and cannot be merged in
//! general; [`cp_delta`]/[`tr_delta`] produce the delta for one *fixed*
//! seed, and `W + ΔW(c)` is the merged weight of a "task snapshot" frozen
//! for deployment to a single known task.

use crate::Result;
use metalora_tensor::{contract, ops, Tensor, TensorError};

// ---- tensor-level delta/merge helpers ---------------------------------
//
// The adapters hold `ParamRef` cells, which are `Rc`-based and cannot
// cross threads. The serving engine instead keeps value snapshots and
// calls these free functions; the adapters' `delta_weight` /
// `delta_weight_for` are built on them, so both paths compute the
// identical float sequence.

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

/// `W + ΔW` into a fresh tensor that owns its allocation — storage, not
/// kernel scratch, so it never passes through the workspace arena: the
/// serving engine's merged-weight cache holds it until eviction and then
/// drops it. Each element is written once, as the same `w[i] + delta[i]`
/// sum as `ops::add`, so repeated merges of the same operands are bitwise
/// identical.
pub fn merge_into(base: &Tensor, delta: &Tensor) -> Result<Tensor> {
    if base.dims() != delta.dims() {
        return Err(TensorError::ShapeMismatch {
            op: "merge",
            lhs: base.dims().to_vec(),
            rhs: delta.dims().to_vec(),
        });
    }
    let sums = base.data().iter().zip(delta.data()).map(|(&w, &d)| w + d);
    Tensor::from_vec(sums.collect(), base.dims())
}

#[cfg(test)]
mod tests {
    use crate::meta::{MetaLoraCpLinear, MetaLoraTrLinear};
    use crate::LoraConfig;
    use metalora_autograd::Graph;
    use metalora_nn::{Ctx, Linear, Module};
    use metalora_tensor::{approx_eq, init, ops, Tensor};

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
        let snap = ops::add(&w0, &m.delta_weight_for(&c).unwrap()).unwrap();

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
        let snap = ops::add(&w0, &m.delta_weight_for(&c).unwrap()).unwrap();

        let x = init::uniform(&[1, 4], -1.0, 1.0, &mut rng);
        let mut g = Graph::inference();
        let xv = g.input(x.clone());
        let seed = g.input(c.reshaped(&[1, 4]).unwrap());
        let y = m.forward(&mut g, xv, &Ctx::with_seed(seed)).unwrap();
        let expect = ops::matmul(&x, &snap).unwrap();
        assert!(approx_eq(&g.value(y), &expect, 1e-3));
    }
}
