//! Tape-free adapter forwards, each bitwise the matching training-mode
//! `Module::forward` (`tests/forward_equiv.rs`, every adapter method).
//!
//! Every dense forward is `infer::linear` plus the tenant's scaled
//! low-rank update, added by a one-segment `ops::lowrank` pass — the pass
//! the engine runs over a whole batch's stacked base product, and bitwise
//! the tape's `ops` chain (`lowrank_equiv` in `metalora-tensor`). Engine,
//! tape twins and per-request replays share one update body.

use crate::Result;
use metalora_nn::infer;
use metalora_peft::meta::MappingNet;
use metalora_tensor::conv::ConvSpec;
use metalora_tensor::ops::{self, Mix, Seed, Segment};
use metalora_tensor::{Tensor, TensorError};

/// `infer::linear(x, w, bias)` with `scaling·update(x)` added onto every
/// row by one `ops::lowrank` segment.
fn base_plus_update(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    down: &Tensor,
    up: &Tensor,
    scaling: f32,
    mix: Mix,
) -> Result<Tensor> {
    let mut y = infer::linear(x, w, bias)?;
    // The base product succeeded, so `x` is `[n, I]`.
    let rows = 0..x.dims()[0];
    ops::lowrank(x, &mut y, &[Segment { rows, down, up, scaling, mix }])?;
    Ok(y)
}

/// Plain LoRA: `y = x·W + b + scaling·(x·A)·B` — the twin of
/// `LoraLinear::forward` (and of one `MultiLoraLinear` slot, which runs
/// the identical sequence with that slot's factors).
pub fn lora_linear(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    a: &Tensor,
    b: &Tensor,
    scaling: f32,
) -> Result<Tensor> {
    base_plus_update(x, w, bias, a, b, scaling, Mix::None)
}

/// MetaLoRA-CP: `y = base + scaling·((x·A) ⊙ c)·B` with a per-row seed
/// `c:[N,R]` — the twin of `MetaLoraCpLinear::forward` after its
/// (identity, when `rows == N`) seed expansion.
pub fn meta_cp_linear(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    a: &Tensor,
    b: &Tensor,
    seed: &Tensor,
    scaling: f32,
) -> Result<Tensor> {
    base_plus_update(x, w, bias, a, b, scaling, Mix::Gate(Seed::Rows(seed)))
}

/// MetaLoRA-TR: the Eq. 7 network `"ni,xiy,yoz,nzx->no"` with cores
/// `a:[R,I,R]`, `b:[R,O,R]` and per-row seeds `[N,R·R]` (r2-major), in
/// the planner's order — the twin of `MetaLoraTrLinear::delta` plus the
/// base add.
pub fn meta_tr_linear(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    a: &Tensor,
    b: &Tensor,
    seed: &Tensor,
    scaling: f32,
) -> Result<Tensor> {
    base_plus_update(x, w, bias, a, b, scaling, Mix::Ring(Seed::Rows(seed)))
}

/// Conv-LoRA: base conv plus the small-conv → 1×1-recovery delta — the
/// twin of `ConvLora::forward`.
pub fn conv_lora(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    spec: ConvSpec,
    a: &Tensor,
    b: &Tensor,
    scaling: f32,
) -> Result<Tensor> {
    let y = infer::conv2d(x, w, bias, spec)?;
    let u = metalora_tensor::conv::conv2d(x, a, spec, spec)?;
    let &[r, o] = b.dims() else {
        return Err(TensorError::InvalidArgument(format!(
            "conv_lora: factor B must be [R,O], got {:?}",
            b.dims()
        )));
    };
    let b4 = b.reshaped(&[1, 1, r, o])?;
    let delta = metalora_tensor::conv::conv2d(&u, &b4, ConvSpec::POINTWISE, ConvSpec::POINTWISE)?;
    let delta = ops::scale(&delta, scaling);
    ops::add(&y, &delta)
}

/// Dense forward through an already-merged weight `W + ΔW`.
pub fn merged_linear(x: &Tensor, w_merged: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    infer::linear(x, w_merged, bias)
}

/// Value snapshot of a [`MappingNet`] — the four MLP tensors, detached
/// from their `Rc`-based parameter cells so the engine can generate seeds
/// from any thread.
#[derive(Clone, Debug)]
pub struct MappingSnapshot {
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
}

impl MappingSnapshot {
    /// Snapshots the net's current weights.
    pub fn from_net(net: &MappingNet) -> Self {
        let (w1, b1, w2, b2) = net.export_weights();
        MappingSnapshot { w1, b1, w2, b2 }
    }

    /// Seed width produced per row.
    pub fn out_dim(&self) -> usize {
        self.w2.dims()[1]
    }

    /// Feature width consumed per row.
    pub fn in_dim(&self) -> usize {
        self.w1.dims()[0]
    }

    /// `[N, in] → [N, out]`: linear → GELU → linear → tanh, the op
    /// sequence of [`MappingNet::generate`] on the tape and its bitwise
    /// twin. Both bias adds ride the GEMM store; each activation is one
    /// map over the finished product. Rows are independent, so a stacked
    /// batch yields each row's seed bitwise unchanged — the amortisation
    /// the batcher relies on.
    pub fn generate(&self, features: &Tensor) -> Result<Tensor> {
        let h = ops::gelu(&infer::linear(features, &self.w1, Some(&self.b1))?);
        Ok(ops::tanh(&infer::linear(&h, &self.w2, Some(&self.b2))?))
    }
}

/// Repeats a pinned seed (flattened to `d` values) into `[n, d]` rows —
/// the per-row seed a frozen-task tenant's request hands to
/// [`meta_cp_linear`] / [`meta_tr_linear`]. (The engine does not tile: its
/// pass reads a pinned seed in place.)
pub fn tile_seed(seed: &Tensor, n: usize) -> Result<Tensor> {
    let d = seed.len();
    let mut data = Vec::with_capacity(n * d);
    for _ in 0..n {
        data.extend_from_slice(seed.data());
    }
    Tensor::from_vec(data, &[n, d])
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_tensor::init;

    #[test]
    fn tile_seed_repeats_rows() {
        let c = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let t = tile_seed(&c, 3).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn seed_shapes_are_validated() {
        let mut rng = init::rng(3);
        let x = init::uniform(&[2, 4], -1.0, 1.0, &mut rng);
        let w = init::uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let a = init::uniform(&[4, 2], -1.0, 1.0, &mut rng);
        let b = init::uniform(&[2, 3], -1.0, 1.0, &mut rng);
        let bad = Tensor::zeros(&[2, 3]);
        assert!(meta_cp_linear(&x, &w, None, &a, &b, &bad, 1.0).is_err());
        let a3 = init::uniform(&[2, 4, 2], -1.0, 1.0, &mut rng);
        let b3 = init::uniform(&[2, 3, 2], -1.0, 1.0, &mut rng);
        assert!(meta_tr_linear(&x, &w, None, &a3, &b3, &bad, 1.0).is_err());
    }

    #[test]
    fn batched_mapping_rows_equal_single_rows_bitwise() {
        let mut rng = init::rng(4);
        let net = MappingNet::new("m", 6, 8, 3, &mut rng);
        let snap = MappingSnapshot::from_net(&net);
        assert_eq!(snap.in_dim(), 6);
        assert_eq!(snap.out_dim(), 3);
        let f = init::uniform(&[5, 6], -2.0, 2.0, &mut rng);
        let batched = snap.generate(&f).unwrap();
        for row in 0..5 {
            let one = Tensor::from_vec(f.data()[row * 6..(row + 1) * 6].to_vec(), &[1, 6]).unwrap();
            let s = snap.generate(&one).unwrap();
            let got: Vec<u32> = batched.data()[row * 3..(row + 1) * 3]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u32> = s.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "row {row}");
        }
    }
}
