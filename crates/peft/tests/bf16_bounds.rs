//! Max-abs-error bounds for bf16 factor snapshots, per adapter method.
//!
//! The mixed-precision contract (see `metalora_tensor::bf16`) rounds each
//! *stored* value once (RNE, relative ≤ 2⁻⁸) and accumulates in f32, so
//! the delta computed from bf16 factors deviates from the f32 delta by at
//! most the propagated storage rounding — a bound we can state per method
//! from its contraction depth and verify numerically:
//!
//! * LoRA / CP (rank-R dot): R products of two rounded factors;
//! * Conv-LoRA: the same rank contraction per kernel tap;
//! * TR (Eq. 7): R² products of two rounded cores (the seed stays f32).
//!
//! With factors bounded by `M`, each product's error is ≤ `2·M²·2⁻⁸`
//! (+ O(2⁻¹⁶)), so a depth-D contraction scaled by `s` stays within
//! `s·D·2·M²·2⁻⁸` — asserted here with the exact inputs the serving
//! engine would snapshot. A bf16 factor snapshot is consumed by widening
//! it (exact) and running the f32 delta kernel, which is what each test
//! writes out.

use metalora_peft::merge::{
    conv_lora_delta, cp_delta, lora_delta, merge_into, merge_into_bf16, tr_delta,
};
use metalora_tensor::{init, Bf16Buf, Tensor};

const M: f32 = 2.0; // factor magnitude bound used below
const EPS: f32 = 1.0 / 256.0; // bf16 relative rounding bound, 2^-8

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.dims(), b.dims());
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Worst-case abs error of a depth-`d` contraction of two bf16-rounded
/// operands bounded by [`M`], scaled by `s` — the bound derived above,
/// with a 1.1 safety factor for the dropped O(2⁻¹⁶) term.
fn bound(d: usize, s: f32) -> f32 {
    1.1 * s * d as f32 * 2.0 * M * M * EPS
}

#[test]
fn lora_delta_from_bf16_factors_is_bounded() {
    let mut rng = init::rng(31);
    let (i, r, o, s) = (24, 4, 16, 0.5);
    let a = init::uniform(&[i, r], -M, M, &mut rng);
    let b = init::uniform(&[r, o], -M, M, &mut rng);
    let (a16, b16) = (Bf16Buf::from_tensor(&a), Bf16Buf::from_tensor(&b));

    let exact = lora_delta(&a, &b, s).unwrap();
    let approx = lora_delta(&a16.widen(), &b16.widen(), s).unwrap();
    let err = max_abs_diff(&exact, &approx);
    assert!(err <= bound(r, s), "lora: err {err} > bound {}", bound(r, s));
    assert!(err > 0.0, "rounding should be observable at these magnitudes");
}

#[test]
fn conv_lora_delta_from_bf16_factors_is_bounded() {
    let mut rng = init::rng(32);
    let (kk, i, r, o, s) = (3, 6, 4, 5, 0.5);
    let a = init::uniform(&[kk, kk, i, r], -M, M, &mut rng);
    let b = init::uniform(&[r, o], -M, M, &mut rng);
    let (a16, b16) = (Bf16Buf::from_tensor(&a), Bf16Buf::from_tensor(&b));

    let exact = conv_lora_delta(&a, &b, s).unwrap();
    let approx = conv_lora_delta(&a16.widen(), &b16.widen(), s).unwrap();
    let err = max_abs_diff(&exact, &approx);
    assert!(err <= bound(r, s), "conv_lora: err {err} > bound {}", bound(r, s));
}

#[test]
fn cp_delta_from_bf16_factors_is_bounded() {
    let mut rng = init::rng(33);
    let (i, r, o, s) = (12, 4, 10, 0.5);
    let a = init::uniform(&[i, r], -M, M, &mut rng);
    let b = init::uniform(&[r, o], -M, M, &mut rng);
    let c = init::uniform(&[r], -1.0, 1.0, &mut rng); // seed stays f32
    let (a16, b16) = (Bf16Buf::from_tensor(&a), Bf16Buf::from_tensor(&b));

    let exact = cp_delta(&a, &b, &c, s).unwrap();
    let approx = cp_delta(&a16.widen(), &b16.widen(), &c, s).unwrap();
    // The |c| ≤ 1 seed factor is absorbed by the M² bound.
    let err = max_abs_diff(&exact, &approx);
    assert!(err <= bound(r, s), "cp: err {err} > bound {}", bound(r, s));
}

#[test]
fn tr_delta_from_bf16_factors_is_bounded() {
    let mut rng = init::rng(34);
    let (i, r, o, s) = (8, 3, 7, 0.5);
    let a = init::uniform(&[r, i, r], -M, M, &mut rng);
    let b = init::uniform(&[r, o, r], -M, M, &mut rng);
    let c = init::uniform(&[r, r], -1.0, 1.0, &mut rng);
    let (a16, b16) = (Bf16Buf::from_tensor(&a), Bf16Buf::from_tensor(&b));

    let exact = tr_delta(&a, &b, &c, s).unwrap();
    let approx = tr_delta(&a16.widen(), &b16.widen(), &c, s).unwrap();
    // Depth is the r² (x,y,z with z = one chain each) triple sum: r² terms
    // of two rounded cores (the f32 seed rides along).
    let err = max_abs_diff(&exact, &approx);
    let d = r * r * r;
    assert!(err <= bound(d, s), "tr: err {err} > bound {}", bound(d, s));
}

#[test]
fn merge_into_bf16_rounds_the_f32_merge_exactly_once() {
    let mut rng = init::rng(35);
    let base = init::uniform(&[20, 14], -1.0, 1.0, &mut rng);
    let delta = init::uniform(&[20, 14], -0.1, 0.1, &mut rng);
    let got = merge_into_bf16(&base, &delta).unwrap();
    let expect = Bf16Buf::from_tensor(&merge_into(&base, &delta).unwrap());
    assert_eq!(got, expect);
    // Per-element storage error of the merged weight is one half-ULP.
    let merged = merge_into(&base, &delta).unwrap();
    let err = max_abs_diff(&merged, &got.widen());
    assert!(err <= 1.1 * EPS * 2.0, "merge rounding err {err}");
    assert!(merge_into_bf16(&base, &init::uniform(&[3, 3], 0.0, 1.0, &mut rng)).is_err());
}
