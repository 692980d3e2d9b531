//! Property tests for the bf16 storage layer: conversion round-trips,
//! RNE error bounds, rounding monotonicity, and the mixed-precision GEMM
//! contract (bf16-sourced products are bitwise the f32 products of the
//! widened operands; stored bf16 results round exactly once at the end).

use metalora_tensor::bf16::{bf16_to_f32, f32_to_bf16, Bf16Buf};
use metalora_tensor::ops::{gemm, matmul, GemmDesc};
use metalora_tensor::init;
use proptest::prelude::*;

/// Deterministic wide-magnitude f32 from three small draws: covers
/// ~2^-24..2^24 at both signs without drawing raw bit patterns.
fn compose_f32(sign: u32, exp: i32, frac: u32) -> f32 {
    let mag = (1.0 + frac as f32 / 1_000_000.0) * 2.0f32.powi(exp - 24);
    if sign == 0 {
        mag
    } else {
        -mag
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_bf16_patterns_round_trip(h in 0u32..65536) {
        // Widening is exact, so narrow(widen(h)) must reproduce h for
        // every non-NaN pattern (NaNs round-trip to *a* NaN, quiet bit
        // forced — identity of payload bits is not promised).
        let h = h as u16;
        let f = bf16_to_f32(h);
        if f.is_nan() {
            prop_assert!(bf16_to_f32(f32_to_bf16(f)).is_nan());
        } else {
            prop_assert_eq!(f32_to_bf16(f), h);
        }
    }

    #[test]
    fn narrowing_error_is_within_half_bf16_ulp(
        sign in 0u32..2, exp in 0i32..49, frac in 0u32..1_000_000,
    ) {
        // RNE: |x - bf16(x)| ≤ 2^-8·|x| for normal x.
        let x = compose_f32(sign, exp, frac);
        let back = bf16_to_f32(f32_to_bf16(x));
        prop_assert!((back - x).abs() <= x.abs() * 2.0f32.powi(-8),
            "x={} back={}", x, back);
    }

    #[test]
    fn rounding_is_monotonic(
        sign_a in 0u32..2, exp_a in 0i32..49, frac_a in 0u32..1_000_000,
        sign_b in 0u32..2, exp_b in 0i32..49, frac_b in 0u32..1_000_000,
    ) {
        // x ≤ y ⇒ bf16(x) ≤ bf16(y): RNE never reorders values. (Equal
        // inputs trivially round equal; the interesting case is nearby
        // values collapsing onto the same bf16, which is allowed.)
        let (mut x, mut y) = (compose_f32(sign_a, exp_a, frac_a), compose_f32(sign_b, exp_b, frac_b));
        if x > y {
            std::mem::swap(&mut x, &mut y);
        }
        prop_assert!(bf16_to_f32(f32_to_bf16(x)) <= bf16_to_f32(f32_to_bf16(y)),
            "rounding reordered {} and {}", x, y);
    }

    #[test]
    fn buf_round_trips_through_widen(
        rows in 1usize..7, cols in 1usize..9, seed in 0u64..1000,
    ) {
        // narrow → widen → narrow is a fixed point: the second narrowing
        // sees exactly-representable values and must change nothing.
        let mut rng = init::rng(seed);
        let t = init::uniform(&[rows, cols], -8.0, 8.0, &mut rng);
        let b = Bf16Buf::from_tensor(&t);
        let b2 = Bf16Buf::from_tensor(&b.widen());
        prop_assert_eq!(b, b2);
    }

    #[test]
    fn bf16_weights_matmul_is_bitwise_widened_matmul(
        m in 1usize..12, k in 1usize..40, n in 1usize..24, seed in 0u64..1000,
    ) {
        let mut rng = init::rng(seed);
        let x = init::uniform(&[m, k], -2.0, 2.0, &mut rng);
        let w = Bf16Buf::from_tensor(&init::uniform(&[k, n], -2.0, 2.0, &mut rng));
        let got = gemm(&GemmDesc::new(&x, &w)).unwrap();
        let expect = matmul(&x, &w.widen()).unwrap();
        prop_assert_eq!(got.dims(), expect.dims());
        prop_assert!(got.data().iter().zip(expect.data())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
            "bf16-weight product diverged from widened f32 product");
    }

    #[test]
    fn bf16_matmul_rounds_the_widened_product_once(
        m in 1usize..10, k in 1usize..40, n in 1usize..20, seed in 0u64..1000,
    ) {
        let mut rng = init::rng(seed);
        let a = Bf16Buf::from_tensor(&init::uniform(&[m, k], -2.0, 2.0, &mut rng));
        let b = Bf16Buf::from_tensor(&init::uniform(&[k, n], -2.0, 2.0, &mut rng));
        // The GEMM hands back the f32 accumulator; storing it as bf16 is
        // the caller's single rounding.
        let got = gemm(&GemmDesc::new(&a, &b)).unwrap();
        let expect = matmul(&a.widen(), &b.widen()).unwrap();
        prop_assert!(got.data().iter().zip(expect.data()).all(|(a, b)| a.to_bits() == b.to_bits()));
        prop_assert_eq!(Bf16Buf::from_tensor(&got), Bf16Buf::from_tensor(&expect));
    }
}
