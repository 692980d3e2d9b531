//! The broadcast path of `ops::zip_with` against the per-element
//! definition, bit for bit.
//!
//! The oracle below is the original broadcast body of `zip_with`, kept
//! verbatim: one output element per step, each operand's offset rebuilt
//! from a multi-index that advances like an odometer. Every output element
//! is one call of the closure on one element of each operand, so any
//! faster walk must produce the same bits. Random broadcast-compatible
//! shape pairs (rank 0–5, extent-1 axes on either side, missing leading
//! axes, zero extents, both operand orders) run `add`, `sub`, `mul`,
//! `div` and a non-commutative closure; values include ±0, ±∞, NaN and
//! subnormals. NaN matches any NaN: the payload of a NaN result is the
//! hardware's choice, not the walk's.

use metalora_tensor::ops::{add, div, mul, sub, zip_with};
use metalora_tensor::{init, Result, Shape, Tensor, TensorError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// The original broadcast walk of `zip_with`, copied unchanged.
fn oracle_zip_with(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    let out_shape = a.shape().broadcast(b.shape())?;
    let mut out = Tensor::zeros(out_shape.dims());
    let a_strides = broadcast_strides(a.shape(), &out_shape)?;
    let b_strides = broadcast_strides(b.shape(), &out_shape)?;
    let out_dims = out_shape.dims().to_vec();
    let (a_data, b_data) = (a.data(), b.data());
    let out_data = out.data_mut();
    let mut idx = vec![0usize; out_dims.len()];
    for out_slot in out_data.iter_mut() {
        let mut a_off = 0usize;
        let mut b_off = 0usize;
        for (k, &i) in idx.iter().enumerate() {
            a_off += i * a_strides[k];
            b_off += i * b_strides[k];
        }
        *out_slot = f(a_data[a_off], b_data[b_off]);
        // Odometer increment.
        for k in (0..out_dims.len()).rev() {
            idx[k] += 1;
            if idx[k] < out_dims[k] {
                break;
            }
            idx[k] = 0;
        }
    }
    Ok(out)
}

/// Strides of `src` viewed under the broadcast `target` shape: broadcast
/// axes get stride 0 so the same element is reused.
fn broadcast_strides(src: &Shape, target: &Shape) -> Result<Vec<usize>> {
    let offset = target.rank() - src.rank();
    let src_strides = src.strides();
    let mut out = vec![0usize; target.rank()];
    for k in 0..target.rank() {
        if k < offset {
            out[k] = 0;
        } else {
            let sd = src.dims()[k - offset];
            let td = target.dims()[k];
            if sd == td {
                out[k] = src_strides[k - offset];
            } else if sd == 1 {
                out[k] = 0;
            } else {
                return Err(TensorError::ShapeMismatch {
                    op: "broadcast",
                    lhs: src.dims().to_vec(),
                    rhs: target.dims().to_vec(),
                });
            }
        }
    }
    Ok(out)
}

/// A broadcast-compatible pair of dims. The output has rank 0–5 with
/// extents mostly 0–4; a 17 now and then gives inner runs longer than one
/// SIMD register, and the output holds at most 4 096 elements. Each
/// operand drops a random number of leading axes and keeps each other
/// axis at the output's extent or at 1.
fn shape_pair(rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
    let out: Vec<usize> = loop {
        let rank = rng.gen_range(0..=5);
        let out: Vec<usize> = (0..rank)
            .map(|_| {
                if rng.gen_range(0..7) == 0 {
                    17
                } else {
                    rng.gen_range(0..=4)
                }
            })
            .collect();
        if out.iter().product::<usize>() <= 4096 {
            break out;
        }
    };
    let operand = |rng: &mut StdRng| -> Vec<usize> {
        let r = out.len();
        let lead = r - rng.gen_range(0..=r);
        (lead..r)
            .map(|k| if rng.gen_range(0..2) == 0 { 1 } else { out[k] })
            .collect()
    };
    (operand(rng), operand(rng))
}

/// ±0, ±∞, NaN, subnormals and the extremes of the normal range.
const SPECIAL: [f32; 10] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    1.0e-40,
    -3.5e-42,
    f32::MIN_POSITIVE,
    f32::MAX,
    f32::MIN,
];

/// A tensor whose elements are a special value one time in three and a
/// uniform draw in `[-4, 4)` otherwise.
fn values(dims: &[usize], rng: &mut StdRng) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|_| {
            if rng.gen_range(0..3) == 0 {
                SPECIAL[rng.gen_range(0..SPECIAL.len())]
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

/// Same shape, and every element the same bits — or both NaN.
fn assert_same(got: &Tensor, want: &Tensor, what: &str) {
    prop_assert_eq!(got.dims(), want.dims(), "{}", what);
    for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{} element {}: got {:?} ({:#010x}), want {:?} ({:#010x})",
            what,
            i,
            g,
            g.to_bits(),
            w,
            w.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn broadcast_ops_are_the_odometer_bitwise(seed in 0u64..1_000_000) {
        let mut rng = init::rng(seed);
        let (a_dims, b_dims) = shape_pair(&mut rng);
        let a = values(&a_dims, &mut rng);
        let b = values(&b_dims, &mut rng);
        // Both operand orders.
        for (x, y) in [(&a, &b), (&b, &a)] {
            let what = format!("{:?} with {:?}", x.dims(), y.dims());
            assert_same(&add(x, y).unwrap(), &oracle_zip_with(x, y, |p, q| p + q).unwrap(), &what);
            assert_same(&sub(x, y).unwrap(), &oracle_zip_with(x, y, |p, q| p - q).unwrap(), &what);
            assert_same(&mul(x, y).unwrap(), &oracle_zip_with(x, y, |p, q| p * q).unwrap(), &what);
            assert_same(&div(x, y).unwrap(), &oracle_zip_with(x, y, |p, q| p / q).unwrap(), &what);
            // Tells its arguments apart: swapping them changes the result.
            let skew = |p: f32, q: f32| p * 0.75 - q / (1.0 + q.abs());
            assert_same(
                &zip_with(x, y, skew).unwrap(),
                &oracle_zip_with(x, y, skew).unwrap(),
                &what,
            );
        }
    }

    #[test]
    fn incompatible_shapes_are_an_error_in_both_orders(seed in 0u64..1_000_000) {
        let mut rng = init::rng(seed);
        let (a_dims, b_dims) = shape_pair(&mut rng);
        // Give one axis the two operands share two different extents, both
        // above 1.
        let shared = a_dims.len().min(b_dims.len());
        prop_assume!(shared > 0);
        let k = rng.gen_range(0..shared);
        let (ka, kb) = (a_dims.len() - shared + k, b_dims.len() - shared + k);
        let (mut a_dims, mut b_dims) = (a_dims, b_dims);
        b_dims[kb] = b_dims[kb].max(2);
        a_dims[ka] = b_dims[kb] + 1;
        prop_assume!(a_dims.iter().product::<usize>() <= 8192);
        prop_assume!(b_dims.iter().product::<usize>() <= 8192);
        let a = values(&a_dims, &mut rng);
        let b = values(&b_dims, &mut rng);
        prop_assert!(oracle_zip_with(&a, &b, |p, q| p + q).is_err());
        prop_assert!(add(&a, &b).is_err());
        prop_assert!(zip_with(&b, &a, |p, q| p - q).is_err());
    }
}
