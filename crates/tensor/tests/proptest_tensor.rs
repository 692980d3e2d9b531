//! Property-based tests for the tensor engine's core invariants.

use metalora_tensor::conv::{conv1d_direct, conv1d_via_dummy, ConvSpec};
use metalora_tensor::contract::{contract, contract_naive};
use metalora_tensor::decomp::{fold, khatri_rao, unfold};
use metalora_tensor::ops::{
    add, matmul, matmul_transpose_a, matmul_transpose_b, permute, scale, sub, transpose2d,
};
use metalora_tensor::{approx_eq, Shape, Tensor};
use proptest::prelude::*;
use proptest::strategy::ValueTree;

/// Strategy: a tensor with the given dims and values in [-10, 10].
fn tensor_with_dims(dims: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = dims.iter().product();
    prop::collection::vec(-10.0f32..10.0, n)
        .prop_map(move |data| Tensor::from_vec(data, &dims).expect("len matches"))
}

/// Strategy: small random shape (rank 1..=4, dims 1..=5).
fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=5, 1..=4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_multi_index_roundtrip(dims in small_dims(), frac in 0.0f64..1.0) {
        let shape = Shape::new(&dims);
        let n = shape.num_elements();
        let flat = ((n as f64 - 1.0) * frac) as usize;
        let idx = shape.multi_index(flat).unwrap();
        prop_assert_eq!(shape.flat_index(&idx).unwrap(), flat);
    }

    #[test]
    fn add_commutes_and_sub_inverts(dims in small_dims(), seed in 0u64..1000) {
        let mut rng = metalora_tensor::init::rng(seed);
        let a = metalora_tensor::init::uniform(&dims, -5.0, 5.0, &mut rng);
        let b = metalora_tensor::init::uniform(&dims, -5.0, 5.0, &mut rng);
        let ab = add(&a, &b).unwrap();
        let ba = add(&b, &a).unwrap();
        prop_assert!(approx_eq(&ab, &ba, 1e-6));
        let back = sub(&ab, &b).unwrap();
        prop_assert!(approx_eq(&back, &a, 1e-4));
    }

    #[test]
    fn scale_is_linear(dims in small_dims(), s in -4.0f32..4.0, seed in 0u64..1000) {
        let mut rng = metalora_tensor::init::rng(seed);
        let a = metalora_tensor::init::uniform(&dims, -5.0, 5.0, &mut rng);
        let b = metalora_tensor::init::uniform(&dims, -5.0, 5.0, &mut rng);
        let lhs = scale(&add(&a, &b).unwrap(), s);
        let rhs = add(&scale(&a, s), &scale(&b, s)).unwrap();
        prop_assert!(approx_eq(&lhs, &rhs, 1e-4));
    }

    #[test]
    fn matmul_associative(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, p in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut rng = metalora_tensor::init::rng(seed);
        let a = metalora_tensor::init::uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = metalora_tensor::init::uniform(&[k, n], -2.0, 2.0, &mut rng);
        let c = metalora_tensor::init::uniform(&[n, p], -2.0, 2.0, &mut rng);
        let left = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
        let right = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
        prop_assert!(approx_eq(&left, &right, 1e-3));
    }

    #[test]
    fn transpose_involution_and_product_rule(
        m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1000,
    ) {
        let mut rng = metalora_tensor::init::rng(seed);
        let a = metalora_tensor::init::uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = metalora_tensor::init::uniform(&[k, n], -2.0, 2.0, &mut rng);
        // (AB)ᵀ = BᵀAᵀ.
        let lhs = transpose2d(&matmul(&a, &b).unwrap()).unwrap();
        let rhs = matmul(&transpose2d(&b).unwrap(), &transpose2d(&a).unwrap()).unwrap();
        prop_assert!(approx_eq(&lhs, &rhs, 1e-4));
        // Fused variants agree.
        prop_assert!(approx_eq(
            &matmul_transpose_a(&a, &matmul(&a, &b).unwrap()).unwrap(),
            &matmul(&transpose2d(&a).unwrap(), &matmul(&a, &b).unwrap()).unwrap(),
            1e-4
        ));
        prop_assert!(approx_eq(
            &matmul_transpose_b(&a, &transpose2d(&b).unwrap()).unwrap(),
            &matmul(&a, &b).unwrap(),
            1e-4
        ));
    }

    #[test]
    fn permute_roundtrip(seed in 0u64..1000) {
        let mut rng = metalora_tensor::init::rng(seed);
        let t = metalora_tensor::init::uniform(&[2, 3, 4], -5.0, 5.0, &mut rng);
        let perm = [2usize, 0, 1];
        let p = permute(&t, &perm).unwrap();
        // Inverse permutation restores the original.
        let mut inv = [0usize; 3];
        for (dst, &src) in perm.iter().enumerate() {
            inv[src] = dst;
        }
        let back = permute(&p, &inv).unwrap();
        prop_assert!(approx_eq(&t, &back, 0.0));
    }

    #[test]
    fn permute_is_the_elementwise_definition_bitwise(
        // Rank 1–5; extents 0–4 reach empty and extent-1 axes.
        dims in prop::collection::vec(0usize..=4, 1..=5),
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        let mut rng = metalora_tensor::init::rng(seed);
        let mut perm: Vec<usize> = (0..dims.len()).collect();
        perm.shuffle(&mut rng);
        // Distinct integers: a misplaced element cannot go unnoticed.
        let n: usize = dims.iter().product();
        let t = Tensor::arange(0.0, 1.0, n).reshape(&dims).unwrap();
        let p = permute(&t, &perm).unwrap();
        let out_dims: Vec<usize> = perm.iter().map(|&a| dims[a]).collect();
        prop_assert_eq!(p.dims(), &out_dims[..]);
        // out[o_0, …, o_{r-1}] = in[i] with i[perm[k]] = o_k.
        let (in_shape, out_shape) = (Shape::new(&dims), Shape::new(&out_dims));
        for (flat, got) in p.data().iter().enumerate() {
            let o = out_shape.multi_index(flat).unwrap();
            let mut i = vec![0usize; dims.len()];
            for (k, &axis) in perm.iter().enumerate() {
                i[axis] = o[k];
            }
            let want = t.data()[in_shape.flat_index(&i).unwrap()];
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn contract_fast_matches_naive(
        a_dims in prop::collection::vec(1usize..4, 2..=3),
        b0 in 1usize..4, seed in 0u64..1000,
    ) {
        // Contract a's last axis with b's first axis.
        let mut rng = metalora_tensor::init::rng(seed);
        let a = metalora_tensor::init::uniform(&a_dims, -2.0, 2.0, &mut rng);
        let shared = *a_dims.last().unwrap();
        let b = metalora_tensor::init::uniform(&[shared, b0], -2.0, 2.0, &mut rng);
        let fast = contract(&a, &b, &[a_dims.len() - 1], &[0]).unwrap();
        let slow = contract_naive(&a, &b, &[a_dims.len() - 1], &[0]).unwrap();
        prop_assert!(approx_eq(&fast, &slow, 1e-3));
    }

    #[test]
    fn unfold_fold_roundtrip(dims in prop::collection::vec(1usize..5, 2..=4), seed in 0u64..1000) {
        let mut rng = metalora_tensor::init::rng(seed);
        let t = metalora_tensor::init::uniform(&dims, -5.0, 5.0, &mut rng);
        for mode in 0..dims.len() {
            let u = unfold(&t, mode).unwrap();
            let back = fold(&u, mode, &dims).unwrap();
            prop_assert!(approx_eq(&t, &back, 0.0));
        }
    }

    #[test]
    fn khatri_rao_column_norms_multiply(
        i in 1usize..5, j in 1usize..5, r in 1usize..4, seed in 0u64..1000,
    ) {
        let mut rng = metalora_tensor::init::rng(seed);
        let a = metalora_tensor::init::uniform(&[i, r], -2.0, 2.0, &mut rng);
        let b = metalora_tensor::init::uniform(&[j, r], -2.0, 2.0, &mut rng);
        let kr = khatri_rao(&a, &b).unwrap();
        // ‖kr(:,c)‖ = ‖a(:,c)‖·‖b(:,c)‖ — Kronecker norm identity.
        for c in 0..r {
            let col_norm = |m: &Tensor, rows: usize| -> f32 {
                (0..rows)
                    .map(|row| {
                        let v = m.get(&[row, c]).unwrap();
                        v * v
                    })
                    .sum::<f32>()
                    .sqrt()
            };
            let lhs = col_norm(&kr, i * j);
            let rhs = col_norm(&a, i) * col_norm(&b, j);
            prop_assert!((lhs - rhs).abs() <= 1e-3 * (1.0 + rhs), "{lhs} vs {rhs}");
        }
    }

    #[test]
    fn conv1d_dummy_matches_direct_prop(
        len in 3usize..10, k in 1usize..4, stride in 1usize..3, pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(len + 2 * pad >= k);
        let spec = ConvSpec::new(k, stride, pad).unwrap();
        let mut rng = metalora_tensor::init::rng(seed);
        let a = metalora_tensor::init::uniform(&[len], -3.0, 3.0, &mut rng);
        let b = metalora_tensor::init::uniform(&[k], -3.0, 3.0, &mut rng);
        let d = conv1d_direct(&a, &b, spec).unwrap();
        let t = conv1d_via_dummy(&a, &b, spec).unwrap();
        prop_assert!(approx_eq(&d, &t, 1e-3));
    }

    #[test]
    fn tensor_strategy_shape_holds(dims in small_dims()) {
        // Meta-test for the strategy helper itself.
        let t = tensor_with_dims(dims.clone());
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let v = t.new_tree(&mut runner).unwrap().current();
        prop_assert_eq!(v.dims(), &dims[..]);
    }
}
