//! The GEMM equivalence table: one proptest over the whole descriptor
//! space of [`gemm`] — {N,T}×{N,T} layouts × {unbatched, batched, one `a`
//! shared by a batched `b`, matvec} × {no bias, bias} — on ragged,
//! `k = 0`, single-row, single-column, NC-crossing and KC-crossing
//! shapes. `m` and `n` reach 47: up to six MR strips, and the NR panel
//! pairs the wide SIMD levels take once `n ≥ 32`.
//!
//! Every cell is anchored to a naive triple loop over the operands
//! followed by the separate [`epilogue_pass`], and must match it **bitwise**
//! on the reference kernel, on the forced packed kernel and unforced (the
//! packed kernel every production call takes), and — both kernels — at
//! every SIMD level the host has (Scalar ≡ AVX2 ≡ AVX-512); each wrapper
//! name must equal its descriptor at rank 2 and rank 3. The kernel path
//! and the SIMD level are forced through scoped thread-local seams, so
//! the suite needs no lock.

use metalora_tensor::ops::{
    epilogue_pass, gemm, matmul, matmul_transpose_a, matmul_transpose_b, simd_level,
    with_kernel_path, GemmDesc, KernelPath, Layout, SimdLevel,
};
use metalora_tensor::{init, Tensor};
use proptest::prelude::*;

fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `Σ_k A[i,k]·B[k,j]` per batch slice, each element from `+0.0` by one
/// fused multiply-add per `k` in increasing order — the sequence both
/// kernels promise.
fn naive(a: &Tensor, at: bool, b: &Tensor, bt: bool, (bs, m, k, n): (usize, usize, usize, usize)) -> Vec<f32> {
    let mut out = vec![0.0f32; bs * m * n];
    for bi in 0..bs {
        // A rank-2 `a` against a batched `b` serves every slice.
        let a0 = if a.len() == m * k { 0 } else { bi * m * k };
        let b0 = bi * k * n;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let av = a.data()[a0 + if at { kk * m + i } else { i * k + kk }];
                    let bv = b.data()[b0 + if bt { j * k + kk } else { kk * n + j }];
                    acc = av.mul_add(bv, acc);
                }
                out[(bi * m + i) * n + j] = acc;
            }
        }
    }
    out
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Batching {
    Unbatched,
    Batched,
    SharedLhs,
    Matvec,
}

const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_equiv(
        class in 0usize..6,
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        bs in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (m, k, n) = match class {
            0 => (m, k, n),               // ragged: strips, panels and panel pairs
            1 => (m, 0, n),               // empty inner dimension
            2 => (1 + m % 2, k, n),       // thinner than the MR strip
            3 => (m, k, 1 + n % 2),       // narrower than the NR panel
            4 => (m % 6 + 1, k, 250 + n), // crosses the NC column-group boundary
            _ => (m, 100 + 4 * k, n),     // crosses the KC k-tile boundary, up to twice
        };
        let mut rng = init::rng(seed);
        for batching in [Batching::Unbatched, Batching::Batched, Batching::SharedLhs, Batching::Matvec] {
            let (bs, n) = match batching {
                Batching::Unbatched => (1, n),
                Batching::Batched | Batching::SharedLhs => (bs, n),
                Batching::Matvec => (1, 1),
            };
            let bias = init::uniform(&[n], -1.0, 1.0, &mut rng);
            for (at, bt) in [(false, false), (true, false), (false, true), (true, true)] {
                if batching == Batching::Matvec && bt {
                    continue; // a vector has no transpose
                }
                let lead = |batched: bool| if batched { vec![bs] } else { vec![] };
                let a_lead = lead(batching == Batching::Batched);
                let a_dims = [a_lead, if at { vec![k, m] } else { vec![m, k] }].concat();
                let b_lead = lead(matches!(batching, Batching::Batched | Batching::SharedLhs));
                let b_dims = match batching {
                    Batching::Matvec => vec![k],
                    _ => [b_lead, if bt { vec![n, k] } else { vec![k, n] }].concat(),
                };
                let a = init::uniform(&a_dims, -1.0, 1.0, &mut rng);
                let b = init::uniform(&b_dims, -1.0, 1.0, &mut rng);
                let out_dims: Vec<usize> = match batching {
                    Batching::Unbatched => vec![m, n],
                    Batching::Batched | Batching::SharedLhs => vec![bs, m, n],
                    Batching::Matvec => vec![m],
                };
                let plain = Tensor::from_vec(naive(&a, at, &b, bt, (bs, m, k, n)), &out_dims).unwrap();
                let mut desc = GemmDesc::new(&a, &b);
                desc.a_layout = if at { Layout::T } else { Layout::N };
                desc.b_layout = if bt { Layout::T } else { Layout::N };

                for with_bias in [false, true] {
                    let bias = with_bias.then_some(&bias);
                    // Fused ≡ the plain product + the separate pass.
                    let expect = epilogue_pass(plain.clone(), bias).unwrap();
                    let desc = desc.epilogue(bias);
                    let what = format!(
                        "{batching:?} at={at} bt={bt} bias={with_bias} bs={bs} m={m} k={k} n={n}"
                    );
                    let unforced = gemm(&desc).unwrap();
                    prop_assert!(bits_eq(&unforced, &expect), "unforced: {what}");
                    for level in LEVELS.into_iter().filter(|&l| l <= simd_level()) {
                        for path in [KernelPath::Reference, KernelPath::Packed] {
                            let got = with_kernel_path(level, || {
                                with_kernel_path(path, || gemm(&desc).unwrap())
                            });
                            prop_assert!(bits_eq(&got, &expect), "{path:?}@{level:?}: {what}");
                        }
                    }
                }
                // Each wrapper name is its descriptor (no bias), whatever
                // the operands' ranks.
                let wrapper = match (batching, at, bt) {
                    (Batching::Matvec, ..) | (_, true, true) => None,
                    (_, false, false) => Some(matmul(&a, &b)),
                    (_, true, false) => Some(matmul_transpose_a(&a, &b)),
                    (_, false, true) => Some(matmul_transpose_b(&a, &b)),
                };
                if let Some(got) = wrapper {
                    let want = Tensor::from_vec(naive(&a, at, &b, bt, (bs, m, k, n)), &out_dims);
                    prop_assert!(bits_eq(&got.unwrap(), &want.unwrap()), "wrapper at={at} bt={bt}");
                }
            }
        }
    }
}

/// The two inputs `matvec`'s old `Iterator::sum` fold got wrong (its f32
/// identity is `-0.0`): every product `-0.0`, and no products at all.
#[test]
fn signed_zero_matvec_is_positive_zero_on_every_path() {
    let cases = [
        (Tensor::full(&[5, 7], -1.0), Tensor::zeros(&[7])),
        (Tensor::zeros(&[5, 0]), Tensor::zeros(&[0])),
    ];
    for (a, x) in &cases {
        let desc = GemmDesc::new(a, x);
        let runs = [
            with_kernel_path(KernelPath::Reference, || gemm(&desc).unwrap()),
            with_kernel_path(KernelPath::Packed, || gemm(&desc).unwrap()),
            gemm(&desc).unwrap(),
            matmul(a, &x.reshaped(&[x.len(), 1]).unwrap()).unwrap().reshape(&[5]).unwrap(),
        ];
        for y in &runs {
            assert_eq!(y.dims(), &[5]);
            assert!(y.data().iter().all(|v| v.to_bits() == 0), "{:?}", y.data());
        }
    }
}
