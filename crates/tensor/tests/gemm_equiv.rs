//! The GEMM equivalence table: one proptest over the whole descriptor
//! space of [`gemm`] — {N,T}×{N,T} layouts × {unbatched, batched, matvec}
//! × {no epilogue, bias, bias + each activation} — on ragged, `k = 0`,
//! single-row/column, NC-crossing and KC-crossing shapes at worker counts
//! {1, 2, 3, 4, 7}.
//!
//! Every cell is anchored to a naive triple loop over the operands
//! followed by the separate [`epilogue_pass`], and must match it **bitwise**
//! on the reference kernel, on the forced packed kernel and on whatever
//! path the gate picks, and — both kernels at one worker — at every SIMD
//! level the host has (Scalar ≡ AVX2 ≡ AVX-512); each surviving wrapper
//! name must equal its descriptor. The kernel path and the SIMD level are
//! forced through the scoped thread-local seam, so the only process-wide
//! state left to serialise is the worker count.

use metalora_tensor::ops::{
    bmm, bmm_transpose_a, bmm_transpose_b, epilogue_pass, gemm, matmul, matmul_transpose_a,
    matmul_transpose_b, simd_level, with_kernel_path, Activation, GemmDesc, KernelPath, Layout,
    SimdLevel,
};
use metalora_tensor::{init, par, Tensor};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Holds the worker-count lock; restores the `par` defaults on drop.
struct ThreadsGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        par::set_num_threads(0);
        par::set_par_threshold(usize::MAX);
    }
}

fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `Σ_k A[i,k]·B[k,j]` per batch slice, each element from `+0.0` by one
/// fused multiply-add per `k` in increasing order — the sequence both
/// kernels promise.
fn naive(a: &Tensor, at: bool, b: &Tensor, bt: bool, (bs, m, k, n): (usize, usize, usize, usize)) -> Vec<f32> {
    let mut out = vec![0.0f32; bs * m * n];
    for bi in 0..bs {
        let (a0, b0) = (bi * m * k, bi * k * n);
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
    Matvec,
}

const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

const ACTS: [Option<Activation>; 4] =
    [None, Some(Activation::Relu), Some(Activation::Gelu), Some(Activation::Tanh)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn gemm_equiv(
        class in 0usize..5,
        m in 1usize..14,
        k in 1usize..30,
        n in 1usize..14,
        bs in 2usize..4,
        seed in 0u64..1000,
    ) {
        let _g = ThreadsGuard(THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner()));
        par::set_par_threshold(0);
        let (m, k, n) = match class {
            0 => (m, k, n),           // ragged in every dimension
            1 => (m, 0, n),           // empty inner dimension
            2 => (1 + m % 2, k, 1),   // thinner than the MR×NR tile
            3 => (m % 6 + 1, k, 250 + n), // crosses the NC column-group boundary
            _ => (m, 100 + 2 * k, n), // crosses the KC k-tile boundary
        };
        let mut rng = init::rng(seed);
        for batching in [Batching::Unbatched, Batching::Batched, Batching::Matvec] {
            let (bs, n) = match batching {
                Batching::Unbatched => (1, n),
                Batching::Batched => (bs, n),
                Batching::Matvec => (1, 1),
            };
            let bias = init::uniform(&[n], -1.0, 1.0, &mut rng);
            for (at, bt) in [(false, false), (true, false), (false, true), (true, true)] {
                if batching == Batching::Matvec && bt {
                    continue; // a vector has no transpose
                }
                let lead = if batching == Batching::Batched { vec![bs] } else { vec![] };
                let a_dims = [lead.clone(), if at { vec![k, m] } else { vec![m, k] }].concat();
                let b_dims = match batching {
                    Batching::Matvec => vec![k],
                    _ => [lead, if bt { vec![n, k] } else { vec![k, n] }].concat(),
                };
                let a = init::uniform(&a_dims, -1.0, 1.0, &mut rng);
                let b = init::uniform(&b_dims, -1.0, 1.0, &mut rng);
                let out_dims: Vec<usize> = match batching {
                    Batching::Unbatched => vec![m, n],
                    Batching::Batched => vec![bs, m, n],
                    Batching::Matvec => vec![m],
                };
                let plain = Tensor::from_vec(naive(&a, at, &b, bt, (bs, m, k, n)), &out_dims).unwrap();
                let mut desc = GemmDesc::new(&a, &b);
                desc.a_layout = if at { Layout::T } else { Layout::N };
                desc.b_layout = if bt { Layout::T } else { Layout::N };

                for (with_bias, act) in [(false, None)].into_iter().chain(ACTS.map(|a| (true, a))) {
                    let bias = with_bias.then_some(&bias);
                    // Fused ≡ the plain product + separate passes.
                    let expect = epilogue_pass(plain.clone(), bias, act).unwrap();
                    let desc = desc.epilogue(bias, act);
                    let what = format!(
                        "{batching:?} at={at} bt={bt} bias={with_bias} act={act:?} bs={bs} m={m} \
                         k={k} n={n}"
                    );
                    par::set_num_threads(1);
                    let reference =
                        with_kernel_path(KernelPath::Reference, || gemm(&desc).unwrap());
                    prop_assert!(bits_eq(&reference, &expect), "reference kernel: {what}");
                    for threads in [1usize, 2, 3, 4, 7] {
                        par::set_num_threads(threads);
                        let packed =
                            with_kernel_path(KernelPath::Packed, || gemm(&desc).unwrap());
                        prop_assert!(bits_eq(&packed, &expect), "packed@{threads}: {what}");
                        let auto = gemm(&desc).unwrap();
                        prop_assert!(bits_eq(&auto, &expect), "auto@{threads}: {what}");
                    }
                    par::set_num_threads(1);
                    for level in LEVELS.into_iter().filter(|&l| l <= simd_level()) {
                        for path in [KernelPath::Reference, KernelPath::Packed] {
                            let got = with_kernel_path(level, || {
                                with_kernel_path(path, || gemm(&desc).unwrap())
                            });
                            prop_assert!(bits_eq(&got, &expect), "{path:?}@{level:?}: {what}");
                        }
                    }
                }
                // Each wrapper name is its descriptor (no epilogue).
                let wrapper = match (batching, at, bt) {
                    (Batching::Unbatched, false, false) => Some(matmul(&a, &b)),
                    (Batching::Unbatched, true, false) => Some(matmul_transpose_a(&a, &b)),
                    (Batching::Unbatched, false, true) => Some(matmul_transpose_b(&a, &b)),
                    (Batching::Batched, false, false) => Some(bmm(&a, &b)),
                    (Batching::Batched, true, false) => Some(bmm_transpose_a(&a, &b)),
                    (Batching::Batched, false, true) => Some(bmm_transpose_b(&a, &b)),
                    _ => None,
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
