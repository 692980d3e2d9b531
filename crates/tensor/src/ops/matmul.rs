//! Dense matrix multiplication: one entry point, [`gemm`].
//!
//! Every product in the stack — plain, transposed, batched, matrix–vector,
//! with or without a fused bias/activation — is one
//! [`GemmDesc`]: layout, batching and epilogue are *data*, and
//! [`gemm`] is the only function that validates shapes, picks a kernel,
//! runs it and records the obs counters. Two interchangeable kernels sit
//! underneath:
//!
//! * the **packed register-tiled microkernel**
//!   (`microkernel::gemm_packed`) — packs both operands and runs
//!   an `MR×NR` SIMD register tile under a tile-grid scheduler; taken for
//!   products of at least [`PACK_MIN_FLOPS`];
//! * the **strided reference kernel** below — scalar loops over the same
//!   strided description; taken for tiny products, and the reference the
//!   packed path is tested bitwise-equal against
//!   ([`super::microkernel::with_kernel_path`]).
//!
//! Per-element accumulation starts from `+0.0` and takes one fused
//! multiply-add per `k`, in increasing `k` order, everywhere, so
//! reference, packed, parallel and every SIMD level's results are all
//! bitwise identical. `matmul` and the few names the autograd tape uses
//! survive as one-line wrappers.

use super::microkernel::{
    self, simd_level, use_packed, Activation, Epilogue, SimdLevel, StridedGemm, KC,
};
use crate::par::par_row_blocks;
use crate::{Result, Tensor, TensorError};

/// Whether an operand is read as stored or transposed (per batch slice).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layout {
    /// As stored.
    N,
    /// Transposed — expressed through strides, never materialised.
    T,
}

/// Everything that distinguishes one matrix product from another.
///
/// `a` is `[m,k]` (`[k,m]` under [`Layout::T`]), `b` is `[k,n]` (`[n,k]`
/// under `T`); rank-3 operands `[B,·,·]` make it a batched product over
/// `B` independent slices, and a rank-1 `b:[k]` against a rank-2 `a` is
/// the matrix–vector product (output `[m]`).
#[derive(Clone, Copy)]
pub struct GemmDesc<'a> {
    /// Left operand.
    pub a: &'a Tensor,
    /// Layout of `a`.
    pub a_layout: Layout,
    /// Right operand.
    pub b: &'a Tensor,
    /// Layout of `b`.
    pub b_layout: Layout,
    /// Per-output-column bias and/or activation, applied inside the store
    /// of each element once its accumulation is complete.
    pub ep: Epilogue<'a>,
}

impl<'a> GemmDesc<'a> {
    /// `A·B`, both as stored, no epilogue.
    pub fn new(a: &'a Tensor, b: &'a Tensor) -> Self {
        GemmDesc {
            a,
            a_layout: Layout::N,
            b,
            b_layout: Layout::N,
            ep: Epilogue::none(),
        }
    }

    /// Reads `a` transposed.
    pub fn transpose_a(mut self) -> Self {
        self.a_layout = Layout::T;
        self
    }

    /// Reads `b` transposed.
    pub fn transpose_b(mut self) -> Self {
        self.b_layout = Layout::T;
        self
    }

    /// Fuses `act(· + bias)` into the store (`bias` has one entry per
    /// output column).
    pub fn epilogue(mut self, bias: Option<&'a Tensor>, act: Option<Activation>) -> Self {
        self.ep = Epilogue { bias: bias.map(Tensor::data), act };
        self
    }
}

/// `C = act(A·B + bias)` as described by `desc` — the only matmul body.
///
/// A fused epilogue is bitwise identical to the plain product followed by
/// [`epilogue_pass`]: per element the scalar sequence `act(acc + bias[j])`
/// after the complete `k` accumulation is the same, only its timing moves
/// (asserted by `tests/gemm_equiv.rs`).
pub fn gemm(desc: &GemmDesc) -> Result<Tensor> {
    let (ad, bd) = (desc.a.dims(), desc.b.dims());
    let mismatch = |op: &'static str| TensorError::ShapeMismatch {
        op,
        lhs: ad.to_vec(),
        rhs: bd.to_vec(),
    };
    let (bs, a_rows, a_cols) = match *ad {
        [r, c] => (1, r, c),
        [b, r, c] => (b, r, c),
        _ => {
            return Err(TensorError::InvalidArgument(format!(
                "gemm lhs: expected rank-2 or rank-3 operand, got rank {}",
                ad.len()
            )))
        }
    };
    let (b_rows, b_cols) = match *bd {
        [len] if ad.len() == 2 && desc.b_layout == Layout::N => (len, 1),
        [r, c] if ad.len() == 2 => (r, c),
        [b, r, c] if ad.len() == 3 && b == bs => (r, c),
        _ => return Err(mismatch("gemm ranks")),
    };
    let (m, k) = match desc.a_layout {
        Layout::N => (a_rows, a_cols),
        Layout::T => (a_cols, a_rows),
    };
    let (k2, n) = match desc.b_layout {
        Layout::N => (b_rows, b_cols),
        Layout::T => (b_cols, b_rows),
    };
    if k != k2 {
        return Err(mismatch("gemm"));
    }
    if let Some(bias) = desc.ep.bias {
        if bias.len() != n {
            return Err(TensorError::ShapeMismatch {
                op: "gemm bias",
                lhs: vec![bias.len()],
                rhs: vec![n],
            });
        }
    }
    let (a_rs, a_ks) = match desc.a_layout {
        Layout::N => (k, 1),
        Layout::T => (1, m),
    };
    let (b_ks, b_cs) = match desc.b_layout {
        Layout::N => (n, 1),
        Layout::T => (1, k),
    };
    let g = StridedGemm {
        a: desc.a.data(),
        a_batch: m * k,
        a_rs,
        a_ks,
        b: desc.b.data(),
        b_batch: k * n,
        b_ks,
        b_cs,
        bs,
        m,
        n,
        k,
        ep: desc.ep,
    };
    let mut out = vec![0.0f32; bs * m * n];
    let flops = 2 * bs * m * k * n;
    let packed = use_packed(flops);
    if packed {
        microkernel::gemm_packed(&g, &mut out);
    } else {
        gemm_reference(&g, &mut out);
    }
    // Flops count multiply-adds as 2 ops each; bytes are every operand
    // plus the output, 4 per element.
    let bias_len = desc.ep.bias.map_or(0, <[f32]>::len);
    metalora_obs::counters::record_kernel(
        metalora_obs::counters::Kernel::Matmul,
        flops as u64,
        (4 * (desc.a.len() + desc.b.len() + bias_len + out.len())) as u64,
    );
    metalora_obs::counters::record_matmul_path(packed);
    if !desc.ep.is_noop() {
        metalora_obs::counters::record_fused_epilogue(out.len() as u64);
    }
    match (ad.len(), bd.len()) {
        (3, _) => Tensor::from_vec(out, &[bs, m, n]),
        (_, 1) => Tensor::from_vec(out, &[m]),
        _ => Tensor::from_vec(out, &[m, n]),
    }
}

/// The reference path of [`gemm`]: scalar loops over the strided
/// description, row blocks handed to [`par_row_blocks`], run by the
/// instantiation of [`reference_rows`] for the SIMD level. The level is
/// read here, on the calling thread, because a cap set by
/// [`super::microkernel::with_kernel_path`] is thread-local and the row
/// blocks may run on the team.
fn gemm_reference(g: &StridedGemm, out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    let lvl = simd_level();
    par_row_blocks(out, g.n, 2 * g.k * g.n, |first, block| match lvl {
        // SAFETY: `simd_level` reports a vector level only when the host
        // has it, FMA included.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { reference_rows_avx512(g, first, block) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { reference_rows_avx2(g, first, block) },
        _ => reference_rows(g, first, block),
    });
}

/// [`reference_rows`] where `f32::mul_add` is one `vfmadd` and the axpy
/// form vectorises to 512-bit lanes.
///
/// # Safety
/// The host has AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn reference_rows_avx512(g: &StridedGemm, first: usize, block: &mut [f32]) {
    reference_rows(g, first, block)
}

/// [`reference_rows`] where `f32::mul_add` is one `vfmadd` and the axpy
/// form vectorises to 256-bit lanes.
///
/// # Safety
/// The host has AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn reference_rows_avx2(g: &StridedGemm, first: usize, block: &mut [f32]) {
    reference_rows(g, first, block)
}

/// The reference kernel on the output rows `first..` that `block` holds.
/// Two inner-loop forms, both contiguous in `B`, picked from `B`'s
/// strides:
///
/// * `B`'s k stride is 1 (transposed `B`, or a single column): a dot
///   product per element, accumulated in a register;
/// * otherwise `B`'s column stride is 1: an `ikj` axpy of a row of `B`
///   into a row of `C` per `(i, kk)` scalar of `A`, k-tiled by [`KC`] so
///   the active panel of `B` stays in L2.
///
/// Either way every element starts from `+0.0` and takes one
/// `f32::mul_add` per `k`, in increasing `k` order — the sequence the
/// packed path reproduces. Without FMA hardware (the un-featured
/// instantiation) `mul_add` is libm's `fmaf`: the same bits, slowly.
#[inline(always)]
fn reference_rows(g: &StridedGemm, first: usize, block: &mut [f32]) {
    let StridedGemm { a: ad, b: bd, m, n, k, a_batch, a_rs, a_ks, b_batch, b_ks, b_cs, .. } = *g;
    // Offsets of the `A` row and the `B` batch behind each output row of
    // the block, in order (rows run through the batches).
    let bases = || {
        let (mut bi, mut i) = (first / m, first % m);
        std::iter::from_fn(move || {
            let base = (bi * a_batch + i * a_rs, bi * b_batch);
            i += 1;
            if i == m {
                (bi, i) = (bi + 1, 0);
            }
            Some(base)
        })
    };
    if b_ks == 1 {
        // A transposed `A` row is gathered once so the dot loop below
        // stays contiguous in both operands.
        let mut gathered = Vec::new();
        for (out_row, (a0, b0)) in block.chunks_mut(n).zip(bases()) {
            let a_row = if a_ks == 1 {
                &ad[a0..a0 + k]
            } else {
                gathered.clear();
                gathered.extend((0..k).map(|kk| ad[a0 + kk * a_ks]));
                &gathered[..]
            };
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_col = &bd[b0 + j * b_cs..][..k];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_col) {
                    acc = x.mul_add(y, acc);
                }
                *o = acc;
            }
        }
    } else {
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            for (out_row, (a0, b0)) in block.chunks_mut(n).zip(bases()) {
                for kk in kb..kend {
                    let aik = ad[a0 + kk * a_ks];
                    let b_row = &bd[b0 + kk * b_ks..][..n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o = aik.mul_add(bv, *o);
                    }
                }
            }
        }
    }
    // The block's full-k accumulation is complete: apply the epilogue in
    // the same walk instead of a second pass over the output.
    g.ep.apply_rows(block, n);
}

/// `C = A·B` for `A:[m,k]`, `B:[k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(&GemmDesc::new(a, b))
}

/// `C = Aᵀ·B` for `A:[k,m]`, `B:[k,n]` without materialising `Aᵀ`.
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(&GemmDesc::new(a, b).transpose_a())
}

/// `C = A·Bᵀ` for `A:[m,k]`, `B:[n,k]` without materialising `Bᵀ`.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(&GemmDesc::new(a, b).transpose_b())
}

/// Batched `C[b] = A[b]·B[b]` for `A:[B,m,k]`, `B:[B,k,n]`.
pub fn bmm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(&GemmDesc::new(a, b))
}

/// Batched `C[b] = A[b]ᵀ·B[b]` for `A:[B,k,m]`, `B:[B,k,n]`.
pub fn bmm_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(&GemmDesc::new(a, b).transpose_a())
}

/// Batched `C[b] = A[b]·B[b]ᵀ` for `A:[B,m,k]`, `B:[B,n,k]`.
pub fn bmm_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(&GemmDesc::new(a, b).transpose_b())
}

/// The unfused epilogue: the separate full output passes a fused store
/// replaces — a broadcast bias add, then an activation map. The reference
/// fused [`gemm`] output is tested against, and the unfused column of the
/// K1 bench; each pass is tallied by the obs `output_passes` counter.
pub fn epilogue_pass(y: Tensor, bias: Option<&Tensor>, act: Option<Activation>) -> Result<Tensor> {
    let y = match bias {
        Some(b) => {
            metalora_obs::counters::record_output_pass();
            super::elementwise::add(&y, b)?
        }
        None => y,
    };
    Ok(match act {
        Some(a) => {
            metalora_obs::counters::record_output_pass();
            super::elementwise::map(&y, move |v| a.apply(v))
        }
        None => y,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::transpose2d;
    use crate::{approx_eq, init, par};

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
        a.dims() == b.dims() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn matmul_small_known() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::arange(1.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let b = Tensor::arange(1.0, 1.0, 12).reshape(&[3, 4]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 4]);
        // Row 0: [1,2,3]·cols of b.
        assert_eq!(c.get(&[0, 0]).unwrap(), 1.0 + 2.0 * 5.0 + 3.0 * 9.0);
    }

    #[test]
    fn matmul_identity() {
        let mut r = init::rng(1);
        let a = init::uniform(&[4, 4], -1.0, 1.0, &mut r);
        let i = Tensor::eye(4);
        assert!(approx_eq(&matmul(&a, &i).unwrap(), &a, 1e-6));
        assert!(approx_eq(&matmul(&i, &a).unwrap(), &a, 1e-6));
    }

    #[test]
    fn matmul_shape_errors() {
        assert!(matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2])).is_err());
        assert!(matmul(&Tensor::zeros(&[2]), &Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut r = init::rng(3);
        let a = init::uniform(&[5, 7], -1.0, 1.0, &mut r);
        let b = init::uniform(&[5, 4], -1.0, 1.0, &mut r);
        let expect = matmul(&transpose2d(&a).unwrap(), &b).unwrap();
        assert!(approx_eq(&matmul_transpose_a(&a, &b).unwrap(), &expect, 1e-5));

        let c = init::uniform(&[6, 7], -1.0, 1.0, &mut r);
        let expect = matmul(&a, &transpose2d(&c).unwrap()).unwrap();
        assert!(approx_eq(&matmul_transpose_b(&a, &c).unwrap(), &expect, 1e-5));
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut r = init::rng(5);
        let a = init::uniform(&[4, 6], -1.0, 1.0, &mut r);
        let x = init::uniform(&[6], -1.0, 1.0, &mut r);
        let y = gemm(&GemmDesc::new(&a, &x)).unwrap();
        let y2 = matmul(&a, &x.reshaped(&[6, 1]).unwrap()).unwrap();
        assert_eq!(y.dims(), &[4]);
        assert!(bits_eq(&y, &y2.reshape(&[4]).unwrap()));
        assert!(gemm(&GemmDesc::new(&a, &Tensor::zeros(&[5]))).is_err());
        // A vector has no transpose, and no batched form.
        assert!(gemm(&GemmDesc::new(&a, &x).transpose_b()).is_err());
        assert!(gemm(&GemmDesc::new(&Tensor::zeros(&[2, 4, 6]), &x)).is_err());
    }

    #[test]
    fn matmul_zero_dims() {
        // Degenerate but legal: inner dimension 0 produces all-zero output.
        let a = Tensor::zeros(&[2, 0]);
        let b = Tensor::zeros(&[0, 3]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert!(c.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn matmul_zero_width_output() {
        let a = Tensor::zeros(&[3, 2]);
        let b = Tensor::zeros(&[2, 0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[3, 0]);
    }

    #[test]
    fn matmul_tiling_exceeds_kc() {
        // k > KC exercises more than one k-tile; compare against a plain
        // untiled reference computed inline.
        let mut r = init::rng(11);
        let k = KC + 37;
        let a = init::uniform(&[3, k], -1.0, 1.0, &mut r);
        let b = init::uniform(&[k, 5], -1.0, 1.0, &mut r);
        let c = matmul(&a, &b).unwrap();
        for i in 0..3 {
            for j in 0..5 {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc = a.data()[i * k + kk].mul_add(b.data()[kk * 5 + j], acc);
                }
                assert_eq!(c.data()[i * 5 + j], acc, "tiled result must be bitwise ikj");
            }
        }
    }

    #[test]
    fn forced_parallel_is_bitwise_serial() {
        let mut r = init::rng(13);
        let a = init::uniform(&[65, 40], -1.0, 1.0, &mut r);
        let b = init::uniform(&[40, 33], -1.0, 1.0, &mut r);
        par::set_num_threads(1);
        let serial = matmul(&a, &b).unwrap();
        par::set_num_threads(4);
        par::set_par_threshold(0);
        let parallel = matmul(&a, &b).unwrap();
        par::set_num_threads(0);
        par::set_par_threshold(usize::MAX);
        assert_eq!(serial.data(), parallel.data());
    }

    #[test]
    fn bmm_matches_per_slice_matmul() {
        let mut r = init::rng(8);
        let a = init::uniform(&[3, 4, 5], -1.0, 1.0, &mut r);
        let b = init::uniform(&[3, 5, 6], -1.0, 1.0, &mut r);
        let c = bmm(&a, &b).unwrap();
        assert_eq!(c.dims(), &[3, 4, 6]);
        for bi in 0..3 {
            let ai = a.index_axis0(bi).unwrap();
            let bi_m = b.index_axis0(bi).unwrap();
            let expect = matmul(&ai, &bi_m).unwrap();
            assert!(approx_eq(&c.index_axis0(bi).unwrap(), &expect, 1e-5));
        }
    }

    #[test]
    fn bmm_transposed_variants() {
        let mut r = init::rng(9);
        let a = init::uniform(&[2, 5, 4], -1.0, 1.0, &mut r);
        let b = init::uniform(&[2, 5, 3], -1.0, 1.0, &mut r);
        let c = bmm_transpose_a(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 4, 3]);
        for bi in 0..2 {
            let expect = matmul_transpose_a(
                &a.index_axis0(bi).unwrap(),
                &b.index_axis0(bi).unwrap(),
            )
            .unwrap();
            assert!(approx_eq(&c.index_axis0(bi).unwrap(), &expect, 1e-5));
        }

        let a = init::uniform(&[2, 4, 5], -1.0, 1.0, &mut r);
        let b = init::uniform(&[2, 3, 5], -1.0, 1.0, &mut r);
        let c = bmm_transpose_b(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 4, 3]);
        for bi in 0..2 {
            let expect = matmul_transpose_b(
                &a.index_axis0(bi).unwrap(),
                &b.index_axis0(bi).unwrap(),
            )
            .unwrap();
            assert!(approx_eq(&c.index_axis0(bi).unwrap(), &expect, 1e-5));
        }
    }

    /// Shapes on either side of the pack gate.
    const BOTH_PATHS: [(usize, usize, usize); 2] = [(3, 5, 4), (40, 140, 50)];

    #[test]
    fn matmul_bias_act_matches_separate_passes_bitwise() {
        let mut r = init::rng(31);
        for (m, k, n) in BOTH_PATHS {
            let x = init::uniform(&[m, k], -1.0, 1.0, &mut r);
            let w = init::uniform(&[k, n], -1.0, 1.0, &mut r);
            let b = init::uniform(&[n], -1.0, 1.0, &mut r);
            let act = Some(Activation::Gelu);
            let fused = gemm(&GemmDesc::new(&x, &w).epilogue(Some(&b), act)).unwrap();
            let expect = epilogue_pass(matmul(&x, &w).unwrap(), Some(&b), act).unwrap();
            assert!(bits_eq(&fused, &expect));
        }
    }

    #[test]
    fn fused_entries_validate_bias_width() {
        let x = Tensor::zeros(&[2, 3]);
        let w = Tensor::zeros(&[3, 4]);
        let bad = Tensor::zeros(&[5]);
        assert!(gemm(&GemmDesc::new(&x, &w).epilogue(Some(&bad), None)).is_err());
    }

    #[test]
    fn bmm_validates() {
        assert!(bmm(&Tensor::zeros(&[2, 3, 4]), &Tensor::zeros(&[3, 4, 5])).is_err());
        assert!(bmm(&Tensor::zeros(&[2, 3, 4]), &Tensor::zeros(&[2, 5, 6])).is_err());
        assert!(bmm(&Tensor::zeros(&[3, 4]), &Tensor::zeros(&[2, 4, 5])).is_err());
    }
}
