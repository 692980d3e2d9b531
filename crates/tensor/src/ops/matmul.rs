//! Dense matrix multiplication: one entry point, [`gemm`].
//!
//! Every product in the stack — plain, transposed, batched, matrix–vector,
//! with or without a fused bias — is one
//! [`GemmDesc`]: layout, batching and bias are *data*, and
//! [`gemm`] is the only function that validates shapes; `run_gemm` behind
//! it runs the kernel and records the obs counters (for `gemm` and for a
//! convolution's product over its image). Two kernels sit underneath:
//!
//! * the **packed register-tiled microkernel**
//!   (`microkernel::gemm_packed`) — packs both operands and runs
//!   an `MR×NR` SIMD register tile under a tile-grid scheduler; it runs
//!   every product;
//! * the **strided reference kernel** below — scalar loops over the same
//!   strided description; the oracle the packed kernel is tested
//!   bitwise-equal against, run only where a test or the K1 sweep forces
//!   it ([`super::microkernel::with_kernel_path`]).
//!
//! Per-element accumulation starts from `+0.0` and takes one fused
//! multiply-add per `k`, in increasing `k` order, everywhere, so
//! reference, packed, parallel and every SIMD level's results are all
//! bitwise identical. One wrapper per layout survives —
//! `matmul{,_transpose_a,_transpose_b}`, rank 2 or rank 3 like the
//! descriptor.

use super::microkernel::{self, add_bias, use_packed, Lhs, StridedGemm, KC};
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
/// `B` independent slices, a rank-2 `a` against a rank-3 `b` multiplies
/// every slice of `b` by the same `a` (output `[B,m,n]`), and a rank-1
/// `b:[k]` against a rank-2 `a` is the matrix–vector product (output
/// `[m]`).
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
    /// Per-output-column bias, added inside the store of each element once
    /// its accumulation is complete.
    pub bias: Option<&'a Tensor>,
}

impl<'a> GemmDesc<'a> {
    /// `A·B`, both as stored, no bias.
    pub fn new(a: &'a Tensor, b: &'a Tensor) -> Self {
        GemmDesc {
            a,
            a_layout: Layout::N,
            b,
            b_layout: Layout::N,
            bias: None,
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

    /// Fuses `· + bias` into the store (`bias` has one entry per output
    /// column).
    pub fn epilogue(mut self, bias: Option<&'a Tensor>) -> Self {
        self.bias = bias;
        self
    }
}

/// `C = A·B (+ bias)` as described by `desc` — the only matmul body.
///
/// A fused bias is bitwise identical to the plain product followed by
/// [`epilogue_pass`]: per element the scalar sequence `acc + bias[j]`
/// after the complete `k` accumulation is the same, only its timing moves
/// (asserted by `tests/gemm_equiv.rs`). Activations are not fused: they
/// are maps over the finished product, as on the autograd tape.
pub fn gemm(desc: &GemmDesc) -> Result<Tensor> {
    let (ad, bd) = (desc.a.dims(), desc.b.dims());
    let mismatch = |op: &'static str| TensorError::ShapeMismatch {
        op,
        lhs: ad.to_vec(),
        rhs: bd.to_vec(),
    };
    let (a_bs, a_rows, a_cols) = match *ad {
        [r, c] => (None, r, c),
        [b, r, c] => (Some(b), r, c),
        _ => {
            return Err(TensorError::InvalidArgument(format!(
                "gemm lhs: expected rank-2 or rank-3 operand, got rank {}",
                ad.len()
            )))
        }
    };
    let (bs, b_rows, b_cols) = match (bd, a_bs) {
        (&[len], None) if desc.b_layout == Layout::N => (1, len, 1),
        (&[r, c], None) => (1, r, c),
        (&[b, r, c], Some(a_b)) if b == a_b => (b, r, c),
        // A rank-2 `a` against a rank-3 `b` is shared by every batch.
        (&[b, r, c], None) => (b, r, c),
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
    let bias = desc.bias.map(Tensor::data);
    if let Some(bias) = bias {
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
        a: Lhs::Strided {
            a: desc.a.data(),
            batch: if a_bs.is_some() { m * k } else { 0 },
            rs: a_rs,
            ks: a_ks,
        },
        b: desc.b.data(),
        b_batch: k * n,
        b_ks,
        b_cs,
        bs,
        m,
        n,
        k,
        bias,
    };
    let out = run_gemm(&g, desc.a.len() + desc.b.len());
    match (ad.len().max(bd.len()), bd.len()) {
        (3, _) => Tensor::from_vec(out, &[bs, m, n]),
        (_, 1) => Tensor::from_vec(out, &[m]),
        _ => Tensor::from_vec(out, &[m, n]),
    }
}

/// Runs `g` on the packed kernel — on the reference kernel where the
/// calling thread forces it — and records the obs counters;
/// `operand_floats` is what the two operands hold. The body of [`gemm`],
/// and of a convolution's product over its image
/// ([`microkernel::Patches`], which only the packed kernel reads — under a
/// forced reference kernel the convolution builds its patches instead).
pub(crate) fn run_gemm(g: &StridedGemm, operand_floats: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; g.bs * g.m * g.n];
    let packed = use_packed();
    if packed {
        microkernel::gemm_packed(g, &mut out);
    } else {
        gemm_reference(g, &mut out);
    }
    // Flops count multiply-adds as 2 ops each; bytes are every operand
    // plus the output, 4 per element.
    let bias_len = g.bias.map_or(0, <[f32]>::len);
    metalora_obs::counters::record_kernel(
        metalora_obs::counters::Kernel::Matmul,
        (2 * g.bs * g.m * g.k * g.n) as u64,
        (4 * (operand_floats + bias_len + out.len())) as u64,
    );
    metalora_obs::counters::record_matmul_path(packed);
    if g.bias.is_some() {
        metalora_obs::counters::record_fused_epilogue(out.len() as u64);
    }
    out
}

/// The reference path of [`gemm`]: scalar loops over the strided
/// description, row blocks handed to [`par_row_blocks`], each run by
/// [`reference_rows`].
fn gemm_reference(g: &StridedGemm, out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    par_row_blocks(out, g.n, 2 * g.k * g.n, |first, block| reference_rows(g, first, block));
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
/// packed path reproduces. Unless the build targets FMA hardware,
/// `mul_add` is libm's `fmaf`: the same bits as one `vfmadd`, slowly.
fn reference_rows(g: &StridedGemm, first: usize, block: &mut [f32]) {
    let StridedGemm { a, b: bd, m, n, k, b_batch, b_ks, b_cs, .. } = *g;
    let Lhs::Strided { a: ad, batch: a_batch, rs: a_rs, ks: a_ks } = a else {
        unreachable!("a convolution reads its image on the packed kernel only")
    };
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
    // The block's full-k accumulation is complete: add the bias in the
    // same walk instead of a second pass over the output.
    if let Some(bias) = g.bias {
        for row in block.chunks_mut(n) {
            add_bias(row, bias);
        }
    }
}

/// `C = A·B` for `A:[m,k]`, `B:[k,n]` — or per batch slice for rank-3
/// operands, as [`GemmDesc`] describes.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(&GemmDesc::new(a, b))
}

/// `C = Aᵀ·B` for `A:[k,m]`, `B:[k,n]` (or per batch slice) without
/// materialising `Aᵀ`.
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(&GemmDesc::new(a, b).transpose_a())
}

/// `C = A·Bᵀ` for `A:[m,k]`, `B:[n,k]` (or per batch slice) without
/// materialising `Bᵀ`.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(&GemmDesc::new(a, b).transpose_b())
}

/// The unfused bias: the separate full output pass a fused store
/// replaces, a broadcast add. The reference fused [`gemm`] output is
/// tested against; the pass is tallied by the obs `output_passes` counter.
pub fn epilogue_pass(y: Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    match bias {
        Some(b) => {
            metalora_obs::counters::record_output_pass();
            super::elementwise::add(&y, b)
        }
        None => Ok(y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{transpose2d, with_kernel_path, KernelPath};
    use crate::{approx_eq, init, par};

    /// The production kernel and the oracle.
    const BOTH_PATHS: [KernelPath; 2] = [KernelPath::Reference, KernelPath::Packed];

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
        for path in BOTH_PATHS {
            let run = || with_kernel_path(path, || matmul(&a, &b).unwrap());
            let serial = par::with_num_threads(1, run);
            let parallel = par::with_par_threshold(0, || par::with_num_threads(4, run));
            assert_eq!(serial.data(), parallel.data());
        }
    }

    #[test]
    fn bmm_matches_per_slice_matmul() {
        let mut r = init::rng(8);
        let a = init::uniform(&[3, 4, 5], -1.0, 1.0, &mut r);
        let b = init::uniform(&[3, 5, 6], -1.0, 1.0, &mut r);
        let c = matmul(&a, &b).unwrap();
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
        let c = matmul_transpose_a(&a, &b).unwrap();
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
        let c = matmul_transpose_b(&a, &b).unwrap();
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

    #[test]
    fn matmul_bias_act_matches_separate_passes_bitwise() {
        let mut r = init::rng(31);
        for (m, k, n) in [(3, 5, 4), (40, 140, 50)] {
            let x = init::uniform(&[m, k], -1.0, 1.0, &mut r);
            let w = init::uniform(&[k, n], -1.0, 1.0, &mut r);
            let b = init::uniform(&[n], -1.0, 1.0, &mut r);
            for path in BOTH_PATHS {
                let fused = with_kernel_path(path, || {
                    gemm(&GemmDesc::new(&x, &w).epilogue(Some(&b))).unwrap()
                });
                let plain = with_kernel_path(path, || matmul(&x, &w).unwrap());
                let expect = epilogue_pass(plain, Some(&b)).unwrap();
                assert!(bits_eq(&fused, &expect), "{path:?}");
            }
        }
    }

    #[test]
    fn fused_entries_validate_bias_width() {
        let x = Tensor::zeros(&[2, 3]);
        let w = Tensor::zeros(&[3, 4]);
        let bad = Tensor::zeros(&[5]);
        assert!(gemm(&GemmDesc::new(&x, &w).epilogue(Some(&bad))).is_err());
    }

    #[test]
    fn bmm_validates() {
        assert!(matmul(&Tensor::zeros(&[2, 3, 4]), &Tensor::zeros(&[3, 4, 5])).is_err());
        assert!(matmul(&Tensor::zeros(&[2, 3, 4]), &Tensor::zeros(&[2, 5, 6])).is_err());
        assert!(matmul(&Tensor::zeros(&[2, 3, 4]), &Tensor::zeros(&[4, 5])).is_err());
        assert!(matmul(&Tensor::zeros(&[3, 4]), &Tensor::zeros(&[2, 5, 6])).is_err());
    }

    #[test]
    fn a_shared_lhs_multiplies_every_slice() {
        let mut r = init::rng(10);
        let a = init::uniform(&[3, 4], -1.0, 1.0, &mut r);
        let b = init::uniform(&[2, 4, 5], -1.0, 1.0, &mut r);
        let c = gemm(&GemmDesc::new(&a, &b)).unwrap();
        assert_eq!(c.dims(), &[2, 3, 5]);
        for bi in 0..2 {
            let expect = matmul(&a, &b.index_axis0(bi).unwrap()).unwrap();
            assert!(bits_eq(&c.index_axis0(bi).unwrap(), &expect));
        }
    }
}
