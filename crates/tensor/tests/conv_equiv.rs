//! Convolution's one lowering against the lowering it replaced, bit for
//! bit.
//!
//! * **Forward.** [`conv2d_bias`] on the packed kernel reads its patch
//!   rows straight from the image; the oracle builds them with [`im2col`]
//!   and multiplies on the reference kernel, as `conv2d_bias` itself does
//!   under a forced reference kernel.
//! * **`dX`.** The tape computes `dcolsᵀ_n = Wm · G_n` as one GEMM with
//!   `Wm` shared by the batch and `G` read as stored, then [`col2im`]
//!   walks destination rows. The oracle is the scatter it replaced — `G`
//!   permuted to `[N·OH·OW, O]`, times `Wmᵀ`, each patch row added onto a
//!   padded image in turn, the padding cropped — kept here and nowhere
//!   else.
//!
//! Shapes: stride {1, 2, 3} × pad {0, 1, 2} × kernel {1, 3, 5}, on images
//! whose output rows are shorter than a strip, ragged against it, and
//! exactly the padded input (a single output pixel), with `C = 1` and
//! `N ∈ {0, 1, 3}`. Each case runs on both GEMM kernels at every SIMD
//! level the host has — forced through the scoped thread-local seam, so
//! the suite needs no lock.

use metalora_tensor::conv::{col2im, conv2d_bias, im2col, weight_to_matrix, ConvSpec};
use metalora_tensor::ops::{
    gemm, matmul_transpose_b, permute, simd_level, with_kernel_path, GemmDesc, KernelPath,
    SimdLevel,
};
use metalora_tensor::{init, Tensor};

const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];
const O: usize = 5;

fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn rand_t(dims: &[usize], seed: u64) -> Tensor {
    init::uniform(dims, -1.0, 1.0, &mut init::rng(seed))
}

/// One case of the sweep: `x:[n, c, h, w]` under a square `k`/`s`/`p`.
#[derive(Debug, Clone, Copy)]
struct Case {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    p: usize,
}

impl Case {
    fn spec(&self) -> ConvSpec {
        ConvSpec::new(self.k, self.s, self.p).unwrap()
    }

    fn out(&self) -> (usize, usize) {
        (self.spec().out_size(self.h).unwrap(), self.spec().out_size(self.w).unwrap())
    }
}

/// Every case of the sweep. Per `(k, s, p)`: the image that is exactly the
/// padded kernel (one output pixel), a short ragged one (`OW < 8` at every
/// stride) and a wider one (`OW` past one strip, not a multiple of 8 at
/// stride 1), each at `C ∈ {1, 3}` and `N ∈ {0, 1, 3}`.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for k in [1, 3, 5] {
        for s in [1, 2, 3] {
            for p in [0, 1, 2] {
                let mut images = vec![(6, 7), (9, 19)];
                if k > 2 * p {
                    images.push((k - 2 * p, k - 2 * p));
                }
                for (h, w) in images {
                    for c in [1, 3] {
                        for n in [0, 1, 3] {
                            out.push(Case { n, c, h, w, k, s, p });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Runs `f` on both kernels at every SIMD level the host has, and
/// asserts each result is `want` to the bit.
fn assert_everywhere(want: &Tensor, what: &str, f: impl Fn() -> Tensor) {
    for path in [KernelPath::Reference, KernelPath::Packed] {
        for level in LEVELS.into_iter().filter(|&l| l <= simd_level()) {
            let got = with_kernel_path(level, || with_kernel_path(path, &f));
            assert!(bits_eq(&got, want), "{path:?}@{level:?}: {what}");
        }
    }
}

#[test]
fn the_forward_reads_the_image_bitwise_as_im2col_and_the_reference_gemm() {
    for (i, case) in cases().into_iter().enumerate() {
        let Case { n, c, h, w, k, .. } = case;
        let (spec, (oh, ow)) = (case.spec(), case.out());
        let seed = 3 * i as u64;
        let x = rand_t(&[n, c, h, w], seed);
        let wt = rand_t(&[k, k, c, O], seed + 1);
        let bias = rand_t(&[O], seed + 2);
        for bias in [None, Some(&bias)] {
            let want = with_kernel_path(KernelPath::Reference, || {
                let cols = im2col(&x, spec, spec).unwrap();
                let wm = weight_to_matrix(&wt).unwrap();
                let y = gemm(&GemmDesc::new(&cols, &wm).epilogue(bias)).unwrap();
                permute(&y.reshape(&[n, oh, ow, O]).unwrap(), &[0, 3, 1, 2]).unwrap()
            });
            let what = format!("{case:?} bias={}", bias.is_some());
            assert_everywhere(&want, &what, || conv2d_bias(&x, &wt, bias, spec, spec).unwrap());
        }
    }
}

/// The `dX` this suite replaces: `dcols = G·Wᵀ` over `G` permuted to
/// `[N·OH·OW, O]`, then each patch row, in order, added onto a zero padded
/// image, and the padding cropped off.
fn scatter_dx(g: &Tensor, wt: &Tensor, case: Case) -> Tensor {
    let Case { n, c, h, w, k, s, p } = case;
    let (oh, ow) = case.out();
    let gm = permute(g, &[0, 2, 3, 1]).unwrap().reshape(&[n * oh * ow, O]).unwrap();
    let dcols = matmul_transpose_b(&gm, &weight_to_matrix(wt).unwrap()).unwrap();
    let (hp, wp, ckk) = (h + 2 * p, w + 2 * p, c * k * k);
    let mut padded = vec![0.0f32; n * c * hp * wp];
    for ni in 0..n {
        for ohi in 0..oh {
            for owi in 0..ow {
                let row = &dcols.data()[((ni * oh + ohi) * ow + owi) * ckk..][..ckk];
                for ci in 0..c {
                    for khi in 0..k {
                        for kwi in 0..k {
                            let d = ((ni * c + ci) * hp + ohi * s + khi) * wp + owi * s + kwi;
                            padded[d] += row[(ci * k + khi) * k + kwi];
                        }
                    }
                }
            }
        }
    }
    let mut out = Vec::with_capacity(n * c * h * w);
    for plane in padded.chunks(hp * wp) {
        for hi in 0..h {
            out.extend_from_slice(&plane[(hi + p) * wp + p..][..w]);
        }
    }
    Tensor::from_vec(out, &[n, c, h, w]).unwrap()
}

/// The tape's `dX`: one GEMM with `Wm` shared by the batch over `G` as
/// stored, then the destination-order `col2im`.
fn tape_dx(g: &Tensor, wt: &Tensor, case: Case) -> Tensor {
    let Case { n, c, h, w, .. } = case;
    let (oh, ow) = case.out();
    let wm = weight_to_matrix(wt).unwrap();
    let gn = g.reshaped(&[n, O, oh * ow]).unwrap();
    let dcols_t = gemm(&GemmDesc::new(&wm, &gn)).unwrap();
    col2im(&dcols_t, n, c, h, w, case.spec(), case.spec()).unwrap()
}

#[test]
fn dx_from_the_transposed_patch_gradient_is_bitwise_the_scatter() {
    for (i, case) in cases().into_iter().enumerate() {
        let Case { n, c, k, .. } = case;
        let (oh, ow) = case.out();
        let seed = 1000 + 2 * i as u64;
        let g = rand_t(&[n, O, oh, ow], seed);
        let wt = rand_t(&[k, k, c, O], seed + 1);
        let want = with_kernel_path(KernelPath::Reference, || scatter_dx(&g, &wt, case));
        assert_everywhere(&want, &format!("{case:?}"), || tape_dx(&g, &wt, case));
    }
}

#[test]
fn an_empty_batch_is_ok() {
    let case = Case { n: 0, c: 2, h: 5, w: 5, k: 3, s: 1, p: 1 };
    let spec = case.spec();
    for path in [KernelPath::Reference, KernelPath::Packed] {
        let y = with_kernel_path(path, || {
            conv2d_bias(&Tensor::zeros(&[0, 2, 5, 5]), &Tensor::zeros(&[3, 3, 2, O]), None, spec, spec)
        })
        .unwrap();
        assert_eq!(y.dims(), &[0, O, 5, 5]);
        let dx = with_kernel_path(path, || {
            tape_dx(&Tensor::zeros(&[0, O, 5, 5]), &Tensor::zeros(&[3, 3, 2, O]), case)
        });
        assert_eq!(dx.dims(), &[0, 2, 5, 5]);
    }
}
