//! Property test asserting conv2d's fused bias (added at the C store of
//! its GEMM) is **bitwise identical** to the separate [`epilogue_pass`] it
//! replaces, with and without a bias, on the packed and the reference
//! kernel. (The dense GEMM's fused bias is swept by `gemm_equiv.rs`.)
//!
//! The arena gets its own check: a buffer *held across* a kernel call
//! must never alias the kernel's own scratch (the kernel's checkouts land
//! in different buffers because the held ones are still out).
//!
//! The kernel is forced through the scoped thread-local seam, so the
//! suite needs no lock.

use metalora_tensor::conv::{conv2d, conv2d_bias, ConvSpec};
use metalora_tensor::ops::microkernel::MR;
use metalora_tensor::ops::{epilogue_pass, gemm, with_kernel_path, GemmDesc, KernelPath};
use metalora_tensor::{init, workspace, Tensor};
use proptest::prelude::*;

fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn rand_t(dims: &[usize], seed: u64) -> Tensor {
    let mut r = init::rng(seed);
    init::uniform(dims, -1.0, 1.0, &mut r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv2d_bias_fused_bitwise(
        n in 1usize..3,
        c in 1usize..4,
        hw in 3usize..8,
        o in 1usize..5,
        kk in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        // Conv fuses the column bias into the pre-permute GEMM; the
        // [O,1,1]-broadcast bias of the separate pass must come out
        // identical through the pure-copy permute.
        let spec = ConvSpec::new(kk, 1, pad).unwrap();
        let x = rand_t(&[n, c, hw, hw], seed);
        let w = rand_t(&[kk, kk, c, o], seed + 1);
        let bias = rand_t(&[o], seed + 2);
        let bias3 = bias.reshaped(&[o, 1, 1]).unwrap();
        for path in [KernelPath::Packed, KernelPath::Reference] {
            for (b, b3) in [(Some(&bias), Some(&bias3)), (None, None)] {
                let fused = with_kernel_path(path, || conv2d_bias(&x, &w, b, spec, spec).unwrap());
                let plain = with_kernel_path(path, || conv2d(&x, &w, spec, spec).unwrap());
                let separate = epilogue_pass(plain, b3).unwrap();
                prop_assert!(
                    bits_eq(&fused, &separate),
                    "conv bias={} diverged on {path:?}",
                    b.is_some()
                );
            }
        }
    }
}

/// `x·w + bias` on the packed kernel.
fn packed_bias(x: &Tensor, w: &Tensor, bias: &Tensor) -> Tensor {
    gemm(&GemmDesc::new(x, w).epilogue(Some(bias))).unwrap()
}

/// A buffer held *across* a kernel call never aliases the kernel's own
/// scratch: the held buffers are checked out, so the kernel takes
/// different ones — and the output stays bitwise identical whether the
/// buffers are held or released.
#[test]
fn held_lease_never_aliases_kernel_scratch() {
    let (m, k, n) = (21usize, 35usize, 18usize);
    let x = rand_t(&[m, k], 4);
    let w = rand_t(&[k, n], 5);
    let bias = rand_t(&[n], 6);
    let reference = packed_bias(&x, &w, &bias);
    // The reference run parked its B panel (k·n) and its A panel (MR·k)
    // in the pool; taking the same sizes checks those very buffers out,
    // so the next call must find or allocate others.
    let mut held: Vec<_> = [k * n, MR * k].into_iter().map(workspace::take).collect();
    for (i, g) in held.iter_mut().enumerate() {
        g.fill(-(i as f32) - 1.0);
    }
    let while_held = packed_bias(&x, &w, &bias);
    for (i, g) in held.iter().enumerate() {
        assert!(
            g.iter().all(|&v| v == -(i as f32) - 1.0),
            "kernel scratch aliased held buffer {i}"
        );
    }
    drop(held);
    let released = packed_bias(&x, &w, &bias);
    for (label, out) in [("held", &while_held), ("released", &released)] {
        let same = reference
            .data()
            .iter()
            .zip(out.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "GEMM with buffers {label} diverged from the plain run");
    }
}
