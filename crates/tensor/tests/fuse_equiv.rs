//! Property tests asserting the fused GEMM epilogue (bias add +
//! activation applied at the C store) is **bitwise identical** to the
//! separate-pass sequence (`matmul → add → map`, [`epilogue_pass`]) it
//! replaces — across ragged and degenerate shapes (including k = 0),
//! every activation, the packed and the reference kernel, conv2d, and
//! worker counts {1, 2, 4, 7}.
//!
//! The arena gets its own check: a buffer *held across* a kernel call
//! must never alias the kernel's own scratch (the kernel's checkouts land
//! in different buffers because the held ones are still out).
//!
//! The kernel is forced through the scoped thread-local seam; the suite
//! lock remains for the process-wide worker count and obs counters.

use metalora_tensor::conv::{conv2d, conv2d_bias_act, ConvSpec};
use metalora_tensor::ops::microkernel::MR;
use metalora_tensor::ops::{epilogue_pass, gemm, with_kernel_path, Activation, GemmDesc, KernelPath};
use metalora_tensor::{init, par, workspace, Tensor};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

struct ThreadsGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

/// Locks the suite; the guard restores the worker count on drop.
fn lock_globals() -> ThreadsGuard {
    ThreadsGuard(LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        par::set_num_threads(0);
        par::set_par_threshold(usize::MAX);
    }
}

fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn rand_t(dims: &[usize], seed: u64) -> Tensor {
    let mut r = init::rng(seed);
    init::uniform(dims, -1.0, 1.0, &mut r)
}

const ACTS: [Option<Activation>; 4] = [
    None,
    Some(Activation::Relu),
    Some(Activation::Gelu),
    Some(Activation::Tanh),
];

/// `act(x·w + bias)` fused into the store vs the plain product followed
/// by the separate passes — on both kernels, with and without bias, for
/// every activation.
fn assert_fuse_equiv(x: &Tensor, w: &Tensor, bias: &Tensor) {
    for path in [KernelPath::Packed, KernelPath::Reference] {
        for act in ACTS {
            for b in [Some(bias), None] {
                let fused =
                    with_kernel_path(path, || gemm(&GemmDesc::new(x, w).epilogue(b, act)).unwrap());
                let plain = with_kernel_path(path, || gemm(&GemmDesc::new(x, w)).unwrap());
                let separate = epilogue_pass(plain, b, act).unwrap();
                assert!(bits_eq(&fused, &separate), "fused {act:?} diverged on {path:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_bias_act_fused_bitwise(
        m in 1usize..40,
        k in 0usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        // Ragged shapes (1×n, m×1, k = 0): the packed store-time epilogue
        // and the reference per-row one must each reproduce the separate
        // passes exactly.
        let _g = lock_globals();
        let w = rand_t(&[k, n], seed + 1);
        assert_fuse_equiv(&rand_t(&[m, k], seed), &w, &rand_t(&[n], seed + 2));
    }

    #[test]
    fn conv2d_bias_act_fused_bitwise(
        n in 1usize..3,
        c in 1usize..4,
        hw in 3usize..8,
        o in 1usize..5,
        kk in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        // Conv fuses the column epilogue into the pre-permute GEMM; the
        // [O,1,1]-broadcast bias of the separate passes must come out
        // identical through the pure-copy permute.
        let _g = lock_globals();
        let spec = ConvSpec::new(kk, 1, pad).unwrap();
        let x = rand_t(&[n, c, hw, hw], seed);
        let w = rand_t(&[kk, kk, c, o], seed + 1);
        let bias = rand_t(&[o], seed + 2);
        let bias3 = bias.reshaped(&[o, 1, 1]).unwrap();
        for path in [KernelPath::Packed, KernelPath::Reference] {
            for act in ACTS {
                for (b, b3) in [(Some(&bias), Some(&bias3)), (None, None)] {
                    let fused = with_kernel_path(path, || {
                        conv2d_bias_act(&x, &w, b, act, spec, spec).unwrap()
                    });
                    let plain = with_kernel_path(path, || conv2d(&x, &w, spec, spec).unwrap());
                    let separate = epilogue_pass(plain, b3, act).unwrap();
                    prop_assert!(bits_eq(&fused, &separate), "conv {act:?} diverged on {path:?}");
                }
            }
        }
    }

    #[test]
    fn fused_thread_sweep_is_bitwise(
        m in 1usize..40,
        k in 1usize..80,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        // Thread splits cut through MR row tiles and tile-grid cells; the
        // store-time epilogue is per-element, so no worker count may move
        // a bit vs the single-thread separate-pass run.
        let _g = lock_globals();
        let x = rand_t(&[m, k], seed);
        let w = rand_t(&[k, n], seed + 1);
        let bias = rand_t(&[n], seed + 2);
        let act = Some(Activation::Gelu);
        par::set_num_threads(1);
        let plain = with_kernel_path(KernelPath::Reference, || gemm(&GemmDesc::new(&x, &w)).unwrap());
        let reference = epilogue_pass(plain, Some(&bias), act).unwrap();
        par::set_par_threshold(0);
        for threads in [1usize, 2, 4, 7] {
            par::set_num_threads(threads);
            let out = with_kernel_path(KernelPath::Packed, || {
                gemm(&GemmDesc::new(&x, &w).epilogue(Some(&bias), act)).unwrap()
            });
            prop_assert!(bits_eq(&reference, &out), "fused epilogue at {threads} workers diverged");
        }
    }
}

/// `act(x·w + bias)` on the packed kernel, whatever the flop count.
fn packed_bias_act(x: &Tensor, w: &Tensor, bias: &Tensor, act: Activation) -> Tensor {
    with_kernel_path(KernelPath::Packed, || {
        gemm(&GemmDesc::new(x, w).epilogue(Some(bias), Some(act))).unwrap()
    })
}

/// A buffer held *across* a kernel call never aliases the kernel's own
/// scratch: the held buffers are checked out, so the kernel takes
/// different ones — and the output stays bitwise identical whether the
/// buffers are held or released.
#[test]
fn held_lease_never_aliases_kernel_scratch() {
    let _g = lock_globals();
    par::set_par_threshold(0);
    par::set_num_threads(2);
    let (m, k, n) = (21usize, 35usize, 18usize);
    let x = rand_t(&[m, k], 4);
    let w = rand_t(&[k, n], 5);
    let bias = rand_t(&[n], 6);
    let reference = packed_bias_act(&x, &w, &bias, Activation::Relu);
    // The reference run parked its B panel (k·n) and two A panels (MR·k)
    // in the pool; taking the same sizes checks those very buffers out,
    // so the next call must find or allocate others.
    let mut held: Vec<_> = [k * n, MR * k, MR * k].into_iter().map(workspace::take).collect();
    for (i, g) in held.iter_mut().enumerate() {
        g.fill(-(i as f32) - 1.0);
    }
    let while_held = packed_bias_act(&x, &w, &bias, Activation::Relu);
    for (i, g) in held.iter().enumerate() {
        assert!(
            g.iter().all(|&v| v == -(i as f32) - 1.0),
            "kernel scratch aliased held buffer {i}"
        );
    }
    drop(held);
    let released = packed_bias_act(&x, &w, &bias, Activation::Relu);
    for (label, out) in [("held", &while_held), ("released", &released)] {
        let same = reference
            .data()
            .iter()
            .zip(out.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "GEMM with buffers {label} diverged from the plain run");
    }
}
