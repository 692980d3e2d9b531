//! Property tests asserting the parallel kernels are **bitwise identical**
//! to serial execution for every thread count, including more threads than
//! rows, and for degenerate shapes (1×N, N×1, empty dimensions). Products
//! run on both GEMM kernels: the packed one every call takes, and the
//! reference oracle with its own row-block split.
//!
//! The threshold is forced to 0 so even tiny random shapes take the
//! parallel path; it, the worker count and the kernel go through the
//! scoped thread-local seams ([`par::with_par_threshold`],
//! [`par::with_num_threads`], [`with_kernel_path`]), so the tests need no
//! lock.

use metalora_tensor::ops::{
    add_scaled, gemm, map, matmul, matmul_transpose_a, matmul_transpose_b, max_axis, sum_axis,
    with_kernel_path, zip_with, GemmDesc, KernelPath,
};
use metalora_tensor::conv::{col2im, conv2d, im2col, ConvSpec};
use metalora_tensor::{init, par, Tensor};
use proptest::prelude::*;

/// Thread counts exercised per case: serial, even split, odd split, and
/// far more workers than most generated shapes have rows.
const THREADS: [usize; 4] = [1, 2, 7, 64];

/// Runs `f` serially and under each thread count with the parallel path
/// forced, asserting bitwise-equal tensor data every time.
fn assert_bitwise_invariant(f: impl Fn() -> Tensor) {
    let serial = par::with_num_threads(1, &f);
    for &t in &THREADS[1..] {
        let parallel = par::with_par_threshold(0, || par::with_num_threads(t, &f));
        assert_eq!(
            serial.dims(),
            parallel.dims(),
            "shape changed at {t} threads"
        );
        let same = serial
            .data()
            .iter()
            .zip(parallel.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "bitwise mismatch at {t} threads");
    }
}

/// [`assert_bitwise_invariant`] on each GEMM kernel.
fn assert_invariant_on_both_kernels(f: impl Fn() -> Tensor) {
    for path in [KernelPath::Reference, KernelPath::Packed] {
        assert_bitwise_invariant(|| with_kernel_path(path, &f));
    }
}

fn rand_t(dims: &[usize], seed: u64) -> Tensor {
    let mut r = init::rng(seed);
    init::uniform(dims, -1.0, 1.0, &mut r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_family_bitwise(
        m in 1usize..40,
        k in 0usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = rand_t(&[m, k], seed);
        let b = rand_t(&[k, n], seed + 1);
        assert_invariant_on_both_kernels(|| matmul(&a, &b).unwrap());

        let at = rand_t(&[k, m], seed + 2);
        assert_invariant_on_both_kernels(|| matmul_transpose_a(&at, &b).unwrap());

        let bt = rand_t(&[n, k], seed + 3);
        assert_invariant_on_both_kernels(|| matmul_transpose_b(&a, &bt).unwrap());

        let x = rand_t(&[k], seed + 4);
        assert_invariant_on_both_kernels(|| gemm(&GemmDesc::new(&a, &x)).unwrap());
    }

    #[test]
    fn matmul_degenerate_rows_bitwise(n in 1usize..60, seed in 0u64..1000) {
        // 1×N (single output row — fewer rows than every worker count).
        let a = rand_t(&[1, n], seed);
        let b = rand_t(&[n, n], seed + 1);
        assert_invariant_on_both_kernels(|| matmul(&a, &b).unwrap());
        // N×1 output column.
        let c = rand_t(&[n, n], seed + 2);
        let d = rand_t(&[n, 1], seed + 3);
        assert_invariant_on_both_kernels(|| matmul(&c, &d).unwrap());
        // Empty inner dimension: all-zero output, still must agree.
        let e = Tensor::zeros(&[n, 0]);
        let f = Tensor::zeros(&[0, n]);
        assert_invariant_on_both_kernels(|| matmul(&e, &f).unwrap());
    }

    #[test]
    fn bmm_family_bitwise(
        bs in 1usize..5,
        m in 1usize..12,
        k in 0usize..12,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        // Each layout at rank 3: one product per batch slice.
        let a = rand_t(&[bs, m, k], seed);
        let b = rand_t(&[bs, k, n], seed + 1);
        assert_invariant_on_both_kernels(|| matmul(&a, &b).unwrap());

        let at = rand_t(&[bs, k, m], seed + 2);
        assert_invariant_on_both_kernels(|| matmul_transpose_a(&at, &b).unwrap());

        let bt = rand_t(&[bs, n, k], seed + 3);
        assert_invariant_on_both_kernels(|| matmul_transpose_b(&a, &bt).unwrap());
    }

    #[test]
    fn conv_and_im2col_bitwise(
        n in 1usize..3,
        c in 1usize..4,
        hw in 3usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let spec = ConvSpec::new(k, stride, pad).unwrap();
        let x = rand_t(&[n, c, hw, hw], seed);
        assert_bitwise_invariant(|| im2col(&x, spec, spec).unwrap());

        let w = rand_t(&[k, k, c, 3], seed + 1);
        assert_invariant_on_both_kernels(|| conv2d(&x, &w, spec, spec).unwrap());

        let pix = spec.out_size(hw).unwrap().pow(2);
        let g = rand_t(&[n, c * k * k, pix], seed + 2);
        assert_bitwise_invariant(|| col2im(&g, n, c, hw, hw, spec, spec).unwrap());
    }

    #[test]
    fn elementwise_and_reduce_bitwise(
        rows in 1usize..30,
        cols in 1usize..30,
        seed in 0u64..1000,
    ) {
        let a = rand_t(&[rows, cols], seed);
        let b = rand_t(&[rows, cols], seed + 1);
        assert_bitwise_invariant(|| map(&a, |x| x.tanh()));
        assert_bitwise_invariant(|| zip_with(&a, &b, |x, y| x * y + 0.5).unwrap());
        assert_bitwise_invariant(|| add_scaled(&a, &b, 0.37).unwrap());
        assert_bitwise_invariant(|| sum_axis(&a, 0).unwrap());
        assert_bitwise_invariant(|| sum_axis(&a, 1).unwrap());
        assert_bitwise_invariant(|| max_axis(&a, 0).unwrap());
    }
}

/// `METALORA_THREADS=1`-style serial runs must reproduce default-config
/// outputs exactly — the acceptance criterion of the threading layer.
#[test]
fn default_threshold_matches_forced_serial_large() {
    let a = rand_t(&[300, 300], 42);
    let b = rand_t(&[300, 300], 43);
    let serial = par::with_num_threads(1, || matmul(&a, &b).unwrap());
    // Default threshold, default worker detection: large enough to go
    // parallel on multi-core hosts.
    let auto = matmul(&a, &b).unwrap();
    assert!(serial
        .data()
        .iter()
        .zip(auto.data())
        .all(|(x, y)| x.to_bits() == y.to_bits()));
}
