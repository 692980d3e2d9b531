//! Property tests asserting the parallel kernels are **bitwise identical**
//! to serial execution for every thread count, including more threads than
//! rows, and for degenerate shapes (1×N, N×1, empty dimensions).
//!
//! The threshold is forced to 0 so even tiny random shapes take the
//! parallel path, and a process-wide lock serialises the tests because the
//! thread settings are global.

use metalora_tensor::ops::{
    add_scaled, bmm, bmm_transpose_a, bmm_transpose_b, gemm, map, matmul, matmul_transpose_a,
    matmul_transpose_b, max_axis, sum_axis, zip_with, GemmDesc,
};
use metalora_tensor::conv::{col2im, conv2d, im2col, ConvSpec};
use metalora_tensor::{init, par, Tensor};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Thread counts exercised per case: serial, even split, odd split, and
/// far more workers than most generated shapes have rows.
const THREADS: [usize; 4] = [1, 2, 7, 64];

static LOCK: Mutex<()> = Mutex::new(());

struct ParGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn force_parallel() -> ParGuard {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_par_threshold(0);
    ParGuard(g)
}

impl Drop for ParGuard {
    fn drop(&mut self) {
        par::set_num_threads(0);
        par::set_par_threshold(usize::MAX);
    }
}

/// Runs `f` serially and under each thread count, asserting bitwise-equal
/// tensor data every time.
fn assert_bitwise_invariant(f: impl Fn() -> Tensor) {
    par::set_num_threads(1);
    let serial = f();
    for &t in &THREADS[1..] {
        par::set_num_threads(t);
        let parallel = f();
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
        let _g = force_parallel();
        let a = rand_t(&[m, k], seed);
        let b = rand_t(&[k, n], seed + 1);
        assert_bitwise_invariant(|| matmul(&a, &b).unwrap());

        let at = rand_t(&[k, m], seed + 2);
        assert_bitwise_invariant(|| matmul_transpose_a(&at, &b).unwrap());

        let bt = rand_t(&[n, k], seed + 3);
        assert_bitwise_invariant(|| matmul_transpose_b(&a, &bt).unwrap());

        let x = rand_t(&[k], seed + 4);
        assert_bitwise_invariant(|| gemm(&GemmDesc::new(&a, &x)).unwrap());
    }

    #[test]
    fn matmul_degenerate_rows_bitwise(n in 1usize..60, seed in 0u64..1000) {
        let _g = force_parallel();
        // 1×N (single output row — fewer rows than every worker count).
        let a = rand_t(&[1, n], seed);
        let b = rand_t(&[n, n], seed + 1);
        assert_bitwise_invariant(|| matmul(&a, &b).unwrap());
        // N×1 output column.
        let c = rand_t(&[n, n], seed + 2);
        let d = rand_t(&[n, 1], seed + 3);
        assert_bitwise_invariant(|| matmul(&c, &d).unwrap());
        // Empty inner dimension: all-zero output, still must agree.
        let e = Tensor::zeros(&[n, 0]);
        let f = Tensor::zeros(&[0, n]);
        assert_bitwise_invariant(|| matmul(&e, &f).unwrap());
    }

    #[test]
    fn bmm_family_bitwise(
        bs in 1usize..5,
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let _g = force_parallel();
        let a = rand_t(&[bs, m, k], seed);
        let b = rand_t(&[bs, k, n], seed + 1);
        assert_bitwise_invariant(|| bmm(&a, &b).unwrap());

        let at = rand_t(&[bs, k, m], seed + 2);
        assert_bitwise_invariant(|| bmm_transpose_a(&at, &b).unwrap());

        let bt = rand_t(&[bs, n, k], seed + 3);
        assert_bitwise_invariant(|| bmm_transpose_b(&a, &bt).unwrap());
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
        let _g = force_parallel();
        let spec = ConvSpec::new(k, stride, pad).unwrap();
        let x = rand_t(&[n, c, hw, hw], seed);
        assert_bitwise_invariant(|| im2col(&x, spec, spec).unwrap());

        let w = rand_t(&[k, k, c, 3], seed + 1);
        assert_bitwise_invariant(|| conv2d(&x, &w, spec, spec).unwrap());

        let cols = im2col(&x, spec, spec).unwrap();
        let g = rand_t(cols.dims(), seed + 2);
        assert_bitwise_invariant(|| col2im(&g, n, c, hw, hw, spec, spec).unwrap());
    }

    #[test]
    fn elementwise_and_reduce_bitwise(
        rows in 1usize..30,
        cols in 1usize..30,
        seed in 0u64..1000,
    ) {
        let _g = force_parallel();
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
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = ParGuard(g);
    let a = rand_t(&[300, 300], 42);
    let b = rand_t(&[300, 300], 43);
    par::set_num_threads(1);
    let serial = matmul(&a, &b).unwrap();
    // Default threshold, default worker detection: large enough to go
    // parallel on multi-core hosts.
    par::set_num_threads(0);
    let auto = matmul(&a, &b).unwrap();
    assert!(serial
        .data()
        .iter()
        .zip(auto.data())
        .all(|(x, y)| x.to_bits() == y.to_bits()));
}
