//! Criterion micro-benches for the hot kernels routed through the
//! deterministic parallel layer: dense matmul at growing sizes and
//! `conv2d` on the acceptance shape. Pair with the `kernels` binary for the
//! cross-thread sweep + JSON artefact.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use metalora_tensor::conv::{conv2d, ConvSpec};
use metalora_tensor::{init, ops};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let mut rng = init::rng(n as u64);
        let a = init::uniform(&[n, n], -1.0, 1.0, &mut rng);
        let b = init::uniform(&[n, n], -1.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("square", n), &n, |bench, _| {
            bench.iter(|| ops::matmul(black_box(&a), black_box(&b)).unwrap())
        });
    }
    group.finish();
}

fn bench_conv2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    group.sample_size(10);
    let mut rng = init::rng(7);
    let x = init::uniform(&[8, 16, 32, 32], -1.0, 1.0, &mut rng);
    let w = init::uniform(&[3, 3, 16, 32], -1.0, 1.0, &mut rng);
    let spec = ConvSpec::new(3, 1, 1).unwrap();
    group.bench_function("n8c16hw32k3o32", |bench| {
        bench.iter(|| conv2d(black_box(&x), black_box(&w), spec, spec).unwrap())
    });
    group.finish();
}

criterion_group!(kernels, bench_matmul, bench_conv2d);
criterion_main!(kernels);
