//! What both traced runs share: the library's counters as per-layer
//! metrics, the span-to-metric rule, and bit-for-bit comparison.

use crate::report::{in_spec_order, Res};
use crate::span::Tracer;
use crate::spec::PER_LAYER;
use metalora_obs::counters::{self, CounterSnapshot};

/// Per-layer counts the library keeps, as deltas over the traced work.
pub fn counter_metrics(c0: &CounterSnapshot, c1: &CounterSnapshot) -> Vec<(&'static str, f64)> {
    let kernel = |name: &str, field: fn(&counters::KernelStat) -> u64| {
        let of = |c: &CounterSnapshot| c.kernels.iter().find(|k| k.kernel == name).map_or(0, field);
        (of(c1) - of(c0)) as f64
    };
    let d = |field: fn(&CounterSnapshot) -> u64| (field(c1) - field(c0)) as f64;
    let (hits, misses) = (d(|c| c.workspace_hits), d(|c| c.workspace_misses));
    vec![
        ("tensor.gemm.calls", kernel("matmul", |k| k.calls)),
        ("tensor.gemm.flops", kernel("matmul", |k| k.flops)),
        (
            "tensor.gemm.bytes_moved",
            kernel("matmul", |k| k.bytes_moved),
        ),
        ("tensor.gemm.packed_calls", d(|c| c.matmul_packed)),
        ("tensor.gemm.legacy_calls", d(|c| c.matmul_legacy)),
        ("tensor.einsum.calls", kernel("einsum", |k| k.calls)),
        ("tensor.einsum.flops", kernel("einsum", |k| k.flops)),
        ("tensor.contract.calls", kernel("contract", |k| k.calls)),
        ("tensor.conv.calls", kernel("conv", |k| k.calls)),
        ("tensor.conv.flops", kernel("conv", |k| k.flops)),
        ("data.knn.calls", kernel("knn", |k| k.calls)),
        ("tensor.par.parallel_dispatches", d(|c| c.dispatch_parallel)),
        ("tensor.par.serial_dispatches", d(|c| c.dispatch_serial)),
        ("tensor.fuse.fused_epilogues", d(|c| c.fused_epilogues)),
        ("tensor.fuse.output_passes", d(|c| c.output_passes)),
        ("tensor.workspace.hits", hits),
        ("tensor.workspace.misses", misses),
        ("tensor.workspace.hit_ratio", ratio(hits, hits + misses)),
        (
            "tensor.workspace.peak_pooled_bytes",
            c1.peak_workspace_pooled_bytes as f64,
        ),
        (
            "tensor.alloc.peak_tensor_bytes",
            c1.peak_tensor_bytes as f64,
        ),
        ("serve.engine.plans_built", d(|c| c.plans_built)),
        ("peft.merge.merges", d(|c| c.serve_merges)),
        ("serve.mapping.seed_rows", d(|c| c.serve_seed_rows)),
    ]
}

pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Fills every per-layer metric: `measured` first, then each remaining
/// `<span>_s` metric from the spans of that name, then zero — a layer a
/// workload never enters reads 0.
pub fn per_layer(tr: &Tracer, measured: Vec<(&'static str, f64)>) -> Res<Vec<(&'static str, f64)>> {
    let mut values = measured;
    for m in PER_LAYER {
        if values.iter().any(|(n, _)| *n == m.name) {
            continue;
        }
        let from_spans = m
            .name
            .strip_suffix("_s")
            .filter(|_| m.unit == "s")
            .map_or(0.0, |span| tr.total_s(span));
        values.push((m.name, from_spans));
    }
    in_spec_order(PER_LAYER, values)
}

/// Equal as bit patterns, so NaN payloads and signed zeros count.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
