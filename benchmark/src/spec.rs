//! The benchmark's definition as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `list` prints these tables,
//! `list --json` renders them as `../BENCHMARK.json`, and a test keeps the
//! committed file equal to that rendering.

use metalora::config::Arch;
use metalora::methods::Method;
use serde_json::Value;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`); the train
/// pipelines are sized against it.
pub const RUN_SECONDS: u64 = 12;

/// The program and leading arguments the driver runs from the repo root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric. `bound` is set for end-to-end metrics only: the
/// share of the parent's median by which the metric may worsen before a
/// change is a regression.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    /// What is measured (end to end) or which end-to-end metric the layer
    /// metric should move, on which workload (per layer).
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn time(name: &'static str, what: &'static str) -> Metric {
    Metric {
        name,
        unit: "s",
        better: Better::Lower,
        bound: None,
        what,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// Measured with obs and tracing off. Every workload reports every one of
/// them, so each name has one serve reading and one train reading.
pub static END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "fastest of 3 set-ups: serve = build engine + one warm pass of the stream (plans, arena, cache); train = one warm-up pipeline at the timed shapes"),
    e2e("throughput_per_s", "1/s", Higher, 0.25,
        "serve: requests/s of the fastest whole pass; train: images/s through pretrain+adapt+probe of the fastest whole pipeline"),
    e2e("latency_p50_ms", "ms", Lower, 0.25,
        "serve: median request latency, Batcher::push to return of its serve_batch, in the pass where it is lowest; train: adapt wall / adapt steps of the fastest adapt phase"),
    e2e("peak_rss_mb", "MiB", Lower, 0.15,
        "VmHWM of the benchmark process at the end of the run"),
];

/// From the traced run. A name ending in `_s` is the summed duration of
/// the bench-side spans of that name (without the suffix).
pub static PER_LAYER: &[Metric] = &[
    // serve engine, seen from outside: the whole of throughput_per_s on serve_*.
    time("serve.engine.serve_batch_s", "ServeEngine::serve_batch calls of the traced pass -> all of throughput_per_s on serve_*"),
    count("serve.engine.batches", "count", Lower, "batches of the traced pass"),
    count("serve.engine.requests", "count", Higher, "requests of the traced pass"),
    count("serve.engine.rows", "count", Higher, "input rows of the traced pass"),
    count("serve.engine.plans_built", "count", Lower, "static plans built during the traced pass (0 once warm)"),
    // batcher + store glue: largest share on serve_merged_resident.
    time("serve.batch.busy_s", "Batcher::push/flush, concat_rows, split_rows -> throughput_per_s on serve_merged_resident, where the GEMM is cheapest"),
    count("serve.batch.mean_batch_size", "req/batch", Higher, "requests / batches"),
    time("serve.store.lookup_s", "AdapterStore::get_required -> throughput_per_s on serve_merged_resident"),
    count("serve.store.lookups", "count", Lower, "store lookups replayed"),
    // merged-weight cache: serve_merged_churn; flat on resident, zero on factored.
    time("serve.cache.self_s", "MergedCache::get_or_insert minus its build closure -> latency and throughput on serve_merged_churn; flat on serve_merged_resident"),
    count("serve.cache.hits", "count", Higher, "cache hits of the traced pass"),
    count("serve.cache.misses", "count", Lower, "cache misses of the traced pass"),
    count("serve.cache.evictions", "count", Lower, "evictions of the traced pass"),
    count("serve.cache.hit_ratio", "ratio", Higher, "hits / lookups: 1.0 on serve_merged_resident, < 0.8 on serve_merged_churn, 0 on serve_factored_mixed"),
    count("serve.cache.resident_bytes", "bytes", Lower, "bytes resident after the traced pass"),
    // peft::merge: serve_merged_churn only; set-up of serve_merged_resident.
    time("peft.merge.lora_delta_s", "merge::lora_delta -> throughput_per_s on serve_merged_churn; setup_s on serve_merged_resident"),
    time("peft.merge.cp_delta_s", "merge::cp_delta -> as lora_delta_s"),
    time("peft.merge.tr_delta_s", "merge::tr_delta -> nearly all of serve_merged_churn today"),
    time("peft.merge.merge_into_s", "merge::merge_into -> as lora_delta_s"),
    count("peft.merge.merges", "count", Lower, "merged weights built in the traced pass"),
    // mapping net: serve_factored_mixed only.
    time("serve.mapping.generate_s", "MappingSnapshot::generate on the stacked dynamic rows -> throughput_per_s on serve_factored_mixed"),
    count("serve.mapping.seed_rows", "count", Higher, "rows pushed through the mapping nets"),
    // per-kind forwards and the shared-base product.
    time("serve.forward.lora_s", "forward::lora_linear for LoRA tenants -> throughput_per_s and latency_p50_ms on serve_factored_mixed"),
    time("serve.forward.multislot_s", "forward::lora_linear for bank-slot tenants -> as lora_s"),
    time("serve.forward.cp_s", "forward::meta_cp_linear (pinned and dynamic) -> as lora_s"),
    time("serve.forward.tr_s", "forward::meta_tr_linear (pinned and dynamic) -> as lora_s; about 5x lora_s per request today"),
    time("serve.forward.merged_s", "forward::merged_linear -> throughput_per_s on serve_merged_resident; about nn.infer.linear_s"),
    time("nn.infer.linear_s", "infer::linear of every request on the base weight alone -> floor of serve.forward.*"),
    count("nn.infer.linear_calls", "count", Lower, "base products re-issued"),
    // kernels: serve_factored_mixed / serve_merged_resident and train_resnet_tr; not train_mixer_cp.
    count("tensor.gemm.calls", "count", Lower, "matmul-family calls -> kernels move throughput_per_s on serve_factored_mixed, serve_merged_resident, train_resnet_tr"),
    count("tensor.gemm.flops", "flop", Lower, "matmul flops"),
    count("tensor.gemm.bytes_moved", "bytes", Lower, "matmul operand + result bytes, computed from shapes"),
    count("tensor.gemm.packed_calls", "count", Higher, "calls taking the packed microkernel"),
    count("tensor.gemm.legacy_calls", "count", Lower, "calls under the pack gate (legacy kernel)"),
    count("tensor.gemm.base_gflops", "GFLOP/s", Higher, "base-product flops / nn.infer.linear_s"),
    count("tensor.einsum.calls", "count", Lower, "einsum evaluator calls (tr_delta)"),
    count("tensor.einsum.flops", "flop", Lower, "einsum flops"),
    count("tensor.contract.calls", "count", Lower, "pairwise contraction calls"),
    count("tensor.conv.calls", "count", Lower, "conv2d calls: 0 on train_mixer_cp and serve_*"),
    count("tensor.conv.flops", "flop", Lower, "conv2d flops -> throughput_per_s on train_resnet_tr"),
    count("tensor.par.parallel_dispatches", "count", Lower, "must be 0: the team is pinned to 1 thread"),
    count("tensor.par.serial_dispatches", "count", Lower, "par-layer dispatches kept on the caller"),
    count("tensor.fuse.fused_epilogues", "count", Higher, "bias/activation epilogues fused into the GEMM store"),
    count("tensor.fuse.output_passes", "count", Lower, "separate epilogue passes over an output"),
    // allocation: peak_rss_mb everywhere; serve_merged_churn and train_mixer_cp throughput.
    count("tensor.workspace.hits", "count", Higher, "arena checkouts served from the pool -> throughput_per_s on serve_merged_churn and train_mixer_cp"),
    count("tensor.workspace.misses", "count", Lower, "arena checkouts that allocated"),
    count("tensor.workspace.hit_ratio", "ratio", Higher, "hits / checkouts"),
    count("tensor.workspace.peak_pooled_bytes", "bytes", Lower, "peak bytes parked in the arena -> peak_rss_mb"),
    count("tensor.alloc.peak_tensor_bytes", "bytes", Lower, "peak tensor bytes alive while observing -> peak_rss_mb"),
    // train pipeline phases, one to one with the phase rates below.
    time("core.pretrain_s", "pipeline::pretrain of the traced pipeline"),
    time("core.adapt_s", "pipeline::adapt of the traced pipeline -> latency_p50_ms on train_*"),
    time("core.probe_s", "pipeline::probe of the traced pipeline"),
    // step replay (20 steps with the injected model) -> latency_p50_ms on train_*.
    time("peft.inject_s", "inject::meta_into_* -> latency_p50_ms on train_* (once per pipeline)"),
    count("peft.adapter_params", "count", Lower, "trainable adapter scalars"),
    time("data.task.sample_batch_s", "task::sample_mixture_batch over the replayed steps"),
    time("nn.forward_s", "Graph::new + Module::forward + loss -> latency_p50_ms; forward/backward dominate train_resnet_tr"),
    count("autograd.tape.nodes_per_step", "count", Lower, "Graph::len after the loss; per-node cost is the largest share on train_mixer_cp"),
    time("autograd.backward_s", "Graph::backward + flush_grads over the replayed steps"),
    time("nn.optim.step_s", "Adam::step over the replayed steps -> latency_p50_ms on train_*"),
    time("autograd.tape.drop_s", "dropping the step's Graph: every node tensor goes back to the allocator -> latency_p50_ms on train_mixer_cp"),
    // probe replay (every episode of the traced pipeline).
    time("data.task.sample_episode_s", "task::sample_episode -> probe share of throughput_per_s on train_*"),
    time("core.embed_s", "Adapted::embed_images of support and query sets"),
    time("data.knn.fit_predict_s", "KnnClassifier::fit + accuracy at k = 5, 10"),
    count("data.knn.calls", "count", Lower, "KNN kernel calls of the traced pipeline"),
    // what the outside view cannot explain, and what tracing costs.
    count("bench.replay.unattributed_share", "ratio", Lower, "1 - replayed layer time / time of the same work through the real entry point (reported, not gated)"),
    count("bench.trace.overhead_share", "ratio", Lower, "traced root / fastest untraced pass or pipeline - 1"),
    // measured on the traced run's untraced passes/pipeline, so free of tracing cost.
    count("serve.request.latency_p99_ms", "ms", Lower, "p99 request latency over >= 1000 samples -> the slow case of latency_p50_ms; dominated by merges on serve_merged_churn"),
    count("serve.request.latency_samples", "count", Higher, "samples behind the p99"),
    count("core.pretrain_images_per_s", "img/s", Higher, "pretrain images / pretrain wall -> pretrain share of throughput_per_s on train_*"),
    count("core.adapt_steps_per_s", "steps/s", Higher, "adapt steps / adapt wall -> 1000 / latency_p50_ms on train_*"),
    count("core.probe_episodes_per_s", "ep/s", Higher, "probe episodes / probe wall -> probe share of throughput_per_s on train_*"),
    count("core.pipeline_wall_s", "s", Lower, "pretrain + adapt + probe of one untraced pipeline"),
];

/// Serve workload parameters on top of the shared engine (dense base
/// 256 -> 256 + bias, rank 4 / alpha 8, 64 tenants, 2-slot bank, CP and TR
/// mapping nets of hidden 32, zipf s = 1.1, 4 task shifts, 1..=8 rows per
/// request, max_batch 16).
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub use_merged: bool,
    /// Tenant kinds cycled over the ids: 6 = all, 4 = the cacheable four.
    pub tenant_kinds: u64,
    pub requests: usize,
    /// Cache capacity in merged weights.
    pub cache_entries: usize,
}

/// Train workload parameters: `ExperimentConfig::standard()` plus these
/// overrides, for one pipeline (pretrain -> adapt -> probe).
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub arch: Arch,
    pub method: Method,
    pub image_size: usize,
    pub pretrain_epochs: usize,
    pub adapt_steps: usize,
    pub n_eval_tasks: usize,
    pub probe_rounds: usize,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Serve(ServeSpec),
    Train(TrainSpec),
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub static WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_factored_mixed",
        why: "default serving mode, all six tenant kinds: shared-base GEMM, per-request adapter contraction and batched mapping net all run; the merged cache does nothing",
        kind: Kind::Serve(ServeSpec { use_merged: false, tenant_kinds: 6, requests: 4096, cache_entries: 0 }),
    },
    Workload {
        name: "serve_merged_resident",
        why: "merged mode with every weight resident: cache reads only, forward is one dense GEMM; a merge-path optimisation must not move it",
        kind: Kind::Serve(ServeSpec { use_merged: true, tenant_kinds: 4, requests: 4096, cache_entries: 128 }),
    },
    Workload {
        name: "serve_merged_churn",
        why: "merged mode with a 16-entry cache, a third of lookups miss: merge deltas, merge_into, eviction and arena recycling do nearly all the work and the GEMM almost none",
        kind: Kind::Serve(ServeSpec { use_merged: true, tenant_kinds: 4, requests: 256, cache_entries: 16 }),
    },
    Workload {
        name: "train_resnet_tr",
        why: "Table I's starred cell: ResNet + MetaLoRA-TR; conv/im2col kernels and the conv-TR contraction dominate, tape overhead is small",
        kind: Kind::Train(TrainSpec { arch: Arch::ResNet, method: Method::MetaLoraTr, image_size: 16, pretrain_epochs: 1, adapt_steps: 16, n_eval_tasks: 1, probe_rounds: 1 }),
    },
    Workload {
        name: "train_mixer_cp",
        why: "Mixer + MetaLoRA-CP: thousands of small dense GEMMs plus GELU and no conv; tape, allocator and activation bound, so a conv change predicts no move here",
        kind: Kind::Train(TrainSpec { arch: Arch::Mixer, method: Method::MetaLoraCp, image_size: 32, pretrain_epochs: 4, adapt_steps: 120, n_eval_tasks: 6, probe_rounds: 1 }),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// A JSON object with its keys in the order given.
pub fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric_json(m: &Metric) -> Value {
    let mut e = vec![
        ("name", s(m.name)),
        ("unit", s(m.unit)),
        ("better", s(m.better.name())),
    ];
    if let Some(b) = m.bound {
        e.push(("bound", Value::Num(b)));
    }
    map(e)
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    map(vec![
        (
            "command",
            Value::Seq(COMMAND.iter().map(|a| s(a)).collect()),
        ),
        ("paths", Value::Seq(PATHS.iter().map(|p| s(p)).collect())),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| map(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Value::Seq(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

/// The human-readable tables `list` prints.
pub fn list_text() -> String {
    let mut out = String::new();
    out.push_str("workloads\n");
    for w in WORKLOADS {
        out.push_str(&format!("  {:<24} {}\n", w.name, w.why));
    }
    out.push_str("\nend-to-end metrics (obs and tracing off)\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "  {:<20} {:<6} {:<7} bound {:>4.0} %  {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.what
        ));
    }
    out.push_str("\nper-layer metrics (traced run, no bound)\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<36} {:<9} {:<7} {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.what
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json(), "regenerate with `list --json`");
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(n), "bad name {n}");
            assert!(seen.insert(n), "name {n} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} on {}",
                m.unit,
                m.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s takes the largest bound"
        );
    }

    #[test]
    fn list_names_every_workload_and_metric() {
        let text = list_text();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(text.contains(n), "list misses {n}");
        }
    }
}
