//! The three serve workloads: one shared dense base with 64 tenants, a
//! closed loop of one caller pushing a zipf stream through
//! `Batcher` + `ServeEngine::serve_batch`.

use crate::layers::{counter_metrics, per_layer, ratio, same_bits};
use crate::report::{in_spec_order, peak_rss_mb, Outcome, Res, Tally};
use crate::span::Tracer;
use crate::spec::{ServeSpec, END_TO_END};
use crate::stats::{fastest_rate, fastest_time, percentile};
use metalora_nn::{infer, Linear};
use metalora_obs::counters;
use metalora_peft::meta::MappingNet;
use metalora_peft::{merge, LoraConfig, MultiLoraLinear};
use metalora_serve::batch::{concat_rows, split_rows};
use metalora_serve::forward::{self, MappingSnapshot};
use metalora_serve::traffic::{self, TrafficConfig};
use metalora_serve::{
    Batcher, EngineConfig, MergedCache, Request, ServeEngine, TenantAdapter, TenantEntry,
};
use metalora_tensor::{init, Tensor};
use rand::Rng;
use serde_json::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const DIM: usize = 256;
const RANK: usize = 4;
const LORA: LoraConfig = LoraConfig {
    rank: RANK,
    alpha: 8.0,
};
const TENANTS: usize = 64;
const MAP_HIDDEN: usize = 32;
pub const MAX_BATCH: usize = 16;
/// Requests compared against the reference engines after timing.
const VERIFY_REQUESTS: usize = 512;
/// Set-ups per run; `setup_s` is the fastest.
const SETUPS: usize = 3;
/// Whole passes timed at least, however fast the engine.
const MIN_PASSES: usize = 3;
/// Latency samples pooled at least: what a p99 with ten samples beyond it
/// needs.
const MIN_LATENCY_SAMPLES: usize = 1000;
/// The arrival pattern — which tenant sends how many rows, in which order
/// — is part of a workload's definition, like the zipf exponent: the
/// share of lookups that miss, and so the work in a pass, follows from it.
/// `--seed` draws the payloads and every weight.
const ARRIVAL_SEED: u64 = 42;

/// The tensors the engine was built from; the layer replay calls the same
/// public functions on them.
pub struct Parts {
    base_w: Tensor,
    base_b: Option<Tensor>,
    bank: Vec<(Tensor, Tensor)>,
    map_cp: MappingSnapshot,
    map_tr: MappingSnapshot,
}

fn cache_bytes(entries: usize) -> usize {
    entries * DIM * DIM * 4
}

/// One engine with its 64 tenants, deterministic in `seed`. Tenant ids
/// cycle `kinds` adapter kinds: LoRA, bank slot, pinned CP, pinned TR and,
/// with six kinds, dynamic CP and dynamic TR.
fn build_engine(seed: u64, kinds: u64, cfg: EngineConfig) -> (ServeEngine, Parts) {
    let mut rng = init::rng(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let base = Linear::new("fc", DIM, DIM, &mut rng);
    let (base_w, base_b) = (base.weight().value(), base.bias().map(|b| b.value()));
    let multi = MultiLoraLinear::new("fc", Box::new(base), 2, LORA, &mut rng);
    for b in &multi.b {
        b.set_value(init::uniform(&[RANK, DIM], -0.5, 0.5, &mut rng));
    }
    let net_cp = MappingNet::new("map_cp", DIM, MAP_HIDDEN, RANK, &mut rng);
    let net_tr = MappingNet::new("map_tr", DIM, MAP_HIDDEN, RANK * RANK, &mut rng);
    let engine = ServeEngine::new(base_w.clone(), base_b.clone(), cfg)
        .with_bank(&multi)
        .with_mapping_cp(&net_cp)
        .with_mapping_tr(&net_tr);

    let scaling = LORA.scaling();
    for id in 0..TENANTS as u64 {
        let a = init::uniform(&[DIM, RANK], -0.5, 0.5, &mut rng);
        let b = init::uniform(&[RANK, DIM], -0.5, 0.5, &mut rng);
        let core = |rng: &mut _| init::uniform(&[RANK, DIM, RANK], -0.3, 0.3, rng);
        let adapter = match id % kinds {
            0 => TenantAdapter::Lora { a, b, scaling },
            1 => TenantAdapter::MultiSlot {
                slot: (id / kinds % 2) as usize,
            },
            2 => TenantAdapter::MetaCp {
                a,
                b,
                scaling,
                pinned_seed: Some(init::uniform(&[RANK], -1.0, 1.0, &mut rng)),
            },
            3 => TenantAdapter::MetaTr {
                a: core(&mut rng),
                b: core(&mut rng),
                scaling,
                pinned_seed: Some(init::uniform(&[RANK, RANK], -1.0, 1.0, &mut rng)),
            },
            4 => TenantAdapter::MetaCp {
                a,
                b,
                scaling,
                pinned_seed: None,
            },
            _ => TenantAdapter::MetaTr {
                a: core(&mut rng),
                b: core(&mut rng),
                scaling,
                pinned_seed: None,
            },
        };
        engine.register(id, adapter);
    }
    let parts = Parts {
        base_w,
        base_b,
        bank: multi
            .a
            .iter()
            .zip(&multi.b)
            .map(|(a, b)| (a.value(), b.value()))
            .collect(),
        map_cp: MappingSnapshot::from_net(&net_cp),
        map_tr: MappingSnapshot::from_net(&net_tr),
    };
    (engine, parts)
}

/// The request stream: the workload's fixed arrival pattern carrying
/// payloads drawn from `seed`.
pub fn stream(spec: &ServeSpec, seed: u64) -> Vec<Request> {
    let mut reqs = traffic::generate(&TrafficConfig {
        tenants: TENANTS,
        tasks: 4,
        zipf_s: 1.1,
        requests: spec.requests,
        in_dim: DIM,
        max_rows: 8,
        seed: ARRIVAL_SEED,
    });
    let mut rng = init::rng(seed);
    for r in &mut reqs {
        for v in r.x.data_mut() {
            *v += rng.gen_range(-0.5f32..0.5);
        }
    }
    reqs
}

fn engine_config(spec: &ServeSpec) -> EngineConfig {
    EngineConfig {
        max_batch: MAX_BATCH,
        cache_bytes: cache_bytes(spec.cache_entries),
        use_merged: spec.use_merged,
    }
}

struct Fixture {
    engine: ServeEngine,
    parts: Parts,
    reqs: Vec<Request>,
    /// What the warm pass returned for the first `VERIFY_REQUESTS` requests.
    head_outs: Vec<Tensor>,
}

/// Set-up as a user pays it: build the engine and the stream, then serve
/// the stream once so plans, arena and cache are warm.
fn set_up(spec: &ServeSpec, seed: u64) -> Res<Fixture> {
    let (engine, parts) = build_engine(seed, spec.tenant_kinds, engine_config(spec));
    let reqs = stream(spec, seed);
    // VERIFY_REQUESTS is whole batches, so serving the head and the rest
    // apart batches the stream exactly as one pass does.
    let (head, rest) = reqs.split_at(reqs.len().min(VERIFY_REQUESTS));
    let mut head_outs = Vec::with_capacity(head.len());
    pass(
        &engine,
        head.to_vec(),
        &mut Tracer::muted(),
        &mut Vec::new(),
        Some(&mut head_outs),
    )?;
    pass(
        &engine,
        rest.to_vec(),
        &mut Tracer::muted(),
        &mut Vec::new(),
        None,
    )?;
    Ok(Fixture {
        engine,
        parts,
        reqs,
        head_outs,
    })
}

/// One closed-loop pass of `stream` through `Batcher` + `serve_batch`.
/// A request's latency runs from its `Batcher::push` to the return of the
/// `serve_batch` that holds it. Returns the pass time in seconds.
fn pass(
    engine: &ServeEngine,
    stream: Vec<Request>,
    tr: &mut Tracer,
    latency_ms: &mut Vec<f64>,
    mut keep: Option<&mut Vec<Tensor>>,
) -> Res<f64> {
    let mut batcher = Batcher::new(MAX_BATCH);
    let mut pushed: Vec<Instant> = Vec::with_capacity(MAX_BATCH);
    latency_ms.reserve(stream.len());
    let mut serve =
        |batch: Vec<Request>, pushed: &mut Vec<Instant>, tr: &mut Tracer, id: u64| -> Res<()> {
            let outs = tr.scope("serve.engine.serve_batch", id, |_| {
                engine.serve_batch(&batch)
            })?;
            let done = Instant::now();
            latency_ms.extend(pushed.drain(..).map(|p| (done - p).as_secs_f64() * 1e3));
            match keep.as_deref_mut() {
                Some(k) => k.extend(outs),
                None => drop(black_box(outs)),
            }
            Ok(())
        };
    let t0 = Instant::now();
    let mut id = 0u64;
    for req in stream {
        pushed.push(Instant::now());
        if let Some(batch) = tr.scope("serve.batch.push", id, |_| batcher.push(req)) {
            serve(batch, &mut pushed, tr, id)?;
        }
        id += 1;
    }
    let tail = tr.scope("serve.batch.flush", id, |_| batcher.flush());
    if !tail.is_empty() {
        serve(tail, &mut pushed, tr, id)?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Per-pass request rates and the pooled request latencies of a run.
#[derive(Default)]
struct Timed {
    rates: Vec<f64>,
    latency_ms: Vec<f64>,
}

impl Timed {
    /// One more whole pass of the stream.
    fn pass(&mut self, fx: &Fixture) -> Res<()> {
        let dt = pass(
            &fx.engine,
            fx.reqs.clone(),
            &mut Tracer::muted(),
            &mut self.latency_ms,
            None,
        )?;
        self.rates.push(fx.reqs.len() as f64 / dt);
        Ok(())
    }

    /// Whole passes until `seconds` have elapsed, at least one.
    fn passes_for(&mut self, fx: &Fixture, seconds: f64) -> Res<()> {
        let t0 = Instant::now();
        self.pass(fx)?;
        while t0.elapsed().as_secs_f64() < seconds {
            self.pass(fx)?;
        }
        Ok(())
    }

    /// Tops up to [`MIN_PASSES`] passes and [`MIN_LATENCY_SAMPLES`]
    /// requests, so a faster engine still runs long enough.
    fn top_up(&mut self, fx: &Fixture) -> Res<()> {
        while self.rates.len() < MIN_PASSES || self.latency_ms.len() < MIN_LATENCY_SAMPLES {
            self.pass(fx)?;
        }
        Ok(())
    }
}

fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && same_bits(a.data(), b.data())
}

/// The dense delta `peft::merge` builds for a cacheable tenant, under a
/// span named after the merge function.
fn merge_delta(
    parts: &Parts,
    adapter: &TenantAdapter,
    id: u64,
    tr: &mut Tracer,
) -> metalora_serve::Result<Tensor> {
    match adapter {
        TenantAdapter::Lora { a, b, scaling } => tr.scope("peft.merge.lora_delta", id, |_| {
            merge::lora_delta(a, b, *scaling)
        }),
        TenantAdapter::MultiSlot { slot } => {
            let (a, b) = &parts.bank[*slot];
            tr.scope("peft.merge.lora_delta", id, |_| {
                merge::lora_delta(a, b, LORA.scaling())
            })
        }
        TenantAdapter::MetaCp {
            a,
            b,
            scaling,
            pinned_seed: Some(c),
        } => tr.scope("peft.merge.cp_delta", id, |_| {
            merge::cp_delta(a, b, c, *scaling)
        }),
        TenantAdapter::MetaTr {
            a,
            b,
            scaling,
            pinned_seed: Some(c),
        } => tr.scope("peft.merge.tr_delta", id, |_| {
            merge::tr_delta(a, b, c, *scaling)
        }),
        other => Err(invalid(&format!(
            "no workload merges a {} tenant",
            other.method()
        ))),
    }
}

/// Output checks, outside the timed region. Factored: the batched engine
/// equals a fresh `max_batch = 1` engine bit for bit. Merged: outputs are
/// within 1e-3 relative of the factored engine, and resident weights equal
/// a fresh merge bit for bit.
fn verify(spec: &ServeSpec, seed: u64, fx: &Fixture, tally: &mut Tally) -> Res<()> {
    let head = &fx.reqs[..fx.head_outs.len()];
    let reference_cfg = EngineConfig {
        max_batch: 1,
        cache_bytes: 0,
        use_merged: false,
    };
    let (reference, _) = build_engine(seed, spec.tenant_kinds, reference_cfg);
    for (i, (req, out)) in head.iter().zip(&fx.head_outs).enumerate() {
        let want = reference.serve_one(req)?;
        if spec.use_merged {
            let err = metalora_tensor::max_rel_err(out, &want);
            tally.check(err <= 1e-3, || {
                format!("request {i}: merged output off the factored engine by {err:e}")
            });
        } else {
            tally.check(bitwise_eq(out, &want), || {
                format!("request {i}: batched output differs from the max_batch = 1 engine")
            });
        }
    }
    if spec.use_merged {
        for key in fx.engine.cache().lru_keys().into_iter().rev().take(8) {
            let entry = fx.engine.store().get_required(key.0)?;
            let delta = merge_delta(&fx.parts, &entry.adapter, 0, &mut Tracer::muted())?;
            let fresh = merge::merge_into(&fx.parts.base_w, &delta)?;
            let cached = fx.engine.cache().get_or_insert(key, || Ok(fresh.clone()))?;
            tally.check(bitwise_eq(&cached, &fresh), || {
                format!("tenant {}: cached weight differs from a fresh merge", key.0)
            });
        }
    }
    Ok(())
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64) -> Res<Outcome> {
    // Each set-up lays the engine out afresh in memory, and where the
    // weights and the arena land moves a whole engine's speed by a few
    // percent. So every set-up is followed by its share of the timed
    // passes: the run then spans three layouts instead of one.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut timed = Timed::default();
    let mut fixture = None;
    for _ in 0..SETUPS {
        drop(fixture.take());
        let t0 = Instant::now();
        let fx = fixture.insert(set_up(spec, seed)?);
        setups.push(t0.elapsed().as_secs_f64());
        timed.passes_for(fx, seconds / SETUPS as f64)?;
    }
    let fx = fixture.expect("SETUPS > 0");
    timed.top_up(&fx)?;
    let Timed { rates, latency_ms } = timed;
    let mut tally = Tally::default();
    tally.ok(latency_ms.len() as u64);
    verify(spec, seed, &fx, &mut tally)?;

    let pass_p50 = latency_ms
        .chunks(fx.reqs.len())
        .map(|pass| percentile(pass, 50.0))
        .collect::<Result<Vec<_>, _>>()?;
    let metrics = vec![
        ("setup_s", fastest_time(&setups)),
        ("throughput_per_s", fastest_rate(&rates)),
        ("latency_p50_ms", fastest_time(&pass_p50)),
        ("peak_rss_mb", peak_rss_mb()?),
    ];
    let details = vec![
        (
            "pass_rates",
            Value::Seq(rates.iter().map(|r| Value::Num(*r)).collect()),
        ),
        ("passes", Value::Num(rates.len() as f64)),
        (
            "request_latency_p99_ms",
            Value::Num(percentile(&latency_ms, 99.0)?),
        ),
        (
            "request_latency_samples",
            Value::Num(latency_ms.len() as f64),
        ),
    ];
    Ok(Outcome {
        tally,
        metrics: in_spec_order(END_TO_END, metrics)?,
        details,
    })
}

/// The layer replay: the work of one pass re-issued through each layer's
/// public functions, one span per call. `cache` stands in for the
/// engine's merged-weight cache.
struct Replay<'a> {
    fx: &'a Fixture,
    merged: bool,
    cache: MergedCache,
}

impl Replay<'_> {
    fn pass(&self, tr: &mut Tracer) -> Res<Vec<Tensor>> {
        let mut outs = Vec::with_capacity(self.fx.reqs.len());
        // `Batcher` releases a batch at every MAX_BATCH-th push and the
        // rest at flush: exactly these chunks.
        for (b, batch) in self.fx.reqs.chunks(MAX_BATCH).enumerate() {
            let first = (b * MAX_BATCH) as u64;
            let entries = batch
                .iter()
                .zip(first..)
                .map(|(r, id)| {
                    tr.scope("serve.store.lookup", id, |_| {
                        self.fx.engine.store().get_required(r.tenant)
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let seeds = self.seeds(batch, &entries, first, tr)?;
            for (i, (req, entry)) in batch.iter().zip(&entries).enumerate() {
                outs.push(self.forward(entry, &req.x, seeds.get(&i), first + i as u64, tr)?);
            }
        }
        Ok(outs)
    }

    /// One stacked mapping-net forward per format for the batch's dynamic
    /// rows, split back per request.
    fn seeds(
        &self,
        batch: &[Request],
        entries: &[std::sync::Arc<TenantEntry>],
        id: u64,
        tr: &mut Tracer,
    ) -> Res<HashMap<usize, Tensor>> {
        let mut seeds = HashMap::new();
        for (tr_format, mapping) in [
            (false, &self.fx.parts.map_cp),
            (true, &self.fx.parts.map_tr),
        ] {
            let dynamic: Vec<usize> = (0..batch.len())
                .filter(|&i| match &entries[i].adapter {
                    TenantAdapter::MetaCp {
                        pinned_seed: None, ..
                    } => !tr_format,
                    TenantAdapter::MetaTr {
                        pinned_seed: None, ..
                    } => tr_format,
                    _ => false,
                })
                .collect();
            if dynamic.is_empty() {
                continue;
            }
            let parts: Vec<&Tensor> = dynamic.iter().map(|&i| &batch[i].x).collect();
            let counts: Vec<usize> = parts.iter().map(|t| t.dims()[0]).collect();
            let stacked = tr.scope("serve.batch.concat_rows", id, |_| concat_rows(&parts))?;
            let generated =
                tr.scope("serve.mapping.generate", id, |_| mapping.generate(&stacked))?;
            let split = tr.scope("serve.batch.split_rows", id, |_| {
                split_rows(&generated, &counts)
            })?;
            seeds.extend(dynamic.into_iter().zip(split));
        }
        Ok(seeds)
    }

    fn forward(
        &self,
        entry: &TenantEntry,
        x: &Tensor,
        seed: Option<&Tensor>,
        id: u64,
        tr: &mut Tracer,
    ) -> Res<Tensor> {
        let Parts {
            base_w: w,
            base_b,
            bank,
            ..
        } = &self.fx.parts;
        let bias = base_b.as_ref();
        if self.merged && entry.adapter.cacheable() {
            let key = (entry.id, entry.version);
            let weight = tr.scope("serve.cache.get_or_insert", id, |tr| {
                self.cache.get_or_insert(key, || {
                    let delta = merge_delta(&self.fx.parts, &entry.adapter, id, tr)?;
                    tr.scope("peft.merge.merge_into", id, |_| {
                        merge::merge_into(w, &delta)
                    })
                })
            })?;
            return Ok(tr.scope("serve.forward.merged", id, |_| {
                forward::merged_linear(x, &weight, bias)
            })?);
        }
        // A pinned seed is tiled over the request's rows, as the engine
        // does; a dynamic tenant uses the rows the mapping net generated.
        let per_row = |pinned: &Option<Tensor>| match pinned {
            Some(c) => forward::tile_seed(c, x.dims()[0]).map(Cow::Owned),
            None => seed
                .map(Cow::Borrowed)
                .ok_or_else(|| invalid("dynamic tenant without a generated seed")),
        };
        Ok(match &entry.adapter {
            TenantAdapter::Lora { a, b, scaling } => tr.scope("serve.forward.lora", id, |_| {
                forward::lora_linear(x, w, bias, a, b, *scaling)
            })?,
            TenantAdapter::MultiSlot { slot } => {
                let (a, b) = &bank[*slot];
                tr.scope("serve.forward.multislot", id, |_| {
                    forward::lora_linear(x, w, bias, a, b, LORA.scaling())
                })?
            }
            TenantAdapter::MetaCp {
                a,
                b,
                scaling,
                pinned_seed,
            } => tr.scope("serve.forward.cp", id, |_| {
                forward::meta_cp_linear(x, w, bias, a, b, per_row(pinned_seed)?.as_ref(), *scaling)
            })?,
            TenantAdapter::MetaTr {
                a,
                b,
                scaling,
                pinned_seed,
            } => tr.scope("serve.forward.tr", id, |_| {
                forward::meta_tr_linear(x, w, bias, a, b, per_row(pinned_seed)?.as_ref(), *scaling)
            })?,
            TenantAdapter::ConvLora { .. } => {
                return Err("no workload registers a ConvLora tenant".into())
            }
        })
    }
}

fn invalid(msg: &str) -> metalora_tensor::TensorError {
    metalora_tensor::TensorError::InvalidArgument(msg.into())
}

/// The traced run: untraced passes for the baseline (a fixed number, so
/// every count repeats), one pass through the real entry points under a
/// root span with the library's counters on, then the layer replay,
/// checked bit for bit against that pass.
pub fn trace(spec: &ServeSpec, seed: u64, trace_file: &std::path::Path) -> Res<Outcome> {
    let fx = set_up(spec, seed)?;
    let mut timed = Timed::default();
    timed.top_up(&fx)?;
    let Timed { rates, latency_ms } = timed;
    let untraced_pass_s = fx.reqs.len() as f64 / fastest_rate(&rates);
    let mut tally = Tally::default();
    tally.ok(latency_ms.len() as u64);

    // (a) the real entry points.
    let mut tr = Tracer::new();
    let mut engine_outs = Vec::with_capacity(fx.reqs.len());
    metalora_obs::set_enabled(true);
    let (c0, s0, b0) = (
        counters::snapshot(),
        fx.engine.cache().stats(),
        fx.engine.batch_count(),
    );
    let stream = fx.reqs.clone();
    tr.scope("pass", 0, |tr| {
        pass(
            &fx.engine,
            stream,
            tr,
            &mut Vec::new(),
            Some(&mut engine_outs),
        )
    })?;
    let (c1, s1, b1) = (
        counters::snapshot(),
        fx.engine.cache().stats(),
        fx.engine.batch_count(),
    );
    metalora_obs::set_enabled(false);
    tally.ok(engine_outs.len() as u64);

    // (b) the layer replay, from the same warm state.
    let replay = Replay {
        fx: &fx,
        merged: spec.use_merged,
        cache: MergedCache::new(cache_bytes(spec.cache_entries)),
    };
    replay.pass(&mut Tracer::muted())?;
    let replay_outs = tr.scope("replay", 0, |tr| replay.pass(tr))?;
    for (i, (got, want)) in replay_outs.iter().zip(&engine_outs).enumerate() {
        tally.check(bitwise_eq(got, want), || {
            format!("request {i}: replayed output differs from the engine's")
        });
    }
    tally.check(replay_outs.len() == engine_outs.len(), || {
        "replay served a different number of requests".into()
    });
    if spec.use_merged {
        let r = replay.cache.stats();
        tally.check(r.bytes == s1.bytes && r.entries == s1.entries, || {
            "replay cache ends in a different state than the engine's".into()
        });
    }

    // (c) the shared-base product alone, once per request.
    let Parts { base_w, base_b, .. } = &fx.parts;
    tr.scope("replay.base", 0, |tr| {
        for (r, id) in fx.reqs.iter().zip(0u64..) {
            black_box(tr.scope("nn.infer.linear", id, |_| {
                infer::linear(&r.x, base_w, base_b.as_ref())
            })?);
        }
        Ok::<(), metalora_tensor::TensorError>(())
    })?;

    let rows: usize = fx.reqs.iter().map(Request::rows).sum();
    let (requests, batches) = (fx.reqs.len() as f64, (b1 - b0) as f64);
    let (hits, misses) = ((s1.hits - s0.hits) as f64, (s1.misses - s0.misses) as f64);
    let batcher_s = tr.total_s("serve.batch.push") + tr.total_s("serve.batch.flush");
    let root_s = tr.total_s("pass");
    let mut measured = counter_metrics(&c0, &c1);
    measured.extend([
        ("serve.engine.batches", batches),
        ("serve.engine.requests", requests),
        ("serve.engine.rows", rows as f64),
        (
            "serve.batch.busy_s",
            batcher_s
                + tr.total_s("serve.batch.concat_rows")
                + tr.total_s("serve.batch.split_rows"),
        ),
        ("serve.batch.mean_batch_size", ratio(requests, batches)),
        ("serve.store.lookups", tr.count("serve.store.lookup") as f64),
        ("serve.cache.self_s", tr.self_s("serve.cache.get_or_insert")),
        ("serve.cache.hits", hits),
        ("serve.cache.misses", misses),
        (
            "serve.cache.evictions",
            (s1.evictions - s0.evictions) as f64,
        ),
        ("serve.cache.hit_ratio", ratio(hits, hits + misses)),
        ("serve.cache.resident_bytes", s1.bytes as f64),
        ("nn.infer.linear_calls", tr.count("nn.infer.linear") as f64),
        (
            "tensor.gemm.base_gflops",
            ratio(
                (2 * rows * DIM * DIM) as f64 / 1e9,
                tr.total_s("nn.infer.linear"),
            ),
        ),
        (
            "bench.replay.unattributed_share",
            1.0 - (tr.children_s("replay") + batcher_s) / root_s,
        ),
        ("bench.trace.overhead_share", root_s / untraced_pass_s - 1.0),
        (
            "serve.request.latency_p99_ms",
            percentile(&latency_ms, 99.0)?,
        ),
        ("serve.request.latency_samples", latency_ms.len() as f64),
    ]);
    std::fs::write(trace_file, tr.to_json())?;
    let details = vec![
        ("untraced_passes", Value::Num(rates.len() as f64)),
        ("spans", Value::Num(tr.spans().len() as f64)),
    ];
    Ok(Outcome {
        tally,
        metrics: per_layer(&tr, measured)?,
        details,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Kind, WORKLOADS};

    fn churn() -> ServeSpec {
        match crate::spec::workload("serve_merged_churn").unwrap().kind {
            Kind::Serve(s) => s,
            Kind::Train(_) => unreachable!(),
        }
    }

    #[test]
    fn stream_repeats_for_a_seed_and_differs_across_seeds() {
        let spec = churn();
        let (a, b, c) = (stream(&spec, 7), stream(&spec, 7), stream(&spec, 8));
        assert_eq!(a.len(), spec.requests);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.tenant == y.tenant && bitwise_eq(&x.x, &y.x)));
        assert!(
            a.iter().zip(&c).any(|(x, y)| !bitwise_eq(&x.x, &y.x)),
            "payloads follow the seed"
        );
        assert!(
            a.iter()
                .zip(&c)
                .all(|(x, y)| x.tenant == y.tenant && x.rows() == y.rows()),
            "the arrival pattern belongs to the workload"
        );
    }

    #[test]
    fn engines_repeat_for_a_seed_and_differ_across_seeds() {
        let spec = churn();
        let req = &stream(&spec, 3)[0];
        let serve = |seed| {
            build_engine(seed, 6, engine_config(&spec))
                .0
                .serve_one(req)
                .unwrap()
        };
        assert!(bitwise_eq(&serve(3), &serve(3)));
        assert!(!bitwise_eq(&serve(3), &serve(4)));
    }

    #[test]
    fn every_serve_workload_keeps_its_cache_promise() {
        for w in WORKLOADS {
            let Kind::Serve(spec) = w.kind else { continue };
            let tenants = TENANTS.min(spec.requests);
            match w.name {
                "serve_factored_mixed" => assert!(!spec.use_merged && spec.tenant_kinds == 6),
                "serve_merged_resident" => {
                    assert!(spec.use_merged && spec.cache_entries >= 2 * tenants)
                }
                _ => assert!(spec.use_merged && spec.cache_entries < tenants / 2),
            }
        }
    }
}
