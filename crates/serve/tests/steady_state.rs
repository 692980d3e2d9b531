//! Steady-state scratch behaviour and hostile inputs, on the workspace
//! arena — the engine's only scratch mechanism.
//!
//! Requests of a batch run one after another, so one pooled buffer per
//! size bucket and concurrent need serves all of them: after one warm pass
//! over a stream, replaying it never misses the arena and the pool stops
//! growing — it is bounded by concurrency, not by how many distinct batch
//! shapes were seen. The stream is a ragged 64-tenant zipf mix of all five
//! adapter kinds, served factored and merged. The packed GEMM leases one
//! `A` panel per call (plus its `B` pack), so what a call checks out is a
//! function of the shape alone, and a warm pass never misses. The arena
//! holds that scratch only: under a cache too small for the stream,
//! evictions and re-merges neither feed it nor drain it.
//!
//! The hostile half: a rank-0 input is `Err(InvalidArgument)` for every
//! tenant kind — alone or inside a mixed batch — and leaves the engine
//! serving.
//!
//! And two production-path audits: no Tensor-Ring merge or adapt step
//! reaches the direct-sum `einsum` oracle, and a factored six-kind batch
//! is six GEMM calls, no contraction, at the per-request chains' flops.

use metalora_autograd::Graph;
use metalora_nn::{Ctx, Linear, Module};
use metalora_peft::meta::{MappingNet, MetaLoraTrLinear};
use metalora_peft::{LoraConfig, MultiLoraLinear};
use metalora_serve::traffic::Zipf;
use metalora_serve::{EngineConfig, Request, ServeEngine, TenantAdapter};
use metalora_tensor::conv::ConvSpec;
use metalora_tensor::{contract, init, ops, workspace, Tensor, TensorError};
use std::sync::{Mutex, MutexGuard};

const CFG: LoraConfig = LoraConfig { rank: 2, alpha: 3.0 };
const DIM: usize = 128; // base is [DIM, DIM]: one row is already a packed GEMM
const TENANTS: u64 = 64;
const CONV: [usize; 3] = [3, 8, 8]; // C, H, W of a conv tenant's input
const CONV_OUT: usize = 8;

/// The arena and the obs counters are process-global: one test at a
/// time, defaults restored on drop.
struct Globals(#[allow(dead_code)] MutexGuard<'static, ()>);

fn lock_globals() -> Globals {
    static LOCK: Mutex<()> = Mutex::new(());
    Globals(LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

impl Drop for Globals {
    fn drop(&mut self) {
        metalora_obs::set_enabled(false);
        metalora_obs::reset();
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// 64 tenants, kind by `id % 6`: LoRA, Conv-LoRA, dynamic CP, dynamic TR,
/// bank slot, pinned-seed CP/TR (alternating). The cache holds them all.
fn engine(use_merged: bool, max_batch: usize) -> ServeEngine {
    engine_with_cache(use_merged, max_batch, 64 << 20)
}

/// [`engine`] with a merged-weight cache of `cache_bytes`.
fn engine_with_cache(use_merged: bool, max_batch: usize, cache_bytes: usize) -> ServeEngine {
    let mut rng = init::rng(31);
    let r = CFG.rank;
    let base = Linear::new("fc", DIM, DIM, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let bank = MultiLoraLinear::new("fc", Box::new(base), 2, CFG, &mut rng);
    for b in &bank.b {
        b.set_value(init::uniform(&[r, DIM], -0.5, 0.5, &mut rng));
    }
    let spec = ConvSpec::new(3, 1, 1).unwrap();
    let conv_w = init::uniform(&[3, 3, CONV[0], CONV_OUT], -0.5, 0.5, &mut rng);
    let cfg = EngineConfig { max_batch, cache_bytes, use_merged };
    let e = ServeEngine::new(w, bias, cfg)
        .with_bank(&bank)
        .with_conv_base(conv_w, None, spec)
        .with_mapping_cp(&MappingNet::new("map_cp", DIM, 16, r, &mut rng))
        .with_mapping_tr(&MappingNet::new("map_tr", DIM, 16, r * r, &mut rng));
    for id in 0..TENANTS {
        let mut u = |dims: &[usize]| init::uniform(dims, -0.5, 0.5, &mut rng);
        let scaling = CFG.scaling();
        let adapter = match id % 6 {
            0 => TenantAdapter::Lora { a: u(&[DIM, r]), b: u(&[r, DIM]), scaling },
            1 => TenantAdapter::ConvLora { a: u(&[3, 3, CONV[0], r]), b: u(&[r, CONV_OUT]), scaling },
            4 => TenantAdapter::MultiSlot { slot: (id / 6) as usize % 2 },
            // 2 and 3 generate their seed per input; 5 pins one, CP and TR in turn.
            k if k == 2 || id % 12 == 5 => TenantAdapter::MetaCp {
                a: u(&[DIM, r]),
                b: u(&[r, DIM]),
                scaling,
                pinned_seed: (k == 5).then(|| u(&[r])),
            },
            k => TenantAdapter::MetaTr {
                a: u(&[r, DIM, r]),
                b: u(&[r, DIM, r]),
                scaling,
                pinned_seed: (k == 5).then(|| u(&[r, r])),
            },
        };
        e.register(id, adapter);
    }
    e
}

/// One valid request of `rows` rows for `tenant` (kind 1 is Conv-LoRA).
fn request(tenant: u64, rows: usize, rng: &mut rand::rngs::StdRng) -> Request {
    let dims = if tenant % 6 == 1 {
        vec![rows, CONV[0], CONV[1], CONV[2]]
    } else {
        vec![rows, DIM]
    };
    Request::new(tenant, init::uniform(&dims, -1.0, 1.0, rng))
}

/// A zipf(1.1) stream over the 64 tenants with 1–4 rows per request.
fn stream(len: usize) -> Vec<Request> {
    let mut rng = init::rng(32);
    let zipf = Zipf::new(TENANTS as usize, 1.1);
    (0..len)
        .map(|i| {
            let tenant = zipf.sample(&mut rng) as u64;
            request(tenant, 1 + (i * 7 + i / 5) % 4, &mut rng)
        })
        .collect()
}

#[test]
fn warm_passes_never_miss_the_arena_and_the_pool_stops_growing() {
    let _g = lock_globals();
    let reqs = stream(192);
    let kinds: std::collections::BTreeSet<u64> = reqs.iter().map(|r| r.tenant % 6).collect();
    assert_eq!(kinds.len(), 6, "the stream must reach every tenant kind");
    for use_merged in [false, true] {
        workspace::clear();
        metalora_obs::set_enabled(true);
        metalora_obs::reset();
        let e = engine(use_merged, 16);
        let mut after = Vec::new();
        for _pass in 0..3 {
            e.process(&reqs).unwrap();
            after.push(metalora_obs::counters::snapshot());
        }
        let what = format!("merged = {use_merged}");
        assert!(after[0].workspace_misses > 0, "{what}: the warm pass allocates");
        assert!(after[2].workspace_hits > after[1].workspace_hits, "{what}");
        assert_eq!(
            after[2].workspace_misses, after[0].workspace_misses,
            "{what}: a warm pass missed the arena"
        );
        assert_eq!(
            after[2].peak_workspace_pooled_bytes, after[1].peak_workspace_pooled_bytes,
            "{what}: the pool kept growing"
        );
        assert_eq!(e.batch_count(), 3 * 12);
        // Every bias add and activation rides a GEMM store: a fixed
        // number of fused epilogues per pass, never a separate pass.
        assert_eq!(after[2].output_passes, 0, "{what}: a separate epilogue pass");
        assert!(after[0].fused_epilogues > 0, "{what}: no fused epilogues");
        assert_eq!(
            after[2].fused_epilogues - after[1].fused_epilogues,
            after[1].fused_epilogues - after[0].fused_epilogues,
            "{what}: fused epilogues per warm pass"
        );
    }
}

/// Merged weights are storage, not scratch. With a cache that holds four
/// of the stream's dense weights, every pass evicts and re-merges, and
/// still no warm pass misses the arena and the pool stops growing: a merge
/// draws no buffer from the arena and an eviction parks none in it — nor
/// does dropping every resident weight at once.
#[test]
fn evictions_and_re_merges_neither_feed_nor_drain_the_arena() {
    let _g = lock_globals();
    let reqs = stream(192);
    workspace::clear();
    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    let e = engine_with_cache(true, 16, 4 * DIM * DIM * 4);
    let mut after = Vec::new();
    for _pass in 0..3 {
        e.process(&reqs).unwrap();
        after.push((metalora_obs::counters::snapshot(), e.cache().stats()));
    }
    let (second, third) = (&after[1], &after[2]);
    assert!(third.1.evictions > second.1.evictions, "a warm pass must evict");
    assert!(third.1.misses > second.1.misses, "a warm pass must re-merge");
    assert_eq!(
        third.0.workspace_misses, after[0].0.workspace_misses,
        "a warm pass missed the arena"
    );
    assert_eq!(
        third.0.peak_workspace_pooled_bytes, second.0.peak_workspace_pooled_bytes,
        "the pool kept growing"
    );
    // Dropping every resident weight parks nothing in the arena.
    assert!(third.1.entries > 0);
    e.cache().clear();
    assert_eq!(
        metalora_obs::counters::snapshot().peak_workspace_pooled_bytes,
        third.0.peak_workspace_pooled_bytes,
        "an evicted weight entered the arena"
    );
}

#[test]
fn ragged_batches_are_bitwise_the_one_request_engine() {
    let _g = lock_globals();
    let reqs = stream(192);
    for use_merged in [false, true] {
        let solo = engine(use_merged, 1);
        let reference: Vec<Vec<u32>> =
            reqs.iter().map(|r| bits(&solo.serve_one(r).unwrap())).collect();
        let e = engine(use_merged, 16);
        // Cold arena and cold cache on the first pass, warm on the second.
        for pass in 0..2 {
            let outs = e.process(&reqs).unwrap();
            for (i, out) in outs.iter().enumerate() {
                assert_eq!(
                    bits(out),
                    reference[i],
                    "request {i} diverged (merged = {use_merged}, pass {pass})"
                );
            }
        }
    }
}

#[test]
fn tr_merges_and_tr_adapt_steps_never_call_the_einsum_oracle() {
    let _g = lock_globals();
    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    let mut rng = init::rng(34);
    // Tenant 11 pins a TR seed: merged mode folds `tr_delta` into the base.
    let e = engine(true, 16);
    e.serve_one(&request(11, 3, &mut rng)).unwrap();
    assert_eq!(e.cache().stats().misses, 1, "the pinned TR tenant must have merged");
    // One adapt step through the tape's TR module.
    let base = Linear::new("fc", DIM, DIM, &mut rng);
    let layer = MetaLoraTrLinear::new("fc", Box::new(base), CFG, &mut rng);
    let mut g = Graph::new();
    let x = g.input(init::uniform(&[4, DIM], -1.0, 1.0, &mut rng));
    let seed = g.input(init::uniform(&[4, CFG.rank * CFG.rank], -1.0, 1.0, &mut rng));
    let y = layer.forward(&mut g, x, &Ctx::with_seed(seed)).unwrap();
    let loss = g.mean_all(y).unwrap();
    g.backward(loss).unwrap();
    assert_eq!(kernel("einsum").0, 0, "a production path reached the reference oracle");
    // Two planned steps for the merge, three for the forward.
    assert_eq!(kernel("contract").0, 5);
}

/// Calls and flops of one kernel in the obs counters.
fn kernel(name: &str) -> (u64, u64) {
    let snap = metalora_obs::counters::snapshot();
    let k = snap.kernels.iter().find(|k| k.kernel == name).expect("a known kernel");
    (k.calls, k.flops)
}

#[test]
fn a_six_kind_batch_is_six_gemms_no_contraction_and_the_chains_flops() {
    let _g = lock_globals();
    let mut rng = init::rng(35);
    let e = engine(false, 16);
    // LoRA, dynamic CP, dynamic TR, bank slot, pinned CP, pinned TR.
    let ids = [0, 2, 3, 4, 5, 11];
    let batch: Vec<Request> = ids.into_iter().zip(1..).map(|(t, n)| request(t, n, &mut rng)).collect();
    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    e.serve_batch(&batch).unwrap();
    let (calls, flops) = kernel("matmul");
    // The stacked base product, two linears per mapping net, one pass.
    assert_eq!((calls, kernel("contract").0), (6, 0), "GEMM and contraction calls");
    // The per-request chains the pass replaced, run on zeros: their
    // flops follow from the shapes alone.
    metalora_obs::reset();
    let (r, z) = (CFG.rank, Tensor::zeros);
    for q in &batch {
        let (x, n) = (&q.x, q.rows());
        let shrink = || ops::matmul(x, &z(&[DIM, r])).unwrap();
        match q.tenant {
            0 | 4 => ops::matmul(&shrink(), &z(&[r, DIM])),
            2 | 5 => ops::matmul(&ops::mul(&shrink(), &z(&[n, r])).unwrap(), &z(&[r, DIM])),
            _ => contract::contract_spec("ni,xiy,yoz,nzx->no", &[x, &z(&[r, DIM, r]), &z(&[r, DIM, r]), &z(&[n, r, r])]),
        }
        .unwrap();
    }
    // Plus the base product and the mapping nets' two linears (hidden 16).
    let rows = |id| batch.iter().filter(|q| q.tenant == id).map(|q| q.rows() as u64).sum::<u64>();
    let (d, r, all) = (DIM as u64, r as u64, ids.map(rows).iter().sum::<u64>());
    let mapping = 2 * rows(2) * (d * 16 + 16 * r) + 2 * rows(3) * (d * 16 + 16 * r * r);
    assert_eq!(flops, 2 * all * d * d + mapping + kernel("matmul").1, "the pass's flops are the chains'");
}

/// One tenant of each kind (`id % 6`), plus the pinned TR tenant.
const EACH_KIND: [u64; 7] = [0, 1, 2, 3, 4, 5, 11];

#[test]
fn rank0_and_rank1_inputs_are_invalid_argument_for_every_tenant_kind() {
    let _g = lock_globals();
    for use_merged in [false, true] {
        let e = engine(use_merged, 16);
        for tenant in EACH_KIND {
            for dims in [&[][..], &[DIM]] {
                let hostile = Request::new(tenant, Tensor::zeros(dims));
                assert!(
                    matches!(e.serve_one(&hostile), Err(TensorError::InvalidArgument(_))),
                    "dims {dims:?}, tenant {tenant}, merged = {use_merged}"
                );
            }
        }
    }
}

/// Rank 3 passes the engine's rank floor and reaches the kernels, whose
/// own shape checks must refuse it.
#[test]
fn rank3_input_is_an_error_never_a_panic() {
    let _g = lock_globals();
    for use_merged in [false, true] {
        let e = engine(use_merged, 16);
        for tenant in EACH_KIND {
            let cube = Request::new(tenant, Tensor::zeros(&[2, 1, DIM]));
            assert!(e.serve_one(&cube).is_err(), "tenant {tenant}, merged = {use_merged}");
        }
    }
}

#[test]
fn rank0_input_fails_its_batch_and_the_engine_keeps_serving() {
    let _g = lock_globals();
    let mut rng = init::rng(33);
    // One dynamic CP, one dynamic TR, one pinned TR and one LoRA request.
    let valid: Vec<Request> = [2u64, 3, 11, 0]
        .iter()
        .enumerate()
        .map(|(i, &t)| request(t, 1 + i, &mut rng))
        .collect();
    for use_merged in [false, true] {
        let expected: Vec<Vec<u32>> = {
            let fresh = engine(use_merged, 16);
            valid.iter().map(|r| bits(&fresh.serve_one(r).unwrap())).collect()
        };
        let e = engine(use_merged, 16);
        // The hostile input takes each slot — and so each tenant kind — in turn.
        for slot in 0..valid.len() {
            let mut batch = valid.clone();
            batch[slot].x = Tensor::zeros(&[]);
            assert!(
                matches!(e.serve_batch(&batch), Err(TensorError::InvalidArgument(_))),
                "hostile slot {slot}, merged = {use_merged}"
            );
        }
        let outs = e.serve_batch(&valid).unwrap();
        let got: Vec<Vec<u32>> = outs.iter().map(bits).collect();
        assert_eq!(got, expected, "merged = {use_merged}");
    }
}
