//! Batched seed generation ≡ one-request-at-a-time, **bitwise**.
//!
//! The engine amortises mapping-net work by stacking all dynamic
//! MetaLoRA rows of a batch into one `[ΣN, D]` forward. Because the
//! kernel layer computes matmul rows independently with a fixed
//! accumulation order, every request's seed — and therefore its output —
//! must be bitwise identical to what a `max_batch = 1` engine produces,
//! for ragged batch sizes and mixed CP/TR/static tenant interleavings.
//!
//! The same holds for the base product: every request served factored
//! over the dense base takes its rows from one stacked `x·W` per batch.
//! The stack may cross the kernel's pack gate that a lone request stays
//! under (reference kernel solo, packed kernel stacked) — both kernels
//! give every output row its full increasing-k accumulation, so stacked ≡
//! solo holds across the gate too, for all six tenant kinds.

use metalora_nn::Linear;
use metalora_peft::meta::{MappingNet, MetaLoraCpLinear, MetaLoraTrLinear};
use metalora_peft::{LoraConfig, LoraLinear, MultiLoraLinear};
use metalora_serve::{EngineConfig, Request, ServeEngine, TenantAdapter};
use metalora_tensor::ops::PACK_MIN_FLOPS;
use metalora_tensor::{init, Tensor};

const CFG: LoraConfig = LoraConfig { rank: 2, alpha: 3.0 };
const IN: usize = 6;
const OUT: usize = 4;

/// The obs counters are process-global; serialize the tests in this file
/// so the counter-asserting one observes only its own traffic.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// An engine with one dynamic CP tenant (id 0), one dynamic TR tenant
/// (id 1), and one static LoRA tenant (id 2), factored mode.
fn engine(max_batch: usize) -> ServeEngine {
    let mut rng = init::rng(77);
    let base = Linear::new("fc", IN, OUT, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));

    let cp = MetaLoraCpLinear::new("fc", Box::new(base), CFG, &mut rng);
    cp.b.set_value(init::uniform(&[CFG.rank, OUT], -0.6, 0.6, &mut rng));
    let base_tr = Linear::new("fc_tr", IN, OUT, &mut rng);
    let tr = MetaLoraTrLinear::new("fc_tr", Box::new(base_tr), CFG, &mut rng);
    tr.b.set_value(init::uniform(
        &[CFG.rank, OUT, CFG.rank],
        -0.6,
        0.6,
        &mut rng,
    ));
    let base_lora = Linear::new("fc_l", IN, OUT, &mut rng);
    let lora = LoraLinear::new("fc_l", Box::new(base_lora), CFG, &mut rng);
    lora.b.set_value(init::uniform(&[CFG.rank, OUT], -0.6, 0.6, &mut rng));

    let map_cp = MappingNet::new("map_cp", IN, 8, CFG.rank, &mut rng);
    let map_tr = MappingNet::new("map_tr", IN, 8, CFG.rank * CFG.rank, &mut rng);

    let e = ServeEngine::new(
        w,
        bias,
        EngineConfig {
            max_batch,
            cache_bytes: 1 << 20,
            use_merged: false,
        },
    )
    .with_mapping_cp(&map_cp)
    .with_mapping_tr(&map_tr);
    e.register(0, TenantAdapter::from_meta_cp(&cp, None));
    e.register(1, TenantAdapter::from_meta_tr(&tr, None));
    e.register(2, TenantAdapter::from_lora(&lora));
    e
}

/// Mixed-tenant, ragged-row request stream (1–3 rows per request).
fn stream(len: usize) -> Vec<Request> {
    let mut rng = init::rng(555);
    (0..len)
        .map(|i| {
            let rows = 1 + i % 3;
            Request::new(
                (i % 3) as u64,
                init::uniform(&[rows, IN], -1.0, 1.0, &mut rng),
            )
        })
        .collect()
}

#[test]
fn batched_outputs_match_single_request_bitwise() {
    let _l = lock();
    let reqs = stream(23);
    // Reference: a max_batch = 1 engine serves each request alone, so
    // every mapping-net forward sees exactly one request's rows.
    let solo = engine(1);
    let reference: Vec<Vec<u32>> = reqs.iter().map(|r| bits(&solo.serve_one(r).unwrap())).collect();

    for max_batch in [1usize, 3, 7, 16] {
        let e = engine(max_batch);
        let outs = e.process(&reqs).unwrap();
        assert_eq!(outs.len(), reqs.len());
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(
                bits(out),
                reference[i],
                "request {i} diverged at max_batch={max_batch}"
            );
        }
        // 23 requests chunk into ⌈23 / max_batch⌉ batches.
        assert_eq!(e.batch_count(), (23usize).div_ceil(max_batch) as u64);
    }
}

#[test]
fn one_mapping_forward_per_format_per_batch() {
    let _l = lock();
    // All 6 requests are dynamic-CP → with max_batch = 6 the engine must
    // stack them into a single mapping forward of Σ rows.
    let reqs: Vec<Request> = stream(18)
        .into_iter()
        .filter(|r| r.tenant == 0)
        .collect();
    assert_eq!(reqs.len(), 6);
    let total_rows: usize = reqs.iter().map(|r| r.x.dims()[0]).sum();

    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    let e = engine(6);
    let outs = e.process(&reqs).unwrap();
    assert_eq!(outs.len(), 6);
    let counters = metalora_obs::counters::snapshot();
    assert_eq!(counters.serve_batches, 1, "one batch expected");
    assert_eq!(
        counters.serve_seed_rows, total_rows as u64,
        "all dynamic rows through one amortised mapping forward"
    );

    // Same stream, unbatched: identical outputs, one seed forward each.
    metalora_obs::reset();
    let solo = engine(1);
    for (i, r) in reqs.iter().enumerate() {
        assert_eq!(bits(&solo.serve_one(r).unwrap()), bits(&outs[i]));
    }
    let counters = metalora_obs::counters::snapshot();
    assert_eq!(counters.serve_batches, 6);
    assert_eq!(counters.serve_seed_rows, total_rows as u64);
    metalora_obs::set_enabled(false);
}

#[test]
fn ragged_tail_is_flushed_in_order() {
    let _l = lock();
    let reqs = stream(7);
    let e = engine(16); // batch never fills — everything rides the flush
    let outs = e.process(&reqs).unwrap();
    assert_eq!(outs.len(), 7);
    assert_eq!(e.batch_count(), 1);
    let solo = engine(1);
    for (i, r) in reqs.iter().enumerate() {
        assert_eq!(bits(&outs[i]), bits(&solo.serve_one(r).unwrap()), "request {i}");
    }
}

/// A factored engine over a `[dim, dim]` base with one tenant of each of
/// the six dense kinds, by id: LoRA, bank slot, pinned CP, pinned TR,
/// dynamic CP, dynamic TR.
fn six_kind_engine(dim: usize, max_batch: usize) -> ServeEngine {
    let mut rng = init::rng(78);
    let r = CFG.rank;
    let base = Linear::new("fc", dim, dim, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let bank = MultiLoraLinear::new("fc", Box::new(base), 2, CFG, &mut rng);
    for b in &bank.b {
        b.set_value(init::uniform(&[r, dim], -0.5, 0.5, &mut rng));
    }
    let cfg = EngineConfig { max_batch, cache_bytes: 0, use_merged: false };
    let e = ServeEngine::new(w, bias, cfg)
        .with_bank(&bank)
        .with_mapping_cp(&MappingNet::new("map_cp", dim, 8, r, &mut rng))
        .with_mapping_tr(&MappingNet::new("map_tr", dim, 8, r * r, &mut rng));
    let scaling = CFG.scaling();
    for id in 0..6u64 {
        let mut u = |dims: &[usize]| init::uniform(dims, -0.5, 0.5, &mut rng);
        let adapter = match id {
            0 => TenantAdapter::Lora { a: u(&[dim, r]), b: u(&[r, dim]), scaling },
            1 => TenantAdapter::MultiSlot { slot: 1 },
            2 | 4 => TenantAdapter::MetaCp {
                a: u(&[dim, r]),
                b: u(&[r, dim]),
                scaling,
                pinned_seed: (id == 2).then(|| u(&[r])),
            },
            _ => TenantAdapter::MetaTr {
                a: u(&[r, dim, r]),
                b: u(&[r, dim, r]),
                scaling,
                pinned_seed: (id == 3).then(|| u(&[r, r])),
            },
        };
        e.register(id, adapter);
    }
    e
}

#[test]
fn stacked_base_product_matches_solo_bitwise_across_the_pack_gate() {
    let _l = lock();
    // 37 requests of 1–3 rows, the six kinds in turn.
    let stream = |dim: usize| -> Vec<Request> {
        let mut rng = init::rng(556);
        (0..37)
            .map(|i| Request::new(i as u64 % 6, init::uniform(&[1 + i % 3, dim], -1.0, 1.0, &mut rng)))
            .collect()
    };
    // At 32×32 a lone request's `x·W` is under the pack gate and a full
    // 16-request stack (32 rows) over it; at 256×256 both are over.
    let base_flops = |rows: usize, dim: usize| 2 * rows * dim * dim;
    assert!(base_flops(3, 32) < PACK_MIN_FLOPS && base_flops(32, 32) >= PACK_MIN_FLOPS);
    assert!(base_flops(1, 256) >= PACK_MIN_FLOPS);
    for dim in [32usize, 256] {
        let reqs = stream(dim);
        let solo = six_kind_engine(dim, 1);
        let reference: Vec<Vec<u32>> =
            reqs.iter().map(|r| bits(&solo.serve_one(r).unwrap())).collect();
        for max_batch in [1usize, 3, 7, 16] {
            let e = six_kind_engine(dim, max_batch);
            let outs = e.process(&reqs).unwrap();
            for (i, out) in outs.iter().enumerate() {
                assert_eq!(out.dims(), &[reqs[i].rows(), dim]);
                assert_eq!(
                    bits(out),
                    reference[i],
                    "request {i} (kind {}) diverged at dim={dim}, max_batch={max_batch}",
                    reqs[i].tenant
                );
            }
        }
    }
}
