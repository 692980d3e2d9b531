//! The stacked batch's unhappy path.
//!
//! Every request served factored over the dense base takes its rows from
//! one stacked `x·W` per batch, and dynamic MetaLoRA rows share one stacked
//! mapping-net forward — so a malformed or poisoned request sits in the
//! same matrices as its neighbours. Pinned here, for a factored engine and
//! for a merged engine whose dynamic tenants ride the stack while its
//! cacheable ones take their merged weights (both arms in one batch):
//!
//! * a wrong-width request fails its batch with a typed `Err` — naming the
//!   request when it rides the stack — before anything is stacked, never a
//!   panic, and the engine serves the next batch as if nothing happened;
//! * a `[0, I]` request returns `[0, O]` and disturbs no neighbour;
//! * NaN / ±Inf rows stay in their own request: its outputs carry them,
//!   every neighbour's output is **bitwise** its solo output;
//! * an empty batch is a no-op: no count moves, no telemetry series is
//!   minted;
//! * a merged engine whose cache can hold nothing (zero bytes, or one byte
//!   short of a single entry) serves every request as a miss, **bitwise**
//!   what a roomy cache serves, across re-registration;
//! * a tenant registered and deregistered in a loop, between two adapters,
//!   while its batches are served: each batch returns outputs each
//!   bitwise one adapter's solo output, or the unknown-tenant `Err`, and
//!   the engine keeps serving.

use metalora_nn::Linear;
use metalora_peft::meta::MappingNet;
use metalora_peft::{LoraConfig, MultiLoraLinear};
use metalora_serve::{EngineConfig, Request, ServeEngine, TenantAdapter};
use metalora_tensor::{init, Tensor, TensorError};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

const CFG: LoraConfig = LoraConfig { rank: 2, alpha: 3.0 };
const DIM: usize = 48;
const KINDS: u64 = 6;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// One tenant of each dense kind, by id: LoRA, bank slot, pinned CP,
/// pinned TR, dynamic CP, dynamic TR. In merged mode ids 0–3 are served
/// from the cache and ids 4–5 ride the stacked base product.
fn engine(use_merged: bool, max_batch: usize) -> ServeEngine {
    engine_with_cache(use_merged, max_batch, 1 << 20)
}

fn engine_with_cache(use_merged: bool, max_batch: usize, cache_bytes: usize) -> ServeEngine {
    let mut rng = init::rng(91);
    let r = CFG.rank;
    let base = Linear::new("fc", DIM, DIM, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let bank = MultiLoraLinear::new("fc", Box::new(base), 2, CFG, &mut rng);
    for b in &bank.b {
        b.set_value(init::uniform(&[r, DIM], -0.5, 0.5, &mut rng));
    }
    let cfg = EngineConfig { max_batch, cache_bytes, use_merged };
    let e = ServeEngine::new(w, bias, cfg)
        .with_bank(&bank)
        .with_mapping_cp(&MappingNet::new("map_cp", DIM, 8, r, &mut rng))
        .with_mapping_tr(&MappingNet::new("map_tr", DIM, 8, r * r, &mut rng));
    let scaling = CFG.scaling();
    for id in 0..KINDS {
        let mut u = |dims: &[usize]| init::uniform(dims, -0.5, 0.5, &mut rng);
        let adapter = match id {
            0 => TenantAdapter::Lora { a: u(&[DIM, r]), b: u(&[r, DIM]), scaling },
            1 => TenantAdapter::MultiSlot { slot: 0 },
            2 | 4 => TenantAdapter::MetaCp {
                a: u(&[DIM, r]),
                b: u(&[r, DIM]),
                scaling,
                pinned_seed: (id == 2).then(|| u(&[r])),
            },
            _ => TenantAdapter::MetaTr {
                a: u(&[r, DIM, r]),
                b: u(&[r, DIM, r]),
                scaling,
                pinned_seed: (id == 3).then(|| u(&[r, r])),
            },
        };
        e.register(id, adapter);
    }
    e
}

/// A full batch: 16 requests of 1–4 rows, the six kinds in turn.
fn batch() -> Vec<Request> {
    let mut rng = init::rng(92);
    (0..16)
        .map(|i| Request::new(i as u64 % KINDS, init::uniform(&[1 + i % 4, DIM], -1.0, 1.0, &mut rng)))
        .collect()
}

/// What a fresh `max_batch = 1` engine returns for each request alone.
fn solo_bits(use_merged: bool, reqs: &[Request]) -> Vec<Vec<u32>> {
    let solo = engine(use_merged, 1);
    reqs.iter().map(|r| bits(&solo.serve_one(r).unwrap())).collect()
}

#[test]
fn a_wrong_width_request_fails_its_batch_and_the_engine_keeps_serving() {
    let valid = batch();
    for use_merged in [false, true] {
        let expected = solo_bits(use_merged, &valid);
        let e = engine(use_merged, 16);
        // The hostile input takes each of the first six slots — and so each
        // tenant kind — in turn, too narrow and too wide.
        for slot in 0..KINDS as usize {
            for width in [DIM - 1, DIM + 1] {
                let mut hostile = valid.clone();
                hostile[slot].x = Tensor::zeros(&[2, width]);
                let err = e.serve_batch(&hostile).expect_err("a wrong-width request must not be served");
                let what = format!("slot {slot}, width {width}, merged = {use_merged}: {err:?}");
                // Cacheable tenants of a merged engine run their own GEMM
                // and fail there; everything else fails up front, by name.
                if !use_merged || slot >= 4 {
                    let TensorError::InvalidArgument(msg) = &err else { panic!("{what}") };
                    assert!(msg.contains(&format!("request {slot} ")), "{what}");
                }
            }
        }
        let got: Vec<Vec<u32>> = e.serve_batch(&valid).unwrap().iter().map(bits).collect();
        assert_eq!(got, expected, "merged = {use_merged}: the batch after the failures");
    }
}

#[test]
fn a_zero_row_request_returns_zero_rows_and_disturbs_no_neighbour() {
    let valid = batch();
    for use_merged in [false, true] {
        let expected = solo_bits(use_merged, &valid);
        let e = engine(use_merged, 16);
        for kind in 0..KINDS {
            // [normal, empty, normal], and the empty request inside a full batch.
            let empty = Request::new(kind, Tensor::zeros(&[0, DIM]));
            let trio = [valid[0].clone(), empty.clone(), valid[5].clone()];
            let outs = e.serve_batch(&trio).unwrap();
            let what = format!("kind {kind}, merged = {use_merged}");
            assert_eq!(outs[1].dims(), &[0, DIM], "{what}");
            assert_eq!(bits(&outs[0]), expected[0], "{what}");
            assert_eq!(bits(&outs[2]), expected[5], "{what}");

            let mut full = valid.clone();
            full[7] = empty;
            let outs = e.serve_batch(&full).unwrap();
            assert_eq!(outs[7].dims(), &[0, DIM], "{what}");
            for (i, out) in outs.iter().enumerate().filter(|(i, _)| *i != 7) {
                assert_eq!(bits(out), expected[i], "{what}: neighbour {i}");
            }
        }
        // A batch of nothing but an empty request is still a batch.
        let lone = e.serve_one(&Request::new(4, Tensor::zeros(&[0, DIM]))).unwrap();
        assert_eq!(lone.dims(), &[0, DIM], "merged = {use_merged}");
    }
}

#[test]
fn non_finite_rows_stay_in_their_own_request() {
    let valid = batch();
    for use_merged in [false, true] {
        let expected = solo_bits(use_merged, &valid);
        let e = engine(use_merged, 16);
        for slot in 0..KINDS as usize {
            for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut hostile = valid.clone();
                // One poisoned element in every row of the hostile request.
                for row in hostile[slot].x.data_mut().chunks_mut(DIM) {
                    row[slot] = poison;
                }
                let outs = e.serve_batch(&hostile).unwrap();
                let what = format!("slot {slot}, poison {poison}, merged = {use_merged}");
                for (i, out) in outs.iter().enumerate() {
                    if i == slot {
                        assert_eq!(out.dims(), valid[i].x.dims(), "{what}");
                        assert!(out.data().iter().all(|v| !v.is_finite()), "{what}: poison vanished");
                    } else {
                        assert_eq!(bits(out), expected[i], "{what}: neighbour {i} was disturbed");
                    }
                }
            }
        }
        // Nothing lingers — not in the arena, not in the merged cache.
        let got: Vec<Vec<u32>> = e.serve_batch(&valid).unwrap().iter().map(bits).collect();
        assert_eq!(got, expected, "merged = {use_merged}: the batch after the poison");
    }
}

#[test]
fn an_empty_batch_is_a_no_op() {
    use metalora_obs::registry;
    // Telemetry on, so a `size=0` series would be minted if the batch
    // were accounted; it is passive for the tests running beside this one.
    metalora_obs::set_enabled(true);
    registry::set_enabled(true);
    for use_merged in [false, true] {
        let e = engine(use_merged, 16);
        e.serve_batch(&batch()).unwrap();
        let before = (e.batch_count(), e.request_count(), e.cache().stats());
        assert!(e.serve_batch(&[]).unwrap().is_empty(), "merged = {use_merged}");
        assert!(e.process(&[]).unwrap().is_empty(), "merged = {use_merged}");
        let after = (e.batch_count(), e.request_count(), e.cache().stats());
        assert_eq!(after, before, "merged = {use_merged}");
    }
    let minted = registry::snapshot()
        .rows
        .iter()
        .any(|r| r.name == "serve_batches_by_size_total" && r.label == "size=0");
    registry::set_enabled(false);
    metalora_obs::set_enabled(false);
    assert!(!minted, "an empty batch minted a size=0 series");
}

#[test]
fn a_cache_that_can_hold_nothing_serves_every_request_as_a_miss() {
    let valid = batch();
    // Ids 0–3 are cacheable; one lookup each per request.
    let lookups = valid.iter().filter(|r| r.tenant < 4).count() as u64;
    let roomy = engine_with_cache(true, 16, 64 << 20);
    // Nothing at all, and one byte short of a single `[I, O]` entry.
    let starved = [0, 4 * DIM * DIM - 1].map(|bytes| engine_with_cache(true, 16, bytes));
    for pass in 1..=3u64 {
        if pass == 3 {
            // Re-registration: tenant 0 comes back with new factors.
            let mut rng = init::rng(93);
            let adapter = TenantAdapter::Lora {
                a: init::uniform(&[DIM, CFG.rank], -0.5, 0.5, &mut rng),
                b: init::uniform(&[CFG.rank, DIM], -0.5, 0.5, &mut rng),
                scaling: CFG.scaling(),
            };
            for e in starved.iter().chain([&roomy]) {
                e.register(0, adapter.clone());
            }
        }
        let want: Vec<Vec<u32>> = roomy.serve_batch(&valid).unwrap().iter().map(bits).collect();
        for e in &starved {
            let what = format!("pass {pass}, cache_bytes = {}", e.cache().capacity_bytes());
            let got: Vec<Vec<u32>> = e.serve_batch(&valid).unwrap().iter().map(bits).collect();
            assert_eq!(got, want, "{what}");
            let s = e.cache().stats();
            assert_eq!((s.hits, s.misses, s.evictions), (0, pass * lookups, 0), "{what}");
            assert_eq!((s.entries, s.bytes), (0, 0), "{what}");
        }
    }
    // The comparison ran against a cache that does hold its entries.
    let s = roomy.cache().stats();
    assert!(s.hits > 0 && s.entries > 0, "{s:?}");
}

#[test]
fn re_registration_mid_batch_serves_one_adapter_or_a_typed_error() {
    // Tenant 0 (LoRA: cached in merged mode, stacked in factored mode)
    // flips between two adapters, deregistered in between.
    const CHURN: u64 = 0;
    let mut rng = init::rng(94);
    let mut lora = || TenantAdapter::Lora {
        a: init::uniform(&[DIM, CFG.rank], -0.5, 0.5, &mut rng),
        b: init::uniform(&[CFG.rank, DIM], -0.5, 0.5, &mut rng),
        scaling: CFG.scaling(),
    };
    let adapters = [lora(), lora()];
    let valid = batch();
    for use_merged in [false, true] {
        // Every request's solo output under each adapter (the other
        // tenants' are the same under both).
        let solo: Vec<Vec<Vec<u32>>> = adapters
            .iter()
            .map(|adapter| {
                let e = engine(use_merged, 1);
                e.register(CHURN, adapter.clone());
                valid.iter().map(|r| bits(&e.serve_one(r).unwrap())).collect()
            })
            .collect();
        assert_ne!(solo[0][0], solo[1][0], "the two adapters must be told apart");
        let e = engine(use_merged, 16);
        e.register(CHURN, adapters[0].clone());
        let done = AtomicBool::new(false);
        let (mut served, mut refused) = (0, 0);
        std::thread::scope(|s| {
            // Stops the churn however the loop below ends, a failed
            // assertion included (the scope joins the churn thread).
            struct Stop<'a>(&'a AtomicBool);
            impl Drop for Stop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Relaxed);
                }
            }
            let _stop = Stop(&done);
            s.spawn(|| {
                // Paced, so the serving thread's store reads are not
                // starved by a writer that never lets go of the lock.
                let pause = || std::thread::sleep(std::time::Duration::from_micros(20));
                while !done.load(Relaxed) {
                    for adapter in &adapters {
                        e.register(CHURN, adapter.clone());
                        pause();
                        e.deregister(CHURN);
                        pause();
                    }
                }
            });
            // Until both outcomes have shown up (bounded: how the two
            // threads interleave is up to the scheduler).
            for round in 0..5_000 {
                if served >= 10 && refused >= 10 {
                    break;
                }
                let what = format!("merged = {use_merged}, round {round}");
                match e.serve_batch(&valid) {
                    Ok(outs) => {
                        served += 1;
                        for (i, out) in outs.iter().enumerate() {
                            let got = bits(out);
                            assert!(
                                solo.iter().any(|s| s[i] == got),
                                "{what}: request {i} (tenant {}) is neither adapter's answer",
                                valid[i].tenant
                            );
                        }
                    }
                    Err(err) => {
                        refused += 1;
                        let TensorError::InvalidArgument(msg) = &err else { panic!("{what}: {err:?}") };
                        assert!(msg.contains(&format!("unknown tenant id {CHURN}")), "{what}: {msg}");
                    }
                }
            }
        });
        // Settled on one adapter, the engine serves it.
        e.register(CHURN, adapters[1].clone());
        let got: Vec<Vec<u32>> = e.serve_batch(&valid).unwrap().iter().map(bits).collect();
        assert_eq!(
            got, solo[1],
            "merged = {use_merged}: after {served} served and {refused} refused batches"
        );
    }
}
