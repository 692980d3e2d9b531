//! Tenant isolation under concurrency.
//!
//! Many threads hammer one shared engine — merged mode, with a cache
//! deliberately sized far below the tenant count so merged weights are
//! constantly evicted and re-merged underneath in-flight requests. Every
//! tenant's outputs must stay **bitwise identical** to a serial
//! per-tenant baseline: a hit handing out another tenant's weight, an
//! eviction freeing a weight a request still reads, or a re-merge
//! producing a different weight would all show up as a bit flip here.

use metalora_nn::Linear;
use metalora_peft::{LoraConfig, LoraLinear, MultiLoraLinear};
use metalora_serve::{EngineConfig, Request, ServeEngine, TenantAdapter};
use metalora_tensor::{init, Tensor};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

const CFG: LoraConfig = LoraConfig { rank: 2, alpha: 3.0 };
const IN: usize = 6;
const OUT: usize = 5;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Engine with a cache that holds only two merged [6, 5] weights (120
/// bytes each) — every extra tenant forces eviction + later re-merge.
fn tiny_cache_engine(seed: u64) -> (ServeEngine, u64) {
    let mut rng = init::rng(seed);
    let base = Linear::new("fc", IN, OUT, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let multi = MultiLoraLinear::new("fc", Box::new(base), 2, CFG, &mut rng);
    for b in &multi.b {
        b.set_value(init::uniform(&[CFG.rank, OUT], -0.7, 0.7, &mut rng));
    }
    let engine = ServeEngine::new(
        w,
        bias,
        EngineConfig {
            max_batch: 4,
            cache_bytes: 2 * IN * OUT * 4,
            use_merged: true,
        },
    )
    .with_bank(&multi);

    // Six plain-LoRA tenants (ids 0..6) with distinct factors, two bank
    // slots (ids 6, 7), one pinned-seed CP tenant (id 8).
    for id in 0..6u64 {
        engine.register(
            id,
            TenantAdapter::Lora {
                a: init::uniform(&[IN, CFG.rank], -1.0, 1.0, &mut rng),
                b: init::uniform(&[CFG.rank, OUT], -1.0, 1.0, &mut rng),
                scaling: CFG.scaling(),
            },
        );
    }
    engine.register(6, TenantAdapter::MultiSlot { slot: 0 });
    engine.register(7, TenantAdapter::MultiSlot { slot: 1 });
    engine.register(
        8,
        TenantAdapter::MetaCp {
            a: init::uniform(&[IN, CFG.rank], -1.0, 1.0, &mut rng),
            b: init::uniform(&[CFG.rank, OUT], -1.0, 1.0, &mut rng),
            scaling: CFG.scaling(),
            pinned_seed: Some(init::uniform(&[CFG.rank], -1.0, 1.0, &mut rng)),
        },
    );
    (engine, 9)
}

fn stream_for(tenant: u64, len: usize) -> Vec<Request> {
    let mut rng = init::rng(1000 + tenant);
    (0..len)
        .map(|_| Request::new(tenant, init::uniform(&[2, IN], -1.0, 1.0, &mut rng)))
        .collect()
}

#[test]
fn concurrent_tenants_never_cross_contaminate() {
    let (engine, tenants) = tiny_cache_engine(7);
    let streams: Vec<Vec<Request>> = (0..tenants).map(|t| stream_for(t, 24)).collect();

    // Serial per-tenant baseline. Cache state does not affect values, so
    // computing it on the same engine is fine.
    let baselines: Vec<Vec<Vec<u32>>> = streams
        .iter()
        .map(|s| {
            s.iter()
                .map(|r| bits(&engine.serve_one(r).unwrap()))
                .collect()
        })
        .collect();

    // All tenants at once, several passes each, against the 2-entry cache.
    std::thread::scope(|scope| {
        for (t, stream) in streams.iter().enumerate() {
            let engine = &engine;
            let baseline = &baselines[t];
            scope.spawn(move || {
                for _pass in 0..3 {
                    for (i, req) in stream.iter().enumerate() {
                        let y = engine.serve_one(req).unwrap();
                        assert_eq!(
                            bits(&y),
                            baseline[i],
                            "tenant {t} request {i} diverged under concurrency"
                        );
                    }
                }
            });
        }
    });

    let stats = engine.cache().stats();
    assert!(
        stats.evictions > 0,
        "cache churn expected (9 tenants, 2-entry cache): {stats:?}"
    );
}

#[test]
fn reregistration_races_do_not_leak_into_other_tenants() {
    let (engine, _) = tiny_cache_engine(8);
    let streams: Vec<Vec<Request>> = (0..6u64).map(|t| stream_for(t, 16)).collect();
    let baselines: Vec<Vec<Vec<u32>>> = streams
        .iter()
        .map(|s| {
            s.iter()
                .map(|r| bits(&engine.serve_one(r).unwrap()))
                .collect()
        })
        .collect();

    // Tenant 5 is re-registered with fresh factors in a tight loop while
    // tenants 0..5 serve; their outputs must not move by a single bit.
    // The churn loop keeps spinning until every serving thread reports
    // done, so re-registrations overlap the whole serving window.
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let done_ref = &done;
        let churn = scope.spawn(move || {
            let mut rng = init::rng(999);
            let mut registrations = 0u64;
            while !done_ref.load(Relaxed) || registrations < 8 {
                engine_ref.register(
                    5,
                    TenantAdapter::Lora {
                        a: init::uniform(&[IN, CFG.rank], -1.0, 1.0, &mut rng),
                        b: init::uniform(&[CFG.rank, OUT], -1.0, 1.0, &mut rng),
                        scaling: CFG.scaling(),
                    },
                );
                engine_ref.cache().purge_tenant(5);
                registrations += 1;
            }
        });
        let servers: Vec<_> = (0..5usize)
            .map(|t| {
                let engine = &engine;
                let stream = &streams[t];
                let baseline = &baselines[t];
                scope.spawn(move || {
                    for _pass in 0..4 {
                        for (i, req) in stream.iter().enumerate() {
                            let y = engine.serve_one(req).unwrap();
                            assert_eq!(
                                bits(&y),
                                baseline[i],
                                "tenant {t} request {i} perturbed by tenant 5 churn"
                            );
                        }
                    }
                })
            })
            .collect();
        for s in servers {
            s.join().unwrap();
        }
        done.store(true, Relaxed);
        churn.join().unwrap();
    });

    // A post-race serve of tenant 5 uses its *latest* registration.
    let latest = engine.store().get(5).unwrap();
    assert!(latest.version > 1, "churn thread re-registered tenant 5");
    let y = engine
        .serve_one(&Request::new(5, stream_for(5, 1)[0].x.clone()))
        .unwrap();
    assert_eq!(y.dims(), &[2, OUT]);
}

/// A fresh LoRA module snapshot and a hand-rolled tenant built from the
/// same values serve identically — the store really is value-snapshot
/// based (no aliasing back into training-side parameter cells).
#[test]
fn snapshots_are_decoupled_from_training_cells() {
    let mut rng = init::rng(9);
    let base = Linear::new("fc", IN, OUT, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let lora = LoraLinear::new("fc", Box::new(base), CFG, &mut rng);
    lora.b.set_value(init::uniform(&[CFG.rank, OUT], -0.7, 0.7, &mut rng));

    let engine = ServeEngine::new(w, bias, EngineConfig::default());
    engine.register(1, TenantAdapter::from_lora(&lora));
    let req = Request::new(1, init::uniform(&[2, IN], -1.0, 1.0, &mut rng));
    let before = bits(&engine.serve_one(&req).unwrap());

    // Mutating the training-side cell after registration must not change
    // what the engine serves.
    lora.b.set_value(Tensor::zeros(&[CFG.rank, OUT]));
    engine.cache().clear();
    let after = bits(&engine.serve_one(&req).unwrap());
    assert_eq!(before, after, "registered snapshot aliased training cell");
}
