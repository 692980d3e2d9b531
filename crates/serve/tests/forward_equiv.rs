//! Forward-only serving ≡ training-mode tape forward, **bitwise**.
//!
//! For every adapter method — plain LoRA, Conv-LoRA, MetaLoRA-CP and
//! MetaLoRA-TR (dynamic and pinned-seed), and a `peft::multi` bank slot —
//! the engine's tape-free path (`use_merged: false`) must reproduce the
//! recording-tape `Module::forward` bit for bit, at `METALORA_THREADS ∈
//! {1, 2, 4}` (each test scopes its worker count to its own thread, so
//! the suite needs no lock). This holds because every element gets the
//! same scalar sequence on both sides — the tape's `ops::` chain, and the
//! engine's low-rank pass that reproduces it — and the kernel layer keeps
//! a fixed per-element accumulation order regardless of the thread count.

use metalora_autograd::Graph;
use metalora_nn::{Conv2d, ConvLike, Ctx, Linear, Module};
use metalora_peft::meta::{MappingNet, MetaLoraCpLinear, MetaLoraTrLinear};
use metalora_peft::{ConvLora, LoraConfig, LoraLinear, MultiLoraLinear};
use metalora_serve::forward::tile_seed;
use metalora_serve::{EngineConfig, Request, ServeEngine, TenantAdapter};
use metalora_tensor::{init, par, Tensor};

const CFG: LoraConfig = LoraConfig { rank: 2, alpha: 3.0 };
const THREADS: [usize; 3] = [1, 2, 4];

/// Runs `f(t)` with this thread's worker count scoped to each of
/// [`THREADS`].
fn at_each_thread_count(f: impl Fn(usize)) {
    for t in THREADS {
        par::with_num_threads(t, || f(t));
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_bitwise(tape: &Tensor, served: &Tensor, what: &str, threads: usize) {
    assert_eq!(tape.dims(), served.dims(), "{what} dims at t={threads}");
    assert_eq!(bits(tape), bits(served), "{what} bitwise at t={threads}");
}

/// Engine in factored mode (bitwise path; merging is the approximate one).
fn factored_engine(w: Tensor, b: Option<Tensor>) -> ServeEngine {
    ServeEngine::new(
        w,
        b,
        EngineConfig {
            max_batch: 4,
            cache_bytes: 1 << 20,
            use_merged: false,
        },
    )
}

#[test]
fn lora_serving_matches_tape_bitwise() {
    let mut rng = init::rng(101);
    let base = Linear::new("fc", 6, 5, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let lora = LoraLinear::new("fc", Box::new(base), CFG, &mut rng);
    lora.b.set_value(init::uniform(&[CFG.rank, 5], -0.7, 0.7, &mut rng));
    let x = init::uniform(&[3, 6], -1.0, 1.0, &mut rng);

    let engine = factored_engine(w, bias);
    engine.register(1, TenantAdapter::from_lora(&lora));

    at_each_thread_count(|t| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let y = lora.forward(&mut g, xv, &Ctx::none()).unwrap();
        let tape = g.value(y);
        let served = engine.serve_one(&Request::new(1, x.clone())).unwrap();
        assert_bitwise(&tape, &served, "lora", t);
    });
}

#[test]
fn conv_lora_serving_matches_tape_bitwise() {
    let mut rng = init::rng(102);
    let base = Conv2d::new("c", 2, 3, 3, 1, 1, &mut rng).unwrap();
    let (w, bias, spec) = (
        base.weight().value(),
        base.bias().map(|b| b.value()),
        base.spec(),
    );
    let cl = ConvLora::new("c", Box::new(base), CFG, &mut rng);
    cl.b.set_value(init::uniform(&[CFG.rank, 3], -0.5, 0.5, &mut rng));
    let x = init::uniform(&[2, 2, 5, 5], -1.0, 1.0, &mut rng);

    let engine =
        factored_engine(Tensor::zeros(&[1, 1]), None).with_conv_base(w, bias, spec);
    engine.register(1, TenantAdapter::from_conv_lora(&cl));

    at_each_thread_count(|t| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let y = cl.forward(&mut g, xv, &Ctx::none()).unwrap();
        let tape = g.value(y);
        let served = engine.serve_one(&Request::new(1, x.clone())).unwrap();
        assert_bitwise(&tape, &served, "conv_lora", t);
    });
}

#[test]
fn dynamic_meta_cp_serving_matches_tape_bitwise() {
    let mut rng = init::rng(103);
    let base = Linear::new("fc", 6, 4, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let cp = MetaLoraCpLinear::new("fc", Box::new(base), CFG, &mut rng);
    cp.b.set_value(init::uniform(&[CFG.rank, 4], -0.6, 0.6, &mut rng));
    // The engine feeds raw request rows to the mapping net: in_dim = 6.
    let mapping = MappingNet::new("map", 6, 8, CFG.rank, &mut rng);
    let x = init::uniform(&[3, 6], -1.0, 1.0, &mut rng);

    let engine = factored_engine(w, bias).with_mapping_cp(&mapping);
    engine.register(1, TenantAdapter::from_meta_cp(&cp, None));

    at_each_thread_count(|t| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let sv = mapping.generate(&mut g, xv).unwrap();
        let y = cp.forward(&mut g, xv, &Ctx::with_seed(sv)).unwrap();
        let tape = g.value(y);
        let served = engine.serve_one(&Request::new(1, x.clone())).unwrap();
        assert_bitwise(&tape, &served, "meta_cp dynamic", t);
    });
}

#[test]
fn dynamic_meta_tr_serving_matches_tape_bitwise() {
    let mut rng = init::rng(104);
    let base = Linear::new("fc", 5, 4, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let tr = MetaLoraTrLinear::new("fc", Box::new(base), CFG, &mut rng);
    tr.b.set_value(init::uniform(
        &[CFG.rank, 4, CFG.rank],
        -0.6,
        0.6,
        &mut rng,
    ));
    let mapping = MappingNet::new("map", 5, 8, CFG.rank * CFG.rank, &mut rng);
    let x = init::uniform(&[4, 5], -1.0, 1.0, &mut rng);

    let engine = factored_engine(w, bias).with_mapping_tr(&mapping);
    engine.register(1, TenantAdapter::from_meta_tr(&tr, None));

    at_each_thread_count(|t| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let sv = mapping.generate(&mut g, xv).unwrap();
        let y = tr.forward(&mut g, xv, &Ctx::with_seed(sv)).unwrap();
        let tape = g.value(y);
        let served = engine.serve_one(&Request::new(1, x.clone())).unwrap();
        assert_bitwise(&tape, &served, "meta_tr dynamic", t);
    });
}

#[test]
fn pinned_seed_meta_serving_matches_tape_bitwise() {
    let mut rng = init::rng(105);
    let base = Linear::new("fc", 6, 4, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let cp = MetaLoraCpLinear::new("fc", Box::new(base), CFG, &mut rng);
    cp.b.set_value(init::uniform(&[CFG.rank, 4], -0.6, 0.6, &mut rng));
    let base2 = Linear::new("fc2", 6, 4, &mut rng);
    let tr = MetaLoraTrLinear::new("fc2", Box::new(base2), CFG, &mut rng);
    tr.b.set_value(init::uniform(
        &[CFG.rank, 4, CFG.rank],
        -0.6,
        0.6,
        &mut rng,
    ));
    let c_cp = init::uniform(&[CFG.rank], -1.0, 1.0, &mut rng);
    // TR pinned seeds are stored `[R, R]` (the `tr_delta` layout);
    // `tile_seed` flattens them row-major into the `[N, R·R]` rows the
    // factored forward consumes.
    let c_tr = init::uniform(&[CFG.rank, CFG.rank], -1.0, 1.0, &mut rng);
    let x = init::uniform(&[3, 6], -1.0, 1.0, &mut rng);

    // Only the CP tenant shares the engine base; TR pinned math is checked
    // against its own tape below with that base's engine.
    let engine = factored_engine(w, bias);
    engine.register(1, TenantAdapter::from_meta_cp(&cp, Some(c_cp.clone())));

    at_each_thread_count(|t| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let sv = g.input(tile_seed(&c_cp, 3).unwrap());
        let y = cp.forward(&mut g, xv, &Ctx::with_seed(sv)).unwrap();
        let tape = g.value(y);
        let served = engine.serve_one(&Request::new(1, x.clone())).unwrap();
        assert_bitwise(&tape, &served, "meta_cp pinned", t);
    });

    let base2_w = tr.params()[0].value();
    let base2_b = tr.params()[1].value();
    let engine_tr = factored_engine(base2_w, Some(base2_b));
    engine_tr.register(1, TenantAdapter::from_meta_tr(&tr, Some(c_tr.clone())));

    at_each_thread_count(|t| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let sv = g.input(tile_seed(&c_tr, 3).unwrap());
        let y = tr.forward(&mut g, xv, &Ctx::with_seed(sv)).unwrap();
        let tape = g.value(y);
        let served = engine_tr.serve_one(&Request::new(1, x.clone())).unwrap();
        assert_bitwise(&tape, &served, "meta_tr pinned", t);
    });
}

#[test]
fn multi_bank_slots_match_tape_bitwise() {
    let mut rng = init::rng(106);
    let base = Linear::new("fc", 6, 5, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let multi = MultiLoraLinear::new("fc", Box::new(base), 3, CFG, &mut rng);
    for b in &multi.b {
        b.set_value(init::uniform(&[CFG.rank, 5], -0.7, 0.7, &mut rng));
    }
    let x = init::uniform(&[2, 6], -1.0, 1.0, &mut rng);

    let engine = factored_engine(w, bias).with_bank(&multi);
    for k in 0..3 {
        engine.register(10 + k as u64, TenantAdapter::MultiSlot { slot: k });
    }

    at_each_thread_count(|t| {
        for k in 0..3 {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let y = multi.forward(&mut g, xv, &Ctx::with_adapter(k)).unwrap();
            let tape = g.value(y);
            let served = engine
                .serve_one(&Request::new(10 + k as u64, x.clone()))
                .unwrap();
            assert_bitwise(&tape, &served, &format!("multi slot {k}"), t);
        }
    });
}
