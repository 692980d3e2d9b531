//! **Serving artifact driver**: one zipf multi-tenant stream through the
//! `metalora-serve` engine, once factored and once merged, with
//! instrumentation and the live registry forced on, so the repo can
//! always produce the serving artifacts: `RUNLOG_serve.json` (its
//! `registry` object carries the registry snapshot, SLO rows and tail
//! samples) and, under `METALORA_OBS_TRACE=1`, `TRACE_serve.json` — both
//! in `METALORA_OBS_DIR` (default: CWD).
//!
//! The streams run under the **logical** telemetry clock (one tick per
//! read), so two runs write byte-identical `registry` lines. Nothing is
//! timed here: speed is judged by `benchmark/`, contracts by
//! `crates/serve/tests`.
//!
//! Run with: `cargo run --release -p metalora-bench --bin serve`

use metalora_nn::Linear;
use metalora_obs::registry::{self, ClockMode};
use metalora_peft::meta::MappingNet;
use metalora_peft::{LoraConfig, MultiLoraLinear};
use metalora_serve::traffic::{self, TrafficConfig};
use metalora_serve::{EngineConfig, ServeEngine, TenantAdapter};
use metalora_tensor::{init, workspace};

const RANK: usize = 4;
const CFG: LoraConfig = LoraConfig { rank: RANK, alpha: 8.0 };
const DIM: usize = 64;
const TENANTS: usize = 24;

/// One shared dense base, a two-slot `peft::multi` bank, both mapping
/// nets and `TENANTS` adapters cycling through plain LoRA, bank slots and
/// pinned / dynamic CP and TR. The cache holds a quarter of the tenants,
/// so the zipf tail evicts.
fn engine(use_merged: bool) -> ServeEngine {
    let mut rng = init::rng(7);
    let base = Linear::new("fc", DIM, DIM, &mut rng);
    let (w, bias) = (base.weight().value(), base.bias().map(|b| b.value()));
    let bank = MultiLoraLinear::new("fc", Box::new(base), 2, CFG, &mut rng);
    for b in &bank.b {
        b.set_value(init::uniform(&[RANK, DIM], -0.5, 0.5, &mut rng));
    }
    let cfg = EngineConfig { max_batch: 16, cache_bytes: TENANTS / 4 * DIM * DIM * 4, use_merged };
    let engine = ServeEngine::new(w, bias, cfg)
        .with_bank(&bank)
        .with_mapping_cp(&MappingNet::new("map_cp", DIM, 16, RANK, &mut rng))
        .with_mapping_tr(&MappingNet::new("map_tr", DIM, 16, RANK * RANK, &mut rng));
    for id in 0..TENANTS as u64 {
        let mut u = |dims: &[usize], lim: f32| init::uniform(dims, -lim, lim, &mut rng);
        let scaling = CFG.scaling();
        let pinned = id % 6 < 4;
        let adapter = match id % 6 {
            0 => TenantAdapter::Lora { a: u(&[DIM, RANK], 0.5), b: u(&[RANK, DIM], 0.5), scaling },
            1 => TenantAdapter::MultiSlot { slot: (id / 6 % 2) as usize },
            2 | 4 => TenantAdapter::MetaCp {
                a: u(&[DIM, RANK], 0.5),
                b: u(&[RANK, DIM], 0.5),
                scaling,
                pinned_seed: pinned.then(|| u(&[RANK], 1.0)),
            },
            _ => TenantAdapter::MetaTr {
                a: u(&[RANK, DIM, RANK], 0.3),
                b: u(&[RANK, DIM, RANK], 0.3),
                scaling,
                pinned_seed: pinned.then(|| u(&[RANK, RANK], 1.0)),
            },
        };
        engine.register(id, adapter);
    }
    engine
}

fn main() {
    // Drain the pool BEFORE resetting counters: clear() debits the pooled
    // byte gauge, so the other order would start the gauge negative.
    workspace::clear();
    metalora_obs::set_enabled(true);
    registry::set_enabled(true);
    metalora_obs::reset();
    registry::set_clock(ClockMode::Logical);

    let reqs = traffic::generate(&TrafficConfig {
        tenants: TENANTS,
        requests: 256,
        in_dim: DIM,
        ..TrafficConfig::default()
    });
    for (mode, use_merged) in [("factored", false), ("merged", true)] {
        let e = engine(use_merged);
        e.process(&reqs).expect("serve the stream");
        let (n, c) = (e.request_count(), e.cache().stats());
        println!("{mode}: {n} requests, cache {} hits / {} misses / {} evictions", c.hits, c.misses, c.evictions);
    }
    metalora_obs::report::RunReport::capture("serve").publish();
}
