//! **A5 — static-seed ablation**: is MetaLoRA's gain the CP/TR
//! *parameterisation*, or the *input-conditioned generation*?
//!
//! Runs three variants on the ResNet column: static LoRA (no seed), the
//! MetaLoRA architecture with a single **learned constant** seed (same
//! ΔW parameterisation, no input conditioning), and full MetaLoRA-CP
//! (generated per-input seed). If the meta-learning claim holds, the
//! static-seed variant should track LoRA on held-out shifts while full
//! MetaLoRA pulls ahead.
//!
//! Run with:
//! `cargo run --release -p metalora-bench --bin ablation_static_seed [--scale quick]`

use metalora::autograd::Graph;
use metalora::data::knn::{Distance, KnnClassifier};
use metalora::data::task::{sample_episode, sample_mixture_batch, TaskFamily};
use metalora::methods::Method;
use metalora::nn::{Adam, Backbone, Ctx, Module, Optimizer};
use metalora::peft::StaticSeedLora;
use metalora::pipeline::{adapt, pretrain, probe};
use metalora::report::render_table;
use metalora::tensor::init;
use metalora::Arch;
use metalora_bench::{banner, opts_from_env, BenchOpts};

/// Builds, adapts and probes the static-seed variant manually (it is an
/// ablation, not one of the pipeline's methods).
fn run_static_seed(opts: &BenchOpts, seed: u64) -> (f64, f64) {
    let cfg = &opts.cfg;
    let family = TaskFamily::reduced(cfg.n_train_tasks, cfg.n_eval_tasks);
    let mut rng = init::rng(seed.wrapping_mul(7919).wrapping_add(101));

    // Pretrain through the pipeline, then inject MetaLoRA-CP layers, but
    // drive them with a learned constant.
    let net = pretrain(cfg, Arch::ResNet, seed).expect("pretrain");
    let lora = cfg.lora_config();
    let (ss, inj) =
        StaticSeedLora::inject(net.into_injectable(), lora, &mut rng).expect("static seed");

    // Adaptation on the mixture, same budget as the pipeline.
    let mut opt = Adam::new(inj.adapter_params, cfg.adapt_lr);
    for _ in 0..cfg.adapt_steps {
        let (batch, _tid) =
            sample_mixture_batch(&family, cfg.adapt_per_class, cfg.image_size, &mut rng)
                .expect("batch");
        let mut g = Graph::new();
        let x = g.input(batch.images);
        let logits = ss.forward(&mut g, x, &Ctx::none()).expect("forward");
        let loss = g
            .softmax_cross_entropy(logits, &batch.labels)
            .expect("loss");
        g.backward(loss).expect("backward");
        g.flush_grads();
        opt.step();
    }

    // KNN probe on the held-out tasks (same episodes as the pipeline).
    let spec = cfg.episode();
    let (mut a5, mut a10, mut n) = (0.0f64, 0.0f64, 0usize);
    for task in &family.eval {
        for round in 0..cfg.probe_rounds {
            let ep = sample_episode(task, spec, seed, round as u64).expect("episode");
            let embed = |imgs: &metalora::tensor::Tensor| {
                let mut g = Graph::inference();
                let x = g.input(imgs.clone());
                let f = ss.features(&mut g, x, &Ctx::none()).expect("features");
                g.value(f)
            };
            let knn = KnnClassifier::fit(
                embed(&ep.support.images),
                ep.support.labels.clone(),
                Distance::L2,
            )
            .expect("fit");
            a5 += knn
                .accuracy(&embed(&ep.query.images), &ep.query.labels, 5)
                .expect("acc") as f64;
            a10 += knn
                .accuracy(&embed(&ep.query.images), &ep.query.labels, 10)
                .expect("acc") as f64;
            n += 1;
        }
    }
    (a5 / n as f64, a10 / n as f64)
}

fn main() {
    let opts = opts_from_env();
    banner("A5 — static-seed ablation (ResNet)", &opts);

    let mut rows = Vec::new();
    // Pipeline methods for reference.
    for method in [Method::Lora, Method::MetaLoraCp] {
        let mut acc5 = Vec::new();
        let mut acc10 = Vec::new();
        for &seed in &opts.seeds {
            let net = pretrain(&opts.cfg, Arch::ResNet, seed).expect("pretrain");
            let adapted = adapt(net, method, &opts.cfg, seed).expect("adapt");
            let p = probe(&adapted, &opts.cfg, seed).expect("probe");
            acc5.push(p.mean_accuracy(5).unwrap() as f64);
            acc10.push(p.mean_accuracy(10).unwrap() as f64);
        }
        rows.push(vec![
            method.name().to_string(),
            format!("{:.2}%", 100.0 * acc5.iter().sum::<f64>() / acc5.len() as f64),
            format!("{:.2}%", 100.0 * acc10.iter().sum::<f64>() / acc10.len() as f64),
        ]);
    }
    // The ablated variant.
    let mut acc5 = Vec::new();
    let mut acc10 = Vec::new();
    for &seed in &opts.seeds {
        let (a5, a10) = run_static_seed(&opts, seed);
        acc5.push(a5);
        acc10.push(a10);
    }
    rows.insert(
        1,
        vec![
            "CP + static seed".to_string(),
            format!("{:.2}%", 100.0 * acc5.iter().sum::<f64>() / acc5.len() as f64),
            format!("{:.2}%", 100.0 * acc10.iter().sum::<f64>() / acc10.len() as f64),
        ],
    );

    let headers: Vec<String> = ["variant", "K=5", "K=10"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!(
        "reading: LoRA and 'CP + static seed' share the no-conditioning limitation;\n\
         the gap between 'CP + static seed' and full Meta-LoRA CP is the value of\n\
         generating the seed from the input (the paper's meta-learning claim)."
    );

}
