//! The two train workloads: whole Table-I pipelines
//! (`pipeline::pretrain` -> `adapt` -> `probe`), repeated with a fresh seed
//! each until the run's seconds have elapsed.

use crate::layers::{counter_metrics, per_layer, same_bits};
use crate::report::{in_spec_order, peak_rss_mb, Outcome, Res, Tally};
use crate::span::Tracer;
use crate::spec::{TrainSpec, END_TO_END};
use crate::stats::fastest_time;
use metalora::config::ExperimentConfig;
use metalora::pipeline::{self, Adapted, AnyBackbone, ProbeResult, TABLE1_KS};
use metalora_autograd::Graph;
use metalora_data::knn::{Distance, KnnClassifier};
use metalora_data::synth::NUM_CLASSES;
use metalora_data::task::{sample_episode, sample_mixture_batch, TaskFamily};
use metalora_nn::{Adam, Ctx, Module, Optimizer};
use metalora_obs::counters;
use metalora_peft::inject;
use metalora_peft::meta::MetaFormat;
use metalora_tensor::init;
use serde_json::Value;
use std::time::Instant;

/// Set-ups per run; `setup_s` is the fastest.
const SETUPS: usize = 3;
/// Whole pipelines timed at least, however fast the library.
const MIN_PIPELINES: usize = 3;
/// Adapt steps the step replay re-issues.
const REPLAY_STEPS: usize = 20;

/// `ExperimentConfig::standard()` with the workload's overrides.
pub fn config(spec: &TrainSpec) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::standard();
    cfg.image_size = spec.image_size;
    cfg.pretrain_epochs = spec.pretrain_epochs;
    cfg.adapt_steps = spec.adapt_steps;
    cfg.n_eval_tasks = spec.n_eval_tasks;
    cfg.probe_rounds = spec.probe_rounds;
    cfg
}

/// The smallest pipeline that touches every shape the timed ones use: one
/// pretrain batch, two adapt steps, one probe round.
fn warm_up_config(spec: &TrainSpec) -> ExperimentConfig {
    let mut cfg = config(spec);
    cfg.pretrain_epochs = 1;
    cfg.pretrain_per_class = cfg.pretrain_batch / NUM_CLASSES;
    cfg.adapt_steps = 2;
    cfg.probe_rounds = 1;
    cfg
}

fn pretrain_images(cfg: &ExperimentConfig) -> usize {
    cfg.pretrain_epochs * cfg.pretrain_per_class * NUM_CLASSES
}

fn episodes(cfg: &ExperimentConfig) -> usize {
    cfg.n_eval_tasks * cfg.probe_rounds
}

/// Images one pipeline pushes through the model, all three phases.
fn images(cfg: &ExperimentConfig) -> usize {
    let adapt = cfg.adapt_steps * cfg.adapt_per_class;
    let probe = episodes(cfg) * (cfg.support_per_class + cfg.query_per_class);
    pretrain_images(cfg) + (adapt + probe) * NUM_CLASSES
}

struct PipelineRun {
    pretrain_s: f64,
    adapt_s: f64,
    probe_s: f64,
    adapted: Adapted,
    probe: ProbeResult,
}

impl PipelineRun {
    fn wall_s(&self) -> f64 {
        self.pretrain_s + self.adapt_s + self.probe_s
    }

    fn accuracy_k5(&self) -> f64 {
        self.probe.mean_accuracy(5).map_or(f64::NAN, f64::from)
    }
}

/// One pipeline through the real entry points, each phase timed (and, when
/// `tr` records, spanned).
fn run_pipeline(
    spec: &TrainSpec,
    cfg: &ExperimentConfig,
    seed: u64,
    tr: &mut Tracer,
) -> Res<PipelineRun> {
    let t0 = Instant::now();
    let backbone = tr.scope("core.pretrain", seed, |_| {
        pipeline::pretrain(cfg, spec.arch, seed)
    })?;
    let t1 = Instant::now();
    let adapted = tr.scope("core.adapt", seed, |_| {
        pipeline::adapt(backbone, spec.method, cfg, seed)
    })?;
    let t2 = Instant::now();
    let probe = tr.scope("core.probe", seed, |_| pipeline::probe(&adapted, cfg, seed))?;
    let t3 = Instant::now();
    Ok(PipelineRun {
        pretrain_s: (t1 - t0).as_secs_f64(),
        adapt_s: (t2 - t1).as_secs_f64(),
        probe_s: (t3 - t2).as_secs_f64(),
        adapted,
        probe,
    })
}

/// Three phase calls completed; every episode accuracy must be a share.
fn check_pipeline(run: &PipelineRun, cfg: &ExperimentConfig, tally: &mut Tally) {
    tally.ok(3);
    let episodes = episodes(cfg);
    for (k, accs) in run.probe.ks.iter().zip(&run.probe.accs) {
        tally.check(
            accs.len() == episodes && accs.iter().all(|a| (0.0..=1.0).contains(a)),
            || format!("probe accuracies at k = {k} are not {episodes} shares in [0, 1]: {accs:?}"),
        );
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64) -> Res<Outcome> {
    let warm = warm_up_config(spec);
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        run_pipeline(spec, &warm, seed, &mut Tracer::muted())?;
        setups.push(t0.elapsed().as_secs_f64());
    }

    let cfg = config(spec);
    let mut tally = Tally::default();
    let mut runs = Vec::new();
    let t0 = Instant::now();
    while runs.len() < MIN_PIPELINES || t0.elapsed().as_secs_f64() < seconds {
        let run = run_pipeline(spec, &cfg, seed + runs.len() as u64, &mut Tracer::muted())?;
        check_pipeline(&run, &cfg, &mut tally);
        runs.push(run);
    }

    // The fastest pipeline per phase: interference from the host only ever
    // adds time (see README, Estimators).
    let fastest =
        |f: &dyn Fn(&PipelineRun) -> f64| fastest_time(&runs.iter().map(f).collect::<Vec<_>>());
    let (pretrain_s, adapt_s, probe_s) = (
        fastest(&|r| r.pretrain_s),
        fastest(&|r| r.adapt_s),
        fastest(&|r| r.probe_s),
    );
    let wall_s = fastest(&PipelineRun::wall_s);
    let metrics = vec![
        ("setup_s", fastest_time(&setups)),
        ("throughput_per_s", images(&cfg) as f64 / wall_s),
        ("latency_p50_ms", adapt_s / cfg.adapt_steps as f64 * 1e3),
        ("peak_rss_mb", peak_rss_mb()?),
    ];
    // The pipeline count follows the clock; the first MIN_PIPELINES always
    // run, so their accuracy repeats exactly for a seed on one commit.
    let accuracy: f64 = runs[..MIN_PIPELINES]
        .iter()
        .map(PipelineRun::accuracy_k5)
        .sum::<f64>()
        / MIN_PIPELINES as f64;
    let details = vec![
        ("pipelines", Value::Num(runs.len() as f64)),
        (
            "pretrain_images_per_s",
            Value::Num(pretrain_images(&cfg) as f64 / pretrain_s),
        ),
        (
            "adapt_steps_per_s",
            Value::Num(cfg.adapt_steps as f64 / adapt_s),
        ),
        (
            "probe_episodes_per_s",
            Value::Num(episodes(&cfg) as f64 / probe_s),
        ),
        ("pipeline_wall_s", Value::Num(wall_s)),
        ("probe_accuracy_k5", Value::Num(accuracy)),
    ];
    Ok(Outcome {
        tally,
        metrics: in_spec_order(END_TO_END, metrics)?,
        details,
    })
}

fn format_of(spec: &TrainSpec) -> Res<MetaFormat> {
    match spec.method {
        metalora::Method::MetaLoraCp => Ok(MetaFormat::Cp),
        metalora::Method::MetaLoraTr => Ok(MetaFormat::Tr),
        other => Err(format!("the step replay covers the MetaLoRA methods, not {other:?}").into()),
    }
}

/// The step replay: `REPLAY_STEPS` adapt steps re-issued through the
/// layers' public functions — the body of `pipeline::adapt`, one span per
/// call. Returns the adapter values after the last step.
fn replay_steps(
    spec: &TrainSpec,
    cfg: &ExperimentConfig,
    backbone: AnyBackbone,
    seed: u64,
    tr: &mut Tracer,
) -> Res<(Vec<metalora_tensor::Tensor>, usize, usize)> {
    // The seed derivation of `pipeline::adapt`; the bitwise check against
    // it fails if the two drift apart.
    let mut rng = init::rng(seed.wrapping_mul(7919).wrapping_add(101));
    let family = TaskFamily::reduced(cfg.n_train_tasks, cfg.n_eval_tasks);
    let format = format_of(spec)?;
    let (model, injection) = tr.scope("peft.inject", 0, |_| match backbone {
        AnyBackbone::ResNet(net) => {
            inject::meta_into_resnet(net, format, cfg.lora_config(), cfg.map_hidden, &mut rng)
        }
        AnyBackbone::Mixer(net) => {
            inject::meta_into_mixer(net, format, cfg.lora_config(), cfg.map_hidden, &mut rng)
        }
        AnyBackbone::Transformer(net) => {
            inject::meta_into_transformer(net, format, cfg.lora_config(), cfg.map_hidden, &mut rng)
        }
    })?;
    let params = injection.adapter_params;
    let mut opt = Adam::new(params.clone(), cfg.adapt_lr);
    let mut nodes = 0;
    for step in 0..REPLAY_STEPS as u64 {
        let (batch, _task) = tr.scope("data.task.sample_batch", step, |_| {
            sample_mixture_batch(&family, cfg.adapt_per_class, cfg.image_size, &mut rng)
        })?;
        let (mut g, loss) = tr.scope("nn.forward", step, |_| {
            let mut g = Graph::new();
            let x = g.input(batch.images);
            let logits = model.forward(&mut g, x, &Ctx::none())?;
            let loss = g.softmax_cross_entropy(logits, &batch.labels)?;
            Ok::<_, metalora_tensor::TensorError>((g, loss))
        })?;
        nodes = g.len();
        tr.scope("autograd.backward", step, |_| {
            g.backward(loss)?;
            g.flush_grads();
            Ok::<_, metalora_tensor::TensorError>(())
        })?;
        tr.scope("nn.optim.step", step, |_| opt.step());
        tr.scope("autograd.tape.drop", step, |_| drop(g));
    }
    let scalars = params.iter().map(|p| p.len()).sum();
    Ok((params.iter().map(|p| p.value()).collect(), nodes, scalars))
}

/// The probe replay: every episode of `pipeline::probe` re-issued through
/// the data, embedding and KNN layers. Returns accuracies shaped like
/// `ProbeResult::accs`.
fn replay_probe(
    adapted: &Adapted,
    cfg: &ExperimentConfig,
    seed: u64,
    tr: &mut Tracer,
) -> Res<Vec<Vec<f32>>> {
    let family = TaskFamily::reduced(cfg.n_train_tasks, cfg.n_eval_tasks);
    let mut accs = vec![Vec::new(); TABLE1_KS.len()];
    let mut episode = 0u64;
    for task in &family.eval {
        for round in 0..cfg.probe_rounds as u64 {
            let ep = tr.scope("data.task.sample_episode", episode, |_| {
                sample_episode(task, cfg.episode(), seed, round)
            })?;
            let support = tr.scope("core.embed", episode, |_| {
                adapted.embed_images(&ep.support.images)
            })?;
            let query = tr.scope("core.embed", episode, |_| {
                adapted.embed_images(&ep.query.images)
            })?;
            tr.scope("data.knn.fit_predict", episode, |_| {
                let knn = KnnClassifier::fit(support, ep.support.labels.clone(), Distance::L2)?;
                for (acc, &k) in accs.iter_mut().zip(&TABLE1_KS) {
                    acc.push(knn.accuracy(&query, &ep.query.labels, k)?);
                }
                Ok::<_, metalora_tensor::TensorError>(())
            })?;
            episode += 1;
        }
    }
    Ok(accs)
}

/// The traced run: one untraced pipeline for the baseline, the same
/// pipeline under a root span with the library's counters on, then the
/// step and probe replays, each checked bit for bit against the real
/// entry point doing the same work.
pub fn trace(spec: &TrainSpec, seed: u64, trace_file: &std::path::Path) -> Res<Outcome> {
    run_pipeline(spec, &warm_up_config(spec), seed, &mut Tracer::muted())?;
    let cfg = config(spec);
    let mut tally = Tally::default();
    let untraced = run_pipeline(spec, &cfg, seed, &mut Tracer::muted())?;
    check_pipeline(&untraced, &cfg, &mut tally);

    // (a) the real entry points.
    let mut tr = Tracer::new();
    metalora_obs::reset();
    metalora_obs::set_enabled(true);
    let c0 = counters::snapshot();
    let traced = tr.scope("pipeline", seed, |tr| run_pipeline(spec, &cfg, seed, tr))?;
    let c1 = counters::snapshot();
    let epochs = metalora_obs::metrics::snapshot();
    metalora_obs::set_enabled(false);
    check_pipeline(&traced, &cfg, &mut tally);
    tally.check(
        !epochs.is_empty()
            && epochs
                .iter()
                .all(|e| e.loss.is_finite() && e.accuracy.is_finite()),
        || format!("training losses are not finite: {epochs:?}"),
    );
    tally.check(
        untraced
            .probe
            .accs
            .iter()
            .zip(&traced.probe.accs)
            .all(|(a, b)| same_bits(a, b)),
        || "probe accuracies differ between the untraced and the traced pipeline".into(),
    );

    // (b) step replay against `pipeline::adapt` on the same fresh backbone.
    let mut short = cfg.clone();
    short.pretrain_epochs = 0;
    short.adapt_steps = REPLAY_STEPS;
    let (twin, backbone) = (
        pipeline::pretrain(&short, spec.arch, seed)?,
        pipeline::pretrain(&short, spec.arch, seed)?,
    );
    let reference = tr.scope("core.adapt.reference", seed, |_| {
        pipeline::adapt(twin, spec.method, &short, seed)
    })?;
    let (replayed, nodes, scalars) = tr.scope("replay.steps", seed, |tr| {
        replay_steps(spec, &short, backbone, seed, tr)
    })?;
    tally.check(
        replayed.len() == reference.adapter_params.len()
            && replayed
                .iter()
                .zip(&reference.adapter_params)
                .all(|(r, p)| same_bits(r.data(), p.value().data())),
        || format!("adapters after {REPLAY_STEPS} replayed steps differ from pipeline::adapt's"),
    );

    // (c) probe replay against the traced pipeline's probe.
    let accs = tr.scope("replay.probe", seed, |tr| {
        replay_probe(&traced.adapted, &cfg, seed, tr)
    })?;
    tally.check(
        accs.iter()
            .zip(&traced.probe.accs)
            .all(|(a, b)| same_bits(a, b)),
        || "replayed probe accuracies differ from pipeline::probe's".into(),
    );

    let replayed_s = tr.children_s("replay.steps") + tr.children_s("replay.probe");
    let through_entry_points_s = tr.total_s("core.adapt.reference") + traced.probe_s;
    let mut measured = counter_metrics(&c0, &c1);
    measured.extend([
        ("peft.adapter_params", scalars as f64),
        ("autograd.tape.nodes_per_step", nodes as f64),
        (
            "bench.replay.unattributed_share",
            1.0 - replayed_s / through_entry_points_s,
        ),
        (
            "bench.trace.overhead_share",
            tr.total_s("pipeline") / untraced.wall_s() - 1.0,
        ),
        (
            "core.pretrain_images_per_s",
            pretrain_images(&cfg) as f64 / untraced.pretrain_s,
        ),
        (
            "core.adapt_steps_per_s",
            cfg.adapt_steps as f64 / untraced.adapt_s,
        ),
        (
            "core.probe_episodes_per_s",
            episodes(&cfg) as f64 / untraced.probe_s,
        ),
        ("core.pipeline_wall_s", untraced.wall_s()),
    ]);
    std::fs::write(trace_file, tr.to_json())?;
    let details = vec![
        ("probe_accuracy_k5", Value::Num(traced.accuracy_k5())),
        ("replayed_steps", Value::Num(REPLAY_STEPS as f64)),
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

    #[test]
    fn configs_keep_standard_dimensions_apart_from_the_overrides() {
        for w in WORKLOADS {
            let Kind::Train(spec) = w.kind else { continue };
            let (cfg, std) = (config(&spec), ExperimentConfig::standard());
            assert_eq!(cfg.image_size % cfg.mixer_patch, 0);
            assert_eq!(
                (cfg.lora.rank, cfg.map_hidden, cfg.pretrain_batch),
                (std.lora.rank, std.map_hidden, std.pretrain_batch)
            );
            assert_eq!(
                (
                    cfg.support_per_class,
                    cfg.query_per_class,
                    cfg.adapt_per_class
                ),
                (
                    std.support_per_class,
                    std.query_per_class,
                    std.adapt_per_class
                )
            );
            assert!(format_of(&spec).is_ok(), "{} must be replayable", w.name);
            let warm = warm_up_config(&spec);
            assert_eq!(
                warm.pretrain_per_class * NUM_CLASSES,
                warm.pretrain_batch,
                "one full pretrain batch"
            );
            assert!(images(&warm) < images(&cfg));
        }
    }
}
