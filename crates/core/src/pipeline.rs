//! The Table I protocol: pretrain → adapt → KNN probe.

use crate::config::{Arch, ExperimentConfig};
use crate::methods::Method;
use crate::Result;
use metalora_autograd::{Graph, ParamRef};
use metalora_data::dataset::{generate, LabeledImages};
use metalora_data::knn::{Distance, KnnClassifier};
use metalora_data::task::{sample_episode, sample_mixture_batch, TaskFamily};
use metalora_nn::models::{Mixer, ResNet, VisionTransformer};
use metalora_nn::train::train_epoch;
use metalora_nn::{Adam, Backbone, Ctx, Injectable, Module, Optimizer, Sgd};
use metalora_peft::inject;
use metalora_peft::meta::{MetaFormat, MetaLora, StaticSeedLora};
use metalora_tensor::{init, ops, Tensor, TensorError};

/// The KNN K values reported by Table I.
pub const TABLE1_KS: [usize; 2] = [5, 10];

/// A pretrained backbone of either architecture.
pub enum AnyBackbone {
    /// Residual CNN.
    ResNet(ResNet),
    /// MLP-Mixer.
    Mixer(Mixer),
    /// Vision Transformer (Sec. III-E extension).
    Transformer(VisionTransformer),
}

impl AnyBackbone {
    /// The backbone behind the variant.
    pub fn backbone(&self) -> &dyn Backbone {
        match self {
            AnyBackbone::ResNet(m) => m,
            AnyBackbone::Mixer(m) => m,
            AnyBackbone::Transformer(m) => m,
        }
    }

    /// The backbone, boxed for PEFT injection.
    pub fn into_injectable(self) -> Box<dyn Injectable> {
        match self {
            AnyBackbone::ResNet(m) => Box::new(m),
            AnyBackbone::Mixer(m) => Box::new(m),
            AnyBackbone::Transformer(m) => Box::new(m),
        }
    }
}

/// Pretrains a backbone on the base (Identity-shift) distribution.
pub fn pretrain(cfg: &ExperimentConfig, arch: Arch, seed: u64) -> Result<AnyBackbone> {
    let _span = metalora_obs::span!("pretrain");
    let mut rng = init::rng(seed.wrapping_mul(31).wrapping_add(17));
    let net = match arch {
        Arch::ResNet => AnyBackbone::ResNet(ResNet::new(&cfg.resnet(), &mut rng)?),
        Arch::Mixer => AnyBackbone::Mixer(Mixer::new(&cfg.mixer(), &mut rng)?),
        Arch::Transformer => {
            AnyBackbone::Transformer(VisionTransformer::new(&cfg.transformer(), &mut rng)?)
        }
    };
    let mut opt = Sgd::with_momentum(net.backbone().params(), cfg.pretrain_lr, 0.9, 1e-4);
    for _epoch in 0..cfg.pretrain_epochs {
        // Constant span name: all epochs aggregate under "pretrain/epoch",
        // whose count/quantiles give the per-epoch duration distribution.
        let _epoch_span = metalora_obs::span!("epoch");
        let data = generate(
            metalora_data::Shift::Identity,
            cfg.pretrain_per_class,
            cfg.image_size,
            &mut rng,
        )?;
        train_epoch(
            net.backbone(),
            &data.images,
            &data.labels,
            cfg.pretrain_batch,
            &mut opt,
            &mut rng,
        )?;
    }
    Ok(net)
}

/// Per-training-task base-feature centroids for Multi-LoRA routing.
struct Routing {
    centroids: Vec<Tensor>, // each [D]
}

impl Routing {
    /// Index of the training task nearest (L2) to the episode centroid.
    fn route(&self, episode_centroid: &Tensor) -> usize {
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (k, c) in self.centroids.iter().enumerate() {
            let d: f32 = c
                .data()
                .iter()
                .zip(episode_centroid.data())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum();
            if d < best_d {
                best_d = d;
                best = k;
            }
        }
        best
    }
}

enum AdaptedModel {
    Plain(Box<dyn Backbone>),
    Meta(MetaLora),
}

/// An adapted model ready for probing.
pub struct Adapted {
    model: AdaptedModel,
    /// Which method produced it.
    pub method: Method,
    /// Trainable parameters the adaptation phase optimised (empty for
    /// `Original`).
    pub adapter_params: Vec<ParamRef>,
    routing: Option<Routing>,
    family: TaskFamily,
}

impl Adapted {
    /// The adapted model's total parameter census (base + adapters).
    pub fn param_report(&self) -> metalora_peft::ParamReport {
        metalora_peft::ParamReport::of(self.backbone())
    }

    /// The adapted model as a backbone.
    fn backbone(&self) -> &dyn Backbone {
        match &self.model {
            AdaptedModel::Plain(m) => m.as_ref(),
            AdaptedModel::Meta(m) => m,
        }
    }

    /// Embeds an image batch with the method's default (non-routed)
    /// context — what downstream applications use to index new data.
    /// Multi-LoRA callers that want per-episode routing should go through
    /// [`probe`] instead.
    pub fn embed_images(&self, images: &Tensor) -> Result<Tensor> {
        self.embed(images, &Ctx::none())
    }

    /// Mean L2 norm of the per-input seeds MetaLoRA generates for this
    /// batch. Errors for non-meta methods (they generate no seeds).
    pub fn seed_summary(&self, images: &Tensor) -> Result<f32> {
        match &self.model {
            AdaptedModel::Meta(m) => {
                let mut g = Graph::inference();
                let x = g.input(images.clone());
                let s = m.generate_seed(&mut g, x)?;
                let v = g.value(s);
                let n = v.dims()[0].max(1);
                let d = v.len() / n;
                let mut acc = 0.0f32;
                for i in 0..n {
                    let row = &v.data()[i * d..(i + 1) * d];
                    acc += row.iter().map(|&x| x * x).sum::<f32>().sqrt();
                }
                Ok(acc / n as f32)
            }
            AdaptedModel::Plain(_) => Err(TensorError::InvalidArgument(format!(
                "{:?} generates no parameter seeds",
                self.method
            ))),
        }
    }

    /// Embeds an image batch in inference mode under the given context.
    fn embed(&self, images: &Tensor, ctx: &Ctx) -> Result<Tensor> {
        let mut g = Graph::inference();
        let x = g.input(images.clone());
        let f = self.backbone().features(&mut g, x, ctx)?;
        Ok(g.value(f))
    }

    /// Embeds with the method's evaluation-time context policy; for
    /// Multi-LoRA this routes the episode via its support centroid.
    fn embed_episode(&self, support: &LabeledImages, query: &LabeledImages) -> Result<(Tensor, Tensor)> {
        let ctx = match (&self.routing, self.method) {
            (Some(r), Method::MultiLora) => {
                let base = self.embed(&support.images, &Ctx::none())?;
                let centroid = ops::mean_axis(&base, 0)?;
                Ctx::with_adapter(r.route(&centroid))
            }
            _ => Ctx::none(),
        };
        Ok((
            self.embed(&support.images, &ctx)?,
            self.embed(&query.images, &ctx)?,
        ))
    }
}

/// Shared adaptation loop: Adam over `params` on the training-task
/// mixture, with a per-step context derived from the sampled task id.
///
/// When instrumentation is enabled the whole run is pushed to the obs
/// metrics sink as one record (mean step loss / accuracy / grad norm)
/// under the current span path; the extra readouts only happen while
/// observing and never feed back into the computation.
fn adapt_train(
    model: &dyn Module,
    family: &TaskFamily,
    cfg: &ExperimentConfig,
    params: Vec<ParamRef>,
    ctx_of: impl Fn(usize) -> Ctx,
    rng: &mut rand::rngs::StdRng,
) -> Result<()> {
    let observing = metalora_obs::enabled();
    let t0 = observing.then(std::time::Instant::now);
    let (mut loss_sum, mut acc_sum, mut grad_sum) = (0.0f64, 0.0f64, 0.0f64);
    let mut opt = Adam::new(params.clone(), cfg.adapt_lr);
    for _ in 0..cfg.adapt_steps {
        // Constant span name: steps aggregate under "adapt/<Method>/step"
        // with per-step duration quantiles.
        let _step_span = metalora_obs::span!("step");
        let (batch, tid) = sample_mixture_batch(family, cfg.adapt_per_class, cfg.image_size, rng)?;
        let mut g = Graph::new();
        let x = g.input(batch.images);
        let logits = model.forward(&mut g, x, &ctx_of(tid))?;
        let loss = g.softmax_cross_entropy(logits, &batch.labels)?;
        g.backward(loss)?;
        g.flush_grads();
        if observing {
            loss_sum += g.value(loss).item()? as f64;
            acc_sum +=
                metalora_nn::train::accuracy(&g.value(logits), &batch.labels)? as f64;
            grad_sum += metalora_nn::train::grad_norm(&params);
        }
        opt.step();
    }
    if let Some(t0) = t0 {
        let steps = cfg.adapt_steps.max(1) as f64;
        let phase = metalora_obs::span::current_path();
        let phase = if phase.is_empty() { "adapt" } else { &phase };
        metalora_obs::metrics::record_epoch(
            phase,
            loss_sum / steps,
            acc_sum / steps,
            grad_sum / steps,
            t0.elapsed().as_secs_f64(),
        );
    }
    Ok(())
}

/// Adapts a pretrained backbone with the requested method.
pub fn adapt(backbone: AnyBackbone, method: Method, cfg: &ExperimentConfig, seed: u64) -> Result<Adapted> {
    let _span = metalora_obs::span!("adapt/{method:?}");
    let mut rng = init::rng(seed.wrapping_mul(7919).wrapping_add(101));
    let family = TaskFamily::reduced(cfg.n_train_tasks, cfg.n_eval_tasks);
    let lora = cfg.lora_config();

    let mut backbone = backbone.into_injectable();
    let banks = family.train.len();
    let (model, adapter_params) = match method {
        Method::Original => {
            backbone.set_trainable(false);
            (AdaptedModel::Plain(backbone), Vec::new())
        }
        Method::FullFineTune => {
            backbone.set_trainable(true);
            let params = backbone.params();
            (AdaptedModel::Plain(backbone), params)
        }
        Method::Lora => {
            let inj = inject::lora(backbone.as_mut(), lora, &mut rng);
            (AdaptedModel::Plain(backbone), inj.adapter_params)
        }
        Method::MultiLora => {
            let inj = inject::multi(backbone.as_mut(), banks, lora, &mut rng);
            (AdaptedModel::Plain(backbone), inj.adapter_params)
        }
        Method::MetaLoraCp | Method::MetaLoraTr => {
            let format = if method == Method::MetaLoraCp {
                MetaFormat::Cp
            } else {
                MetaFormat::Tr
            };
            let (meta, inj) = inject::meta(backbone, format, lora, cfg.map_hidden, &mut rng)?;
            (AdaptedModel::Meta(meta), inj.adapter_params)
        }
        Method::StaticSeedCp => {
            let (ss, inj) = StaticSeedLora::inject(backbone, lora, &mut rng)?;
            (AdaptedModel::Plain(Box::new(ss)), inj.adapter_params)
        }
    };
    let mut adapted = Adapted {
        model,
        method,
        adapter_params,
        routing: None,
        family,
    };
    if method == Method::Original {
        return Ok(adapted);
    }
    let multi = method == Method::MultiLora;
    let ctx_of: fn(usize) -> Ctx = if multi { Ctx::with_adapter } else { |_| Ctx::none() };
    let params = adapted.adapter_params.clone();
    adapt_train(adapted.backbone(), &adapted.family, cfg, params, ctx_of, &mut rng)?;
    if multi {
        // Base-feature centroids per training task for eval routing.
        let mut centroids = Vec::with_capacity(banks);
        for task in &adapted.family.train {
            let data = generate(task.shift, 4, cfg.image_size, &mut rng)?;
            let features = adapted.embed(&data.images, &Ctx::none())?;
            centroids.push(ops::mean_axis(&features, 0)?);
        }
        adapted.routing = Some(Routing { centroids });
    }
    Ok(adapted)
}

/// Probe accuracies per K, averaged over eval tasks and rounds.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// The K values probed.
    pub ks: Vec<usize>,
    /// `accs[i]` = accuracies for `ks[i]`, one per (task, round) episode.
    pub accs: Vec<Vec<f32>>,
    /// Eval-task id of each episode, aligned with the entries of
    /// `accs[i]`.
    pub task_ids: Vec<usize>,
}

impl ProbeResult {
    /// Mean accuracy for a K.
    pub fn mean_accuracy(&self, k: usize) -> Option<f32> {
        let i = self.ks.iter().position(|&x| x == k)?;
        let xs = &self.accs[i];
        if xs.is_empty() {
            return None;
        }
        Some(xs.iter().sum::<f32>() / xs.len() as f32)
    }

    /// All episode accuracies for a K (for significance testing).
    pub fn episodes(&self, k: usize) -> Option<&[f32]> {
        let i = self.ks.iter().position(|&x| x == k)?;
        Some(&self.accs[i])
    }

    /// Mean accuracy for a K restricted to one evaluation task.
    pub fn task_accuracy(&self, k: usize, task_id: usize) -> Option<f32> {
        let i = self.ks.iter().position(|&x| x == k)?;
        let xs: Vec<f32> = self.accs[i]
            .iter()
            .zip(&self.task_ids)
            .filter(|(_, &t)| t == task_id)
            .map(|(&a, _)| a)
            .collect();
        if xs.is_empty() {
            return None;
        }
        Some(xs.iter().sum::<f32>() / xs.len() as f32)
    }
}

/// Runs the KNN probe of Table I over the held-out evaluation tasks.
pub fn probe(adapted: &Adapted, cfg: &ExperimentConfig, seed: u64) -> Result<ProbeResult> {
    let _span = metalora_obs::span!("probe/{:?}", adapted.method);
    if adapted.family.eval.is_empty() {
        return Err(TensorError::InvalidArgument(
            "no evaluation tasks configured".into(),
        ));
    }
    let spec = cfg.episode();
    let mut accs = vec![Vec::new(); TABLE1_KS.len()];
    let mut task_ids = Vec::new();
    for task in &adapted.family.eval {
        for round in 0..cfg.probe_rounds {
            let ep = sample_episode(task, spec, seed, round as u64)?;
            let (support_emb, query_emb) = adapted.embed_episode(&ep.support, &ep.query)?;
            let knn =
                KnnClassifier::fit(support_emb, ep.support.labels.clone(), Distance::L2)?;
            for (i, &k) in TABLE1_KS.iter().enumerate() {
                accs[i].push(knn.accuracy(&query_emb, &ep.query.labels, k)?);
            }
            task_ids.push(task.id);
        }
    }
    Ok(ProbeResult {
        ks: TABLE1_KS.to_vec(),
        accs,
        task_ids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretrain_learns_base_task() {
        let mut cfg = ExperimentConfig::quick();
        cfg.pretrain_epochs = 6;
        cfg.pretrain_per_class = 8;
        let net = pretrain(&cfg, Arch::ResNet, 0).unwrap();
        // Accuracy on fresh base-task data beats chance (1/8).
        let mut rng = init::rng(999);
        let data = generate(metalora_data::Shift::Identity, 4, cfg.image_size, &mut rng).unwrap();
        let acc =
            metalora_nn::train::evaluate(net.backbone(), &data.images, &data.labels, 16).unwrap();
        assert!(acc > 0.25, "pretrain accuracy {acc}");
    }

    #[test]
    fn adapt_and_probe_all_methods_run() {
        let cfg = ExperimentConfig::quick();
        for method in [
            Method::Original,
            Method::Lora,
            Method::MultiLora,
            Method::MetaLoraCp,
            Method::MetaLoraTr,
            Method::FullFineTune,
            Method::StaticSeedCp,
        ] {
            let net = pretrain(&cfg, Arch::ResNet, 1).unwrap();
            let adapted = adapt(net, method, &cfg, 1).unwrap();
            assert_eq!(adapted.method, method);
            if method == Method::Original {
                assert!(adapted.adapter_params.is_empty());
            } else {
                assert!(!adapted.adapter_params.is_empty());
            }
            if method == Method::StaticSeedCp {
                // The learned constant is trained with (and after) the
                // MetaLoRA-CP layers' own parameters.
                assert_eq!(adapted.adapter_params.last().unwrap().name(), "static_seed");
            }
            let p = probe(&adapted, &cfg, 1).unwrap();
            for &k in &TABLE1_KS {
                let m = p.mean_accuracy(k).unwrap();
                assert!((0.0..=1.0).contains(&m), "{method:?} k={k} acc={m}");
                assert_eq!(
                    p.episodes(k).unwrap().len(),
                    cfg.n_eval_tasks * cfg.probe_rounds
                );
            }
        }
    }

    #[test]
    fn mixer_pipeline_runs() {
        let cfg = ExperimentConfig::quick();
        let net = pretrain(&cfg, Arch::Mixer, 2).unwrap();
        let adapted = adapt(net, Method::MetaLoraTr, &cfg, 2).unwrap();
        let p = probe(&adapted, &cfg, 2).unwrap();
        assert!(p.mean_accuracy(5).is_some());
        assert!(p.mean_accuracy(3).is_none());
    }

    #[test]
    fn original_keeps_backbone_frozen() {
        let cfg = ExperimentConfig::quick();
        let net = pretrain(&cfg, Arch::ResNet, 3).unwrap();
        let snapshot: Vec<Tensor> = net.backbone().params().iter().map(|p| p.value()).collect();
        let adapted = adapt(net, Method::Original, &cfg, 3).unwrap();
        let now = adapted.backbone().params();
        for (a, p) in snapshot.iter().zip(&now) {
            assert!(metalora_tensor::approx_eq(a, &p.value(), 0.0));
        }
        let report = adapted.param_report();
        assert_eq!(report.trainable, 0);
    }

    #[test]
    fn multi_lora_routing_picks_nearest() {
        let r = Routing {
            centroids: vec![
                Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap(),
                Tensor::from_vec(vec![10.0, 0.0], &[2]).unwrap(),
            ],
        };
        let q = Tensor::from_vec(vec![8.0, 1.0], &[2]).unwrap();
        assert_eq!(r.route(&q), 1);
        let q = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        assert_eq!(r.route(&q), 0);
    }
}
