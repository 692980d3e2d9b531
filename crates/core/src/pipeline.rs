//! The Table I protocol: pretrain → adapt → KNN probe.

use crate::config::{Arch, ExperimentConfig};
use crate::methods::Method;
use crate::Result;
use metalora_autograd::{Graph, ParamRef};
use metalora_data::dataset::{generate, LabeledImages};
use metalora_data::knn::{Distance, KnnClassifier};
use metalora_data::task::{sample_episode, sample_mixture_batch, TaskFamily};
use metalora_nn::models::{Mixer, ResNet, VisionTransformer};
use metalora_nn::train::{train_epoch, Epoch};
use metalora_nn::{Adam, Backbone, Ctx, Injectable, Sgd};
use metalora_peft::inject;
use metalora_peft::meta::{MetaFormat, MetaLora};
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
    /// batch; for the static-seed ablation, the learned constant's norm.
    /// Errors for the other methods (they have no parameter seeds).
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
        Method::MetaLoraCp | Method::MetaLoraTr | Method::StaticSeedCp => {
            let (meta, inj) = match method {
                Method::MetaLoraCp => inject::meta(backbone, MetaFormat::Cp, lora, cfg.map_hidden, &mut rng)?,
                Method::MetaLoraTr => inject::meta(backbone, MetaFormat::Tr, lora, cfg.map_hidden, &mut rng)?,
                _ => inject::static_seed(backbone, lora, &mut rng)?,
            };
            (AdaptedModel::Meta(meta), inj.adapter_params)
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
    // Adam over the adapter parameters on the training-task mixture, with
    // a per-step context from the sampled task id (its Multi-LoRA bank).
    // The whole run is one epoch record.
    let multi = method == Method::MultiLora;
    let mut opt = Adam::new(adapted.adapter_params.clone(), cfg.adapt_lr);
    let mut run = Epoch::<f64>::start();
    for _ in 0..cfg.adapt_steps {
        // Constant span name: steps aggregate under "adapt/<Method>/step"
        // with per-step duration quantiles.
        let _step_span = metalora_obs::span!("step");
        let (batch, tid) =
            sample_mixture_batch(&adapted.family, cfg.adapt_per_class, cfg.image_size, &mut rng)?;
        let ctx = if multi { Ctx::with_adapter(tid) } else { Ctx::none() };
        run.step(adapted.backbone(), batch.images, &batch.labels, &ctx, &mut opt)?;
    }
    run.record("adapt");
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
            let images = generate(metalora_data::Shift::Identity, 1, cfg.image_size, &mut init::rng(5))
                .unwrap()
                .images;
            let summary = adapted.seed_summary(&images);
            match method {
                Method::MetaLoraCp | Method::MetaLoraTr => assert!(summary.unwrap() >= 0.0),
                Method::StaticSeedCp => {
                    // The learned constant is trained with (and after) the
                    // MetaLoRA-CP layers' own parameters, and every input
                    // gets it as its seed.
                    let seed = adapted.adapter_params.last().unwrap();
                    assert_eq!(seed.name(), "static_seed");
                    assert_eq!(summary.unwrap(), seed.value().norm());
                }
                _ => assert!(summary.is_err(), "{method:?}"),
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
