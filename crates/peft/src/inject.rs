//! One-call injection of each PEFT method into any backbone.
//!
//! Every method runs the same walk over an [`Injectable`] backbone: it
//! (1) freezes the entire backbone, (2) swaps every injection point the
//! model names (ResNet main-path convolutions, Mixer mixing dense layers,
//! transformer projections) for the method's adapter of the matching kind,
//! named `{method}_{site}{i}` (`lora_conv0`, `meta_fc3`, `multi_vit5`, …),
//! and (3) returns the trainable adapter parameters for the optimiser.

use crate::meta::{MappingNet, MetaFormat, MetaLora};
use crate::{
    ConvLora, LoraConfig, LoraLinear, MetaLoraCpConv, MetaLoraCpLinear, MetaLoraTrConv,
    MetaLoraTrLinear, MultiLoraConv, MultiLoraLinear, Result,
};
use metalora_autograd::ParamRef;
use metalora_nn::models::{Mixer, ResNet, VisionTransformer};
use metalora_nn::{Injectable, Layer};
use rand::rngs::StdRng;

/// What an injection produced.
pub struct Injection {
    /// Trainable adapter parameters (feed these to the optimiser).
    pub adapter_params: Vec<ParamRef>,
    /// Number of layers wrapped.
    pub layers: usize,
}

/// The walk every method shares: freezes `net`, then replaces each
/// injection point with `wrap(name, layer)`. The adapter parameters are
/// the wrapped layers' trainable ones — the backbone is frozen, so exactly
/// their factors.
fn walk(
    net: &mut dyn Injectable,
    method: &str,
    mut wrap: impl FnMut(&str, Layer) -> Layer,
) -> Injection {
    net.set_trainable(false);
    let site = net.site();
    let mut adapter_params = Vec::new();
    let mut layers = 0usize;
    net.replace_layers(&mut |base| {
        let layer = wrap(&format!("{method}_{site}{layers}"), base);
        let params = match &layer {
            Layer::Linear(l) => l.params(),
            Layer::Conv(c) => c.params(),
        };
        adapter_params.extend(params.into_iter().filter(|p| p.trainable()));
        layers += 1;
        layer
    });
    Injection {
        adapter_params,
        layers,
    }
}

/// Injects plain LoRA (Conv-LoRA at a convolution) into every injection
/// point of `net`.
pub fn lora(net: &mut dyn Injectable, cfg: LoraConfig, rng: &mut StdRng) -> Injection {
    walk(net, "lora", |name, layer| match layer {
        Layer::Linear(base) => LoraLinear::new(name, base, cfg, rng).into(),
        Layer::Conv(base) => ConvLora::new(name, base, cfg, rng).into(),
    })
}

/// Injects a Multi-LoRA bank (`banks` slots) into every injection point
/// of `net`.
pub fn multi(
    net: &mut dyn Injectable,
    banks: usize,
    cfg: LoraConfig,
    rng: &mut StdRng,
) -> Injection {
    walk(net, "multi", |name, layer| match layer {
        Layer::Linear(base) => MultiLoraLinear::new(name, base, banks, cfg, rng).into(),
        Layer::Conv(base) => MultiLoraConv::new(name, base, banks, cfg, rng).into(),
    })
}

/// The MetaLoRA (CP or TR) adapters of [`meta`], without their seed source.
pub(crate) fn meta_layers(
    net: &mut dyn Injectable,
    format: MetaFormat,
    cfg: LoraConfig,
    rng: &mut StdRng,
) -> Injection {
    walk(net, "meta", |name, layer| match (format, layer) {
        (MetaFormat::Cp, Layer::Linear(base)) => MetaLoraCpLinear::new(name, base, cfg, rng).into(),
        (MetaFormat::Cp, Layer::Conv(base)) => MetaLoraCpConv::new(name, base, cfg, rng).into(),
        (MetaFormat::Tr, Layer::Linear(base)) => MetaLoraTrLinear::new(name, base, cfg, rng).into(),
        (MetaFormat::Tr, Layer::Conv(base)) => MetaLoraTrConv::new(name, base, cfg, rng).into(),
    })
}

/// Injects MetaLoRA (CP or TR) into every injection point of `net` and
/// wraps the backbone with its mapping net (hidden width `map_hidden`),
/// whose parameters join the adapter set.
pub fn meta(
    mut net: Box<dyn Injectable>,
    format: MetaFormat,
    cfg: LoraConfig,
    map_hidden: usize,
    rng: &mut StdRng,
) -> Result<(MetaLora, Injection)> {
    let mut inj = meta_layers(net.as_mut(), format, cfg, rng);
    let mapping = MappingNet::new(
        "mapping",
        net.feature_dim(),
        map_hidden,
        format.seed_dim(cfg.rank),
        rng,
    );
    let model = MetaLora::new(net, mapping)?;
    inj.adapter_params.extend(model.seed_params());
    Ok((model, inj))
}

/// Injects MetaLoRA-CP into every injection point of `net` and drives it
/// with one learned constant seed instead of a mapping net (the
/// static-seed ablation); the seed joins the adapter set last.
pub fn static_seed(
    mut net: Box<dyn Injectable>,
    cfg: LoraConfig,
    rng: &mut StdRng,
) -> Result<(MetaLora, Injection)> {
    let mut inj = meta_layers(net.as_mut(), MetaFormat::Cp, cfg, rng);
    let model = MetaLora::with_learned_seed(net, MetaFormat::Cp.seed_dim(cfg.rank), rng)?;
    inj.adapter_params.extend(model.seed_params());
    Ok((model, inj))
}

/// [`meta`] on a ResNet.
pub fn meta_into_resnet(
    net: ResNet,
    format: MetaFormat,
    cfg: LoraConfig,
    map_hidden: usize,
    rng: &mut StdRng,
) -> Result<(MetaLora, Injection)> {
    meta(Box::new(net), format, cfg, map_hidden, rng)
}

/// [`meta`] on an MLP-Mixer.
pub fn meta_into_mixer(
    net: Mixer,
    format: MetaFormat,
    cfg: LoraConfig,
    map_hidden: usize,
    rng: &mut StdRng,
) -> Result<(MetaLora, Injection)> {
    meta(Box::new(net), format, cfg, map_hidden, rng)
}

/// [`meta`] on a Vision Transformer.
pub fn meta_into_transformer(
    net: VisionTransformer,
    format: MetaFormat,
    cfg: LoraConfig,
    map_hidden: usize,
    rng: &mut StdRng,
) -> Result<(MetaLora, Injection)> {
    meta(Box::new(net), format, cfg, map_hidden, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_autograd::Graph;
    use metalora_nn::models::{MixerConfig, ResNetConfig};
    use metalora_nn::{Backbone, Ctx, Module};
    use metalora_tensor::init;

    fn resnet(rng: &mut StdRng) -> ResNet {
        ResNet::new(
            &ResNetConfig {
                in_channels: 3,
                channels: vec![4, 8],
                blocks_per_stage: 1,
                num_classes: 4,
            },
            rng,
        )
        .unwrap()
    }

    fn mixer(rng: &mut StdRng) -> Mixer {
        Mixer::new(
            &MixerConfig {
                in_channels: 3,
                image_size: 16,
                patch_size: 4,
                dim: 12,
                token_hidden: 8,
                channel_hidden: 16,
                depth: 1,
                num_classes: 4,
            },
            rng,
        )
        .unwrap()
    }

    #[test]
    fn lora_on_a_resnet_freezes_base_and_counts_layers() {
        let mut rng = init::rng(1);
        let mut net = resnet(&mut rng);
        let base_params = net.num_params();
        let inj = lora(&mut net, LoraConfig::default(), &mut rng);
        assert_eq!(inj.layers, 5);
        assert!(!inj.adapter_params.is_empty());
        // All trainable params are exactly the adapters.
        let trainable = net.num_trainable_params();
        let adapter_total: usize = inj.adapter_params.iter().map(|p| p.len()).sum();
        assert_eq!(trainable, adapter_total);
        // With a production-sized backbone the ratio is ≪1%; on this tiny
        // test net the adapters are still strictly smaller than the base.
        assert!(trainable < base_params, "{trainable} vs {base_params}");
        // Forward still works and starts at the base function.
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut rng));
        let y = net.forward(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(y), vec![2, 4]);
    }

    #[test]
    fn lora_on_a_mixer_works() {
        let mut rng = init::rng(2);
        let mut net = mixer(&mut rng);
        let inj = lora(&mut net, LoraConfig::default(), &mut rng);
        assert_eq!(inj.layers, 4);
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut rng));
        let y = net.forward(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(y), vec![2, 4]);
    }

    #[test]
    fn multi_into_backbones_selects_adapters() {
        let mut rng = init::rng(3);
        let mut net = resnet(&mut rng);
        let inj = multi(&mut net, 3, LoraConfig::default(), &mut rng);
        assert_eq!(inj.layers, 5);
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut rng));
        // No selection → base path (used for routing features).
        assert!(net.forward(&mut g, x, &Ctx::none()).is_ok());
        assert!(net.forward(&mut g, x, &Ctx::with_adapter(1)).is_ok());
        assert!(net.forward(&mut g, x, &Ctx::with_adapter(7)).is_err());

        let mut mx = mixer(&mut rng);
        let inj = multi(&mut mx, 2, LoraConfig::default(), &mut rng);
        assert_eq!(inj.layers, 4);
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut rng));
        assert!(mx.forward(&mut g, x, &Ctx::with_adapter(0)).is_ok());
    }

    #[test]
    fn meta_into_resnet_cp_and_tr() {
        for format in [MetaFormat::Cp, MetaFormat::Tr] {
            let mut rng = init::rng(4);
            let net = resnet(&mut rng);
            let (meta, inj) =
                meta_into_resnet(net, format, LoraConfig::default(), 16, &mut rng).unwrap();
            assert_eq!(inj.layers, 5);
            let mut g = Graph::new();
            let x = g.input(init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut rng));
            let y = meta.forward(&mut g, x, &Ctx::none()).unwrap();
            assert_eq!(g.dims(y), vec![2, 4], "{format:?}");
            // Mapping params are part of the adapter set.
            let mapping_ids: Vec<usize> =
                meta.mapping().unwrap().params().iter().map(|p| p.cell_id()).collect();
            assert!(mapping_ids
                .iter()
                .all(|id| inj.adapter_params.iter().any(|p| p.cell_id() == *id)));
        }
    }

    #[test]
    fn meta_into_mixer_cp_and_tr() {
        for format in [MetaFormat::Cp, MetaFormat::Tr] {
            let mut rng = init::rng(5);
            let net = mixer(&mut rng);
            let (meta, inj) =
                meta_into_mixer(net, format, LoraConfig::default(), 16, &mut rng).unwrap();
            assert_eq!(inj.layers, 4);
            let mut g = Graph::new();
            let x = g.input(init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut rng));
            let y = meta.forward(&mut g, x, &Ctx::none()).unwrap();
            assert_eq!(g.dims(y), vec![2, 4], "{format:?}");
            let f = meta.features(&mut g, x, &Ctx::none()).unwrap();
            assert_eq!(g.dims(f), vec![2, 12]);
        }
    }

    #[test]
    fn meta_adaptation_step_moves_only_adapters() {
        let mut rng = init::rng(6);
        let net = resnet(&mut rng);
        let frozen_snapshot: Vec<_> = net.params().iter().map(|p| p.value()).collect();
        let (meta, inj) =
            meta_into_resnet(net, MetaFormat::Cp, LoraConfig::default(), 8, &mut rng).unwrap();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut rng));
        let y = meta.forward(&mut g, x, &Ctx::none()).unwrap();
        let l = g.softmax_cross_entropy(y, &[0, 1]).unwrap();
        g.backward(l).unwrap();
        g.flush_grads();
        let mut opt = metalora_nn::Sgd::new(inj.adapter_params.clone(), 0.1);
        use metalora_nn::Optimizer;
        opt.step();
        // Base backbone untouched (compare a few frozen weights).
        let base_now: Vec<_> = meta
            .backbone()
            .params()
            .iter()
            .filter(|p| !p.trainable())
            .map(|p| p.value())
            .collect();
        for t in &frozen_snapshot {
            assert!(base_now.iter().any(|u| metalora_tensor::approx_eq(t, u, 0.0)));
        }
    }
}
