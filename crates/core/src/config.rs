//! Experiment configuration.

use metalora_data::task::EpisodeSpec;
use metalora_nn::models::{MixerConfig, ResNetConfig, TransformerConfig};
use metalora_peft::LoraConfig;
use serde::{Deserialize, Serialize};

/// Which backbone a run uses (the two columns of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arch {
    /// The small residual CNN (adapted via Conv-LoRA-family layers).
    ResNet,
    /// The MLP-Mixer (adapted via dense-LoRA-family layers).
    Mixer,
    /// The Vision Transformer (Sec. III-E extension; dense adapters on
    /// the attention projections and MLP layers).
    Transformer,
}

impl Arch {
    /// Display name matching the paper's table header.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::ResNet => "ResNet",
            Arch::Mixer => "MLP-Mixer",
            Arch::Transformer => "ViT",
        }
    }
}

/// All hyper-parameters of one experiment run. Serialisable so every
/// bench binary can dump the exact configuration next to its results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Square image side.
    pub image_size: usize,
    /// ResNet stage widths.
    pub resnet_channels: Vec<usize>,
    /// ResNet blocks per stage.
    pub resnet_blocks: usize,
    /// Mixer patch side.
    pub mixer_patch: usize,
    /// Mixer hidden dimension.
    pub mixer_dim: usize,
    /// Mixer depth.
    pub mixer_depth: usize,
    /// Pretraining epochs on the base (Identity) task.
    pub pretrain_epochs: usize,
    /// Samples per class generated per pretraining epoch.
    pub pretrain_per_class: usize,
    /// Pretraining batch size.
    pub pretrain_batch: usize,
    /// Pretraining learning rate (SGD + momentum 0.9).
    pub pretrain_lr: f32,
    /// Adaptation optimisation steps over the task mixture.
    pub adapt_steps: usize,
    /// Samples per class in each adaptation batch.
    pub adapt_per_class: usize,
    /// Adaptation learning rate (Adam).
    pub adapt_lr: f32,
    /// LoRA-family rank/α.
    pub lora: LoraConfig,
    /// Mapping-net hidden width.
    pub map_hidden: usize,
    /// Probe episode geometry.
    pub support_per_class: usize,
    /// Query samples per class in each probe episode.
    pub query_per_class: usize,
    /// Probe rounds (episodes per eval task).
    pub probe_rounds: usize,
    /// Number of training tasks used (truncates the 12-task pool).
    pub n_train_tasks: usize,
    /// Number of evaluation tasks used (truncates the 6-task pool).
    pub n_eval_tasks: usize,
}

impl ExperimentConfig {
    /// The configuration used by the Table I bench: 32×32 images,
    /// moderate backbones, the full 12/6 task family.
    pub fn standard() -> Self {
        ExperimentConfig {
            image_size: 32,
            resnet_channels: vec![12, 24, 48],
            resnet_blocks: 1,
            mixer_patch: 8,
            mixer_dim: 48,
            mixer_depth: 2,
            pretrain_epochs: 10,
            pretrain_per_class: 24,
            pretrain_batch: 32,
            pretrain_lr: 0.05,
            adapt_steps: 250,
            adapt_per_class: 2,
            adapt_lr: 3e-3,
            lora: LoraConfig {
                rank: 4,
                alpha: 8.0,
            },
            map_hidden: 32,
            support_per_class: 10,
            query_per_class: 5,
            probe_rounds: 2,
            n_train_tasks: 12,
            n_eval_tasks: 6,
        }
    }

    /// A seconds-scale configuration for tests and examples.
    pub fn quick() -> Self {
        ExperimentConfig {
            image_size: 16,
            resnet_channels: vec![6, 12],
            resnet_blocks: 1,
            mixer_patch: 4,
            mixer_dim: 16,
            mixer_depth: 1,
            pretrain_epochs: 2,
            pretrain_per_class: 6,
            pretrain_batch: 16,
            pretrain_lr: 0.05,
            adapt_steps: 10,
            adapt_per_class: 1,
            adapt_lr: 3e-3,
            lora: LoraConfig {
                rank: 2,
                alpha: 4.0,
            },
            map_hidden: 12,
            support_per_class: 3,
            query_per_class: 2,
            probe_rounds: 1,
            n_train_tasks: 4,
            n_eval_tasks: 2,
        }
    }

    /// The LoRA-family rank/α.
    pub fn lora_config(&self) -> LoraConfig {
        self.lora
    }

    /// ResNet config for this experiment.
    pub fn resnet(&self) -> ResNetConfig {
        ResNetConfig {
            in_channels: 3,
            channels: self.resnet_channels.clone(),
            blocks_per_stage: self.resnet_blocks,
            num_classes: metalora_data::synth::NUM_CLASSES,
        }
    }

    /// Mixer config for this experiment.
    pub fn mixer(&self) -> MixerConfig {
        MixerConfig {
            in_channels: 3,
            image_size: self.image_size,
            patch_size: self.mixer_patch,
            dim: self.mixer_dim,
            token_hidden: self.mixer_dim * 2 / 3,
            channel_hidden: self.mixer_dim * 2,
            depth: self.mixer_depth,
            num_classes: metalora_data::synth::NUM_CLASSES,
        }
    }

    /// Vision-Transformer config for this experiment (shares the Mixer's
    /// patch/width budget; 4 heads).
    pub fn transformer(&self) -> TransformerConfig {
        TransformerConfig {
            in_channels: 3,
            image_size: self.image_size,
            patch_size: self.mixer_patch,
            dim: self.mixer_dim,
            heads: 4,
            mlp_hidden: self.mixer_dim * 2,
            depth: self.mixer_depth,
            num_classes: metalora_data::synth::NUM_CLASSES,
        }
    }

    /// Probe episode geometry.
    pub fn episode(&self) -> EpisodeSpec {
        EpisodeSpec {
            support_per_class: self.support_per_class,
            query_per_class: self.query_per_class,
            image_size: self.image_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_consistent() {
        for cfg in [ExperimentConfig::standard(), ExperimentConfig::quick()] {
            assert_eq!(cfg.image_size % cfg.mixer_patch, 0);
            assert!(cfg.n_train_tasks <= 12);
            assert!(cfg.n_eval_tasks <= 6);
            assert!(cfg.lora.rank >= 1);
            let lc = cfg.lora_config();
            assert_eq!(lc.rank, cfg.lora.rank);
            assert_eq!(cfg.resnet().num_classes, 8);
            assert_eq!(cfg.mixer().image_size, cfg.image_size);
            assert_eq!(cfg.transformer().dim % cfg.transformer().heads, 0);
            assert_eq!(cfg.episode().image_size, cfg.image_size);
        }
    }

    #[test]
    fn arch_names() {
        assert_eq!(Arch::ResNet.name(), "ResNet");
        assert_eq!(Arch::Mixer.name(), "MLP-Mixer");
        assert_eq!(Arch::Transformer.name(), "ViT");
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = ExperimentConfig::standard();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.image_size, cfg.image_size);
        assert_eq!(back.resnet_channels, cfg.resnet_channels);
    }
}
