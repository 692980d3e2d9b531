//! # metalora-peft
//!
//! The paper's contribution: parameter-efficient fine-tuning adapters over
//! the `metalora-nn` layer traits.
//!
//! * [`adapter`] — the one frozen-base shell [`Adapter`], computing
//!   `y = base(x) + (α/R)·Δ(x)`; each adapter type below is
//!   `Adapter<kind, method>`, a method being its factors and `Δ` chain;
//! * [`lora`] — standard LoRA for dense layers
//!   (`ΔW = (α/R)·A·B`, Hu et al. 2021);
//! * [`conv_lora`] — **Conv-LoRA** (Eq. 5): a low-rank update for
//!   convolutional tensors `Δ𝒲 = 𝒜 ×₄ B`, executed factored as a small
//!   convolution followed by a 1×1 channel-recovery convolution (Fig. 3);
//! * [`multi`] — the Multi-LoRA baseline: a bank of independent adapters
//!   selected per task;
//! * [`meta`] — **MetaLoRA**: the mapping net generates a per-input
//!   parameter seed that is integrated through the CP (Eq. 6) or
//!   Tensor-Ring (Eq. 7) format, for both dense and convolutional layers
//!   (Sec. III-C/III-D), plus the [`meta::MetaLora`] wrapper that chains
//!   feature extraction → mapping net → adapted backbone (Fig. 4), or
//!   drives the same adapters from one learned constant seed (the
//!   static-seed ablation);
//! * [`inject`] — one injection function per method (`lora`, `multi`,
//!   `meta`, `static_seed`), one walk over any `Injectable` backbone;
//! * [`count`] — trainable-parameter accounting (the A1 experiment).
//!
//! All adapters initialise to a **zero delta** so the adapted model starts
//! exactly at the pretrained function, and all freeze the base layer they
//! wrap.

pub mod adapter;
pub mod conv_lora;
pub mod count;
pub mod inject;
pub mod lora;
pub mod merge;
pub mod meta;
pub mod multi;

pub use adapter::Adapter;
pub use conv_lora::ConvLora;
pub use count::ParamReport;
pub use lora::LoraLinear;
pub use meta::{
    MappingNet, MetaFormat, MetaLora, MetaLoraCpConv, MetaLoraCpLinear, MetaLoraTrConv,
    MetaLoraTrLinear,
};
pub use multi::{MultiLoraConv, MultiLoraLinear};
use serde::{Deserialize, Serialize};

/// Crate-wide result alias (errors are tensor errors).
pub type Result<T> = std::result::Result<T, metalora_tensor::TensorError>;

/// Shared LoRA-family hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LoraConfig {
    /// Rank `R` of the low-rank update.
    pub rank: usize,
    /// Scaling numerator `α`; the delta is scaled by `α/R`.
    pub alpha: f32,
}

impl Default for LoraConfig {
    fn default() -> Self {
        LoraConfig {
            rank: 4,
            alpha: 8.0,
        }
    }
}

impl LoraConfig {
    /// The effective delta scale `α/R`.
    pub fn scaling(&self) -> f32 {
        self.alpha / self.rank.max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_alpha_over_rank() {
        let c = LoraConfig {
            rank: 4,
            alpha: 8.0,
        };
        assert_eq!(c.scaling(), 2.0);
        let c = LoraConfig {
            rank: 0,
            alpha: 8.0,
        };
        assert_eq!(c.scaling(), 8.0); // guarded division
        assert_eq!(LoraConfig::default().rank, 4);
    }
}
