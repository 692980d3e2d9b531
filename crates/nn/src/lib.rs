//! # metalora-nn
//!
//! Neural-network layers, backbones and optimisers for the MetaLoRA
//! reproduction, built on [`metalora_autograd`].
//!
//! * [`module`] — the [`Module`]/[`LinearLike`]/[`ConvLike`] traits, the
//!   forward [`Ctx`] that carries PEFT state (generated parameter seeds,
//!   adapter selection), the [`Injectable`] trait through which a backbone
//!   names its PEFT injection points, and parameter utilities.
//! * [`layers`] — Linear, Conv2d, BatchNorm2d, LayerNorm.
//! * [`models`] — the two backbones of Table I, a small **ResNet** and an
//!   **MLP-Mixer**, and the Sec. III-E **Vision Transformer**, each
//!   [`Injectable`], plus a plain MLP.
//! * [`optim`] — SGD(+momentum) and Adam with weight decay.
//! * [`train`] — the one training step and epoch record that pretraining
//!   and adaptation share, plus batching and accuracy helpers.
//! * [`infer`] — tape-free forward math on plain tensors, bitwise
//!   identical to the graph forwards (the serving engine's substrate).

pub mod checkpoint;
pub mod infer;
pub mod layers;
pub mod models;
pub mod module;
pub mod optim;
pub mod train;

pub use checkpoint::Checkpoint;
pub use layers::{BatchNorm2d, Conv2d, LayerNorm, Linear};
pub use module::{
    Backbone, BoxConv, BoxLinear, ConvLike, Ctx, Injectable, Layer, LinearLike, Module,
};
pub use optim::{Adam, Optimizer, Sgd};

/// Crate-wide result alias (errors are tensor errors).
pub type Result<T> = std::result::Result<T, metalora_tensor::TensorError>;
