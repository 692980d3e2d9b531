//! # metalora-autograd
//!
//! Reverse-mode automatic differentiation over [`metalora_tensor::Tensor`].
//!
//! The design is a classic *tape*: a [`Graph`] owns an append-only arena of
//! nodes; building an op records its inputs and any saved activations;
//! [`Graph::backward`] walks the arena in reverse, accumulating gradients.
//! Construction order is a valid topological order by construction, so no
//! explicit sort is needed.
//!
//! Training loops create a fresh graph per step, enter the batch as data
//! ([`Graph::input`]), *bind* shared parameters ([`ParamRef`],
//! [`Graph::bind`]) as leaves, run forward + backward, then
//! [`Graph::flush_grads`] accumulates leaf gradients back into the shared
//! parameter cells where optimisers (in `metalora-nn`) consume them.
//!
//! Only what trains is differentiated: each node carries a *gradient
//! demand* bit (a [`Graph::variable`] or trainable bind, or any op
//! downstream of one), `backward` builds no gradient for an operand without
//! it, and forward saves no activation a demand-less node would only have
//! kept for backward — see [`graph`]. A frozen backbone on a data leaf
//! costs nothing in the reverse sweep.
//!
//! The op set is exactly what the MetaLoRA reproduction needs: dense and
//! convolutional layers, the activations/normalisations of ResNet and
//! MLP-Mixer, softmax cross-entropy, and the broadcast elementwise algebra
//! that the CP / Tensor-Ring adapter contractions lower to.
//!
//! [`check::grad_check`] provides finite-difference verification; every op
//! carries a gradient-check test.

mod backward;
pub mod check;
pub mod graph;
pub mod param;

pub use graph::{Graph, Var};
pub use param::ParamRef;

/// Crate-wide result alias (errors are tensor errors).
pub type Result<T> = std::result::Result<T, metalora_tensor::TensorError>;
