//! # metalora-data
//!
//! Data substrate for the MetaLoRA reproduction. The paper evaluates on
//! unnamed visual datasets with a KNN probe; this crate provides the
//! controlled synthetic equivalent (see DESIGN.md, "Substitutions"):
//!
//! * [`synth`] — a procedural 8-class shape/texture image generator and a
//!   family of *task shifts* (rotation, channel permutation, noise,
//!   occlusion, contrast, blur…). A *task* = base classification problem +
//!   one shift; train tasks and held-out evaluation tasks are disjoint.
//! * [`task`] — task specifications, episode sampling (support/query
//!   splits) and the task-family construction used by Table I.
//! * [`dataset`] — labelled image batches.
//! * [`knn`] — the K-nearest-neighbour probe (K = 5/10 in Table I).
//! * [`stats`] — mean/variance, Welch's two-sided t-test (the paper's `*`
//!   significance marker).

pub mod dataset;
pub mod knn;
pub mod stats;
pub mod synth;
pub mod task;

pub use dataset::LabeledImages;
pub use knn::KnnClassifier;
pub use synth::{ShapeClass, Shift};
pub use task::{EpisodeSpec, TaskFamily, TaskSpec};

/// Crate-wide result alias (errors are tensor errors).
pub type Result<T> = std::result::Result<T, metalora_tensor::TensorError>;
