//! # metalora
//!
//! The facade crate of the MetaLoRA reproduction: it re-exports every
//! subsystem and hosts the experiment harness that regenerates the
//! paper's results.
//!
//! ## Layout
//!
//! * [`config`] — experiment configuration (backbone, sizes, schedules).
//! * [`methods`] — the method column of Table I (Original, LoRA,
//!   Multi-LoRA, MetaLoRA-CP, MetaLoRA-TR) plus the ablation rows: full
//!   fine-tuning (A2) and the static-seed MetaLoRA-CP (A5).
//! * [`pipeline`] — the pretrain → adapt → KNN-probe protocol.
//! * [`table1`] — the one experiment grid (archs × methods × seeds) with
//!   Welch t-test stars; Table I is its default, and the A2, A3, A5 and
//!   E1 bins run it over their own rows and columns.
//! * [`report`] — the accuracy cell format, and the table renderer
//!   re-exported from `metalora_obs::report`.
//!
//! ## Quickstart
//!
//! ```no_run
//! use metalora::config::ExperimentConfig;
//! use metalora::methods::Method;
//! use metalora::pipeline;
//!
//! let cfg = ExperimentConfig::quick();
//! let backbone = pipeline::pretrain(&cfg, metalora::Arch::ResNet, 0).unwrap();
//! let adapted = pipeline::adapt(backbone, Method::MetaLoraTr, &cfg, 0).unwrap();
//! let probe = pipeline::probe(&adapted, &cfg, 0).unwrap();
//! println!("K=5 accuracy: {:.2}%", 100.0 * probe.mean_accuracy(5).unwrap());
//! ```

pub mod config;
pub mod methods;
pub mod pipeline;
pub mod report;
pub mod table1;

pub use config::{Arch, ExperimentConfig};
pub use methods::Method;
pub use pipeline::{Adapted, AnyBackbone, ProbeResult};
pub use table1::{run_table1, Table1Options, Table1Result};

// Re-export the subsystem crates under stable names.
pub use metalora_autograd as autograd;
pub use metalora_data as data;
pub use metalora_nn as nn;
pub use metalora_peft as peft;
pub use metalora_tensor as tensor;

/// Crate-wide result alias (errors are tensor errors).
pub type Result<T> = std::result::Result<T, metalora_tensor::TensorError>;
