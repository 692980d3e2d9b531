//! # metalora-serve
//!
//! Multi-tenant adapter serving: MetaLoRA's production story is millions
//! of users each carrying a tiny adapter (mapping-net–generated LoRA
//! factors, Eq. 6–7 of the paper) over one shared frozen backbone. This
//! crate is the inference layer for that story, built on `peft::merge`
//! and `peft::multi`:
//!
//! * [`store`] — the adapter store: per-tenant factor **snapshots**
//!   (plain `Tensor`s, so the whole engine is `Send + Sync`; `ParamRef`
//!   cells are `Rc`-based and cannot cross threads) keyed by user/task
//!   id, with a version stamp bumped on every update.
//! * [`cache`] — a byte-capacity LRU cache of merged weights `W + ΔW`
//!   keyed by `(tenant, version)`, backed by the workspace arena (merges
//!   allocate from the pool, evicted weights are recycled into it).
//! * [`batch`] — the request batcher: groups requests and amortises
//!   mapping-net seed generation across a batch (one MLP forward for all
//!   dynamic-MetaLoRA rows instead of one per request).
//! * [`forward`] — tape-free adapter forwards. Each mirrors the exact
//!   `ops::` sequence of the corresponding training-mode graph forward,
//!   so serve outputs are **bitwise identical** to the tape — the
//!   `forward_equiv` suite asserts it for every adapter method.
//! * [`engine`] — [`engine::ServeEngine`] wires the four together and
//!   records the serve counters.
//! * [`telemetry`] — the bridge into `obs::registry`/`obs::slo`: per-
//!   request stage breakdowns (queue / cache / mapping / gemm),
//!   per-tenant windowed latency and SLO accounting, cache
//!   and batcher gauges, and tail-latency attribution. Active only when
//!   `METALORA_OBS_METRICS` telemetry is on; purely passive either way.
//! * [`traffic`] — synthetic zipf-distributed multi-tenant traffic with
//!   per-task input shifts, for the `serve` artifact driver and the
//!   repo benchmark.
//!
//! ## Determinism guarantees
//!
//! The kernel layer keeps every element's increasing-`k` accumulation
//! order regardless of threads/packing, and matmul rows are computed
//! independently. Two serving-level invariants follow, both test-gated:
//!
//! 1. **Forward-only ≡ training forward** (bitwise): the tape-free path
//!    issues the same op sequence on the same values.
//! 2. **Batched ≡ one-at-a-time** (bitwise): stacking request rows into
//!    one mapping-net forward yields each row's seed unchanged.
//!
//! Merged-weight serving (`W + ΔW` folded once, then a plain dense
//! forward) is *not* bitwise-equal to the factored forward — same
//! ~1e-4-relative story as `peft::merge` — but the merge itself is
//! deterministic, so cached and freshly recomputed merged weights are
//! bitwise identical and concurrent tenants can never cross-contaminate.

pub mod batch;
pub mod cache;
pub mod engine;
pub mod forward;
pub mod store;
pub mod telemetry;
pub mod traffic;

pub use batch::{Batcher, Request};
pub use cache::{CacheKey, CacheStats, MergedCache};
pub use engine::{EngineConfig, ServeEngine};
pub use store::{AdapterStore, TenantAdapter, TenantEntry, TenantId};
pub use telemetry::StageNs;

/// Crate-wide result alias (errors are tensor errors).
pub type Result<T> = std::result::Result<T, metalora_tensor::TensorError>;
