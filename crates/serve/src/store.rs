//! The adapter store: per-tenant factor snapshots keyed by user/task id.
//!
//! Entries hold plain [`Tensor`] value snapshots (not `ParamRef` cells,
//! which are `Rc`-based and not `Send`), so the store — and the engine
//! around it — can be shared across serving threads behind `&self`.
//! Each insert bumps the tenant's version stamp, across `remove` too; the
//! merged-weight cache keys on `(tenant, version)`, so a re-registered
//! adapter can never be served from a stale merged weight.

use crate::Result;
use metalora_peft::meta::{MetaLoraCpLinear, MetaLoraTrLinear};
use metalora_peft::{ConvLora, LoraLinear};
use metalora_tensor::{Tensor, TensorError};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// User/task identifier requests are routed by.
pub type TenantId = u64;

/// One tenant's adapter, as value snapshots of the trained factors.
///
/// `scaling` is the merged `α/R` factor ([`metalora_peft::LoraConfig::
/// scaling`]) baked in at registration time.
#[derive(Clone, Debug)]
pub enum TenantAdapter {
    /// Plain dense LoRA: `a:[I,R]`, `b:[R,O]`.
    Lora { a: Tensor, b: Tensor, scaling: f32 },
    /// Conv-LoRA: `a:[K,K,I,R]`, `b:[R,O]` over the shared conv base.
    ConvLora { a: Tensor, b: Tensor, scaling: f32 },
    /// MetaLoRA-CP factors (Eq. 6). With `pinned_seed: Some(c:[R])` the
    /// tenant is frozen to one task snapshot (cacheable as a merged
    /// weight); with `None` the seed is generated per input by the
    /// engine's mapping net.
    MetaCp {
        a: Tensor,
        b: Tensor,
        scaling: f32,
        pinned_seed: Option<Tensor>,
    },
    /// MetaLoRA-TR cores (Eq. 7): `a:[R,I,R]`, `b:[R,O,R]`, pinned seed
    /// `C:[R,R]`.
    MetaTr {
        a: Tensor,
        b: Tensor,
        scaling: f32,
        pinned_seed: Option<Tensor>,
    },
    /// One slot of the engine's shared `peft::multi` bank.
    MultiSlot { slot: usize },
}

impl TenantAdapter {
    /// Snapshot of a trained [`LoraLinear`]'s factors.
    pub fn from_lora(adapter: &LoraLinear) -> Self {
        TenantAdapter::Lora {
            a: adapter.a.value(),
            b: adapter.b.value(),
            scaling: adapter.config().scaling(),
        }
    }

    /// Snapshot of a trained [`ConvLora`]'s factors.
    pub fn from_conv_lora(adapter: &ConvLora) -> Self {
        TenantAdapter::ConvLora {
            a: adapter.a.value(),
            b: adapter.b.value(),
            scaling: adapter.config().scaling(),
        }
    }

    /// Snapshot of a trained [`MetaLoraCpLinear`], optionally frozen to
    /// one task seed.
    pub fn from_meta_cp(adapter: &MetaLoraCpLinear, pinned_seed: Option<Tensor>) -> Self {
        TenantAdapter::MetaCp {
            a: adapter.a.value(),
            b: adapter.b.value(),
            scaling: adapter.config().scaling(),
            pinned_seed,
        }
    }

    /// Snapshot of a trained [`MetaLoraTrLinear`], optionally frozen to
    /// one task seed.
    pub fn from_meta_tr(adapter: &MetaLoraTrLinear, pinned_seed: Option<Tensor>) -> Self {
        TenantAdapter::MetaTr {
            a: adapter.a.value(),
            b: adapter.b.value(),
            scaling: adapter.config().scaling(),
            pinned_seed,
        }
    }

    /// Stable method name for logs and reports.
    pub fn method(&self) -> &'static str {
        match self {
            TenantAdapter::Lora { .. } => "lora",
            TenantAdapter::ConvLora { .. } => "conv_lora",
            TenantAdapter::MetaCp { .. } => "meta_cp",
            TenantAdapter::MetaTr { .. } => "meta_tr",
            TenantAdapter::MultiSlot { .. } => "multi_slot",
        }
    }

    /// Whether the adapter admits a merged-weight snapshot: static deltas
    /// always do; dynamic MetaLoRA (no pinned seed) realises a different
    /// `ΔW` per input and cannot be folded.
    pub fn cacheable(&self) -> bool {
        match self {
            TenantAdapter::Lora { .. }
            | TenantAdapter::ConvLora { .. }
            | TenantAdapter::MultiSlot { .. } => true,
            TenantAdapter::MetaCp { pinned_seed, .. }
            | TenantAdapter::MetaTr { pinned_seed, .. } => pinned_seed.is_some(),
        }
    }
}

/// One registered tenant.
#[derive(Debug)]
pub struct TenantEntry {
    /// The routing id.
    pub id: TenantId,
    /// Bumped on every (re-)registration; part of the cache key.
    pub version: u64,
    /// The factor snapshot.
    pub adapter: TenantAdapter,
}

/// Thread-safe tenant registry.
#[derive(Default)]
pub struct AdapterStore {
    inner: RwLock<Registry>,
}

/// The registered tenants, and the last version issued per id — kept
/// after `remove` (one `u64` per id ever registered).
#[derive(Default)]
struct Registry {
    live: HashMap<TenantId, Arc<TenantEntry>>,
    issued: HashMap<TenantId, u64>,
}

impl AdapterStore {
    /// An empty store.
    pub fn new() -> Self {
        AdapterStore::default()
    }

    /// Registers (or replaces) `id`'s adapter; returns the new version
    /// (1 for a first registration, the last one issued + 1 after that).
    pub fn insert(&self, id: TenantId, adapter: TenantAdapter) -> u64 {
        let mut reg = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let version = reg.issued.get(&id).map_or(1, |v| v + 1);
        reg.issued.insert(id, version);
        reg.live.insert(id, Arc::new(TenantEntry { id, version, adapter }));
        version
    }

    /// Looks up a tenant.
    pub fn get(&self, id: TenantId) -> Option<Arc<TenantEntry>> {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .live
            .get(&id)
            .cloned()
    }

    /// Looks up a tenant, erroring on unknown ids (the request path).
    pub fn get_required(&self, id: TenantId) -> Result<Arc<TenantEntry>> {
        self.get(id).ok_or_else(|| {
            TensorError::InvalidArgument(format!("serve: unknown tenant id {id}"))
        })
    }

    /// Deregisters a tenant; returns whether it existed.
    pub fn remove(&self, id: TenantId) -> bool {
        self.inner
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .live
            .remove(&id)
            .is_some()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).live.len()
    }

    /// `true` when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All tenant ids, sorted (deterministic iteration for reports).
    pub fn ids(&self) -> Vec<TenantId> {
        let mut v: Vec<TenantId> = self
            .inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .live
            .keys()
            .copied()
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lora(v: f32) -> TenantAdapter {
        TenantAdapter::Lora {
            a: Tensor::from_vec(vec![v; 4], &[2, 2]).unwrap(),
            b: Tensor::zeros(&[2, 3]),
            scaling: 2.0,
        }
    }

    #[test]
    fn insert_bumps_versions_per_tenant() {
        let s = AdapterStore::new();
        assert_eq!(s.insert(7, lora(1.0)), 1);
        assert_eq!(s.insert(7, lora(2.0)), 2);
        assert_eq!(s.insert(8, lora(3.0)), 1);
        assert_eq!(s.get(7).unwrap().version, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.ids(), vec![7, 8]);
        assert!(s.remove(7));
        assert!(!s.remove(7));
        assert!(s.get_required(7).is_err());
    }

    #[test]
    fn cacheability_follows_pinned_seed() {
        let dyn_cp = TenantAdapter::MetaCp {
            a: Tensor::zeros(&[2, 2]),
            b: Tensor::zeros(&[2, 3]),
            scaling: 1.0,
            pinned_seed: None,
        };
        let pin_cp = TenantAdapter::MetaCp {
            a: Tensor::zeros(&[2, 2]),
            b: Tensor::zeros(&[2, 3]),
            scaling: 1.0,
            pinned_seed: Some(Tensor::zeros(&[2])),
        };
        assert!(!dyn_cp.cacheable());
        assert!(pin_cp.cacheable());
        assert!(lora(0.0).cacheable());
        assert!(TenantAdapter::MultiSlot { slot: 0 }.cacheable());
        assert_eq!(dyn_cp.method(), "meta_cp");
    }
}
