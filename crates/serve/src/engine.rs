//! The serving engine: store + cache + tape-free forwards over batches.
//!
//! A [`ServeEngine`] owns value snapshots of one shared frozen base layer
//! (dense, and optionally a conv base and a `peft::multi` slot bank) plus
//! the two mapping nets, the tenant [`AdapterStore`] and the merged-weight
//! [`MergedCache`]. Everything inside is `Send + Sync` — requests can be
//! served from any number of threads through `&self`.
//!
//! Per batch, the engine runs what the batch shares **once**:
//!
//! * mapping-net seed generation — all dynamic MetaLoRA-CP rows are
//!   stacked into one `[ΣN, D]` forward (and likewise for TR), then split
//!   back per request;
//! * the frozen base and every factored update — the rows of every
//!   request served factored over the dense base (everything except the
//!   merged-cacheable arm and `ConvLora`) are stacked into one `[ΣN, I]`
//!   matrix for a single `x·W + b`, and one `ops::lowrank` pass over a
//!   segment table adds each request's scaled low-rank update (LoRA, bank
//!   slot, CP or Tensor-Ring) onto its rows in place. The stacked output
//!   is then split into per-request tensors once. A batch of one is a
//!   stack of one.
//!
//! Both are bitwise identical to per-request execution: matmul rows are
//! independent, each owns its full increasing-k accumulation on either
//! kernel, packing is pure data movement, and the pass gives every
//! element of a segment the scalar sequence of that tenant's own `ops`
//! chain. W never changes (the PEFT premise), so it is multiplied once;
//! only the input-dependent update (paper Eq. 6/7) is per tenant.

use crate::batch::{concat_rows, split_rows, Request};
use crate::cache::{CacheKey, MergedCache};
use crate::forward::{self, MappingSnapshot};
use crate::store::{AdapterStore, TenantAdapter, TenantEntry, TenantId};
use crate::telemetry::{self, StageNs};
use crate::Result;
use metalora_nn::infer;
use metalora_obs::registry;
use metalora_peft::meta::MappingNet;
use metalora_peft::{merge, MultiLoraLinear};
use metalora_tensor::conv::ConvSpec;
use metalora_tensor::ops::{self, Mix, Seed, Segment};
use metalora_tensor::{Tensor, TensorError};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Engine knobs. `use_merged` selects the serving mode: `false` (the
/// default) always runs the factored forward (bitwise-equal to training,
/// and the faster mode on every measured stream, cache-resident ones
/// included); `true` folds cacheable adapters into `W + ΔW` once (cached,
/// approximate vs the factored math at ~1e-4 relative).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Requests per released batch (default 16).
    pub max_batch: usize,
    /// Merged-weight cache capacity in bytes (default 64 MiB).
    pub cache_bytes: usize,
    /// Serve cacheable tenants through merged weights (default `false`).
    pub use_merged: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 16,
            cache_bytes: 64 * 1024 * 1024,
            use_merged: false,
        }
    }
}

/// The multi-tenant serving engine.
pub struct ServeEngine {
    base_w: Tensor,
    base_b: Option<Tensor>,
    conv_w: Option<Tensor>,
    conv_b: Option<Tensor>,
    conv_spec: Option<ConvSpec>,
    bank_a: Vec<Tensor>,
    bank_b: Vec<Tensor>,
    bank_scaling: f32,
    mapping_cp: Option<MappingSnapshot>,
    mapping_tr: Option<MappingSnapshot>,
    store: AdapterStore,
    cache: MergedCache,
    cfg: EngineConfig,
    requests: AtomicU64,
    batches: AtomicU64,
    next_request_id: AtomicU64,
}

impl ServeEngine {
    /// An engine over one shared frozen dense base `w:[I,O]` (+ `bias:[O]`).
    pub fn new(base_w: Tensor, base_b: Option<Tensor>, cfg: EngineConfig) -> Self {
        let cache = MergedCache::new(cfg.cache_bytes);
        ServeEngine {
            base_w,
            base_b,
            conv_w: None,
            conv_b: None,
            conv_spec: None,
            bank_a: Vec::new(),
            bank_b: Vec::new(),
            bank_scaling: 1.0,
            mapping_cp: None,
            mapping_tr: None,
            store: AdapterStore::new(),
            cache,
            cfg,
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            next_request_id: AtomicU64::new(0),
        }
    }

    /// Adds a shared frozen conv base for `ConvLora` tenants.
    pub fn with_conv_base(mut self, w: Tensor, bias: Option<Tensor>, spec: ConvSpec) -> Self {
        self.conv_w = Some(w);
        self.conv_b = bias;
        self.conv_spec = Some(spec);
        self
    }

    /// Snapshots a trained `peft::multi` bank for `MultiSlot` tenants.
    pub fn with_bank(mut self, bank: &MultiLoraLinear) -> Self {
        self.bank_a = bank.a.iter().map(|p| p.value()).collect();
        self.bank_b = bank.b.iter().map(|p| p.value()).collect();
        self.bank_scaling = bank.config().scaling();
        self
    }

    /// Snapshots the CP mapping net for dynamic `MetaCp` tenants.
    pub fn with_mapping_cp(mut self, net: &MappingNet) -> Self {
        self.mapping_cp = Some(MappingSnapshot::from_net(net));
        self
    }

    /// Snapshots the TR mapping net for dynamic `MetaTr` tenants.
    pub fn with_mapping_tr(mut self, net: &MappingNet) -> Self {
        self.mapping_tr = Some(MappingSnapshot::from_net(net));
        self
    }

    /// Registers (or replaces) a tenant; returns its version stamp.
    pub fn register(&self, id: TenantId, adapter: TenantAdapter) -> u64 {
        self.store.insert(id, adapter)
    }

    /// Deregisters a tenant and purges its merged weights.
    pub fn deregister(&self, id: TenantId) -> bool {
        let existed = self.store.remove(id);
        self.cache.purge_tenant(id);
        existed
    }

    /// The tenant registry.
    pub fn store(&self) -> &AdapterStore {
        &self.store
    }

    /// The merged-weight cache.
    pub fn cache(&self) -> &MergedCache {
        &self.cache
    }

    /// The engine knobs.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Requests served so far.
    pub fn request_count(&self) -> u64 {
        self.requests.load(Relaxed)
    }

    /// Batches executed so far.
    pub fn batch_count(&self) -> u64 {
        self.batches.load(Relaxed)
    }

    /// Serves one request (a one-element batch).
    pub fn serve_one(&self, req: &Request) -> Result<Tensor> {
        let mut out = self.serve_batch(std::slice::from_ref(req))?;
        Ok(out.remove(0))
    }

    /// Serves a whole stream in `max_batch`-sized batches and a ragged
    /// tail — the [`crate::Batcher`]'s release pattern — through
    /// [`Self::serve_batch`]; outputs are in request order.
    pub fn process(&self, reqs: &[Request]) -> Result<Vec<Tensor>> {
        let mut out = Vec::with_capacity(reqs.len());
        for batch in reqs.chunks(self.cfg.max_batch.max(1)) {
            out.extend(self.serve_batch(batch)?);
        }
        Ok(out)
    }

    /// Serves one batch: resolves tenants, checks every stacked request's
    /// width, runs the batch's one mapping-net forward per format and its
    /// one stacked base product with every factored update added on, then
    /// splits off each stacked request's rows and runs each other
    /// request's own forward. Outputs are in request order.
    ///
    /// With telemetry on, every request gets an id and a per-stage
    /// breakdown (cache / mapping / gemm) recorded through
    /// [`crate::telemetry`]; the telemetry clock is only read from this
    /// sequential loop — never from inside a kernel — so logical-clock
    /// runs are bit-reproducible. Timing is passive: outputs are bitwise
    /// identical with telemetry on or off.
    pub fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Tensor>> {
        // An empty batch is a no-op: no span, counter, series or lock.
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let _sp = metalora_obs::span!("serve/batch");
        let tel = registry::enabled();
        let entries: Vec<Arc<TenantEntry>> = reqs
            .iter()
            .map(|r| self.store.get_required(r.tenant))
            .collect::<Result<_>>()?;
        // Inputs are `[N, in]` or `[N, C, H, W]`; everything below may
        // index the row extent.
        if let Some(i) = reqs.iter().position(|r| r.x.dims().len() < 2) {
            return Err(TensorError::InvalidArgument(format!(
                "serve: request {i} input has rank {}, expected [N, in] or [N, C, H, W]",
                reqs[i].x.dims().len()
            )));
        }

        let segments = self.base_segments(reqs, &entries)?;
        let stacked_rows = segments.iter().flatten().map(|rows| rows.len()).sum::<usize>();

        let batch_t0 = if tel { registry::now_ns() } else { 0 };
        let seeds = self.generate_batch_seeds(reqs, &entries)?;
        let seeds_t1 = if tel { registry::now_ns() } else { 0 };
        // The stacked mapping-net forward is one GEMM for all dynamic
        // requests; attribute it evenly across them.
        let mapping_share = if seeds.is_empty() {
            0
        } else {
            seeds_t1.saturating_sub(batch_t0) / seeds.len() as u64
        };
        let mut stacked = self.stacked_forward(reqs, &entries, &segments, &seeds)?;
        // The stacked base product and the low-rank pass over it are one
        // stage for all factored requests; attribute it by row share.
        let base_ns = if tel { registry::now_ns().saturating_sub(seeds_t1) } else { 0 };

        let mut out = Vec::with_capacity(reqs.len());
        for (i, (req, entry)) in reqs.iter().zip(&entries).enumerate() {
            let mut stages = StageNs::default();
            let fwd_t0 = if tel { registry::now_ns() } else { 0 };
            // A stacked request's own forward is splitting off its rows;
            // a lone one's output is the product itself.
            let y = match (&segments[i], &stacked) {
                (Some(_), Some(_)) if segments.iter().flatten().count() == 1 => stacked.take().expect("a stack"),
                (Some(rows), Some(y)) => {
                    let o = y.dims()[1];
                    Tensor::from_vec(y.data()[rows.start * o..rows.end * o].to_vec(), &[rows.len(), o])?
                }
                _ => self.forward_one(entry, &req.x, tel, &mut stages)?,
            };
            if tel {
                let fwd_ns = registry::now_ns().saturating_sub(fwd_t0);
                // The bias is fused into the GEMM store, so the forward
                // splits into cache time and "everything else" = gemm,
                // which for a factored request includes its rows' share
                // of the stacked stage.
                stages.gemm = fwd_ns.saturating_sub(stages.cache);
                if let Some(rows) = &segments[i] {
                    stages.gemm += base_ns * rows.len() as u64 / stacked_rows.max(1) as u64;
                }
                if seeds.contains_key(&i) {
                    stages.mapping = mapping_share;
                }
                let id = self.next_request_id.fetch_add(1, Relaxed);
                telemetry::record_request(id, req.tenant, entry.adapter.method(), stages);
            }
            out.push(y);
        }
        self.requests.fetch_add(reqs.len() as u64, Relaxed);
        self.batches.fetch_add(1, Relaxed);
        if tel {
            telemetry::record_batch(reqs.len(), &self.cache.stats());
        }
        Ok(out)
    }

    /// Whether `entry`'s requests are served as "stacked base product +
    /// this tenant's update": everything except the merged-cacheable arm
    /// (one GEMM against its own merged weight) and `ConvLora` (the conv
    /// base).
    fn rides_base_stack(&self, entry: &TenantEntry) -> bool {
        let merged = self.cfg.use_merged && entry.adapter.cacheable();
        !merged && !matches!(entry.adapter, TenantAdapter::ConvLora { .. })
    }

    /// Row ranges of the batch's stacked base product, in request order:
    /// `Some(rows)` for every request that rides it. Every width is
    /// checked here, before anything is stacked, so a malformed request
    /// fails the batch by name instead of a concat by shape.
    fn base_segments(
        &self,
        reqs: &[Request],
        entries: &[Arc<TenantEntry>],
    ) -> Result<Vec<Option<Range<usize>>>> {
        let mut next = 0;
        reqs.iter()
            .zip(entries)
            .enumerate()
            .map(|(i, (req, entry))| {
                if !self.rides_base_stack(entry) {
                    return Ok(None);
                }
                match (self.base_w.dims(), req.x.dims()) {
                    (&[in_dim, _], &[n, width]) if width == in_dim => {
                        next += n;
                        Ok(Some(next - n..next))
                    }
                    (base, x) => Err(TensorError::InvalidArgument(format!(
                        "serve: request {i} input {x:?} does not fit the base weight {base:?} as [N, I]·[I, O]"
                    ))),
                }
            })
            .collect()
    }

    /// `x·W + b` once for the rows of every request with a segment,
    /// stacked in request order (a lone request's input is borrowed), then
    /// one `ops::lowrank` pass adding each one's scaled update onto its
    /// rows. Matmul rows are independent and the pass gives each element
    /// its tenant's own chain, so a row of the result is bitwise the row a
    /// per-request forward computes. `None` when no request rides.
    fn stacked_forward(
        &self,
        reqs: &[Request],
        entries: &[Arc<TenantEntry>],
        segments: &[Option<Range<usize>>],
        seeds: &HashMap<usize, Tensor>,
    ) -> Result<Option<Tensor>> {
        let (mut parts, mut updates) = (Vec::new(), Vec::new());
        for (i, ((req, entry), rows)) in reqs.iter().zip(entries).zip(segments).enumerate() {
            if let Some(rows) = rows {
                parts.push(&req.x);
                updates.push(self.update(entry, rows.clone(), seeds.get(&i))?);
            }
        }
        let x = match parts[..] {
            [] => return Ok(None),
            [one] => Cow::Borrowed(one),
            _ => Cow::Owned(concat_rows(&parts)?),
        };
        let _sp = metalora_obs::span!("base");
        let mut y = infer::linear(&x, &self.base_w, self.base_b.as_ref())?;
        ops::lowrank(&x, &mut y, &updates)?;
        Ok(Some(y))
    }

    /// `entry`'s scaled update over `rows` of the stack. A pinned seed is
    /// read in place for every row; a dynamic tenant uses `seed`, the rows
    /// the batch's mapping-net forward generated for it.
    fn update<'a>(
        &'a self,
        entry: &'a TenantEntry,
        rows: Range<usize>,
        seed: Option<&'a Tensor>,
    ) -> Result<Segment<'a>> {
        let seed = |pinned: &'a Option<Tensor>| match pinned {
            Some(c) => Ok(Seed::Pinned(c)),
            None => seed.map(Seed::Rows).ok_or_else(|| TensorError::InvalidArgument("serve: missing seed".into())),
        };
        let (down, up, scaling, mix) = match &entry.adapter {
            TenantAdapter::Lora { a, b, scaling } => (a, b, *scaling, Mix::None),
            TenantAdapter::MultiSlot { slot } => self.bank_slot(*slot).map(|(a, b)| (a, b, self.bank_scaling, Mix::None))?,
            TenantAdapter::MetaCp { a, b, scaling, pinned_seed } => (a, b, *scaling, Mix::Gate(seed(pinned_seed)?)),
            TenantAdapter::MetaTr { a, b, scaling, pinned_seed } => (a, b, *scaling, Mix::Ring(seed(pinned_seed)?)),
            TenantAdapter::ConvLora { .. } => unreachable!("a conv_lora tenant never rides the stack"),
        };
        Ok(Segment { rows, down, up, scaling, mix })
    }

    /// One mapping-net forward per format for all dynamic rows of the
    /// batch, split back into per-request seed blocks keyed by request
    /// index.
    fn generate_batch_seeds(
        &self,
        reqs: &[Request],
        entries: &[Arc<TenantEntry>],
    ) -> Result<HashMap<usize, Tensor>> {
        let mut seeds = HashMap::new();
        for (format, mapping) in [("cp", &self.mapping_cp), ("tr", &self.mapping_tr)] {
            let dynamic: Vec<usize> = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| match (&e.adapter, format) {
                    (TenantAdapter::MetaCp { pinned_seed, .. }, "cp")
                    | (TenantAdapter::MetaTr { pinned_seed, .. }, "tr") => pinned_seed.is_none(),
                    _ => false,
                })
                .map(|(i, _)| i)
                .collect();
            if dynamic.is_empty() {
                continue;
            }
            let Some(mapping) = mapping else {
                return Err(TensorError::InvalidArgument(format!(
                    "serve: dynamic meta_{format} tenant but no {format} mapping net registered"
                )));
            };
            let _sp = metalora_obs::span!("seed");
            let parts: Vec<&Tensor> = dynamic.iter().map(|&i| &reqs[i].x).collect();
            let counts: Vec<usize> = dynamic.iter().map(|&i| reqs[i].rows()).collect();
            let stacked = concat_rows(&parts)?;
            let generated = mapping.generate(&stacked)?;
            metalora_obs::counters::SERVE_SEED_ROWS.add(generated.dims()[0] as u64);
            for (i, seed) in dynamic.into_iter().zip(split_rows(&generated, &counts)?) {
                seeds.insert(i, seed);
            }
        }
        Ok(seeds)
    }

    /// The cached merge `base + ΔW` for `key`, built on a miss.
    /// `tel`/`stages` attribute the cache lookup (merge included on a
    /// miss) to the `cache` stage when telemetry is on.
    fn merged_weight<D>(
        &self,
        key: CacheKey,
        base: &Tensor,
        delta: D,
        tel: bool,
        stages: &mut StageNs,
    ) -> Result<Arc<Tensor>>
    where
        D: FnOnce() -> Result<Tensor>,
    {
        let t0 = if tel { registry::now_ns() } else { 0 };
        let w = self.cache.get_or_insert(key, || merge::merge_into(base, &delta()?))?;
        if tel {
            stages.cache = registry::now_ns().saturating_sub(t0);
        }
        Ok(w)
    }

    /// The tape-free forward of a request that does not ride the stack:
    /// a GEMM against its tenant's cached merged weight, or — factored —
    /// Conv-LoRA over the conv base.
    fn forward_one(
        &self,
        entry: &TenantEntry,
        x: &Tensor,
        tel: bool,
        stages: &mut StageNs,
    ) -> Result<Tensor> {
        let merged = self.cfg.use_merged && entry.adapter.cacheable();
        if let (false, TenantAdapter::ConvLora { a, b, scaling }) = (merged, &entry.adapter) {
            let (w, spec) = self.conv_base()?;
            return forward::conv_lora(x, w, self.conv_b.as_ref(), spec, a, b, *scaling);
        }
        // Every cacheable adapter is one dense update folded into the base
        // it rides on; only conv tenants ride the conv base.
        let conv = match &entry.adapter {
            TenantAdapter::ConvLora { .. } => Some(self.conv_base()?),
            _ => None,
        };
        let base = conv.map_or(&self.base_w, |(w, _)| w);
        let delta = || match &entry.adapter {
            TenantAdapter::Lora { a, b, scaling } => merge::lora_delta(a, b, *scaling),
            TenantAdapter::ConvLora { a, b, scaling } => merge::conv_lora_delta(a, b, *scaling),
            TenantAdapter::MetaCp { a, b, scaling, pinned_seed: Some(c) } => {
                merge::cp_delta(a, b, c, *scaling)
            }
            TenantAdapter::MetaTr { a, b, scaling, pinned_seed: Some(c) } => {
                merge::tr_delta(a, b, c, *scaling)
            }
            TenantAdapter::MultiSlot { slot } => {
                let (a, b) = self.bank_slot(*slot)?;
                merge::lora_delta(a, b, self.bank_scaling)
            }
            TenantAdapter::MetaCp { pinned_seed: None, .. }
            | TenantAdapter::MetaTr { pinned_seed: None, .. } => Err(TensorError::InvalidArgument(
                "serve: a dynamic adapter has no dense update".into(),
            )),
        };
        let w = self.merged_weight((entry.id, entry.version), base, delta, tel, stages)?;
        match conv {
            Some((_, spec)) => infer::conv2d(x, &w, self.conv_b.as_ref(), spec),
            None => infer::linear(x, &w, self.base_b.as_ref()),
        }
    }

    /// The bank factors of `slot`, bounds-checked.
    fn bank_slot(&self, slot: usize) -> Result<(&Tensor, &Tensor)> {
        match (self.bank_a.get(slot), self.bank_b.get(slot)) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(TensorError::IndexOutOfRange { index: slot, len: self.bank_a.len() }),
        }
    }

    fn conv_base(&self) -> Result<(&Tensor, ConvSpec)> {
        match (&self.conv_w, self.conv_spec) {
            (Some(w), Some(spec)) => Ok((w, spec)),
            _ => Err(TensorError::InvalidArgument(
                "serve: conv_lora tenant but no conv base registered".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_tensor::init;

    fn engine(use_merged: bool) -> ServeEngine {
        let mut rng = init::rng(21);
        let w = init::uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let b = init::uniform(&[3], -0.5, 0.5, &mut rng);
        let cfg = EngineConfig {
            max_batch: 4,
            cache_bytes: 1 << 20,
            use_merged,
        };
        ServeEngine::new(w, Some(b), cfg)
    }

    fn lora_tenant(rng: &mut rand::rngs::StdRng) -> TenantAdapter {
        TenantAdapter::Lora {
            a: init::uniform(&[4, 2], -1.0, 1.0, rng),
            b: init::uniform(&[2, 3], -1.0, 1.0, rng),
            scaling: 1.5,
        }
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeEngine>();
    }

    #[test]
    fn unknown_tenant_is_an_error() {
        let e = engine(true);
        let req = Request::new(404, Tensor::zeros(&[1, 4]));
        assert!(e.serve_one(&req).is_err());
    }

    #[test]
    fn merged_and_factored_agree_approximately() {
        let mut rng = init::rng(22);
        let em = engine(true);
        let ef = engine(false);
        let t = lora_tenant(&mut rng);
        em.register(1, t.clone());
        ef.register(1, t);
        let req = Request::new(1, init::uniform(&[2, 4], -1.0, 1.0, &mut rng));
        let ym = em.serve_one(&req).unwrap();
        let yf = ef.serve_one(&req).unwrap();
        assert!(metalora_tensor::approx_eq(&ym, &yf, 1e-4));
        assert_eq!(em.cache().stats().misses, 1);
        // Second request hits the cache.
        em.serve_one(&req).unwrap();
        assert_eq!(em.cache().stats().hits, 1);
        assert_eq!(em.request_count(), 2);
        assert_eq!(em.batch_count(), 2);
    }

    #[test]
    fn reregistration_bumps_version_and_remerges() {
        let mut rng = init::rng(23);
        let e = engine(true);
        let first = lora_tenant(&mut rng);
        let v1 = e.register(5, first.clone());
        let req = Request::new(5, init::uniform(&[1, 4], -1.0, 1.0, &mut rng));
        let y1 = e.serve_one(&req).unwrap();
        // New factors → same tenant id must serve the *new* function.
        e.register(5, lora_tenant(&mut rng));
        let y2 = e.serve_one(&req).unwrap();
        assert!(!metalora_tensor::approx_eq(&y1, &y2, 1e-5));
        assert_eq!(e.cache().stats().misses, 2);
        assert!(e.deregister(5));
        assert!(e.cache().lru_keys().is_empty() || !e.cache().contains((5, 1)));
        // A request that raced the deregistration lands a merge of the
        // first adapter under its key after the purge: an adapter
        // registered next must never be served from it.
        let TenantAdapter::Lora { a, b, scaling } = &first else { unreachable!() };
        let stale = || merge::merge_into(&e.base_w, &merge::lora_delta(a, b, *scaling)?);
        e.cache().get_or_insert((5, v1), stale).unwrap();
        let (third, solo) = (lora_tenant(&mut rng), engine(true));
        solo.register(5, third.clone());
        assert_ne!(e.register(5, third), v1, "a version was issued twice");
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(e.serve_one(&req).unwrap()), bits(solo.serve_one(&req).unwrap()));
    }

    #[test]
    fn bank_slot_bounds_checked() {
        let e = engine(false);
        e.register(9, TenantAdapter::MultiSlot { slot: 3 });
        let req = Request::new(9, Tensor::zeros(&[1, 4]));
        assert!(matches!(
            e.serve_one(&req),
            Err(TensorError::IndexOutOfRange { index: 3, len: 0 })
        ));
    }

    #[test]
    fn dynamic_meta_without_mapping_net_errors() {
        let mut rng = init::rng(24);
        let e = engine(false);
        e.register(
            2,
            TenantAdapter::MetaCp {
                a: init::uniform(&[4, 2], -1.0, 1.0, &mut rng),
                b: init::uniform(&[2, 3], -1.0, 1.0, &mut rng),
                scaling: 1.0,
                pinned_seed: None,
            },
        );
        let req = Request::new(2, Tensor::zeros(&[1, 4]));
        assert!(e.serve_one(&req).is_err());
    }

    #[test]
    fn wrong_rank_factors_are_an_error_not_a_panic() {
        // A tenant registered with rank-1 factors must fail its requests
        // with `Err` on the serving thread — factored and merged alike.
        for use_merged in [false, true] {
            let e = engine(use_merged);
            let v = || Tensor::zeros(&[4]);
            let (a, b, scaling) = (v(), v(), 1.0);
            e.register(1, TenantAdapter::Lora { a: v(), b: v(), scaling });
            let pinned_seed = Some(Tensor::zeros(&[2]));
            e.register(2, TenantAdapter::MetaCp { a: v(), b: v(), scaling, pinned_seed });
            let pinned_seed = Some(Tensor::zeros(&[2, 2]));
            e.register(3, TenantAdapter::MetaTr { a, b, scaling, pinned_seed });
            for id in 1..=3 {
                let req = Request::new(id, Tensor::zeros(&[1, 4]));
                assert!(
                    matches!(e.serve_one(&req), Err(TensorError::InvalidArgument(_))),
                    "tenant {id}, merged = {use_merged}"
                );
            }
        }
    }

    #[test]
    fn process_chunks_and_preserves_order() {
        let mut rng = init::rng(25);
        let e = engine(false);
        e.register(1, lora_tenant(&mut rng));
        let reqs: Vec<Request> = (0..7)
            .map(|_| Request::new(1, init::uniform(&[1, 4], -1.0, 1.0, &mut rng)))
            .collect();
        let outs = e.process(&reqs).unwrap();
        assert_eq!(outs.len(), 7);
        // max_batch = 4 → batches of 4 and 3.
        assert_eq!(e.batch_count(), 2);
        for (req, out) in reqs.iter().zip(&outs) {
            let solo = e.serve_one(req).unwrap();
            assert_eq!(
                solo.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
