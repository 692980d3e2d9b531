//! Byte-capacity LRU cache of merged weights `W + ΔW`.
//!
//! Keys are `(tenant, version)` pairs — a re-registered adapter bumps its
//! version in the [`crate::store::AdapterStore`], so a stale merged
//! weight can never be served even if it is still resident. Values are
//! [`CachedWeight`]s: shared handles to either an f32 merge (exact, 4
//! bytes/element) or a bf16 snapshot of the merge (2 bytes/element, RNE —
//! see `metalora_tensor::bf16`). At equal byte capacity a bf16-mode cache
//! therefore holds ~2× the tenants; the eviction threshold is the *total*
//! resident bytes across both kinds, and [`CacheStats`] reports the
//! f32/bf16 split. An f32 weight's buffer is recycled into the workspace
//! arena on eviction once the cache holds the sole reference; bf16
//! buffers just drop (the arena pools f32 storage only).
//!
//! Merges are built *outside* the lock: concurrent misses on the same key
//! may both compute the (deterministic, hence bitwise-identical) merge,
//! and the first insert wins — correctness never depends on winning.

use crate::store::TenantId;
use metalora_tensor::ops::{Operand, Storage};
use metalora_tensor::{workspace, Bf16Buf, Tensor};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache key: tenant id plus the store's version stamp.
pub type CacheKey = (TenantId, u64);

/// Hit/miss/eviction accounting, mirrored into the global obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that had to build the merged weight.
    pub misses: u64,
    /// Entries evicted to stay under the byte capacity.
    pub evictions: u64,
    /// Bytes currently resident (f32 + bf16).
    pub bytes: u64,
    /// Resident bytes held by f32 entries (4 bytes/element).
    pub bytes_f32: u64,
    /// Resident bytes held by bf16 entries (2 bytes/element).
    pub bytes_bf16: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// A resident merged weight, in either storage precision.
#[derive(Clone)]
pub enum CachedWeight {
    /// Exact f32 merge.
    F32(Arc<Tensor>),
    /// bf16 snapshot of the merge (half the bytes, one RNE rounding).
    Bf16(Arc<Bf16Buf>),
}

impl CachedWeight {
    /// Resident footprint of this entry.
    pub fn byte_len(&self) -> usize {
        match self {
            CachedWeight::F32(t) => t.len() * 4,
            CachedWeight::Bf16(b) => b.byte_len(),
        }
    }

    /// The weight as a GEMM operand — storage is data, so one forward
    /// serves both precisions.
    pub fn operand(&self) -> Operand<'_> {
        match self {
            CachedWeight::F32(t) => Operand::F32(t),
            CachedWeight::Bf16(b) => Operand::Bf16(b),
        }
    }
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, CachedWeight>,
    /// Recency order, least-recently-used first.
    lru: Vec<CacheKey>,
    bytes_f32: usize,
    bytes_bf16: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    fn total_bytes(&self) -> usize {
        self.bytes_f32 + self.bytes_bf16
    }

    fn touch(&mut self, key: CacheKey) {
        if let Some(pos) = self.lru.iter().position(|&k| k == key) {
            self.lru.remove(pos);
        }
        self.lru.push(key);
    }

    fn credit(&mut self, w: &CachedWeight) {
        match w {
            CachedWeight::F32(t) => self.bytes_f32 += t.len() * 4,
            CachedWeight::Bf16(b) => self.bytes_bf16 += b.byte_len(),
        }
    }

    /// Debits `w`'s bytes; an f32 buffer the cache solely owns goes back
    /// to the workspace arena (bf16 buffers just drop — the arena pools
    /// f32 storage only).
    fn release(&mut self, w: CachedWeight) {
        match w {
            CachedWeight::F32(t) => {
                self.bytes_f32 -= t.len() * 4;
                if let Ok(t) = Arc::try_unwrap(t) {
                    workspace::recycle(t);
                }
            }
            CachedWeight::Bf16(b) => self.bytes_bf16 -= b.byte_len(),
        }
    }

    /// Evicts LRU-first until the total resident bytes fit `capacity`.
    fn evict_to(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.total_bytes() > capacity && !self.lru.is_empty() {
            let key = self.lru.remove(0);
            if let Some(w) = self.map.remove(&key) {
                self.release(w);
                evicted += 1;
            }
        }
        self.evictions += evicted;
        evicted
    }

    /// Inserts `built` under `key` after a miss: a variant-swap replaces
    /// the old entry in place (the key is already in the recency list),
    /// a fresh key is appended as most-recent.
    fn insert(&mut self, key: CacheKey, built: CachedWeight) {
        self.credit(&built);
        match self.map.insert(key, built) {
            Some(old) => {
                self.release(old);
                self.touch(key);
            }
            None => self.lru.push(key),
        }
    }
}

/// The merged-weight LRU cache.
pub struct MergedCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl MergedCache {
    /// A cache holding at most `capacity_bytes` of merged weights.
    pub fn new(capacity_bytes: usize) -> Self {
        MergedCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity_bytes,
        }
    }

    /// Byte capacity this cache evicts down to.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Looks up `key` as an f32 entry, building the merged weight with
    /// `build` on a miss — [`Self::get_or_insert_weight`] at
    /// [`Storage::F32`].
    pub fn get_or_insert<F>(&self, key: CacheKey, build: F) -> crate::Result<Arc<Tensor>>
    where
        F: FnOnce() -> crate::Result<Tensor>,
    {
        let built = || Ok(CachedWeight::F32(Arc::new(build()?)));
        match self.get_or_insert_weight(key, Storage::F32, built)? {
            CachedWeight::F32(t) => Ok(t),
            CachedWeight::Bf16(_) => unreachable!("an f32 lookup hits and builds f32 entries only"),
        }
    }

    /// Looks up `key` as an entry stored as `storage`, building it with
    /// `build` (which must produce that storage) on a miss. A bf16 entry
    /// takes half the resident bytes per element, so equal capacity holds
    /// ~2× the tenants.
    ///
    /// The builder runs outside the lock; on a concurrent double-miss the
    /// first insert wins and the loser adopts it (both builds are bitwise
    /// identical, so either result is correct). A weight larger than the
    /// whole capacity is returned uncached. A key resident in the *other*
    /// precision counts as a miss and is replaced — precisions never
    /// alias (a bf16 entry widened is the rounded merge, not the merge).
    pub fn get_or_insert_weight<F>(
        &self,
        key: CacheKey,
        storage: Storage,
        build: F,
    ) -> crate::Result<CachedWeight>
    where
        F: FnOnce() -> crate::Result<CachedWeight>,
    {
        let resident = |inner: &Inner| {
            inner.map.get(&key).filter(|w| w.operand().storage() == storage).cloned()
        };
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = resident(&inner) {
                inner.hits += 1;
                inner.touch(key);
                metalora_obs::counters::record_serve_cache(true);
                metalora_obs::registry::inc("serve_cache_lookups_total", "result=hit", 1);
                return Ok(w);
            }
            inner.misses += 1;
        }
        metalora_obs::counters::record_serve_cache(false);
        metalora_obs::registry::inc("serve_cache_lookups_total", "result=miss", 1);
        let built = build()?;
        metalora_obs::counters::record_serve_merge();
        if built.byte_len() > self.capacity {
            return Ok(built);
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(w) = resident(&inner) {
            // Lost a double-miss race; adopt the resident copy.
            inner.touch(key);
            return Ok(w);
        }
        inner.insert(key, built.clone());
        let evicted = inner.evict_to(self.capacity);
        if evicted > 0 {
            metalora_obs::counters::record_serve_evictions(evicted);
            metalora_obs::registry::inc("serve_cache_evictions_total", "", evicted);
        }
        Ok(built)
    }

    /// Whether `key` is resident in either precision (test hook; does not
    /// touch recency).
    pub fn contains(&self, key: CacheKey) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .contains_key(&key)
    }

    /// Resident keys, least-recently-used first (test hook).
    pub fn lru_keys(&self) -> Vec<CacheKey> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lru
            .clone()
    }

    /// Current accounting.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            bytes: inner.total_bytes() as u64,
            bytes_f32: inner.bytes_f32 as u64,
            bytes_bf16: inner.bytes_bf16 as u64,
            entries: inner.map.len() as u64,
        }
    }

    /// Drops every entry (counters are kept; buffers recycle when sole).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.lru.clear();
        let drained: Vec<CachedWeight> = inner.map.drain().map(|(_, w)| w).collect();
        for w in drained {
            inner.release(w);
        }
    }

    /// Drops every resident version of one tenant (deregistration path):
    /// map removals per key, then **one** pass over the recency list —
    /// not a `retain` per removed key, which made purging a tenant with
    /// `v` resident versions O(v·len) and re-walked the eviction-order
    /// bookkeeping once per version.
    pub fn purge_tenant(&self, id: TenantId) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let keys: Vec<CacheKey> = inner
            .map
            .keys()
            .filter(|(t, _)| *t == id)
            .copied()
            .collect();
        for key in keys {
            if let Some(w) = inner.map.remove(&key) {
                inner.release(w);
            }
        }
        inner.lru.retain(|&(t, _)| t != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(v: f32) -> Tensor {
        // [4, 4] → 64 bytes.
        Tensor::from_vec(vec![v; 16], &[4, 4]).unwrap()
    }

    /// Inserts a `[4, 4]` (32-byte) bf16 entry of `v`s on a miss.
    fn get_bf16(c: &MergedCache, key: CacheKey, v: f32) -> Arc<Bf16Buf> {
        let build = || Ok(CachedWeight::Bf16(Arc::new(Bf16Buf::from_f32(&[v; 16], &[4, 4])?)));
        match c.get_or_insert_weight(key, Storage::Bf16, build).unwrap() {
            CachedWeight::Bf16(b) => b,
            CachedWeight::F32(_) => panic!("bf16 lookup returned an f32 entry"),
        }
    }

    #[test]
    fn hit_miss_and_recency() {
        let c = MergedCache::new(1024);
        let a = c.get_or_insert((1, 1), || Ok(tensor(1.0))).unwrap();
        let b = c.get_or_insert((1, 1), || panic!("must not rebuild")).unwrap();
        assert_eq!(a.data(), b.data());
        c.get_or_insert((2, 1), || Ok(tensor(2.0))).unwrap();
        // Touch (1,1): it becomes most-recent.
        c.get_or_insert((1, 1), || panic!()).unwrap();
        assert_eq!(c.lru_keys(), vec![(2, 1), (1, 1)]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 2, 0));
        assert_eq!(s.bytes, 128);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn evicts_least_recent_first_to_capacity() {
        let c = MergedCache::new(128); // room for two 64-byte weights
        c.get_or_insert((1, 1), || Ok(tensor(1.0))).unwrap();
        c.get_or_insert((2, 1), || Ok(tensor(2.0))).unwrap();
        c.get_or_insert((3, 1), || Ok(tensor(3.0))).unwrap();
        assert!(!c.contains((1, 1)), "LRU entry evicted");
        assert_eq!(c.lru_keys(), vec![(2, 1), (3, 1)]);
        assert_eq!(c.stats().evictions, 1);
        // Evicted key rebuilds on next access.
        c.get_or_insert((1, 1), || Ok(tensor(1.0))).unwrap();
        assert!(!c.contains((2, 1)));
    }

    #[test]
    fn oversized_weight_bypasses_cache() {
        let c = MergedCache::new(32);
        let t = c.get_or_insert((1, 1), || Ok(tensor(1.0))).unwrap();
        assert_eq!(t.len(), 16);
        assert!(!c.contains((1, 1)));
        assert_eq!(c.stats().bytes, 0);
    }

    #[test]
    fn version_bump_is_a_distinct_key() {
        let c = MergedCache::new(1024);
        c.get_or_insert((1, 1), || Ok(tensor(1.0))).unwrap();
        let v2 = c.get_or_insert((1, 2), || Ok(tensor(9.0))).unwrap();
        assert_eq!(v2.data()[0], 9.0);
        assert!(c.contains((1, 1)) && c.contains((1, 2)));
        c.purge_tenant(1);
        assert!(!c.contains((1, 1)) && !c.contains((1, 2)));
        assert_eq!(c.stats().bytes, 0);
        assert!(c.lru_keys().is_empty());
    }

    #[test]
    fn builder_errors_propagate_and_do_not_insert() {
        let c = MergedCache::new(1024);
        let r = c.get_or_insert((1, 1), || {
            Err(metalora_tensor::TensorError::InvalidArgument("boom".into()))
        });
        assert!(r.is_err());
        assert!(!c.contains((1, 1)));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn bf16_entries_use_half_bytes_and_split_stats() {
        let c = MergedCache::new(1024);
        c.get_or_insert((1, 1), || Ok(tensor(1.0))).unwrap();
        let b = get_bf16(&c, (2, 1), 0.5);
        assert_eq!(b.widen().data(), &[0.5; 16]);
        let s = c.stats();
        assert_eq!((s.bytes_f32, s.bytes_bf16, s.bytes), (64, 32, 96));
        assert_eq!(s.entries, 2);
        // A second lookup is a hit on the shared handle.
        let hit = c.get_or_insert_weight((2, 1), Storage::Bf16, || panic!("hit expected"));
        assert!(matches!(hit.unwrap(), CachedWeight::Bf16(b2) if b2.data() == b.data()));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn equal_capacity_holds_twice_the_bf16_entries() {
        // 128 bytes: two f32 [4,4] entries (evicts on the third) but four
        // bf16 entries — the capacity doubling the serve path banks on.
        let cf = MergedCache::new(128);
        for t in 0..3 {
            cf.get_or_insert((t, 1), || Ok(tensor(t as f32))).unwrap();
        }
        assert_eq!(cf.stats().evictions, 1);

        let cb = MergedCache::new(128);
        for t in 0..4 {
            get_bf16(&cb, (t, 1), t as f32);
        }
        let s = cb.stats();
        assert_eq!((s.evictions, s.entries, s.bytes_bf16), (0, 4, 128));
        get_bf16(&cb, (4, 1), 4.0);
        assert_eq!(cb.stats().evictions, 1);
    }

    #[test]
    fn purge_tenant_preserves_other_tenants_recency_order() {
        let c = MergedCache::new(1024);
        // Interleave three versions of tenant 1 with tenants 2 and 3.
        c.get_or_insert((1, 1), || Ok(tensor(1.0))).unwrap();
        c.get_or_insert((2, 1), || Ok(tensor(2.0))).unwrap();
        c.get_or_insert((1, 2), || Ok(tensor(1.2))).unwrap();
        get_bf16(&c, (3, 1), 3.0);
        c.get_or_insert((1, 3), || Ok(tensor(1.3))).unwrap();
        c.purge_tenant(1);
        assert_eq!(c.lru_keys(), vec![(2, 1), (3, 1)]);
        let s = c.stats();
        assert_eq!((s.entries, s.bytes_f32, s.bytes_bf16), (2, 64, 32));
        // Purges are not evictions.
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn precision_mismatch_is_a_miss_and_replaces_in_place() {
        let c = MergedCache::new(1024);
        c.get_or_insert((1, 1), || Ok(tensor(1.0))).unwrap();
        let b = get_bf16(&c, (1, 1), 2.0);
        assert_eq!(b.widen().data()[0], 2.0);
        let s = c.stats();
        // Second lookup was a miss; the entry swapped precision in place.
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 1));
        assert_eq!((s.bytes_f32, s.bytes_bf16), (0, 32));
        assert_eq!(c.lru_keys(), vec![(1, 1)]);
    }
}
