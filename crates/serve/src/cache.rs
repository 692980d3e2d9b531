//! Byte-capacity LRU cache of merged weights `W + ΔW`.
//!
//! Keys are `(tenant, version)` pairs — a re-registered adapter bumps its
//! version in the [`crate::store::AdapterStore`], so a stale merged
//! weight can never be served even if it is still resident. Values are
//! shared handles to the merge (4 bytes/element); the eviction threshold
//! is the total resident bytes. An evicted weight is dropped, and its
//! memory freed once the last request holding it finishes: merged weights
//! are storage, so they never enter the workspace arena, which holds
//! kernel scratch only.
//!
//! Merges are built *outside* the lock: concurrent misses on the same key
//! may both compute the (deterministic, hence bitwise-identical) merge,
//! and the first insert wins — correctness never depends on winning.

use crate::store::TenantId;
use metalora_tensor::Tensor;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache key: tenant id plus the store's version stamp.
pub type CacheKey = (TenantId, u64);

/// Hit/miss/eviction accounting: the one count of these facts (the
/// registry's `serve_cache_lookups_total` / `serve_cache_evictions_total`
/// series are its live-telemetry export).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that had to build the merged weight.
    pub misses: u64,
    /// Entries evicted to stay under the byte capacity.
    pub evictions: u64,
    /// Bytes currently resident (4 per element).
    pub bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Arc<Tensor>>,
    /// Recency order, least-recently-used first.
    lru: Vec<CacheKey>,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    fn touch(&mut self, key: CacheKey) {
        if let Some(pos) = self.lru.iter().position(|&k| k == key) {
            self.lru.remove(pos);
        }
        self.lru.push(key);
    }

    /// Debits `w`'s bytes and drops the cache's handle.
    fn release(&mut self, w: Arc<Tensor>) {
        self.bytes -= w.len() * 4;
    }

    /// Evicts LRU-first until the total resident bytes fit `capacity`.
    fn evict_to(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > capacity && !self.lru.is_empty() {
            let key = self.lru.remove(0);
            if let Some(w) = self.map.remove(&key) {
                self.release(w);
                evicted += 1;
            }
        }
        self.evictions += evicted;
        evicted
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

    /// Looks up `key`, building the merged weight with `build` on a miss.
    ///
    /// The builder runs outside the lock; on a concurrent double-miss the
    /// first insert wins and the loser adopts it (both builds are bitwise
    /// identical, so either result is correct). A weight larger than the
    /// whole capacity is returned uncached.
    pub fn get_or_insert<F>(&self, key: CacheKey, build: F) -> crate::Result<Arc<Tensor>>
    where
        F: FnOnce() -> crate::Result<Tensor>,
    {
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = inner.map.get(&key).cloned() {
                inner.hits += 1;
                inner.touch(key);
                metalora_obs::registry::inc("serve_cache_lookups_total", "result=hit", 1);
                return Ok(w);
            }
            inner.misses += 1;
        }
        metalora_obs::registry::inc("serve_cache_lookups_total", "result=miss", 1);
        let built = Arc::new(build()?);
        metalora_obs::counters::SERVE_MERGES.add(1);
        if built.len() * 4 > self.capacity {
            return Ok(built);
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(w) = inner.map.get(&key).cloned() {
            // Lost a double-miss race; adopt the resident copy.
            inner.touch(key);
            return Ok(w);
        }
        inner.bytes += built.len() * 4;
        inner.map.insert(key, built.clone());
        inner.lru.push(key);
        let evicted = inner.evict_to(self.capacity);
        if evicted > 0 {
            metalora_obs::registry::inc("serve_cache_evictions_total", "", evicted);
        }
        Ok(built)
    }

    /// Whether `key` is resident (test hook; does not touch recency).
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
            bytes: inner.bytes as u64,
            entries: inner.map.len() as u64,
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.lru.clear();
        inner.map.clear();
        inner.bytes = 0;
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
    fn purge_tenant_preserves_other_tenants_recency_order() {
        let c = MergedCache::new(1024);
        // Interleave three versions of tenant 1 with tenants 2 and 3.
        c.get_or_insert((1, 1), || Ok(tensor(1.0))).unwrap();
        c.get_or_insert((2, 1), || Ok(tensor(2.0))).unwrap();
        c.get_or_insert((1, 2), || Ok(tensor(1.2))).unwrap();
        c.get_or_insert((3, 1), || Ok(tensor(3.0))).unwrap();
        c.get_or_insert((1, 3), || Ok(tensor(1.3))).unwrap();
        c.purge_tenant(1);
        assert_eq!(c.lru_keys(), vec![(2, 1), (3, 1)]);
        let s = c.stats();
        assert_eq!((s.entries, s.bytes), (2, 128));
        // Purges are not evictions.
        assert_eq!(s.evictions, 0);
    }
}
