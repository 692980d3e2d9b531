//! Property tests for the merged-weight LRU cache.
//!
//! A reference model (a plain vec in recency order plus exact counters)
//! is driven with arbitrary interleavings of lookups, version bumps, and
//! whole-tenant purges; [`MergedCache`] must agree on residency, eviction
//! order, and the hit/miss/eviction/byte accounting after every step.
//! A second property checks the semantic contract: a weight served from
//! cache is bitwise the weight a fresh merge would produce.

use metalora_peft::merge;
use metalora_serve::{CacheStats, MergedCache};
use metalora_tensor::{init, Tensor};
use proptest::prelude::*;

/// Every cached tensor is [8, 8]: 64 elements at 4 bytes, so `capacity`
/// entries fit.
const ENTRY_ELEMS: usize = 64;
const ENTRY_BYTES: usize = 4 * ENTRY_ELEMS;

fn tensor_for(tenant: u64, version: u64) -> Tensor {
    Tensor::from_vec(
        vec![tenant as f32 + version as f32 / 100.0; ENTRY_ELEMS],
        &[8, 8],
    )
    .unwrap()
}

/// Exact reference: keys in recency order (LRU first) + counters.
#[derive(Default)]
struct ModelLru {
    keys: Vec<(u64, u64)>,
    capacity_entries: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ModelLru {
    fn lookup(&mut self, key: (u64, u64)) {
        if let Some(pos) = self.keys.iter().position(|&k| k == key) {
            self.hits += 1;
            self.keys.remove(pos);
            self.keys.push(key);
        } else {
            self.misses += 1;
            self.keys.push(key);
            while self.keys.len() > self.capacity_entries {
                self.keys.remove(0);
                self.evictions += 1;
            }
        }
    }

    /// Purge: drop every resident key of `tenant` without touching the
    /// hit/miss/eviction counters (a purge is not an eviction).
    fn purge(&mut self, tenant: u64) {
        self.keys.retain(|&(t, _)| t != tenant);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            // 4 · Σ elements of the resident set.
            bytes: (4 * self.keys.len() * ENTRY_ELEMS) as u64,
            entries: self.keys.len() as u64,
        }
    }
}

/// One step of the driving sequence: which tenant to act on, and whether
/// to first bump its version (re-registration) or purge it outright
/// (deregistration) before the lookup / instead of it.
#[derive(Debug, Clone, Copy)]
enum Action {
    Lookup,
    BumpThenLookup,
    Purge,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    tenant: u64,
    action: Action,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Encodes (tenant ∈ 0..6, action ∈ {lookup, bump+lookup, purge}) in
    // one draw — the vendored proptest stub has no tuple strategies.
    (0u64..18).prop_map(|v| Op {
        tenant: v % 6,
        action: match v / 6 {
            0 => Action::Lookup,
            1 => Action::BumpThenLookup,
            _ => Action::Purge,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_matches_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..80),
        capacity_entries in 1usize..5,
    ) {
        let cache = MergedCache::new(capacity_entries * ENTRY_BYTES);
        let mut model = ModelLru {
            capacity_entries,
            ..ModelLru::default()
        };
        let mut versions = [1u64; 6];

        for op in ops {
            match op.action {
                Action::Purge => {
                    // Mid-sequence deregistration: all of the tenant's
                    // resident versions leave at once, the other tenants'
                    // recency order and the counters are untouched.
                    model.purge(op.tenant);
                    cache.purge_tenant(op.tenant);
                }
                lookup => {
                    if matches!(lookup, Action::BumpThenLookup) {
                        versions[op.tenant as usize] += 1;
                    }
                    let key = (op.tenant, versions[op.tenant as usize]);
                    model.lookup(key);
                    let built = cache
                        .get_or_insert(key, || Ok(tensor_for(key.0, key.1)))
                        .unwrap();
                    // Served value is always the key's own weight, never a
                    // stale entry from a pre-bump version.
                    prop_assert_eq!(built.data()[0], tenant_value(key));
                }
            }
            prop_assert_eq!(cache.lru_keys(), model.keys.clone(), "recency order");
            prop_assert_eq!(cache.stats(), model.stats(), "counters");
        }
    }

    #[test]
    fn cached_merge_is_bitwise_equal_to_fresh_merge(
        i in 1usize..7, o in 1usize..7, r in 1usize..4, seed in 0u64..300,
    ) {
        let mut rng = init::rng(seed);
        let base = init::uniform(&[i, o], -1.0, 1.0, &mut rng);
        let a = init::uniform(&[i, r], -1.0, 1.0, &mut rng);
        let b = init::uniform(&[r, o], -1.0, 1.0, &mut rng);
        let scaling = 1.5;

        let fresh = || merge::merge_into(&base, &merge::lora_delta(&a, &b, scaling)?);
        let cache = MergedCache::new(1 << 16);
        let first = cache.get_or_insert((1, 1), fresh).unwrap();
        // Second lookup must be a hit...
        let second = cache.get_or_insert((1, 1), || panic!("hit expected")).unwrap();
        prop_assert_eq!(cache.stats().hits, 1);
        // ...and both bitwise equal to an uncached merge.
        let reference = fresh().unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&first), bits(&reference));
        prop_assert_eq!(bits(&second), bits(&reference));
    }
}

fn tenant_value(key: (u64, u64)) -> f32 {
    key.0 as f32 + key.1 as f32 / 100.0
}
