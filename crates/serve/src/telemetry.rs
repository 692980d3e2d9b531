//! Bridge from the serving engine into the live telemetry stack:
//! `obs::registry` (labeled counters/gauges/windowed latency families)
//! and its tail-latency attribution ring. The per-tenant series written
//! here are what `obs::slo` derives its SLO rows from.
//!
//! Label convention: registry labels are `key=value` strings — `tenant=3`,
//! `method=lora`, `size=16`, `stage=gemm` — which the exporter splits into
//! proper Prometheus label pairs.
//!
//! The registry drops every record unless [`registry::enabled`], and the
//! engine captures that bool once per batch and calls in here only when
//! it is set, so the per-request loop takes no clock readings at all when
//! telemetry is off. Recording is purely passive — it never touches the
//! tensors — so serve outputs are bitwise identical with telemetry on or
//! off (the golden pipeline and the `telemetry` suite both assert it).

use crate::cache::CacheStats;
use crate::store::TenantId;
use metalora_obs::registry::{self, Attribution, STAGES};
use metalora_obs::{slo, window};

/// Per-stage nanosecond breakdown of one request, ordered like
/// [`registry::STAGES`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageNs {
    /// Batcher wait: enqueue stamp to batch start.
    pub queue: u64,
    /// Merged-weight cache lookup, including the merge on a miss.
    pub cache: u64,
    /// This request's share of the batch's stacked mapping-net forward.
    pub mapping: u64,
    /// The forward GEMM with its fused bias (and everything else in the
    /// tape-free forward that is not the cache stage) — for a request
    /// served factored, splitting off its rows plus its row share of the
    /// batch's stacked base product and low-rank pass.
    pub gemm: u64,
}

impl StageNs {
    /// Array view ordered like [`registry::STAGES`].
    pub fn to_array(self) -> [u64; 4] {
        [self.queue, self.cache, self.mapping, self.gemm]
    }

    /// End-to-end latency: the sum of all stages.
    pub fn total(self) -> u64 {
        self.to_array().iter().sum()
    }
}

/// Records one served request: per-tenant and per-method counters, the
/// windowed latency family and per-stage latency windows. A request
/// beyond the p99 target ([`slo::target_ns`]) is slow: it counts in
/// `serve_slow_requests_total` and lands a tail-latency [`Attribution`]
/// sample naming the dominant stage.
pub fn record_request(request_id: u64, tenant: TenantId, method: &'static str, stages: StageNs) {
    if !registry::enabled() {
        return;
    }
    let now = window::now_ns();
    let total = stages.total();
    let tenant_label = format!("tenant={tenant}");
    registry::inc(slo::REQUESTS, &tenant_label, 1);
    registry::inc("serve_requests_by_method_total", &format!("method={method}"), 1);
    registry::observe(slo::LATENCY, &tenant_label, now, total);
    for (name, ns) in STAGES.iter().zip(stages.to_array()) {
        registry::observe("serve_stage_ns", &format!("stage={name}"), now, ns);
    }
    if total > slo::target_ns() {
        registry::inc(slo::SLOW, &tenant_label, 1);
        let a = Attribution {
            request_id,
            tenant: tenant.to_string(),
            method: method.to_string(),
            total_ns: total,
            stage_ns: stages.to_array(),
        };
        registry::inc("serve_tail_stage_total", &format!("stage={}", a.dominant_stage()), 1);
        registry::record_attribution(a);
    }
}

/// Records one executed batch under its size signature, and mirrors the
/// merged-weight cache accounting into gauges: resident bytes, resident
/// entries, and cumulative eviction churn.
pub fn record_batch(size: usize, stats: &CacheStats) {
    registry::inc("serve_batches_by_size_total", &format!("size={size}"), 1);
    registry::gauge_set("serve_cache_resident_bytes", "", stats.bytes as f64);
    registry::gauge_set("serve_cache_entries", "", stats.entries as f64);
    registry::gauge_set("serve_cache_eviction_churn", "", stats.evictions as f64);
}

/// Records batcher pressure: pending depth and the age of the oldest
/// waiting request.
pub fn record_queue(depth: usize, oldest_age_ns: u64) {
    registry::gauge_set("serve_queue_depth", "", depth as f64);
    registry::gauge_set("serve_queue_age_ns", "", oldest_age_ns as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_array_order_matches_registry_stages() {
        let s = StageNs {
            queue: 1,
            cache: 2,
            mapping: 3,
            gemm: 4,
        };
        assert_eq!(s.to_array(), [1, 2, 3, 4]);
        assert_eq!(s.total(), 10);
        assert_eq!(STAGES, ["queue", "cache", "mapping", "gemm"]);
    }

    #[test]
    fn method_labels_cover_every_adapter() {
        use crate::store::TenantAdapter;
        use metalora_tensor::Tensor;
        let t = || Tensor::zeros(&[1, 1]);
        let adapters = [
            TenantAdapter::Lora { a: t(), b: t(), scaling: 1.0 },
            TenantAdapter::ConvLora { a: t(), b: t(), scaling: 1.0 },
            TenantAdapter::MetaCp { a: t(), b: t(), scaling: 1.0, pinned_seed: None },
            TenantAdapter::MetaTr { a: t(), b: t(), scaling: 1.0, pinned_seed: None },
            TenantAdapter::MultiSlot { slot: 0 },
        ];
        // Exhaustive: a sixth variant fails to compile here until listed.
        for a in &adapters {
            match a {
                TenantAdapter::Lora { .. }
                | TenantAdapter::ConvLora { .. }
                | TenantAdapter::MetaCp { .. }
                | TenantAdapter::MetaTr { .. }
                | TenantAdapter::MultiSlot { .. } => {}
            }
        }
        let labels = adapters.iter().map(TenantAdapter::method).collect::<Vec<_>>();
        assert_eq!(labels, ["lora", "conv_lora", "meta_cp", "meta_tr", "multi_slot"]);
    }
}
