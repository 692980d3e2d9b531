//! Bridge from the serving engine into the live telemetry stack:
//! `obs::registry` (labeled counters/gauges/windowed latency families),
//! `obs::slo` (per-tenant target-p99 accounting) and the tail-latency
//! attribution ring.
//!
//! Label convention: registry labels are `key=value` strings — `tenant=3`,
//! `method=lora`, `size=16`, `stage=gemm` — which the exporter splits into
//! proper Prometheus label pairs.
//!
//! Every function here early-returns unless [`registry::enabled`], and the
//! engine additionally captures that bool once per batch so the per-request
//! loop takes no clock readings at all when telemetry is off. Recording is
//! purely passive — it never touches the tensors — so serve outputs are
//! bitwise identical with telemetry on or off (the golden pipeline and the
//! `telemetry` suite both assert it).

use crate::cache::CacheStats;
use crate::store::TenantId;
use metalora_obs::registry::{self, Attribution, STAGES};
use metalora_obs::{counters, slo, window};

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
/// windowed latency family, per-stage latency windows, and SLO
/// accounting. A request beyond the tenant's p99 target additionally
/// lands a tail-latency [`Attribution`] sample naming the dominant stage.
pub fn record_request(request_id: u64, tenant: TenantId, method: &'static str, stages: StageNs) {
    if !registry::enabled() {
        return;
    }
    let now = window::now_ns();
    let total = stages.total();
    let tenant_label = format!("tenant={tenant}");
    registry::inc("serve_requests_total", &tenant_label, 1);
    registry::inc("serve_requests_by_method_total", &format!("method={method}"), 1);
    registry::observe("serve_request_latency_ns", &tenant_label, now, total);
    for (name, ns) in STAGES.iter().zip(stages.to_array()) {
        registry::observe("serve_stage_ns", &format!("stage={name}"), now, ns);
    }
    let slow = slo::record(&tenant.to_string(), now, total);
    if slow {
        counters::record_tail_attribution();
        registry::inc("serve_slow_requests_total", &tenant_label, 1);
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
    counters::record_telemetry_request();
}

/// Records one executed batch under its size signature.
pub fn record_batch(size: usize) {
    if !registry::enabled() {
        return;
    }
    registry::inc("serve_batches_by_size_total", &format!("size={size}"), 1);
}

/// Mirrors the merged-weight cache accounting into gauges: resident
/// bytes, resident entries, and cumulative eviction churn.
pub fn record_cache(stats: &CacheStats) {
    if !registry::enabled() {
        return;
    }
    registry::gauge_set("serve_cache_resident_bytes", "", stats.bytes as f64);
    registry::gauge_set("serve_cache_entries", "", stats.entries as f64);
    registry::gauge_set("serve_cache_eviction_churn", "", stats.evictions as f64);
}

/// Records batcher pressure: pending depth and the age of the oldest
/// waiting request.
pub fn record_queue(depth: usize, oldest_age_ns: u64) {
    if !registry::enabled() {
        return;
    }
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
        let labels = [
            TenantAdapter::Lora {
                a: t(),
                b: t(),
                scaling: 1.0,
            }
            .method(),
            TenantAdapter::MultiSlot { slot: 0 }.method(),
        ];
        assert_eq!(labels, ["lora", "multi_slot"]);
    }
}
