//! Structured run reports: `RUNLOG_<name>.json` plus a summary table.
//!
//! [`RunReport::capture`] snapshots the five collectors (spans, counters,
//! metrics, health, trace) into one value that can be serialised
//! ([`RunReport::to_json`], [`RunReport::write`]) or rendered for humans
//! ([`RunReport::summary_table`]).
//!
//! ## Schema (`schema_version` 10)
//!
//! ```json
//! {
//!   "schema_version": 10,
//!   "name": "table1",
//!   "spans":   [ {"path": "pretrain", "count": 2, "total_ms": 813.4,
//!                 "p50_ms": 400.1, "p95_ms": 413.0, "p99_ms": 413.0} ],
//!   "kernels": [ {"kernel": "matmul", "calls": 10, "flops": 123, "bytes_moved": 456} ],
//!   "dispatch": {"parallel": 3, "serial": 7,
//!                "matmul_packed": 5, "matmul_legacy": 5},
//!   "tile_grid": {"claims": 40, "bpacks": 5, "steals": 2,
//!                 "claims_per_slot": [30, 10]},
//!   "memory":  {"peak_tensor_bytes": 8192, "tensor_bytes_alive": 0},
//!   "workspace": {"hits": 12, "misses": 3, "bytes_reused": 4096,
//!                 "pooled_bytes": 1024, "peak_pooled_bytes": 2048},
//!   "serve":   {"requests": 64, "batches": 4, "seed_rows": 40,
//!               "cache_hits": 50, "cache_misses": 14,
//!               "cache_evictions": 6, "merges": 14},
//!   "fusion":  {"fused_epilogues": 9, "fused_elems": 4096,
//!               "output_passes": 0},
//!   "telemetry": {"metrics_enabled": true, "clock": "monotonic",
//!                 "series": 30, "windows": 12, "attributions": 2,
//!                 "attributions_dropped": 0, "slo_tenants": 12,
//!                 "slo_target_ms": 50, "requests": 96, "tail_samples": 2},
//!   "health":  [ {"phase": "adapt/MetaLoraCp", "group": "mapping", "step": 0,
//!                 "grad_norm": 0.42, "update_ratio": 0.001,
//!                 "weight_norm": 3.1, "nan_count": 0, "inf_count": 0} ],
//!   "trace":   {"events": 128, "dropped": 0},
//!   "epochs":  [ {"phase": "pretrain", "epoch": 0, "loss": 2.1,
//!                 "accuracy": 0.14, "grad_norm": 0.9, "wall_s": 0.4} ]
//! }
//! ```
//!
//! Version history: 2 added the `workspace` arena counters; 3 added span
//! duration quantiles, the packed-vs-legacy matmul tally, the `health`
//! record array and the `trace` buffer stats; 4 added the `tile_grid`
//! scheduler tallies (C-tile claims overall and per worker slot, B-panel
//! pack passes, out-of-sequence "steal" claims); 5 added the `serve`
//! object (serving-engine request/batch totals, amortised seed rows, and
//! merged-weight cache hit/miss/eviction/merge counts); 6 added a
//! half-width storage object (snapshots taken, their actual bytes vs the
//! f32 equivalent, and the derived bytes saved); 7 added the `fusion` object
//! (fused GEMM epilogues applied and their element counts, separate
//! epilogue output passes taken, and three static-plan keys); 8 added
//! the `telemetry` object (live metrics registry stats — labeled series
//! and windowed families, tail attribution samples — plus the SLO tenant
//! count and target, the telemetry clock mode, and the process-wide
//! telemetry request/tail counters); 9 dropped the three plan keys from
//! `fusion` together with the static-plan layer; 10 dropped version 6's
//! object together with the half-width storage it counted — f32 is the
//! only storage.

use crate::counters::{self, CounterSnapshot};
use crate::health::{self, HealthRecord};
use crate::json;
use crate::metrics::{self, EpochRecord};
use crate::span::{self, SpanSummary};
use crate::trace;
use std::path::{Path, PathBuf};

/// Version stamp written into every run log (see the module docs for the
/// version history).
pub const SCHEMA_VERSION: u32 = 10;

/// Live-telemetry capsule captured into the report's `telemetry` object.
#[derive(Debug, Clone)]
pub struct TelemetryInfo {
    /// Whether the metrics registry was recording at capture time.
    pub metrics_enabled: bool,
    /// Telemetry clock mode label (`"monotonic"` or `"logical"`).
    pub clock: &'static str,
    /// Distinct `(name, label)` series in the registry.
    pub series: u64,
    /// How many of those are windowed families.
    pub windows: u64,
    /// Retained tail-latency attribution samples.
    pub attributions: u64,
    /// Tail samples evicted from the bounded ring.
    pub attributions_dropped: u64,
    /// Tenants with SLO accounting.
    pub slo_tenants: u64,
    /// The per-tenant p99 target in milliseconds.
    pub slo_target_ms: f64,
}

/// A captured snapshot of everything the instrumentation recorded.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Report name; also names the output file (`RUNLOG_<name>.json`).
    pub name: String,
    /// Aggregated spans with duration quantiles, sorted by path.
    pub spans: Vec<SpanSummary>,
    /// Kernel / dispatch / memory counters.
    pub counters: CounterSnapshot,
    /// Training-health records in insertion order.
    pub health: Vec<HealthRecord>,
    /// Trace events currently buffered.
    pub trace_events: u64,
    /// Trace events overwritten by the ring buffer.
    pub trace_dropped: u64,
    /// Live-telemetry registry/SLO stats.
    pub telemetry: TelemetryInfo,
    /// Training epoch records in insertion order.
    pub epochs: Vec<EpochRecord>,
}

impl RunReport {
    /// Snapshots the current global instrumentation state under `name`.
    pub fn capture(name: &str) -> RunReport {
        let (trace_events, trace_dropped) = {
            let (events, dropped) = trace::snapshot();
            (events.len() as u64, dropped)
        };
        let reg = crate::registry::summary();
        let telemetry = TelemetryInfo {
            metrics_enabled: crate::registry::enabled(),
            clock: crate::window::clock_label(),
            series: reg.series,
            windows: reg.windows,
            attributions: reg.attributions,
            attributions_dropped: reg.attributions_dropped,
            // Evaluated at t=0: every recorded bucket is in the future of
            // the window's start, so this counts all accounted tenants.
            slo_tenants: crate::slo::snapshot_at(0).len() as u64,
            slo_target_ms: crate::slo::target_ms(),
        };
        RunReport {
            name: name.to_string(),
            spans: span::snapshot_summary(),
            counters: counters::snapshot(),
            health: health::snapshot(),
            trace_events,
            trace_dropped,
            telemetry,
            epochs: metrics::snapshot(),
        }
    }

    /// Serialises the report (see the module docs for the schema).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        s.push_str(&format!("  \"name\": {},\n", json::string(&self.name)));

        s.push_str("  \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"path\": {}, \"count\": {}, \"total_ms\": {}, \
                 \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}}}{}\n",
                json::string(&sp.path),
                sp.stat.count,
                json::num(sp.stat.total_ns as f64 / 1e6),
                json::num(sp.p50_ns as f64 / 1e6),
                json::num(sp.p95_ns as f64 / 1e6),
                json::num(sp.p99_ns as f64 / 1e6),
                comma(i, self.spans.len())
            ));
        }
        s.push_str("  ],\n");

        s.push_str("  \"kernels\": [\n");
        for (i, k) in self.counters.kernels.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kernel\": {}, \"calls\": {}, \"flops\": {}, \"bytes_moved\": {}}}{}\n",
                json::string(k.kernel),
                k.calls,
                k.flops,
                k.bytes_moved,
                comma(i, self.counters.kernels.len())
            ));
        }
        s.push_str("  ],\n");

        s.push_str(&format!(
            "  \"dispatch\": {{\"parallel\": {}, \"serial\": {}, \
             \"matmul_packed\": {}, \"matmul_legacy\": {}}},\n",
            self.counters.dispatch_parallel,
            self.counters.dispatch_serial,
            self.counters.matmul_packed,
            self.counters.matmul_legacy
        ));
        let slots: Vec<String> = self
            .counters
            .tile_claims_per_slot
            .iter()
            .map(|c| c.to_string())
            .collect();
        s.push_str(&format!(
            "  \"tile_grid\": {{\"claims\": {}, \"bpacks\": {}, \"steals\": {}, \
             \"claims_per_slot\": [{}]}},\n",
            self.counters.tile_claims,
            self.counters.tile_bpacks,
            self.counters.tile_steals,
            slots.join(", ")
        ));
        s.push_str(&format!(
            "  \"memory\": {{\"peak_tensor_bytes\": {}, \"tensor_bytes_alive\": {}}},\n",
            self.counters.peak_tensor_bytes, self.counters.tensor_bytes_alive
        ));
        s.push_str(&format!(
            "  \"workspace\": {{\"hits\": {}, \"misses\": {}, \"bytes_reused\": {}, \
             \"pooled_bytes\": {}, \"peak_pooled_bytes\": {}}},\n",
            self.counters.workspace_hits,
            self.counters.workspace_misses,
            self.counters.workspace_bytes_reused,
            self.counters.workspace_pooled_bytes,
            self.counters.peak_workspace_pooled_bytes
        ));
        s.push_str(&format!(
            "  \"serve\": {{\"requests\": {}, \"batches\": {}, \"seed_rows\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, \
             \"merges\": {}}},\n",
            self.counters.serve_requests,
            self.counters.serve_batches,
            self.counters.serve_seed_rows,
            self.counters.serve_cache_hits,
            self.counters.serve_cache_misses,
            self.counters.serve_cache_evictions,
            self.counters.serve_merges
        ));
        s.push_str(&format!(
            "  \"fusion\": {{\"fused_epilogues\": {}, \"fused_elems\": {}, \
             \"output_passes\": {}}},\n",
            self.counters.fused_epilogues,
            self.counters.fused_elems,
            self.counters.output_passes
        ));
        s.push_str(&format!(
            "  \"telemetry\": {{\"metrics_enabled\": {}, \"clock\": {}, \
             \"series\": {}, \"windows\": {}, \"attributions\": {}, \
             \"attributions_dropped\": {}, \"slo_tenants\": {}, \
             \"slo_target_ms\": {}, \"requests\": {}, \"tail_samples\": {}}},\n",
            self.telemetry.metrics_enabled,
            json::string(self.telemetry.clock),
            self.telemetry.series,
            self.telemetry.windows,
            self.telemetry.attributions,
            self.telemetry.attributions_dropped,
            self.telemetry.slo_tenants,
            json::num(self.telemetry.slo_target_ms),
            self.counters.telemetry_requests,
            self.counters.tail_attributions
        ));

        s.push_str("  \"health\": [\n");
        for (i, h) in self.health.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"phase\": {}, \"group\": {}, \"step\": {}, \"grad_norm\": {}, \
                 \"update_ratio\": {}, \"weight_norm\": {}, \"nan_count\": {}, \
                 \"inf_count\": {}}}{}\n",
                json::string(&h.phase),
                json::string(&h.group),
                h.step,
                json::num(h.grad_norm),
                json::num(h.update_ratio),
                json::num(h.weight_norm),
                h.nan_count,
                h.inf_count,
                comma(i, self.health.len())
            ));
        }
        s.push_str("  ],\n");

        s.push_str(&format!(
            "  \"trace\": {{\"events\": {}, \"dropped\": {}}},\n",
            self.trace_events, self.trace_dropped
        ));

        s.push_str("  \"epochs\": [\n");
        for (i, e) in self.epochs.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"phase\": {}, \"epoch\": {}, \"loss\": {}, \"accuracy\": {}, \
                 \"grad_norm\": {}, \"wall_s\": {}}}{}\n",
                json::string(&e.phase),
                e.epoch,
                json::num(e.loss),
                json::num(e.accuracy),
                json::num(e.grad_norm),
                json::num(e.wall_s),
                comma(i, self.epochs.len())
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// The output file name: `RUNLOG_<name>.json` with the name sanitised
    /// to `[A-Za-z0-9._-]`.
    pub fn file_name(&self) -> String {
        format!("RUNLOG_{}.json", crate::sanitise_name(&self.name))
    }

    /// Writes the JSON report into `dir` (created if absent) and returns
    /// the full path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes the JSON report into [`crate::out_dir`] (the
    /// `METALORA_OBS_DIR` override, else the current directory).
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_to(&crate::out_dir())
    }

    /// Renders the human-readable summary: spans, kernel counters,
    /// dispatch/memory lines, health capsule and the epoch metrics.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== run report: {} ===\n", self.name));

        if !self.spans.is_empty() {
            let rows: Vec<Vec<String>> = self
                .spans
                .iter()
                .map(|sp| {
                    vec![
                        sp.path.clone(),
                        sp.stat.count.to_string(),
                        format!("{:.2}", sp.stat.total_ns as f64 / 1e6),
                        format!("{:.2}", sp.p50_ns as f64 / 1e6),
                        format!("{:.2}", sp.p95_ns as f64 / 1e6),
                        format!("{:.2}", sp.p99_ns as f64 / 1e6),
                    ]
                })
                .collect();
            out.push_str(&table(
                &["span", "count", "total ms", "p50 ms", "p95 ms", "p99 ms"],
                &rows,
            ));
        }

        let active: Vec<_> = self
            .counters
            .kernels
            .iter()
            .filter(|k| k.calls > 0)
            .collect();
        if !active.is_empty() {
            let rows: Vec<Vec<String>> = active
                .iter()
                .map(|k| {
                    vec![
                        k.kernel.to_string(),
                        k.calls.to_string(),
                        format!("{:.3e}", k.flops as f64),
                        format!("{:.3e}", k.bytes_moved as f64),
                    ]
                })
                .collect();
            out.push_str(&table(&["kernel", "calls", "flops", "bytes moved"], &rows));
        }

        out.push_str(&format!(
            "dispatch: {} parallel / {} serial   peak tensor bytes: {}\n",
            self.counters.dispatch_parallel,
            self.counters.dispatch_serial,
            self.counters.peak_tensor_bytes
        ));

        let mm_total = self.counters.matmul_packed + self.counters.matmul_legacy;
        if mm_total > 0 {
            out.push_str(&format!(
                "matmul path: {} packed / {} legacy ({:.1}% packed)\n",
                self.counters.matmul_packed,
                self.counters.matmul_legacy,
                100.0 * self.counters.matmul_packed as f64 / mm_total as f64
            ));
        }

        if self.counters.tile_claims > 0 {
            let slots: Vec<String> = self
                .counters
                .tile_claims_per_slot
                .iter()
                .map(|c| c.to_string())
                .collect();
            out.push_str(&format!(
                "tile grid: {} claims / {} B packs / {} steals   per slot: [{}]\n",
                self.counters.tile_claims,
                self.counters.tile_bpacks,
                self.counters.tile_steals,
                slots.join(", ")
            ));
        }

        let ws_checkouts = self.counters.workspace_hits + self.counters.workspace_misses;
        if ws_checkouts > 0 {
            out.push_str(&format!(
                "workspace: {} hits / {} misses ({:.1}% hit rate)   bytes reused: {}   peak pooled: {}\n",
                self.counters.workspace_hits,
                self.counters.workspace_misses,
                100.0 * self.counters.workspace_hits as f64 / ws_checkouts as f64,
                self.counters.workspace_bytes_reused,
                self.counters.peak_workspace_pooled_bytes
            ));
        }

        if self.counters.serve_requests > 0 {
            let lookups = self.counters.serve_cache_hits + self.counters.serve_cache_misses;
            let hit_rate = if lookups > 0 {
                100.0 * self.counters.serve_cache_hits as f64 / lookups as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "serve: {} requests in {} batches   seed rows: {}   \
                 cache: {} hits / {} misses ({hit_rate:.1}%)   evictions: {}   merges: {}\n",
                self.counters.serve_requests,
                self.counters.serve_batches,
                self.counters.serve_seed_rows,
                self.counters.serve_cache_hits,
                self.counters.serve_cache_misses,
                self.counters.serve_cache_evictions,
                self.counters.serve_merges
            ));
        }

        if self.counters.fused_epilogues > 0 || self.counters.output_passes > 0 {
            out.push_str(&format!(
                "fusion: {} fused epilogues ({} elems)   separate output passes: {}\n",
                self.counters.fused_epilogues,
                self.counters.fused_elems,
                self.counters.output_passes
            ));
        }

        if self.telemetry.series > 0 || self.counters.telemetry_requests > 0 {
            out.push_str(&format!(
                "telemetry: {} series ({} windows)   requests: {}   \
                 tail samples: {} ({} dropped)   slo: {} tenants @ p99 {:.1} ms   clock: {}\n",
                self.telemetry.series,
                self.telemetry.windows,
                self.counters.telemetry_requests,
                self.counters.tail_attributions,
                self.telemetry.attributions_dropped,
                self.telemetry.slo_tenants,
                self.telemetry.slo_target_ms,
                self.telemetry.clock
            ));
        }

        if !self.health.is_empty() {
            let nan: u64 = self.health.iter().map(|h| h.nan_count).sum();
            let inf: u64 = self.health.iter().map(|h| h.inf_count).sum();
            let groups: std::collections::BTreeSet<&str> =
                self.health.iter().map(|h| h.group.as_str()).collect();
            out.push_str(&format!(
                "health: {} records over {} groups   NaN: {}   Inf: {}\n",
                self.health.len(),
                groups.len(),
                nan,
                inf
            ));
        }

        if self.trace_events > 0 || self.trace_dropped > 0 {
            out.push_str(&format!(
                "trace: {} events buffered ({} dropped)\n",
                self.trace_events, self.trace_dropped
            ));
        }

        if !self.epochs.is_empty() {
            let rows: Vec<Vec<String>> = self
                .epochs
                .iter()
                .map(|e| {
                    vec![
                        e.phase.clone(),
                        e.epoch.to_string(),
                        format!("{:.4}", e.loss),
                        format!("{:.4}", e.accuracy),
                        if e.grad_norm.is_finite() {
                            format!("{:.4}", e.grad_norm)
                        } else {
                            "-".to_string()
                        },
                        format!("{:.3}", e.wall_s),
                    ]
                })
                .collect();
            out.push_str(&table(
                &["phase", "epoch", "loss", "accuracy", "grad norm", "wall s"],
                &rows,
            ));
        }
        out
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// Column-aligned plain-text table (local twin of `metalora::report::
/// render_table`, which lives above this crate in the dependency order).
fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (c, cell) in cells.iter().enumerate().take(cols) {
            if c > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<w$}", w = widths[c]));
        }
        line.trim_end().to_string()
    };
    let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Kernel;
    use crate::tests::lock;

    fn populate() {
        {
            let _outer = crate::span!("pretrain");
            let _inner = crate::span!("epoch0");
        }
        counters::record_kernel(Kernel::Matmul, 2000, 96);
        counters::record_dispatch(false);
        counters::record_matmul_path(true);
        counters::record_tile_grid_bpack();
        counters::record_tile_grid_worker(0, 3, 0);
        counters::record_tile_grid_worker(1, 2, 1);
        counters::track_alloc(4096);
        counters::record_serve_batch(3);
        counters::record_serve_seed_rows(2);
        counters::record_serve_cache(true);
        counters::record_serve_cache(false);
        counters::record_serve_merge();
        counters::record_fused_epilogue(48);
        counters::record_output_pass();
        health::record("mapping", 0, 0.42, 0.001, 3.1, 0, 0);
        metrics::record_epoch("pretrain", 1.25, 0.5, 0.75, 0.01);
    }

    #[test]
    fn capture_and_json_roundtrip_structure() {
        let _g = lock();
        populate();
        let report = RunReport::capture("unit test");
        assert_eq!(report.file_name(), "RUNLOG_unit_test.json");
        let js = report.to_json();
        assert!(js.contains("\"schema_version\": 10"));
        assert!(js.contains("\"workspace\": {\"hits\": "));
        assert!(js.contains(
            "\"fusion\": {\"fused_epilogues\": 1, \"fused_elems\": 48, \
             \"output_passes\": 1}"
        ));
        assert!(js.contains(
            "\"serve\": {\"requests\": 3, \"batches\": 1, \"seed_rows\": 2, \
             \"cache_hits\": 1, \"cache_misses\": 1, \"cache_evictions\": 0, \
             \"merges\": 1}"
        ));
        assert!(js.contains("\"path\": \"pretrain/epoch0\""));
        assert!(js.contains("\"p50_ms\": "));
        assert!(js.contains("\"p99_ms\": "));
        assert!(js.contains("\"kernel\": \"matmul\", \"calls\": 1, \"flops\": 2000"));
        assert!(js.contains(
            "\"dispatch\": {\"parallel\": 0, \"serial\": 1, \
             \"matmul_packed\": 1, \"matmul_legacy\": 0}"
        ));
        assert!(js.contains(
            "\"tile_grid\": {\"claims\": 5, \"bpacks\": 1, \"steals\": 1, \
             \"claims_per_slot\": [3, 2]}"
        ));
        assert!(js.contains("\"peak_tensor_bytes\": 4096"));
        assert!(js.contains("\"group\": \"mapping\", \"step\": 0, \"grad_norm\": 0.42"));
        assert!(js.contains("\"trace\": {\"events\": 0, \"dropped\": 0}"));
        assert!(js.contains("\"phase\": \"pretrain\", \"epoch\": 0, \"loss\": 1.25"));
        // Braces/brackets balance — cheap structural sanity without a parser.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                js.matches(open).count(),
                js.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn nan_grad_norm_serialises_as_null() {
        let _g = lock();
        metrics::record_epoch("p", 1.0, 0.5, f64::NAN, 0.1);
        health::record("mapping/seed", 0, f64::NAN, f64::NAN, 2.5, 0, 0);
        health::record("mapping/inf", 1, f64::INFINITY, f64::NEG_INFINITY, 2.5, 0, 3);
        let js = RunReport::capture("n").to_json();
        assert!(js.contains("\"grad_norm\": null"));
        assert!(js.contains("\"update_ratio\": null"));
        // Non-finite sentinels must never leak as bare JSON tokens.
        for bad in ["NaN", "inf,", "inf}", "Infinity"] {
            assert!(!js.contains(bad), "non-finite leaked as {bad:?}:\n{js}");
        }
        // The whole document stays parseable by the vendored parser.
        let v: serde_json::Value = serde_json::from_str(&js).expect("valid JSON");
        assert!(v.field("health").is_ok());
    }

    #[test]
    fn telemetry_object_reflects_registry_and_slo() {
        let _g = lock();
        crate::registry::set_enabled(true);
        crate::slo::set_target_ms(25.0);
        crate::registry::inc("serve_requests_total", "tenant=3", 4);
        crate::registry::observe("serve_request_latency_ns", "tenant=3", 1_000, 900);
        crate::slo::record("3", 1_000, 900);
        crate::slo::record("9", 2_000, 900);
        counters::record_telemetry_request();
        counters::record_telemetry_request();
        counters::record_tail_attribution();
        let report = RunReport::capture("tel");
        let js = report.to_json();
        assert!(js.contains(
            "\"telemetry\": {\"metrics_enabled\": true, \"clock\": \"monotonic\", \
             \"series\": 2, \"windows\": 1, \"attributions\": 0, \
             \"attributions_dropped\": 0, \"slo_tenants\": 2, \
             \"slo_target_ms\": 25, \"requests\": 2, \"tail_samples\": 1}"
        ));
        let text = report.summary_table();
        assert!(text.contains("telemetry: 2 series (1 windows)   requests: 2"));
        assert!(text.contains("slo: 2 tenants @ p99 25.0 ms"));
        crate::slo::set_target_ms(0.0);
        crate::registry::set_enabled(false);
    }

    #[test]
    fn write_creates_runlog_file() {
        let _g = lock();
        populate();
        let dir = std::env::temp_dir();
        let path = RunReport::capture("write-test").write_to(&dir).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"name\": \"write-test\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_honours_out_dir_override() {
        let _g = lock();
        populate();
        let dir = std::env::temp_dir().join("metalora_report_test");
        crate::set_out_dir(Some(dir.clone()));
        let path = RunReport::capture("dir-test").write().unwrap();
        crate::set_out_dir(None);
        assert_eq!(path.parent().unwrap(), dir);
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn summary_table_lists_sections() {
        let _g = lock();
        populate();
        let text = RunReport::capture("summary").summary_table();
        assert!(text.contains("span"));
        assert!(text.contains("p95 ms"));
        assert!(text.contains("pretrain/epoch0"));
        assert!(text.contains("matmul"));
        assert!(text.contains("dispatch: 0 parallel / 1 serial"));
        assert!(text.contains("matmul path: 1 packed / 0 legacy"));
        assert!(text.contains("tile grid: 5 claims / 1 B packs / 1 steals   per slot: [3, 2]"));
        assert!(text.contains("peak tensor bytes: 4096"));
        assert!(text.contains("serve: 3 requests in 1 batches"));
        assert!(text.contains("cache: 1 hits / 1 misses (50.0%)"));
        assert!(text.contains("fusion: 1 fused epilogues (48 elems)   separate output passes: 1"));
        assert!(text.contains("health: 1 records over 1 groups   NaN: 0   Inf: 0"));
        assert!(text.contains("0.5000")); // accuracy column
    }

    #[test]
    fn empty_report_renders() {
        let _g = lock();
        let report = RunReport::capture("empty");
        assert!(report.to_json().contains("\"spans\": [\n  ]"));
        assert!(report.to_json().contains("\"health\": [\n  ]"));
        assert!(report.summary_table().contains("dispatch: 0 parallel / 0 serial"));
    }
}
