//! Structured run reports: `RUNLOG_<name>.json` plus a summary table.
//!
//! [`RunReport::capture`] snapshots the collectors (spans, counters,
//! registry, health, trace, epoch metrics) into one value that can be
//! serialised ([`RunReport::to_json`], [`RunReport::write`]) or rendered
//! for humans ([`RunReport::summary_table`]); [`RunReport::publish`]
//! does both the way the bench bins end a run, and nothing while
//! instrumentation is off. [`render_table`] is the one plain-text table
//! layout of the workspace: the summary and every bench bin's result
//! table print through it.
//!
//! ## Schema (`schema_version` 14)
//!
//! ```json
//! {
//!   "schema_version": 14,
//!   "name": "table1",
//!   "spans":    [ {"path": "pretrain", "count": 2, "total_ms": 813.4,
//!                  "p50_ms": 400.1, "p95_ms": 413.0, "p99_ms": 413.0} ],
//!   "counters": {"matmul": {"calls": 10, "flops": 123, "bytes_moved": 456},
//!                "tile_grid": {"claims": 40, "bpacks": 5},
//!                "serve": {"seed_rows": 40, "merges": 14}, ...},
//!   "registry": {"ts_ns": 73000, "clock": "logical",
//!                "metrics": [{"name": "serve_requests_total", "label": "tenant=3",
//!                             "kind": "counter", "value": 64}],
//!                "slo": [{"tenant": "3", "requests": 64, "slow": 0, ...}],
//!                "attributions": [], "attributions_dropped": 0},
//!   "health":   [ {"phase": "adapt/MetaLoraCp", "group": "mapping", "step": 0,
//!                  "grad_norm": 0.42, "update_ratio": 0.001,
//!                  "weight_norm": 3.1, "nan_count": 0, "inf_count": 0} ],
//!   "trace":    {"events": 128, "dropped": 0},
//!   "epochs":   [ {"phase": "pretrain", "epoch": 0, "loss": 2.1,
//!                  "accuracy": 0.14, "grad_norm": 0.9, "wall_s": 0.4} ]
//! }
//! ```
//!
//! `counters` holds every counter of [`crate::counters`]' one list, one
//! object per group in list order; `registry` is one line holding the
//! live registry's snapshot: its rows, the SLO rows derived from them
//! ([`crate::slo::rows`]) and the tail-attribution samples, with
//! non-finite values written as `null`. Under the logical clock two
//! identical runs write byte-identical `registry` lines.
//!
//! Version history: 2–10 added one top-level object per counter family;
//! 11 generates them all as `counters` and adds the `registry` rows; 12
//! drops the thread-team counters (the parallel / serial dispatch tally,
//! the tile grid's steals and per-slot claims): kernels run on the
//! calling thread; 13: `registry` is the snapshot object: rows, SLO rows
//! and tail samples; 14: latency rows are whole-run histograms (`kind`
//! `histogram`, no per-second rate), SLO rows carry `p99_ns` in place of
//! `window_p99_ns` / `window_requests`, and `registry` drops
//! `window_secs`.

use crate::counters::{self, Reading};
use crate::health::{self, HealthRecord};
use crate::json;
use crate::metrics::{self, EpochRecord};
use crate::registry::{self, MetricValue, RegistrySnapshot, STAGES};
use crate::span::{self, SpanSummary};
use crate::trace;
use std::path::{Path, PathBuf};

/// Version stamp written into every run log (see the module docs for the
/// version history).
pub const SCHEMA_VERSION: u32 = 14;

/// A captured snapshot of everything the instrumentation recorded.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Report name; also names the output file (`RUNLOG_<name>.json`).
    pub name: String,
    /// Aggregated spans with duration quantiles, sorted by path.
    pub spans: Vec<SpanSummary>,
    /// Every counter of the one list, in list order.
    pub counters: Vec<Reading>,
    /// The live registry's snapshot, rows ordered by `(name, label)`.
    pub registry: RegistrySnapshot,
    /// Training-health records in insertion order.
    pub health: Vec<HealthRecord>,
    /// Trace events currently buffered.
    pub trace_events: u64,
    /// Trace events overwritten by the ring buffer.
    pub trace_dropped: u64,
    /// Training epoch records in insertion order.
    pub epochs: Vec<EpochRecord>,
}

impl RunReport {
    /// Snapshots the current global instrumentation state under `name`.
    pub fn capture(name: &str) -> RunReport {
        let (events, trace_dropped) = trace::snapshot();
        RunReport {
            name: name.to_string(),
            spans: span::snapshot(),
            counters: counters::read_all(),
            registry: registry::snapshot(),
            health: health::snapshot(),
            trace_events: events.len() as u64,
            trace_dropped,
            epochs: metrics::snapshot(),
        }
    }

    /// Serialises the report (see the module docs for the schema).
    pub fn to_json(&self) -> String {
        let spans = self.spans.iter().map(|sp| {
            format!(
                "{{\"path\": {}, \"count\": {}, \"total_ms\": {}, \
                 \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}}}",
                json::string(&sp.path),
                sp.stat.count,
                json::num(sp.stat.total_ns as f64 / 1e6),
                json::num(sp.p50_ns as f64 / 1e6),
                json::num(sp.p95_ns as f64 / 1e6),
                json::num(sp.p99_ns as f64 / 1e6),
            )
        });
        let counters = self.counters.chunk_by(|a, b| a.group == b.group).map(|group| {
            let fields: Vec<String> =
                group.iter().map(|r| format!("{}: {}", json::string(r.name), r.value)).collect();
            format!("{}: {{{}}}", json::string(group[0].group), fields.join(", "))
        });
        let health = self.health.iter().map(|h| {
            format!(
                "{{\"phase\": {}, \"group\": {}, \"step\": {}, \"grad_norm\": {}, \
                 \"update_ratio\": {}, \"weight_norm\": {}, \"nan_count\": {}, \
                 \"inf_count\": {}}}",
                json::string(&h.phase),
                json::string(&h.group),
                h.step,
                json::num(h.grad_norm),
                json::num(h.update_ratio),
                json::num(h.weight_norm),
                h.nan_count,
                h.inf_count,
            )
        });
        let epochs = self.epochs.iter().map(|e| {
            format!(
                "{{\"phase\": {}, \"epoch\": {}, \"loss\": {}, \"accuracy\": {}, \
                 \"grad_norm\": {}, \"wall_s\": {}}}",
                json::string(&e.phase),
                e.epoch,
                json::num(e.loss),
                json::num(e.accuracy),
                json::num(e.grad_norm),
                json::num(e.wall_s),
            )
        });
        let sections = [
            format!("\"schema_version\": {SCHEMA_VERSION}"),
            format!("\"name\": {}", json::string(&self.name)),
            format!("\"spans\": {}", block('[', spans, ']')),
            format!("\"counters\": {}", block('{', counters, '}')),
            format!("\"registry\": {}", registry_json(&self.registry)),
            format!("\"health\": {}", block('[', health, ']')),
            format!(
                "\"trace\": {{\"events\": {}, \"dropped\": {}}}",
                self.trace_events, self.trace_dropped
            ),
            format!("\"epochs\": {}", block('[', epochs, ']')),
        ];
        format!("{{\n  {}\n}}\n", sections.join(",\n  "))
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

    /// Prints the summary table, writes the run log into
    /// [`crate::out_dir`] and, when tracing is on, the Chrome trace under
    /// the same name — reporting each path (or write error) on its own
    /// line. The tail every bench bin ends a run with; it does nothing
    /// while instrumentation is off, since nothing was recorded.
    pub fn publish(&self) {
        if !crate::enabled() {
            return;
        }
        println!("\n{}", self.summary_table());
        match self.write() {
            Ok(p) => println!("run log written to {}", p.display()),
            Err(e) => eprintln!("could not write run log: {e}"),
        }
        if trace::enabled() {
            match trace::write_chrome(&self.name) {
                Ok(p) => println!("trace written to {}", p.display()),
                Err(e) => eprintln!("could not write trace: {e}"),
            }
        }
    }

    /// Renders the human-readable summary: spans, every non-zero counter,
    /// the registry size, health capsule and the epoch metrics.
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
            out.push_str(&render_table(
                &["span", "count", "total ms", "p50 ms", "p95 ms", "p99 ms"],
                &rows,
            ));
        }

        let rows: Vec<Vec<String>> = self
            .counters
            .iter()
            .filter(|r| r.value != 0)
            .map(|r| vec![format!("{}.{}", r.group, r.name), r.value.to_string()])
            .collect();
        if !rows.is_empty() {
            out.push_str(&render_table(&["counter", "value"], &rows));
        }

        if !self.registry.rows.is_empty() {
            out.push_str(&format!("registry: {} series\n", self.registry.rows.len()));
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
            out.push_str(&render_table(
                &["phase", "epoch", "loss", "accuracy", "grad norm", "wall s"],
                &rows,
            ));
        }
        out
    }
}

/// The registry snapshot as one JSON line: its rows, the SLO rows derived
/// from them and the tail-attribution samples, stamped with the clock
/// reading. Non-finite floats serialise as `null`.
fn registry_json(reg: &RegistrySnapshot) -> String {
    fn list<T>(items: &[T], item: impl Fn(&T) -> String) -> String {
        items.iter().map(item).collect::<Vec<_>>().join(", ")
    }
    let metrics = list(&reg.rows, |row| {
        let body = match &row.value {
            MetricValue::Counter(c) => format!("\"kind\": \"counter\", \"value\": {c}"),
            MetricValue::Gauge(g) => format!("\"kind\": \"gauge\", \"value\": {}", json::num(*g)),
            MetricValue::Histogram { count, p50_ns, p95_ns, p99_ns } => format!(
                "\"kind\": \"histogram\", \"count\": {count}, \"p50_ns\": {p50_ns}, \
                 \"p95_ns\": {p95_ns}, \"p99_ns\": {p99_ns}"
            ),
        };
        format!(
            "{{\"name\": {}, \"label\": {}, {body}}}",
            json::string(&row.name),
            json::string(&row.label)
        )
    });
    let slo = list(&crate::slo::rows(reg), |r| {
        format!(
            "{{\"tenant\": {}, \"requests\": {}, \"slow\": {}, \"target_ns\": {}, \
             \"p99_ns\": {}, \"budget_burn\": {}}}",
            json::string(&r.tenant),
            r.requests,
            r.slow,
            r.target_ns,
            r.p99_ns,
            json::num(r.budget_burn)
        )
    });
    let attributions = list(&reg.attributions, |a| {
        let stages: Vec<String> = STAGES
            .iter()
            .zip(a.stage_ns)
            .map(|(s, ns)| format!("{}: {ns}", json::string(s)))
            .collect();
        let stages = stages.join(", ");
        format!(
            "{{\"request_id\": {}, \"tenant\": {}, \"method\": {}, \"total_ns\": {}, \
             \"dominant\": {}, \"stage_ns\": {{{stages}}}}}",
            a.request_id,
            json::string(&a.tenant),
            json::string(&a.method),
            a.total_ns,
            json::string(a.dominant_stage()),
        )
    });
    format!(
        "{{\"ts_ns\": {}, \"clock\": {}, \"metrics\": [{metrics}], \"slo\": [{slo}], \
         \"attributions\": [{attributions}], \"attributions_dropped\": {}}}",
        reg.now_ns,
        json::string(registry::clock_label()),
        reg.attributions_dropped
    )
}

/// A JSON array or object with one item per line, nested one level in.
fn block(open: char, items: impl Iterator<Item = String>, close: char) -> String {
    let items: Vec<String> = items.map(|i| format!("\n    {i}")).collect();
    format!("{open}{}\n  {close}", items.join(","))
}

/// Renders an aligned pipe table: a header row, a rule, then one line
/// per row; a short row is padded with empty cells.
pub fn render_table(headers: &[impl AsRef<str>], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.as_ref().len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let render_row = |cells: &mut dyn Iterator<Item = &str>| -> String {
        let mut line = String::from("|");
        for w in &widths {
            let cell = cells.next().unwrap_or("");
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    let mut out = render_row(&mut headers.iter().map(|h| h.as_ref()));
    out.push('|');
    for w in &widths {
        out.push_str(&"-".repeat(w + 2));
        out.push('|');
    }
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(&mut row.iter().map(String::as_str)));
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
        counters::MATMUL_PACKED.add(1);
        counters::TILE_BPACKS.add(1);
        counters::TILE_CLAIMS.add(5);
        counters::track_alloc(4096);
        counters::SERVE_SEED_ROWS.add(2);
        counters::SERVE_MERGES.add(1);
        counters::FUSED_EPILOGUES.add(1);
        counters::FUSED_ELEMS.add(48);
        counters::OUTPUT_PASSES.add(1);
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
        assert!(js.contains("\"schema_version\": 14"));
        assert!(js.contains("\"matmul\": {\"calls\": 1, \"flops\": 2000, \"bytes_moved\": 96}"));
        assert!(js.contains("\"einsum\": {\"calls\": 0, "));
        assert!(js.contains(
            "\"dispatch\": {\"matmul_packed\": 1, \"matmul_legacy\": 0}"
        ));
        assert!(js.contains("\"tile_grid\": {\"claims\": 5, \"bpacks\": 1}"));
        assert!(js.contains(
            "\"memory\": {\"peak_tensor_bytes\": 4096, \"tensor_bytes_alive\": 4096}"
        ));
        assert!(js.contains("\"workspace\": {\"hits\": 0, "));
        assert!(js.contains("\"serve\": {\"seed_rows\": 2, \"merges\": 1}"));
        assert!(js.contains(
            "\"fusion\": {\"fused_epilogues\": 1, \"fused_elems\": 48, \
             \"output_passes\": 1}"
        ));
        assert!(js.contains("\"registry\": {\"ts_ns\": "));
        assert!(js.contains(
            "\"metrics\": [], \"slo\": [], \"attributions\": [], \
             \"attributions_dropped\": 0},\n"
        ));
        assert!(js.contains("\"path\": \"pretrain/epoch0\""));
        assert!(js.contains("\"p50_ms\": "));
        assert!(js.contains("\"p99_ms\": "));
        assert!(js.contains("\"group\": \"mapping\", \"step\": 0, \"grad_norm\": 0.42"));
        assert!(js.contains("\"trace\": {\"events\": 0, \"dropped\": 0}"));
        assert!(js.contains("\"phase\": \"pretrain\", \"epoch\": 0, \"loss\": 1.25"));
        // Every counter of the list lands in the document, under its group.
        let v: serde_json::Value = serde_json::from_str(&js).expect("valid JSON");
        let counters = v.field("counters").unwrap();
        for r in &report.counters {
            assert!(counters.field(r.group).unwrap().field(r.name).is_ok(), "{r:?}");
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
    fn registry_rows_are_written_as_the_jsonl_writes_them() {
        let _g = lock();
        crate::registry::set_enabled(true);
        crate::registry::inc("serve_requests_total", "tenant=3", 4);
        crate::registry::observe("serve_request_latency_ns", "tenant=3", 900);
        let report = RunReport::capture("tel");
        assert_eq!(report.registry.rows.len(), 2);
        let js = report.to_json();
        // Each row is one object in the registry's `metrics` list, in
        // snapshot order, with the fields of the former JSONL line.
        assert!(js.contains(
            "\"metrics\": [{\"name\": \"serve_request_latency_ns\", \"label\": \"tenant=3\", \
             \"kind\": \"histogram\", \"count\": 1, "
        ));
        assert!(js.contains(
            "}, {\"name\": \"serve_requests_total\", \"label\": \"tenant=3\", \
             \"kind\": \"counter\", \"value\": 4}], \"slo\": ["
        ));
        assert!(report.summary_table().contains("registry: 2 series"));
        crate::registry::set_enabled(false);
    }

    #[test]
    fn registry_is_one_line_of_json_with_slo_rows_and_tail_samples() {
        let _g = lock();
        crate::registry::set_enabled(true);
        crate::slo::set_target_ms(1.0);
        crate::registry::inc("serve_requests_total", "tenant=3", 4);
        crate::registry::inc("serve_slow_requests_total", "tenant=3", 1);
        crate::registry::observe("serve_request_latency_ns", "tenant=3", 2_000_000);
        crate::registry::gauge_set("poisoned_gauge", "", f64::NAN);
        crate::registry::record_attribution(crate::registry::Attribution {
            request_id: 42,
            tenant: "3".into(),
            method: "meta_cp".into(),
            total_ns: 9_000,
            stage_ns: [200, 300, 8_500],
        });
        let report = RunReport::capture("tel");
        let js = report.to_json();
        let line = js
            .lines()
            .find_map(|l| l.strip_prefix("  \"registry\": "))
            .expect("a registry line");
        let line = line.strip_suffix(',').unwrap_or(line);
        // A non-finite gauge is written as null, never as a bare NaN.
        assert!(line.contains("\"poisoned_gauge\", \"label\": \"\", \"kind\": \"gauge\", \"value\": null"));
        assert!(!line.contains("NaN"));
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
        assert!(v.field("ts_ns").is_ok());
        match v.field("metrics").unwrap() {
            serde_json::Value::Seq(rows) => assert_eq!(rows.len(), 4),
            other => panic!("metrics not a list: {other:?}"),
        }
        match v.field("slo").unwrap() {
            serde_json::Value::Seq(rows) => {
                assert_eq!(rows.len(), 1);
                assert!(rows[0].field("budget_burn").is_ok());
            }
            other => panic!("slo not a list: {other:?}"),
        }
        match v.field("attributions").unwrap() {
            serde_json::Value::Seq(items) => {
                assert_eq!(items.len(), 1);
                match items[0].field("dominant").unwrap() {
                    serde_json::Value::Str(s) => assert_eq!(s, "gemm"),
                    other => panic!("dominant not a string: {other:?}"),
                }
            }
            other => panic!("attributions not a list: {other:?}"),
        }
        assert!(report.summary_table().contains("registry: 4 series"));
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

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn renders_aligned_table() {
        let t = render_table(
            &["Method", "Acc"],
            &[s(&["LoRA", "67.85%"]), s(&["Meta-LoRA TR", "73.24%*"])],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Method"));
        assert!(lines[1].starts_with("|--"));
        assert!(lines[3].contains("73.24%*"));
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[0].len(), lines[3].len());
    }

    #[test]
    fn short_rows_padded() {
        let t = render_table(&["A", "B"], &[vec!["x".into()]]);
        assert!(t.lines().count() == 3);
    }

    #[test]
    fn publish_writes_nothing_while_obs_is_off() {
        let _g = lock();
        populate();
        let dir = std::env::temp_dir().join("metalora_publish_off_test");
        std::fs::remove_dir_all(&dir).ok();
        crate::set_out_dir(Some(dir.clone()));
        crate::set_enabled(false);
        let report = RunReport::capture("off");
        report.publish();
        crate::set_out_dir(None);
        assert!(!dir.join(report.file_name()).exists());
        assert!(!dir.exists(), "publish created the output directory");
    }

    #[test]
    fn summary_table_lists_sections() {
        let _g = lock();
        populate();
        let text = RunReport::capture("summary").summary_table();
        assert!(text.contains("span"));
        assert!(text.contains("p95 ms"));
        assert!(text.contains("pretrain/epoch0"));
        for (counter, value) in [
            ("matmul.flops", "2000"),
            ("dispatch.matmul_packed", "1"),
            ("tile_grid.claims", "5"),
            ("memory.peak_tensor_bytes", "4096"),
            ("serve.merges", "1"),
            ("fusion.fused_elems", "48"),
        ] {
            // The row's cells, exactly: `| counter | value |`.
            assert!(
                text.lines().any(|l| {
                    let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                    cells == ["", counter, value, ""]
                }),
                "no {counter} = {value} row in:\n{text}"
            );
        }
        // Zero counters stay out of the table.
        assert!(!text.contains("dispatch.matmul_legacy"));
        assert!(text.contains("health: 1 records over 1 groups   NaN: 0   Inf: 0"));
        assert!(text.contains("0.5000")); // accuracy column
    }

    #[test]
    fn empty_report_renders() {
        let _g = lock();
        let report = RunReport::capture("empty");
        assert!(report.to_json().contains("\"spans\": [\n  ]"));
        assert!(report.to_json().contains("\"health\": [\n  ]"));
        assert_eq!(report.summary_table(), "=== run report: empty ===\n");
    }
}
