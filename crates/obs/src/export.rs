//! Snapshot exporter for the live metrics registry: Prometheus text
//! exposition (`METRICS_<name>.prom`) and an append-only JSONL time
//! series (`METRICS_<name>.jsonl`), both written under [`crate::out_dir`].
//!
//! The JSONL form is one self-contained JSON object per line — a full
//! registry + SLO snapshot stamped with the clock reading — so a run
//! appends a time series that diff/`cmp` cleanly under the logical clock
//! ([`crate::window::ClockMode::Logical`]): two identical bench runs
//! must produce byte-identical files. All floats go through the crate's
//! JSON helpers, so non-finite values serialise as `null`, never as
//! bare `NaN`/`inf` tokens.
//!
//! The Prometheus form follows the text exposition format (one `# TYPE`
//! per metric name, all samples of a name in one contiguous group,
//! label values escaped). [`parse_prometheus`] is a tiny in-repo
//! validator for exactly that grammar; [`flush`] runs every exposition
//! through it before the bytes hit disk.

use crate::json;
use crate::registry::{MetricRow, MetricValue, RegistrySnapshot, STAGES};
use crate::{registry, slo};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;

/// Prefix every exported metric name carries.
pub const PROM_PREFIX: &str = "metalora_";

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 the way the exposition format expects (`NaN`, `+Inf`,
/// `-Inf` for non-finite values).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Splits a registry label into a Prometheus `key="value"` pair. Labels
/// follow the `key=value` convention at the serve call sites
/// (`tenant=3`, `method=lora`, `size=16`); a label without `=` falls
/// back to the generic key `label`, and an empty label means none.
fn label_pair(label: &str) -> Option<(String, String)> {
    if label.is_empty() {
        return None;
    }
    match label.split_once('=') {
        Some((k, v)) if !k.is_empty() => Some((k.to_string(), escape_label(v))),
        _ => Some(("label".to_string(), escape_label(label))),
    }
}

fn sample_line(name: &str, label: &str, extra: Option<(&str, &str)>, value: String) -> String {
    let mut labels: Vec<String> = Vec::new();
    if let Some((k, v)) = label_pair(label) {
        labels.push(format!("{k}=\"{v}\""));
    }
    if let Some((k, v)) = extra {
        labels.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if labels.is_empty() {
        format!("{name} {value}")
    } else {
        format!("{name}{{{}}} {value}", labels.join(","))
    }
}

/// Renders the registry snapshot and the SLO rows derived from it as
/// Prometheus text exposition. Windowed families expand to quantile
/// samples plus `_count` / `_rate_per_s` companions; samples are grouped
/// per metric name with one `# TYPE` header each, as the format requires.
pub fn prometheus_text(reg: &RegistrySnapshot) -> String {
    let slo_rows = slo::rows(reg);
    // metric name -> (type, samples); BTreeMap keeps groups ordered and
    // contiguous.
    let mut groups: BTreeMap<String, (&'static str, Vec<String>)> = BTreeMap::new();
    let mut push = |name: String, kind: &'static str, line: String| {
        let g = groups.entry(name).or_insert((kind, Vec::new()));
        g.1.push(line);
    };
    for row in &reg.rows {
        let base = format!("{PROM_PREFIX}{}", row.name);
        match &row.value {
            MetricValue::Counter(c) => {
                let line = sample_line(&base, &row.label, None, format!("{c}"));
                push(base, "counter", line);
            }
            MetricValue::Gauge(g) => {
                let line = sample_line(&base, &row.label, None, fmt_f64(*g));
                push(base, "gauge", line);
            }
            MetricValue::Window {
                count,
                p50_ns,
                p95_ns,
                p99_ns,
                rate_per_s,
            } => {
                for (q, v) in [("0.5", p50_ns), ("0.95", p95_ns), ("0.99", p99_ns)] {
                    let line =
                        sample_line(&base, &row.label, Some(("quantile", q)), format!("{v}"));
                    push(base.clone(), "gauge", line);
                }
                let count_name = format!("{base}_count");
                let line = sample_line(&count_name, &row.label, None, format!("{count}"));
                push(count_name, "counter", line);
                let rate_name = format!("{base}_rate_per_s");
                let line = sample_line(&rate_name, &row.label, None, fmt_f64(*rate_per_s));
                push(rate_name, "gauge", line);
            }
        }
    }
    if !slo_rows.is_empty() {
        let target = format!("{PROM_PREFIX}slo_target_ns");
        let line = sample_line(&target, "", None, format!("{}", slo_rows[0].target_ns));
        push(target, "gauge", line);
    }
    for r in &slo_rows {
        let label = format!("tenant={}", r.tenant);
        for (suffix, kind, value) in [
            ("slo_requests_total", "counter", format!("{}", r.requests)),
            ("slo_slow_total", "counter", format!("{}", r.slow)),
            (
                "slo_window_p99_ns",
                "gauge",
                format!("{}", r.window_p99_ns),
            ),
            ("slo_budget_burn", "gauge", fmt_f64(r.budget_burn)),
        ] {
            let name = format!("{PROM_PREFIX}{suffix}");
            let line = sample_line(&name, &label, None, value);
            push(name, kind, line);
        }
    }
    if !reg.attributions.is_empty() || reg.attributions_dropped > 0 {
        let mut by_stage: BTreeMap<&'static str, u64> = BTreeMap::new();
        for a in &reg.attributions {
            *by_stage.entry(a.dominant_stage()).or_insert(0) += 1;
        }
        let name = format!("{PROM_PREFIX}tail_samples");
        for (stage, n) in by_stage {
            let line = sample_line(&name, &format!("stage={stage}"), None, format!("{n}"));
            push(name.clone(), "gauge", line);
        }
        let dropped = format!("{PROM_PREFIX}tail_samples_dropped");
        let line = sample_line(&dropped, "", None, format!("{}", reg.attributions_dropped));
        push(dropped, "counter", line);
    }
    let mut out = String::new();
    for (name, (kind, lines)) in groups {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
    }
    out
}

/// One registry row as a JSON object — the form both the JSONL time
/// series and the run log's `registry` array carry.
pub(crate) fn row_json(row: &MetricRow) -> String {
    let head = format!(
        "{{\"name\": {}, \"label\": {}, ",
        json::string(&row.name),
        json::string(&row.label)
    );
    let body = match &row.value {
        MetricValue::Counter(c) => format!("\"kind\": \"counter\", \"value\": {c}}}"),
        MetricValue::Gauge(g) => {
            format!("\"kind\": \"gauge\", \"value\": {}}}", json::num(*g))
        }
        MetricValue::Window {
            count,
            p50_ns,
            p95_ns,
            p99_ns,
            rate_per_s,
        } => format!(
            "\"kind\": \"window\", \"count\": {count}, \"p50_ns\": {p50_ns}, \
             \"p95_ns\": {p95_ns}, \"p99_ns\": {p99_ns}, \"rate_per_s\": {}}}",
            json::num(*rate_per_s)
        ),
    };
    format!("{head}{body}")
}

/// Renders the registry snapshot and the SLO rows derived from it as one
/// JSONL line (no trailing newline). Non-finite floats serialise as
/// `null` via the crate's JSON helpers.
pub fn jsonl_line(reg: &RegistrySnapshot) -> String {
    let metrics: Vec<String> = reg.rows.iter().map(row_json).collect();
    let slo_json: Vec<String> = slo::rows(reg)
        .iter()
        .map(|r| {
            format!(
                "{{\"tenant\": {}, \"requests\": {}, \"slow\": {}, \"target_ns\": {}, \
                 \"window_p99_ns\": {}, \"window_requests\": {}, \"budget_burn\": {}}}",
                json::string(&r.tenant),
                r.requests,
                r.slow,
                r.target_ns,
                r.window_p99_ns,
                r.window_requests,
                json::num(r.budget_burn)
            )
        })
        .collect();
    let attr_json: Vec<String> = reg
        .attributions
        .iter()
        .map(|a| {
            let stages: Vec<String> = STAGES
                .iter()
                .zip(a.stage_ns)
                .map(|(s, ns)| format!("{}: {ns}", json::string(s)))
                .collect();
            format!(
                "{{\"request_id\": {}, \"tenant\": {}, \"method\": {}, \"total_ns\": {}, \
                 \"dominant\": {}, \"stage_ns\": {{{}}}}}",
                a.request_id,
                json::string(&a.tenant),
                json::string(&a.method),
                a.total_ns,
                json::string(a.dominant_stage()),
                stages.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"ts_ns\": {}, \"clock\": {}, \"window_secs\": {}, \"metrics\": [{}], \
         \"slo\": [{}], \"attributions\": [{}], \"attributions_dropped\": {}}}",
        reg.now_ns,
        json::string(crate::window::clock_label()),
        registry::WINDOW_SECS,
        metrics.join(", "),
        slo_json.join(", "),
        attr_json.join(", "),
        reg.attributions_dropped
    )
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses `{k="v",...}`, returning the byte just past the closing `}`.
fn parse_labels(line: &str, start: usize) -> Result<usize, String> {
    let bytes = line.as_bytes();
    let mut i = start + 1; // past '{'
    loop {
        if i >= bytes.len() {
            return Err(format!("unterminated label set: {line}"));
        }
        if bytes[i] == b'}' {
            return Ok(i + 1);
        }
        // label name
        let name_start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        if i >= bytes.len() || !valid_label_name(line[name_start..i].trim()) {
            return Err(format!("bad label name in: {line}"));
        }
        i += 1; // past '='
        if i >= bytes.len() || bytes[i] != b'"' {
            return Err(format!("label value must be quoted: {line}"));
        }
        i += 1;
        while i < bytes.len() && bytes[i] != b'"' {
            if bytes[i] == b'\\' {
                i += 1; // escaped char
            }
            i += 1;
        }
        if i >= bytes.len() {
            return Err(format!("unterminated label value: {line}"));
        }
        i += 1; // past closing quote
        if i < bytes.len() && bytes[i] == b',' {
            i += 1;
        }
    }
}

/// Validates a Prometheus text exposition: comment grammar, metric and
/// label name charsets, quoted/escaped label values, parseable sample
/// values, a `# TYPE` header preceding each metric's samples, and
/// one-contiguous-group-per-name. Returns the number of samples. This is
/// the in-repo validator CI's metrics smoke step runs over the shipped
/// `METRICS_serve.prom`.
pub fn parse_prometheus(text: &str) -> Result<usize, String> {
    let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut closed_groups: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut current_group: Option<String> = None;
    let mut samples = 0usize;
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("bad TYPE metric name: {line}"));
                }
                if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                    return Err(format!("bad TYPE kind: {line}"));
                }
                if !typed.insert(name.to_string()) {
                    return Err(format!("duplicate TYPE for {name}"));
                }
            } else if !rest.starts_with("HELP ") && !rest.starts_with("EOF") {
                // Free comments are legal; HELP validated only loosely.
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .ok_or_else(|| format!("sample missing value: {line}"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("bad metric name: {line}"));
        }
        if !typed.contains(name) {
            return Err(format!("sample before # TYPE {name}: {line}"));
        }
        match &current_group {
            Some(g) if g == name => {}
            _ => {
                if let Some(g) = current_group.take() {
                    closed_groups.insert(g);
                }
                if closed_groups.contains(name) {
                    return Err(format!("samples for {name} are not contiguous"));
                }
                current_group = Some(name.to_string());
            }
        }
        let after_labels = if line.as_bytes()[name_end] == b'{' {
            parse_labels(line, name_end)?
        } else {
            name_end
        };
        let rest = line[after_labels..].trim();
        let mut fields = rest.split_whitespace();
        let value = fields.next().ok_or_else(|| format!("missing value: {line}"))?;
        let value_ok = matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok();
        if !value_ok {
            return Err(format!("unparseable sample value: {line}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("bad timestamp: {line}"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("trailing tokens: {line}"));
        }
        samples += 1;
    }
    Ok(samples)
}

/// Paths written by [`flush`].
#[derive(Debug)]
pub struct MetricsFlush {
    pub jsonl: PathBuf,
    pub prom: PathBuf,
    /// Samples in the validated exposition.
    pub samples: usize,
}

/// The metrics flush hook: renders the Prometheus exposition from the
/// current registry state and validates it with the in-repo parser, then
/// appends `lines` (or, when empty, one line snapshotted now) to
/// `METRICS_<name>.jsonl` and rewrites `METRICS_<name>.prom`, both under
/// [`crate::out_dir`].
pub fn flush(name: &str, lines: &[String]) -> std::io::Result<MetricsFlush> {
    let reg = registry::snapshot();
    let text = prometheus_text(&reg);
    let samples = parse_prometheus(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let (dir, stem) = (crate::out_dir(), crate::sanitise_name(name));
    let jsonl = dir.join(format!("METRICS_{stem}.jsonl"));
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&jsonl)?;
    if lines.is_empty() {
        writeln!(f, "{}", jsonl_line(&reg))?;
    }
    for line in lines {
        writeln!(f, "{line}")?;
    }
    let prom = dir.join(format!("METRICS_{stem}.prom"));
    std::fs::write(&prom, text)?;
    Ok(MetricsFlush {
        jsonl,
        prom,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Attribution;

    fn populated_snapshot() -> RegistrySnapshot {
        registry::set_enabled(true);
        crate::slo::set_target_ms(1.0);
        registry::inc("serve_requests_total", "tenant=3", 5);
        registry::inc("serve_requests_total", "tenant=11", 2);
        registry::inc("serve_slow_requests_total", "tenant=3", 1);
        registry::inc("serve_requests_by_method_total", "method=meta_cp", 4);
        registry::gauge_set("serve_queue_depth", "", 3.0);
        registry::observe("serve_request_latency_ns", "tenant=3", 1_000, 800);
        registry::observe("serve_request_latency_ns", "tenant=3", 2_000, 2_000_000);
        registry::record_attribution(Attribution {
            request_id: 42,
            tenant: "3".into(),
            method: "meta_cp".into(),
            total_ns: 9_000,
            stage_ns: [100, 200, 300, 8_400],
        });
        registry::snapshot_at(3_000)
    }

    #[test]
    fn exposition_passes_own_parser_and_covers_all_kinds() {
        let _g = crate::tests::lock();
        let reg = populated_snapshot();
        let text = prometheus_text(&reg);
        let n = parse_prometheus(&text).expect("valid exposition");
        assert!(n >= 10, "expected a rich exposition, got {n} samples:\n{text}");
        assert!(text.contains("# TYPE metalora_serve_requests_total counter"));
        assert!(text.contains("metalora_serve_requests_total{tenant=\"3\"} 5"));
        assert!(text.contains("{tenant=\"3\",quantile=\"0.99\"}"));
        assert!(text.contains("metalora_serve_request_latency_ns_count{tenant=\"3\"} 2"));
        assert!(text.contains("metalora_slo_slow_total{tenant=\"3\"} 1"));
        assert!(text.contains("metalora_tail_samples{stage=\"gemm\"} 1"));
        crate::slo::set_target_ms(0.0);
    }

    #[test]
    fn parser_rejects_malformed_expositions() {
        for (bad, why) in [
            ("metalora_x 1\n", "sample before TYPE"),
            ("# TYPE metalora_x counter\nmetalora_x oops\n", "bad value"),
            ("# TYPE metalora_x counter\nmetalora_x{tenant=3} 1\n", "unquoted label"),
            ("# TYPE 9bad counter\n9bad 1\n", "bad name"),
            ("# TYPE metalora_x widget\nmetalora_x 1\n", "bad kind"),
            (
                "# TYPE metalora_x counter\n# TYPE metalora_y counter\n\
                 metalora_x 1\nmetalora_y 2\nmetalora_x 3\n",
                "non-contiguous group",
            ),
        ] {
            assert!(parse_prometheus(bad).is_err(), "should reject: {why}");
        }
        // And accepts the edge cases it should.
        let ok = "# TYPE m_ok gauge\nm_ok{a=\"x\\\"y\",b=\"z\"} NaN 1700000000\nm_ok +Inf\n";
        assert_eq!(parse_prometheus(ok).unwrap(), 2);
    }

    #[test]
    fn jsonl_line_is_single_line_valid_json_with_null_nonfinite() {
        let _g = crate::tests::lock();
        let mut reg = populated_snapshot();
        // Inject a non-finite gauge: must serialise as null, not NaN.
        registry::gauge_set("poisoned_gauge", "", f64::NAN);
        reg = registry::snapshot_at(reg.now_ns);
        let line = jsonl_line(&reg);
        assert!(!line.contains('\n'), "jsonl must be one line");
        assert!(line.contains("\"poisoned_gauge\", \"label\": \"\", \"kind\": \"gauge\", \"value\": null"));
        assert!(!line.contains("NaN"));
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(v.field("ts_ns").is_ok());
        assert!(v.field("metrics").is_ok());
        assert!(v.field("slo").is_ok());
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
        crate::slo::set_target_ms(0.0);
    }

    #[test]
    fn flush_writes_both_files_under_out_dir() {
        let _g = crate::tests::lock();
        let dir = std::env::temp_dir().join("metalora_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        crate::set_out_dir(Some(dir.clone()));
        populated_snapshot();
        let first = flush("unit", &[]).expect("flush");
        assert!(first.samples > 0);
        let lines = vec!["{\"ts_ns\": 1}".to_string(), "{\"ts_ns\": 2}".to_string()];
        let second = flush("unit", &lines).expect("flush with lines");
        let jsonl = std::fs::read_to_string(&second.jsonl).unwrap();
        assert_eq!(jsonl.lines().count(), 3, "append-only: 1 + 2 lines");
        let prom = std::fs::read_to_string(&second.prom).unwrap();
        assert!(parse_prometheus(&prom).unwrap() > 0);
        crate::set_out_dir(None);
        crate::slo::set_target_ms(0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
