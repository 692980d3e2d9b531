//! What a run produces and how it leaves the process: the human-readable
//! lines, the result file under `out/`, and the one-line JSON result that
//! ends standard output.

use crate::spec::{map, Metric, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::path::PathBuf;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Operations attempted and failed, verification checks included.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// `n` operations that completed.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// One verification check; `what` is rendered only on failure.
    pub fn check(&mut self, passed: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// One finished run: judged metrics in spec order, plus values that are
/// printed and stored but not judged (sample counts, phase rates,
/// `probe_accuracy_k5`).
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
    pub details: Vec<(&'static str, Value)>,
}

/// Pairs the spec's metric list with measured values; every name must be
/// supplied exactly once and be finite.
pub fn in_spec_order(
    spec: &'static [Metric],
    mut values: Vec<(&'static str, f64)>,
) -> Res<Vec<(&'static str, f64)>> {
    let mut out = Vec::with_capacity(spec.len());
    for m in spec {
        let at = values
            .iter()
            .position(|(n, _)| *n == m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        let (name, v) = values.swap_remove(at);
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}").into());
        }
        out.push((name, v));
    }
    match values.first() {
        Some((extra, _)) => Err(format!("metric {extra} is not in the spec").into()),
        None => Ok(out),
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The benchmark's own directory (holds `out/`).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `git rev-parse HEAD` without starting a process: follows `.git/HEAD` of
/// the repo this package sits in. `"unknown"` outside a git checkout.
pub fn git_head() -> String {
    let git = bench_dir().join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(git.join(r))
            .or_else(|| {
                let packed = read(git.join("packed-refs"))?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// Identifies one run in its result file.
pub struct RunId<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub set: &'a str,
}

/// Prints the run, writes `out/<set>/<workload>-seed<n>-trace<t>.json`,
/// and ends standard output with the one-line result. Returns whether the
/// run was correct.
pub fn finish(id: &RunId, outcome: &Outcome, wall_s: f64) -> Res<bool> {
    let correct = outcome.tally.failed == 0;
    let metrics = Value::Map(
        outcome
            .metrics
            .iter()
            .map(|(n, v)| {
                (
                    n.to_string(),
                    map(vec![
                        ("value", num(*v)),
                        ("unit", Value::Str(unit_of(n).into())),
                    ]),
                )
            })
            .collect(),
    );
    let line = map(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(outcome.tally.attempted as f64)),
        ("failed", num(outcome.tally.failed as f64)),
        ("metrics", metrics.clone()),
    ]);

    let threads = metalora_tensor::par::num_threads();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = metalora_tensor::ops::simd_level().name();
    let file = map(vec![
        ("workload", Value::Str(id.workload.into())),
        ("seed", num(id.seed as f64)),
        ("seconds", num(id.seconds)),
        ("traced", Value::Bool(id.traced)),
        ("git_head", Value::Str(git_head())),
        ("host_cpus", num(host_cpus as f64)),
        ("threads", num(threads as f64)),
        ("simd_level", Value::Str(simd.into())),
        ("wall_s", num(wall_s)),
        ("correct", Value::Bool(correct)),
        ("attempted", num(outcome.tally.attempted as f64)),
        ("failed", num(outcome.tally.failed as f64)),
        (
            "failures",
            Value::Seq(
                outcome
                    .tally
                    .notes
                    .iter()
                    .map(|n| Value::Str(n.clone()))
                    .collect(),
            ),
        ),
        ("metrics", metrics),
        (
            "details",
            Value::Map(
                outcome
                    .details
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ]);
    let dir = bench_dir().join("out").join(id.set);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        id.workload, id.seed, id.traced as u8
    ));
    std::fs::write(&path, serde_json::to_string_pretty(&file)? + "\n")?;

    println!(
        "{} seed {} {}: host_cpus {host_cpus}, threads {threads}, simd {simd}, wall {wall_s:.1} s",
        id.workload,
        id.seed,
        if id.traced { "traced" } else { "untraced" }
    );
    for (name, v) in &outcome.metrics {
        println!("  {name:<36} {v:>16.6} {}", unit_of(name));
    }
    for (name, v) in &outcome.details {
        println!("  {name:<36} {}", serde_json::to_string(v)?);
    }
    for note in &outcome.tally.notes {
        println!("  FAILED {note}");
    }
    println!("  result file {}", path.display());
    println!("{}", serde_json::to_string(&line)?);
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_order_requires_each_metric_once_and_finite() {
        let all = |v: f64| END_TO_END.iter().map(|m| (m.name, v)).collect::<Vec<_>>();
        let mut shuffled = all(1.5);
        shuffled.reverse();
        let ordered = in_spec_order(END_TO_END, shuffled).unwrap();
        assert!(ordered
            .iter()
            .map(|(n, _)| *n)
            .eq(END_TO_END.iter().map(|m| m.name)));
        assert!(
            in_spec_order(END_TO_END, all(1.0)[1..].to_vec()).is_err(),
            "a missing metric"
        );
        assert!(
            in_spec_order(END_TO_END, all(f64::NAN)).is_err(),
            "a non-finite metric"
        );
        let mut extra = all(1.0);
        extra.push(("not.in.spec", 1.0));
        assert!(in_spec_order(END_TO_END, extra).is_err());
    }

    #[test]
    fn tally_counts_checks_and_keeps_the_first_notes() {
        let mut t = Tally::default();
        t.ok(5);
        t.check(true, || unreachable!());
        for i in 0..10 {
            t.check(false, || format!("bad {i}"));
        }
        assert_eq!((t.attempted, t.failed, t.notes.len()), (16, 10, 8));
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
