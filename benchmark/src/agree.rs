//! `agree <set-a> <set-b>`: do two sets of untraced result files tell the
//! same story, metric by metric, against the benchmark's own bounds?

use crate::report::Res;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Runs a set must hold per workload.
const MIN_RUNS: usize = 3;

/// One untraced result file, reduced to what `agree` compares.
struct Run {
    seed: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    accuracy: Option<f64>,
}

fn number(v: &Value, key: &str) -> Res<f64> {
    match v.get(key) {
        Some(Value::Num(n)) => Ok(*n),
        _ => Err(format!("result file has no number `{key}`").into()),
    }
}

/// The untraced runs of a set directory, by workload.
fn load(dir: &Path) -> Res<BTreeMap<String, Vec<Run>>> {
    let mut set: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    let mut files: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    files.sort();
    for path in files
        .iter()
        .filter(|p| p.to_string_lossy().ends_with("-trace0.json"))
    {
        let v: Value = serde_json::from_str(&std::fs::read_to_string(path)?)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(Value::Str(workload)) = v.get("workload") else {
            return Err(format!("{}: no workload", path.display()).into());
        };
        let Some(Value::Map(metrics)) = v.get("metrics") else {
            return Err(format!("{}: no metrics", path.display()).into());
        };
        let metrics = metrics
            .iter()
            .map(|(k, m)| Ok((k.clone(), number(m, "value")?)))
            .collect::<Res<_>>()?;
        let accuracy = v
            .get("details")
            .and_then(|d| number(d, "probe_accuracy_k5").ok());
        set.entry(workload.clone()).or_default().push(Run {
            seed: number(&v, "seed")? as u64,
            failed: number(&v, "failed")? as u64,
            metrics,
            accuracy,
        });
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Differ,
    Unresolved,
}

/// Medians further apart than `bound` (as a share of `a`'s) differ; a set
/// whose own quartiles are further apart than `bound` cannot resolve that.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let spread = |xs: &[f64]| spread(xs).unwrap_or(f64::INFINITY);
    if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if ((median(b) - median(a)) / median(a)).abs() > bound {
        Verdict::Differ
    } else {
        Verdict::Agree
    }
}

/// Prints the comparison; `Ok(true)` when no pairing differs.
pub fn agree(dir_a: &Path, dir_b: &Path) -> Res<bool> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let mut all_agree = true;
    println!(
        "{:<24} {:<18} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "a: q1 / median / q3", "b: q1 / median / q3", "b vs a"
    );
    for w in WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(w.name), b.get(w.name)) else {
            return Err(format!("{}: missing from a set", w.name).into());
        };
        if ra.len() < MIN_RUNS || rb.len() < MIN_RUNS {
            return Err(format!(
                "{}: {} and {} runs, {MIN_RUNS} required in each set",
                w.name,
                ra.len(),
                rb.len()
            )
            .into());
        }
        for m in END_TO_END {
            let values = |runs: &[Run]| {
                runs.iter()
                    .map(|r| {
                        r.metrics
                            .get(m.name)
                            .copied()
                            .ok_or_else(|| format!("{}: a run lacks {}", w.name, m.name))
                    })
                    .collect::<Result<Vec<f64>, _>>()
            };
            let (va, vb) = (values(ra)?, values(rb)?);
            let v = verdict(&va, &vb, m.bound.expect("end-to-end metrics carry a bound"));
            all_agree &= v != Verdict::Differ;
            let show = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
                format!("{q1:.4} / {:.4} / {q3:.4}", median(xs))
            };
            println!(
                "{:<24} {:<18} {:>36} {:>36} {:>+7.1}%  {}",
                w.name,
                m.name,
                show(&va),
                show(&vb),
                (median(&vb) / median(&va) - 1.0) * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
        let failed: u64 = ra.iter().chain(rb).map(|r| r.failed).sum();
        if failed > 0 {
            println!("{:<24} {failed} failed operations: differ", w.name);
            all_agree = false;
        }
        // A seed's accuracy is a function of the commit alone.
        for x in ra {
            for y in rb.iter().filter(|y| y.seed == x.seed) {
                if x.accuracy.map(f64::to_bits) != y.accuracy.map(f64::to_bits) {
                    println!(
                        "{:<24} seed {}: probe_accuracy_k5 {:?} vs {:?}: differ",
                        w.name, x.seed, x.accuracy, y.accuracy
                    );
                    all_agree = false;
                }
            }
        }
    }
    println!(
        "{}",
        if all_agree {
            "the sets agree"
        } else {
            "the sets differ"
        }
    );
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            verdict(&steady, &[101.0, 102.0, 100.0, 101.5], 0.10),
            Verdict::Agree
        );
        assert_eq!(
            verdict(&steady, &[120.0, 121.0, 119.0, 120.5], 0.10),
            Verdict::Differ
        );
        assert_eq!(
            verdict(&steady, &[80.0, 81.0, 79.0, 80.5], 0.10),
            Verdict::Differ,
            "either direction"
        );
        assert_eq!(
            verdict(&steady, &[60.0, 100.0, 140.0, 100.0], 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&steady, &[100.0], 0.10),
            Verdict::Unresolved,
            "one run has no spread"
        );
    }
}
