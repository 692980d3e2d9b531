//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark [run] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--set <name>]
//! benchmark trace --workload <name> --seed <n> [--seconds <s>] [--set <name>]
//! benchmark list [--json]
//! benchmark agree <set-a-dir> <set-b-dir>
//! ```

mod agree;
mod layers;
mod report;
mod serve;
mod span;
mod spec;
mod stats;
mod train;

use report::{Res, RunId};
use spec::Kind;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// The library's knobs. Any of them set would make the numbers measure
/// the knob, so the benchmark refuses to start.
fn knobs_set(vars: impl Iterator<Item = String>) -> Vec<String> {
    vars.filter(|k| k.starts_with("METALORA_")).collect()
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    set: String,
}

fn parse_run(args: &[String], traced_by_default: bool) -> Res<RunArgs> {
    let (mut workload, mut seed) = (None, None);
    let (mut seconds, mut traced, mut set) = (
        spec::RUN_SECONDS as f64,
        traced_by_default,
        "default".to_string(),
    );
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: 0 or 1").into()),
                }
            }
            "--set" => set = value.clone(),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    if !(seconds.is_finite() && (1.0..=60.0).contains(&seconds)) {
        return Err(format!("--seconds {seconds}: 1 to 60").into());
    }
    if set.is_empty()
        || !set
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        || set.starts_with('.')
    {
        return Err(format!("--set {set}: letters, digits, `_`, `.` and `-`").into());
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        set,
    })
}

/// One run under the fixed conditions: one process, one closed-loop
/// caller, the kernel team pinned to one thread.
fn run(args: &RunArgs) -> Res<bool> {
    let knobs = knobs_set(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()));
    if !knobs.is_empty() {
        return Err(format!(
            "unset {} first: the benchmark measures the program, not a knob",
            knobs.join(", ")
        )
        .into());
    }
    let workload = spec::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {}; see `list`", args.workload))?;
    metalora_tensor::par::set_num_threads(1);
    metalora_obs::set_enabled(false);

    let t0 = Instant::now();
    let out_dir = report::bench_dir().join("out");
    std::fs::create_dir_all(&out_dir)?;
    let trace_file = out_dir.join(format!("trace-{}.json", workload.name));
    let outcome = match (workload.kind, args.traced) {
        (Kind::Serve(s), false) => serve::run(&s, args.seed, args.seconds)?,
        (Kind::Serve(s), true) => serve::trace(&s, args.seed, &trace_file)?,
        (Kind::Train(t), false) => train::run(&t, args.seed, args.seconds)?,
        (Kind::Train(t), true) => train::trace(&t, args.seed, &trace_file)?,
    };
    let id = RunId {
        workload: workload.name,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        set: &args.set,
    };
    report::finish(&id, &outcome, t0.elapsed().as_secs_f64())
}

fn dispatch(args: &[String]) -> Res<bool> {
    match args.first().map(String::as_str) {
        Some("list") => {
            match args.get(1).map(String::as_str) {
                None => print!("{}", spec::list_text()),
                Some("--json") => {
                    println!("{}", serde_json::to_string_pretty(&spec::benchmark_json())?)
                }
                Some(other) => return Err(format!("list: unknown argument {other}").into()),
            }
            Ok(true)
        }
        Some("agree") => match args {
            [_, a, b] => agree::agree(Path::new(a), Path::new(b)),
            _ => Err("agree takes two set directories".into()),
        },
        Some("run") => run(&parse_run(&args[1..], false)?),
        Some("trace") => run(&parse_run(&args[1..], true)?),
        // The driver's form: flags only, `--trace` choosing the run.
        _ => run(&parse_run(args, false)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // The result was printed; its `correct` is false (or sets differ).
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn any_library_knob_in_the_environment_is_refused() {
        let env = strings(&[
            "PATH",
            "METALORA_THREADS",
            "HOME",
            "METALORA_OBS",
            "XMETALORA_X",
        ]);
        assert_eq!(
            knobs_set(env.into_iter()),
            strings(&["METALORA_THREADS", "METALORA_OBS"])
        );
        assert!(knobs_set(strings(&["PATH", "CARGO_TARGET_DIR"]).into_iter()).is_empty());
    }

    #[test]
    fn the_drivers_flags_parse() {
        let a = parse_run(
            &strings(&[
                "--workload",
                "train_mixer_cp",
                "--seed",
                "9",
                "--seconds",
                "12",
                "--trace",
                "1",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(
            (
                a.workload.as_str(),
                a.seed,
                a.seconds,
                a.traced,
                a.set.as_str()
            ),
            ("train_mixer_cp", 9, 12.0, true, "default")
        );
        let b = parse_run(&strings(&["--seed", "1", "--workload", "w"]), true).unwrap();
        assert!(b.traced && b.seconds == spec::RUN_SECONDS as f64);
        for bad in [
            &["--workload", "w"][..],
            &["--workload", "w", "--seed"],
            &["--workload", "w", "--seed", "-1"],
            &["--workload", "w", "--seed", "1", "--seconds", "0"],
            &["--workload", "w", "--seed", "1", "--trace", "2"],
            &["--workload", "w", "--seed", "1", "--set", "../x"],
            &["--workload", "w", "--seed", "1", "--bogus", "1"],
        ] {
            assert!(parse_run(&strings(bad), false).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn release_profile_is_the_roots() {
        let section = |path: &str| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let body = text
                .split("[profile.release]")
                .nth(1)
                .unwrap_or_else(|| panic!("{path}: no [profile.release]"));
            let body = body.split("\n[").next().unwrap();
            body.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        let root = section(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(
            section(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml")),
            root
        );
    }
}
