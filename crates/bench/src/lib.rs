//! Shared scaffolding for the benchmark harness.
//!
//! Every table and figure of the paper has a regeneration binary in
//! `src/bin/` (see DESIGN.md's experiment index); those binaries also
//! print the timings behind the performance side of the same claims.
//! Every multi-seed accuracy bin (`table1`, `ablation_full_ft`,
//! `ablation_rank`, `ablation_static_seed`, `ext_transformer`) runs the
//! one experiment grid, `metalora::table1::run_table1`, and adds no
//! pipeline loop of its own.
//!
//! The experiment binaries accept `--scale quick|standard` (default
//! `standard`) and `--seeds N`; `kernels` (the K1 kernel sweep in
//! [`kernels`]) takes `--scale` only, and the `serve` artifact driver takes
//! nothing.

use metalora::config::ExperimentConfig;

pub mod kernels;

/// Parsed command-line options shared by the bench binaries.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Experiment scale.
    pub cfg: ExperimentConfig,
    /// Name of the chosen scale.
    pub scale: String,
    /// Seeds to replicate over.
    pub seeds: Vec<u64>,
}

/// Parses `--scale quick|standard` and `--seeds N` from an argument list.
/// Unknown flags abort with a usage message (via `Err`).
pub fn parse_opts(args: &[String]) -> Result<BenchOpts, String> {
    let mut scale = "standard".to_string();
    let mut n_seeds = 3usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .ok_or("--scale needs a value")?
                    .clone();
                i += 2;
            }
            "--seeds" => {
                n_seeds = args
                    .get(i + 1)
                    .ok_or("--seeds needs a value")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}` (try --scale, --seeds)")),
        }
    }
    let cfg = match scale.as_str() {
        "quick" => ExperimentConfig::quick(),
        "standard" => ExperimentConfig::standard(),
        other => return Err(format!("unknown scale `{other}` (quick|standard)")),
    };
    if n_seeds == 0 {
        return Err("--seeds must be >= 1".into());
    }
    Ok(BenchOpts {
        cfg,
        scale,
        seeds: (0..n_seeds as u64).collect(),
    })
}

/// Reads options from `std::env::args`, exiting with usage on error.
pub fn opts_from_env() -> BenchOpts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: <bin> [--scale quick|standard] [--seeds N]");
            std::process::exit(2);
        }
    }
}

/// Pretty banner with the run configuration.
pub fn banner(name: &str, opts: &BenchOpts) {
    println!("=== {name} ===");
    println!(
        "scale: {} | image {}×{} | seeds {:?} | rank {}",
        opts.scale,
        opts.cfg.image_size,
        opts.cfg.image_size,
        opts.seeds,
        opts.cfg.lora.rank
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = parse_opts(&[]).unwrap();
        assert_eq!(o.scale, "standard");
        assert_eq!(o.seeds, vec![0, 1, 2]);
    }

    #[test]
    fn parses_scale_and_seeds() {
        let o = parse_opts(&s(&["--scale", "quick", "--seeds", "2"])).unwrap();
        assert_eq!(o.scale, "quick");
        assert_eq!(o.seeds, vec![0, 1]);
        assert_eq!(o.cfg.image_size, ExperimentConfig::quick().image_size);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_opts(&s(&["--scale"])).is_err());
        assert!(parse_opts(&s(&["--scale", "huge"])).is_err());
        assert!(parse_opts(&s(&["--seeds", "0"])).is_err());
        assert!(parse_opts(&s(&["--wat"])).is_err());
    }
}
