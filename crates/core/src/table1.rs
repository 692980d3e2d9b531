//! The experiment grid: archs × methods × seeds, each cell a full
//! pretrain → adapt → KNN-probe run, with Welch-t-test significance stars
//! against the best baseline. Table I is its default grid; the A2, A3, A5
//! and E1 bins run the same grid over their own archs and methods.

use crate::config::{Arch, ExperimentConfig};
use crate::methods::Method;
use crate::pipeline::{adapt, pretrain, probe, TABLE1_KS};
use crate::report;
use crate::Result;
use metalora_data::stats::welch_t_test;
use serde::{Deserialize, Serialize};

/// What to run.
#[derive(Debug, Clone)]
pub struct Table1Options {
    /// Experiment configuration shared by all cells.
    pub cfg: ExperimentConfig,
    /// Seeds; each seed is a full pretrain+adapt+probe replication.
    pub seeds: Vec<u64>,
    /// Architectures (columns).
    pub archs: Vec<Arch>,
    /// Methods (rows).
    pub methods: Vec<Method>,
    /// Significance level for the star.
    pub alpha: f64,
}

impl Table1Options {
    /// The paper's full grid at the given scale.
    pub fn new(cfg: ExperimentConfig, seeds: Vec<u64>) -> Self {
        Table1Options {
            cfg,
            seeds,
            archs: vec![Arch::ResNet, Arch::Mixer],
            methods: Method::table1().to_vec(),
            alpha: 0.05,
        }
    }
}

/// One cell: per-episode accuracies pooled over seeds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Cell {
    /// Episode accuracies (as fractions) pooled across seeds/rounds/tasks.
    pub samples: Vec<f64>,
    /// Whether the cell is significantly above the best baseline.
    pub significant: bool,
}

impl Cell {
    /// Mean accuracy of the cell.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

/// The full table: `cells[arch][k][method]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Result {
    /// Method names in row order.
    pub methods: Vec<String>,
    /// Architecture names in column-group order.
    pub archs: Vec<String>,
    /// K values per architecture.
    pub ks: Vec<usize>,
    /// `cells[a][k_idx][m]` — one per (arch, K, method).
    pub cells: Vec<Vec<Vec<Cell>>>,
    /// `trainable[a][m]` — the scalar count of the parameters adaptation
    /// optimised (0 for `Original`); it does not depend on the seed.
    pub trainable: Vec<Vec<usize>>,
}

impl Table1Result {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut headers = vec!["Method".to_string()];
        for a in &self.archs {
            for k in &self.ks {
                headers.push(format!("{a} K={k}"));
            }
        }
        let mut rows = Vec::new();
        for (mi, m) in self.methods.iter().enumerate() {
            let mut row = vec![m.clone()];
            for (ai, _) in self.archs.iter().enumerate() {
                for (ki, _) in self.ks.iter().enumerate() {
                    let cell = &self.cells[ai][ki][mi];
                    row.push(report::pct(cell.mean(), cell.significant));
                }
            }
            rows.push(row);
        }
        report::render_table(&headers, &rows)
    }

    /// Mean accuracy of `(arch_idx, k, method_idx)`.
    pub fn mean(&self, arch_idx: usize, k: usize, method_idx: usize) -> Option<f64> {
        let ki = self.ks.iter().position(|&x| x == k)?;
        Some(self.cells.get(arch_idx)?.get(ki)?.get(method_idx)?.mean())
    }
}

/// Runs the grid. This is the expensive entry point behind every
/// multi-seed bench binary (`table1`, `ablation_full_ft`, `ablation_rank`,
/// `ablation_static_seed`, `ext_transformer`); with
/// `ExperimentConfig::quick()` it also powers the integration test.
pub fn run_table1(opts: &Table1Options) -> Result<Table1Result> {
    let mut cells =
        vec![vec![vec![Cell::default(); opts.methods.len()]; TABLE1_KS.len()]; opts.archs.len()];
    let mut trainable = vec![vec![0usize; opts.methods.len()]; opts.archs.len()];

    for (ai, &arch) in opts.archs.iter().enumerate() {
        for (mi, &method) in opts.methods.iter().enumerate() {
            for &seed in &opts.seeds {
                let net = pretrain(&opts.cfg, arch, seed)?;
                let adapted = adapt(net, method, &opts.cfg, seed)?;
                trainable[ai][mi] = adapted.adapter_params.iter().map(|p| p.len()).sum();
                let result = probe(&adapted, &opts.cfg, seed)?;
                for (ki, &k) in TABLE1_KS.iter().enumerate() {
                    let eps = result.episodes(k).expect("fixed K set");
                    cells[ai][ki][mi]
                        .samples
                        .extend(eps.iter().map(|&x| x as f64));
                }
            }
        }
    }

    // Significance stars: each non-baseline method vs the best baseline
    // (by mean) in the same (arch, K) column.
    for arch_cells in cells.iter_mut() {
        for k_cells in arch_cells.iter_mut() {
            let best_baseline = opts
                .methods
                .iter()
                .enumerate()
                .filter(|(_, m)| m.is_baseline())
                .max_by(|(i, _), (j, _)| {
                    k_cells[*i]
                        .mean()
                        .partial_cmp(&k_cells[*j].mean())
                        .expect("finite means")
                })
                .map(|(i, _)| i);
            if let Some(bi) = best_baseline {
                let baseline_samples = k_cells[bi].samples.clone();
                for (mi, m) in opts.methods.iter().enumerate() {
                    if m.is_baseline() {
                        continue;
                    }
                    if let Some(t) = welch_t_test(&k_cells[mi].samples, &baseline_samples) {
                        k_cells[mi].significant = t.significantly_greater(opts.alpha);
                    }
                }
            }
        }
    }

    Ok(Table1Result {
        methods: opts.methods.iter().map(|m| m.name().to_string()).collect(),
        archs: opts.archs.iter().map(|a| a.name().to_string()).collect(),
        ks: TABLE1_KS.to_vec(),
        cells,
        trainable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_mean() {
        let c = Cell {
            samples: vec![0.5, 0.7],
            significant: false,
        };
        assert!((c.mean() - 0.6).abs() < 1e-12);
        assert_eq!(Cell::default().mean(), 0.0);
    }

    #[test]
    fn render_shape_of_result() {
        let r = Table1Result {
            methods: vec!["Original".into(), "Meta-LoRA TR".into()],
            archs: vec!["ResNet".into()],
            ks: vec![5, 10],
            cells: vec![vec![
                vec![
                    Cell {
                        samples: vec![0.6],
                        significant: false,
                    },
                    Cell {
                        samples: vec![0.73],
                        significant: true,
                    },
                ],
                vec![
                    Cell {
                        samples: vec![0.61],
                        significant: false,
                    },
                    Cell {
                        samples: vec![0.71],
                        significant: false,
                    },
                ],
            ]],
            trainable: vec![vec![0, 96]],
        };
        let s = r.render();
        assert!(s.contains("ResNet K=5"));
        assert!(s.contains("73.00%*"));
        assert!(s.contains("71.00%"));
        assert_eq!(r.mean(0, 5, 1), Some(0.73));
        assert_eq!(r.mean(0, 7, 1), None);
    }

    // The end-to-end quick-grid run lives in tests/integration_pipeline.rs
    // to keep unit tests fast.
}
