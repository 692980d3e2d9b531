//! Synthetic multi-tenant traffic: zipf-distributed tenant ids with
//! per-task input shifts, for the repo benchmark and the `serve` artifact
//! driver.
//!
//! Real adapter-serving traffic is heavy-tailed — a few hot users issue
//! most requests while a long tail keeps the merged-weight cache churning.
//! A zipf(s) draw over tenant ids reproduces exactly that pressure, and a
//! deterministic per-task input shift makes different tasks' requests
//! occupy visibly different regions of input space (the "mixed task
//! shifts" the MetaLoRA evaluation is about).

use crate::batch::Request;
use crate::store::TenantId;
use metalora_tensor::init;
use rand::Rng;

/// Traffic-shape knobs.
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Number of distinct tenants.
    pub tenants: usize,
    /// Number of distinct task shifts tenants are spread over.
    pub tasks: usize,
    /// Zipf exponent (0 = uniform; larger = more skewed).
    pub zipf_s: f64,
    /// Requests to generate.
    pub requests: usize,
    /// Input feature width.
    pub in_dim: usize,
    /// Maximum rows per request (drawn uniformly from `1..=max_rows`).
    pub max_rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            tenants: 16,
            tasks: 4,
            zipf_s: 1.1,
            requests: 256,
            in_dim: 8,
            max_rows: 4,
            seed: 42,
        }
    }
}

/// A zipf(s) sampler over `0..n` via CDF inversion.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Weights `1/(k+1)^s`, normalised.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// The task a tenant's requests carry (round-robin over tasks).
pub fn task_of(tenant: TenantId, tasks: usize) -> usize {
    (tenant as usize) % tasks.max(1)
}

/// Deterministic per-task input shift for dimension `d` — a per-task
/// constant offset plus a per-dimension wiggle, so each task's requests
/// sit in a distinct input region.
fn task_shift(task: usize, d: usize) -> f32 {
    0.2 * task as f32 + 0.3 * ((task * 31 + d * 7 + 3) as f32).sin()
}

/// Generates the request stream: zipf-drawn tenant, 1..=`max_rows` input
/// rows of `uniform(-1, 1)` plus that tenant's task shift. Fully
/// deterministic in `cfg.seed`.
pub fn generate(cfg: &TrafficConfig) -> Vec<Request> {
    let mut rng = init::rng(cfg.seed);
    let zipf = Zipf::new(cfg.tenants.max(1), cfg.zipf_s);
    let mut reqs = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        let tenant = zipf.sample(&mut rng) as TenantId;
        let task = task_of(tenant, cfg.tasks);
        let rows = rng.gen_range(1..=cfg.max_rows.max(1));
        let mut x = init::uniform(&[rows, cfg.in_dim], -1.0, 1.0, &mut rng);
        for r in 0..rows {
            for d in 0..cfg.in_dim {
                x.data_mut()[r * cfg.in_dim + d] += task_shift(task, d);
            }
        }
        reqs.push(Request::new(tenant, x));
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let cfg = TrafficConfig {
            tenants: 8,
            requests: 2000,
            ..TrafficConfig::default()
        };
        let reqs = generate(&cfg);
        assert_eq!(reqs.len(), 2000);
        // Per-tenant counts; an out-of-range tenant is left out, so the
        // sum below checks the range.
        let mut h = [0usize; 8];
        for r in &reqs {
            if let Some(n) = h.get_mut(r.tenant as usize) {
                *n += 1;
            }
        }
        assert_eq!(h.iter().sum::<usize>(), 2000, "all tenants in range");
        assert!(h[0] > h[7], "zipf head outweighs tail");
        assert!(h[0] > 2000 / 8, "head above uniform share");
    }

    #[test]
    fn stream_is_deterministic_in_seed() {
        let cfg = TrafficConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.tenant, rb.tenant);
            assert_eq!(ra.x.dims(), rb.x.dims());
            assert_eq!(ra.x.data(), rb.x.data());
        }
        let c = generate(&TrafficConfig {
            seed: 43,
            ..TrafficConfig::default()
        });
        assert!(a.iter().zip(&c).any(|(x, y)| x.tenant != y.tenant
            || x.x.dims() != y.x.dims()
            || x.x.data() != y.x.data()));
    }

    #[test]
    fn task_shifts_separate_means() {
        let cfg = TrafficConfig {
            tenants: 4,
            tasks: 4,
            requests: 400,
            zipf_s: 0.0, // uniform so every task appears
            ..TrafficConfig::default()
        };
        let reqs = generate(&cfg);
        // Mean input per task differs between at least one pair of tasks.
        let mut means = vec![(0.0f64, 0usize); 4];
        for r in &reqs {
            let t = task_of(r.tenant, 4);
            let m: f64 = r.x.data().iter().map(|&v| v as f64).sum::<f64>() / r.x.len() as f64;
            means[t].0 += m;
            means[t].1 += 1;
        }
        let avg: Vec<f64> = means
            .iter()
            .map(|(s, n)| if *n > 0 { s / *n as f64 } else { 0.0 })
            .collect();
        let spread = avg
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            - avg.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.05, "task means too close: {avg:?}");
    }

    #[test]
    fn rows_bounded_by_max_rows() {
        let cfg = TrafficConfig {
            max_rows: 3,
            requests: 200,
            ..TrafficConfig::default()
        };
        for r in generate(&cfg) {
            assert!((1..=3).contains(&r.x.dims()[0]));
            assert_eq!(r.x.dims()[1], cfg.in_dim);
        }
    }
}
