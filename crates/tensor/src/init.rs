//! Seeded random tensor initialisers.
//!
//! All randomness in the workspace flows through an explicit
//! [`rand::rngs::StdRng`] so every experiment is reproducible from a single
//! seed.

use crate::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates the deterministic RNG used across the workspace.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Tensor with i.i.d. `U(lo, hi)` entries.
pub fn uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for x in t.data_mut() {
        *x = rng.gen_range(lo..hi);
    }
    t
}

/// Tensor with i.i.d. `N(mean, std²)` entries (Box–Muller).
pub fn normal(dims: &[usize], mean: f32, std: f32, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    let data = t.data_mut();
    let mut i = 0;
    while i < data.len() {
        // Box–Muller transform produces two independent normals per draw.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data[i] = mean + std * r * theta.cos();
        if i + 1 < data.len() {
            data[i + 1] = mean + std * r * theta.sin();
        }
        i += 2;
    }
    t
}

/// Kaiming/He normal initialisation for layers followed by ReLU:
/// `N(0, 2 / fan_in)`.
pub fn he_normal(dims: &[usize], fan_in: usize, rng: &mut StdRng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    normal(dims, 0.0, std, rng)
}

/// The standard LoRA initialisation for the down-projection `A`:
/// Kaiming-uniform with `a = √5`, matching the reference implementation.
pub fn lora_a_init(dims: &[usize], fan_in: usize, rng: &mut StdRng) -> Tensor {
    // kaiming_uniform(a=sqrt(5)) reduces to U(-1/sqrt(fan_in), 1/sqrt(fan_in)).
    let limit = 1.0 / (fan_in.max(1) as f32).sqrt();
    uniform(dims, -limit, limit, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = uniform(&[100], -1.0, 1.0, &mut rng(7));
        let b = uniform(&[100], -1.0, 1.0, &mut rng(7));
        assert_eq!(a, b);
        let c = uniform(&[100], -1.0, 1.0, &mut rng(8));
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = uniform(&[1000], -0.5, 0.25, &mut rng(1));
        assert!(t.data().iter().all(|&x| (-0.5..0.25).contains(&x)));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let n = 20_000;
        let t = normal(&[n], 1.0, 2.0, &mut rng(42));
        let mean = t.data().iter().sum::<f32>() / n as f32;
        let var =
            t.data().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn normal_odd_length() {
        let t = normal(&[7], 0.0, 1.0, &mut rng(3));
        assert_eq!(t.len(), 7);
        assert!(!t.has_non_finite());
    }

    #[test]
    fn he_normal_scales_with_fan_in() {
        let n = 20_000;
        let t = he_normal(&[n], 50, &mut rng(9));
        let var = t.data().iter().map(|&x| x * x).sum::<f32>() / n as f32;
        assert!((var - 2.0 / 50.0).abs() < 0.01, "var = {var}");
    }

    #[test]
    fn lora_a_init_bounds() {
        let t = lora_a_init(&[64, 4], 64, &mut rng(2));
        let limit = 1.0 / 8.0;
        assert!(t.data().iter().all(|&x| x.abs() <= limit));
    }
}
