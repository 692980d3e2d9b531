//! Optimisers: SGD with momentum and Adam, both with decoupled weight
//! decay.

use metalora_autograd::ParamRef;
use metalora_tensor::Tensor;
use std::collections::{BTreeMap, HashMap};

/// Side accumulators for one parameter group during a probed step. All
/// sums run in `f64` next to the `f32` update and never feed back into
/// it, so probing leaves the optimizer numerics bit-identical.
#[derive(Default)]
struct GroupHealth {
    grad_sq: f64,
    upd_sq: f64,
    w_sq: f64,
    nan: u64,
    inf: u64,
}

/// Health group of a parameter: its name up to the last `.` segment
/// (`"mapping.w1"` → `"mapping"`), i.e. one group per layer.
fn health_group(name: &str) -> String {
    match name.rfind('.') {
        Some(i) => name[..i].to_string(),
        None => name.to_string(),
    }
}

/// Folds one gradient into the group's NaN/Inf sentinels and grad-norm
/// accumulator.
fn scan_grad(h: &mut GroupHealth, g: &Tensor) {
    for &gi in g.data() {
        if gi.is_nan() {
            h.nan += 1;
        } else if gi.is_infinite() {
            h.inf += 1;
        } else {
            let gi = gi as f64;
            h.grad_sq += gi * gi;
        }
    }
}

/// Emits one [`metalora_obs::health::HealthRecord`] per group (sorted —
/// `BTreeMap` — so record order is deterministic).
fn flush_health(step: u64, groups: BTreeMap<String, GroupHealth>) {
    for (group, h) in groups {
        let weight_norm = h.w_sq.sqrt();
        let update_ratio = if weight_norm > 0.0 {
            h.upd_sq.sqrt() / weight_norm
        } else {
            f64::NAN
        };
        metalora_obs::health::record(
            &group,
            step,
            h.grad_sq.sqrt(),
            update_ratio,
            weight_norm,
            h.nan,
            h.inf,
        );
    }
}

/// The parameter walk both optimisers share: skips frozen parameters,
/// applies each element's step, probes health while obs is on, and
/// clears the gradients.
///
/// `state` keeps `K` values per element of each parameter (SGD's
/// velocity, Adam's two moments), zero on the parameter's first step;
/// with `K = 0` it stays empty. `rule(s, g, w)` advances one element's
/// slots `s` from its gradient `g` and returns the step `d` applied as
/// `w -= d`.
fn step_params<const K: usize>(
    params: &[ParamRef],
    state: &mut HashMap<usize, Tensor>,
    rule: impl Fn(&mut [f32; K], f32, f32) -> f32,
) {
    let probe = metalora_obs::health::begin_step();
    let mut groups: BTreeMap<String, GroupHealth> = BTreeMap::new();
    for p in params {
        if !p.trainable() {
            continue;
        }
        let g = p.grad();
        let mut stateless = Vec::new();
        let slots: &mut [[f32; K]] = if K == 0 {
            stateless.resize(g.len(), [0.0; K]);
            &mut stateless
        } else {
            let s = state.entry(p.cell_id()).or_insert_with(|| Tensor::zeros(&[g.len(), K]));
            s.data_mut().as_chunks_mut().0
        };
        let (mut upd_sq, mut w_sq) = (0.0f64, 0.0f64);
        p.update_value(|w| {
            let elems = w.data_mut().iter_mut().zip(g.data()).zip(slots);
            // The unprobed loop carries no side sums, so it vectorizes.
            if probe.is_none() {
                elems.for_each(|((wi, &gi), s)| *wi -= rule(s, gi, *wi));
            } else {
                for ((wi, &gi), s) in elems {
                    let d = rule(s, gi, *wi);
                    upd_sq += d as f64 * d as f64;
                    w_sq += *wi as f64 * *wi as f64;
                    *wi -= d;
                }
            }
        });
        if probe.is_some() {
            let h = groups.entry(health_group(&p.name())).or_default();
            scan_grad(h, &g);
            h.upd_sq += upd_sq;
            h.w_sq += w_sq;
        }
        p.zero_grad();
    }
    if let Some(step) = probe {
        flush_health(step, groups);
    }
}

/// Common optimiser interface over a fixed parameter set.
pub trait Optimizer {
    /// Applies one update using each parameter's accumulated gradient,
    /// then clears the gradients. Frozen parameters are skipped.
    fn step(&mut self);

    /// The parameters this optimizer updates.
    fn params(&self) -> &[ParamRef];

    /// Clears accumulated gradients without updating.
    fn zero_grad(&self) {
        for p in self.params() {
            p.zero_grad();
        }
    }
}

/// Stochastic gradient descent with classical momentum and decoupled
/// weight decay.
pub struct Sgd {
    params: Vec<ParamRef>,
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    /// Per parameter cell, the velocity per element (none without momentum).
    velocity: HashMap<usize, Tensor>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(params: Vec<ParamRef>, lr: f32) -> Self {
        Self::with_momentum(params, lr, 0.0, 0.0)
    }

    /// SGD with momentum `μ` and weight decay `λ` (decoupled, i.e. applied
    /// directly to the weights, not folded into the gradient).
    pub fn with_momentum(params: Vec<ParamRef>, lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            params,
            lr,
            momentum,
            weight_decay,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        if mu > 0.0 {
            step_params(&self.params, &mut self.velocity, |[v], g, w| {
                *v = mu * *v + g;
                lr * (*v + wd * w)
            });
        } else {
            step_params(&self.params, &mut self.velocity, |[], g, w| lr * (g + wd * w));
        }
    }

    fn params(&self) -> &[ParamRef] {
        &self.params
    }
}

/// Adam (Kingma & Ba 2015) with bias correction and decoupled weight
/// decay (AdamW-style).
pub struct Adam {
    params: Vec<ParamRef>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    /// Per parameter cell, `[m, v]` per element.
    moments: HashMap<usize, Tensor>,
}

impl Adam {
    /// Adam with the standard `(β₁, β₂, ε) = (0.9, 0.999, 1e-8)`.
    pub fn new(params: Vec<ParamRef>, lr: f32) -> Self {
        Self::with_config(params, lr, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Fully parameterised Adam.
    pub fn with_config(
        params: Vec<ParamRef>,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
    ) -> Self {
        Adam {
            params,
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            moments: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        step_params(&self.params, &mut self.moments, |[m, v], g, w| {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            lr * (mhat / (vhat.sqrt() + eps) + wd * w)
        });
    }

    fn params(&self) -> &[ParamRef] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(start: &[f32]) -> ParamRef {
        ParamRef::new(
            "x",
            Tensor::from_vec(start.to_vec(), &[start.len()]).unwrap(),
        )
    }

    /// Gradient of f(x) = ½‖x‖² is x itself.
    fn fill_quadratic_grad(p: &ParamRef) {
        p.accumulate_grad(&p.value());
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let p = quadratic_param(&[5.0, -3.0]);
        let mut opt = Sgd::new(vec![p.clone()], 0.1);
        for _ in 0..100 {
            fill_quadratic_grad(&p);
            opt.step();
        }
        assert!(p.value().norm() < 1e-3, "‖x‖ = {}", p.value().norm());
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |momentum: f32, steps: usize| {
            let p = quadratic_param(&[10.0]);
            let mut opt = Sgd::with_momentum(vec![p.clone()], 0.01, momentum, 0.0);
            for _ in 0..steps {
                fill_quadratic_grad(&p);
                opt.step();
            }
            p.value().data()[0].abs()
        };
        assert!(run(0.9, 50) < run(0.0, 50), "momentum should be faster here");
    }

    #[test]
    fn sgd_weight_decay_shrinks_weights() {
        let p = quadratic_param(&[1.0]);
        let mut opt = Sgd::with_momentum(vec![p.clone()], 0.1, 0.0, 0.5);
        // Zero gradient: only decay acts.
        opt.step();
        assert!((p.value().data()[0] - (1.0 - 0.1 * 0.5)).abs() < 1e-6);
    }

    #[test]
    fn sgd_skips_frozen() {
        let p = quadratic_param(&[2.0]);
        p.set_trainable(false);
        let mut opt = Sgd::new(vec![p.clone()], 0.5);
        fill_quadratic_grad(&p);
        opt.step();
        assert_eq!(p.value().data()[0], 2.0);
    }

    #[test]
    fn step_clears_gradients() {
        let p = quadratic_param(&[1.0]);
        let mut opt = Sgd::new(vec![p.clone()], 0.1);
        fill_quadratic_grad(&p);
        opt.step();
        assert_eq!(p.grad().data(), &[0.0]);
        fill_quadratic_grad(&p);
        opt.zero_grad();
        assert_eq!(p.grad().data(), &[0.0]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let p = quadratic_param(&[4.0, -2.0, 7.0]);
        let mut opt = Adam::new(vec![p.clone()], 0.2);
        for _ in 0..200 {
            fill_quadratic_grad(&p);
            opt.step();
        }
        assert!(p.value().norm() < 1e-2, "‖x‖ = {}", p.value().norm());
    }

    #[test]
    fn adam_handles_sparse_scale_differences() {
        // Coordinates with very different gradient scales: Adam's
        // per-coordinate normalisation should still reduce both.
        let p = ParamRef::new("x", Tensor::from_vec(vec![100.0, 0.01], &[2]).unwrap());
        let mut opt = Adam::new(vec![p.clone()], 0.2);
        for _ in 0..2500 {
            fill_quadratic_grad(&p);
            opt.step();
        }
        // The huge coordinate shrinks by orders of magnitude; the tiny one
        // stays bounded near the step size (Adam steps are ~lr regardless
        // of gradient magnitude, and momentum can overshoot by a few ×lr).
        assert!(p.value().data()[0].abs() < 2.0, "{:?}", p.value().data());
        assert!(p.value().data()[1].abs() < 2.0, "{:?}", p.value().data());
    }

    /// Serialises the tests that toggle the global obs switch.
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn health_probes_are_bitwise_passive_and_record_groups() {
        let _g = obs_lock();
        let make = || {
            vec![
                ParamRef::new(
                    "layer1.w",
                    Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap(),
                ),
                ParamRef::new("layer1.b", Tensor::from_vec(vec![0.5], &[1]).unwrap()),
                ParamRef::new("head.w", Tensor::from_vec(vec![2.0, 2.0], &[2]).unwrap()),
            ]
        };
        let run = |params: &[ParamRef]| -> Vec<u32> {
            let mut opt = Adam::with_config(params.to_vec(), 0.1, 0.9, 0.999, 1e-8, 0.01);
            for _ in 0..5 {
                for p in params {
                    p.accumulate_grad(&p.value());
                }
                opt.step();
            }
            params
                .iter()
                .flat_map(|p| p.value().data().iter().map(|f| f.to_bits()).collect::<Vec<_>>())
                .collect()
        };

        let plain = run(&make());

        metalora_obs::set_enabled(true);
        metalora_obs::reset();
        let observed = run(&make());
        let mut records = metalora_obs::health::snapshot();
        metalora_obs::reset();
        metalora_obs::set_enabled(false);
        // The obs switch is process-wide: optimizer tests stepping on other
        // threads meanwhile record their own groups. Count only ours.
        records.retain(|r| r.group == "layer1" || r.group == "head");

        assert_eq!(plain, observed, "health probing must not change numerics");
        // 5 steps × 2 groups (layer1 merges .w and .b), deterministic order.
        assert_eq!(records.len(), 10);
        assert!(records.iter().any(|r| r.group == "layer1"));
        assert!(records.iter().any(|r| r.group == "head"));
        for r in &records {
            assert!(r.grad_norm > 0.0, "{r:?}");
            assert!(r.update_ratio > 0.0, "{r:?}");
            assert!(r.weight_norm > 0.0, "{r:?}");
            assert_eq!((r.nan_count, r.inf_count), (0, 0), "{r:?}");
        }
    }

    #[test]
    fn health_probe_flags_nonfinite_gradients() {
        let _g = obs_lock();
        metalora_obs::set_enabled(true);
        metalora_obs::reset();
        let p = ParamRef::new(
            "bad.w",
            Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]).unwrap(),
        );
        p.accumulate_grad(
            &Tensor::from_vec(vec![f32::NAN, f32::INFINITY, 1.0], &[3]).unwrap(),
        );
        Sgd::new(vec![p.clone()], 0.1).step();
        let records = metalora_obs::health::snapshot();
        metalora_obs::reset();
        metalora_obs::set_enabled(false);
        let r = records.iter().find(|r| r.group == "bad").expect("record");
        assert_eq!(r.nan_count, 1);
        assert_eq!(r.inf_count, 1);
    }
}
