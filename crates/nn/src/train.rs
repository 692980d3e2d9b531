//! The training step and epoch record shared by the pretraining and
//! adaptation phases, plus batching and accuracy helpers.

use crate::module::{Ctx, Module};
use crate::optim::Optimizer;
use crate::Result;
use metalora_autograd::Graph;
use metalora_tensor::{ops, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::ops::{AddAssign, Div};
use std::time::Instant;

/// Classification accuracy of logits `[N, C]` against integer labels.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let pred = ops::argmax(logits)?;
    if pred.len() != labels.len() {
        return Err(metalora_tensor::TensorError::InvalidArgument(format!(
            "{} predictions vs {} labels",
            pred.len(),
            labels.len()
        )));
    }
    let correct = pred.iter().zip(labels).filter(|(a, b)| a == b).count();
    Ok(correct as f32 / labels.len().max(1) as f32)
}

/// Shuffled mini-batch index ranges over `n` samples.
pub fn batch_indices(n: usize, batch_size: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order
        .chunks(batch_size.max(1))
        .map(|c| c.to_vec())
        .collect()
}

/// Gathers rows of a batched tensor (axis 0) by index.
pub fn gather_rows(x: &Tensor, idx: &[usize]) -> Result<Tensor> {
    let mut parts = Vec::with_capacity(idx.len());
    for &i in idx {
        parts.push(x.index_axis0(i)?);
    }
    Tensor::stack(&parts)
}

/// Gathers label entries by index.
pub fn gather_labels(labels: &[usize], idx: &[usize]) -> Vec<usize> {
    idx.iter().map(|&i| labels[i]).collect()
}

/// One epoch of training steps: [`Epoch::step`] runs one supervised
/// update, and [`Epoch::record`] pushes the epoch to the obs metrics sink
/// (mean loss, accuracy and gradient norm per step, wall time).
///
/// Loss, accuracy and the gradient norm over the optimizer's parameters
/// are read only while `metalora_obs` is enabled; observation never
/// changes the computation. `T` is the precision of the loss and accuracy
/// sums: pretraining sums `f32`, adaptation `f64`.
#[derive(Default)]
pub struct Epoch<T> {
    t0: Option<Instant>,
    loss: T,
    accuracy: T,
    grad_norm: f64,
    steps: usize,
}

impl<T> Epoch<T>
where
    T: Copy + Default + From<f32> + Into<f64> + AddAssign + Div<Output = T>,
{
    /// Starts an epoch (timed while obs is enabled).
    pub fn start() -> Self {
        let t0 = metalora_obs::enabled().then(Instant::now);
        Epoch { t0, ..Default::default() }
    }

    /// One step on a fresh tape: forward `images` under `ctx`,
    /// cross-entropy against `labels`, backward, then `opt.step()`.
    pub fn step(
        &mut self,
        model: &dyn Module,
        images: Tensor,
        labels: &[usize],
        ctx: &Ctx,
        opt: &mut dyn Optimizer,
    ) -> Result<()> {
        let mut g = Graph::new();
        let x = g.input(images);
        let logits = model.forward(&mut g, x, ctx)?;
        let loss = g.softmax_cross_entropy(logits, labels)?;
        g.backward(loss)?;
        g.flush_grads();
        if self.t0.is_some() {
            self.loss += T::from(g.value(loss).item()?);
            self.accuracy += T::from(accuracy(&g.value(logits), labels)?);
            // Global L2 norm of the gradients, summed in one f64 pass.
            let sq = opt.params().iter().fold(0.0f64, |sq, p| {
                p.grad().data().iter().fold(sq, |sq, &v| sq + v as f64 * v as f64)
            });
            self.grad_norm += sq.sqrt();
        }
        opt.step();
        self.steps += 1;
        Ok(())
    }

    /// Records the epoch under the current span path, or `default_phase`
    /// outside any span. No-op while obs is disabled.
    pub fn record(self, default_phase: &str) {
        let Some(t0) = self.t0 else {
            return;
        };
        let n = self.steps.max(1);
        let phase = metalora_obs::span::current_path();
        metalora_obs::metrics::record_epoch(
            if phase.is_empty() { default_phase } else { &phase },
            (self.loss / T::from(n as f32)).into(),
            (self.accuracy / T::from(n as f32)).into(),
            self.grad_norm / n as f64,
            t0.elapsed().as_secs_f64(),
        );
    }
}

/// Runs one supervised epoch of `model` on `(images, labels)` in shuffled
/// mini-batches, updating through `opt`, and records it as an [`Epoch`]
/// (phase `"train"` outside any span).
pub fn train_epoch(
    model: &dyn Module,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
    opt: &mut dyn Optimizer,
    rng: &mut StdRng,
) -> Result<()> {
    let mut epoch = Epoch::<f32>::start();
    for idx in batch_indices(labels.len(), batch_size, rng) {
        let yb = gather_labels(labels, &idx);
        epoch.step(model, gather_rows(images, &idx)?, &yb, &Ctx::none(), opt)?;
    }
    epoch.record("train");
    Ok(())
}

/// Evaluates classification accuracy of `model` on `(images, labels)`
/// in inference mode, batched to bound memory.
pub fn evaluate(
    model: &dyn Module,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f32> {
    let order: Vec<usize> = (0..labels.len()).collect();
    let mut correct = 0.0f32;
    for idx in order.chunks(batch_size.max(1)) {
        let yb = gather_labels(labels, idx);
        let mut g = Graph::inference();
        let x = g.input(gather_rows(images, idx)?);
        let logits = model.forward(&mut g, x, &Ctx::none())?;
        correct += accuracy(&g.value(logits), &yb)? * yb.len() as f32;
    }
    Ok(correct / labels.len().max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Mlp, MlpConfig};
    use crate::optim::Sgd;
    use metalora_tensor::init;

    #[test]
    fn accuracy_counts_matches() {
        let logits =
            Tensor::from_vec(vec![2.0, 1.0, 0.0, 0.0, 0.0, 3.0], &[2, 3]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 2]).unwrap(), 1.0);
        assert_eq!(accuracy(&logits, &[1, 2]).unwrap(), 0.5);
        assert!(accuracy(&logits, &[0]).is_err());
    }

    #[test]
    fn batch_indices_partition() {
        let mut rng = init::rng(1);
        let batches = batch_indices(10, 3, &mut rng);
        assert_eq!(batches.len(), 4);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn gather_rows_and_labels() {
        let x = Tensor::arange(0.0, 1.0, 6).reshape(&[3, 2]).unwrap();
        let g = gather_rows(&x, &[2, 0]).unwrap();
        assert_eq!(g.dims(), &[2, 2]);
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0]);
        assert_eq!(gather_labels(&[7, 8, 9], &[2, 0]), vec![9, 7]);
    }

    #[test]
    fn train_epoch_learns_separable_data() {
        let mut rng = init::rng(5);
        // Two well-separated Gaussian blobs.
        let n = 40;
        let mut images = Tensor::zeros(&[n, 2]);
        let mut labels = vec![0usize; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let c = i % 2;
            labels[i] = c;
            let base = if c == 0 { -2.0 } else { 2.0 };
            let noise = init::normal(&[2], 0.0, 0.3, &mut rng);
            images.data_mut()[i * 2] = base + noise.data()[0];
            images.data_mut()[i * 2 + 1] = base + noise.data()[1];
        }
        let model = Mlp::new(
            "m",
            &MlpConfig {
                in_dim: 2,
                hidden: vec![8],
                out_dim: 2,
            },
            &mut rng,
        );
        let mut opt = Sgd::new(model.params(), 0.3);
        for _ in 0..20 {
            train_epoch(&model, &images, &labels, 8, &mut opt, &mut rng).unwrap();
        }
        let eval = evaluate(&model, &images, &labels, 16).unwrap();
        assert!(eval > 0.95, "eval accuracy {eval}");
    }
}
