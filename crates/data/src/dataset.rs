//! Labelled image batches and their generation.

use crate::synth::{render_shape, ShapeClass, Shift, NUM_CLASSES};
use crate::Result;
use metalora_tensor::{Tensor, TensorError};
use rand::rngs::StdRng;

/// A batch of images `[N, 3, S, S]` with integer labels.
#[derive(Debug, Clone)]
pub struct LabeledImages {
    /// Image tensor `[N, 3, S, S]`.
    pub images: Tensor,
    /// One label per image.
    pub labels: Vec<usize>,
}

impl LabeledImages {
    /// Wraps pre-built data, validating the batch axis.
    pub fn new(images: Tensor, labels: Vec<usize>) -> Result<Self> {
        if images.rank() != 4 || images.dims()[0] != labels.len() {
            return Err(TensorError::InvalidArgument(format!(
                "images {:?} vs {} labels",
                images.dims(),
                labels.len()
            )));
        }
        Ok(LabeledImages { images, labels })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Concatenates two batches.
    pub fn concat(&self, other: &LabeledImages) -> Result<LabeledImages> {
        let images =
            metalora_tensor::ops::concat(&[&self.images, &other.images], 0)?;
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        LabeledImages::new(images, labels)
    }
}

/// Generates `per_class` samples of every shape class under `shift`,
/// producing a class-balanced, shuffled-order-free batch of
/// `per_class · NUM_CLASSES` images of side `size`.
pub fn generate(
    shift: Shift,
    per_class: usize,
    size: usize,
    rng: &mut StdRng,
) -> Result<LabeledImages> {
    let n = per_class * NUM_CLASSES;
    let mut images = Tensor::zeros(&[n, 3, size, size]);
    let mut labels = Vec::with_capacity(n);
    let mut i = 0usize;
    for _ in 0..per_class {
        for class in ShapeClass::all() {
            let base = render_shape(class, size, rng)?;
            let shifted = shift.apply(&base, rng)?;
            images.set_axis0(i, &shifted)?;
            labels.push(class.label());
            i += 1;
        }
    }
    Ok(LabeledImages { images, labels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_tensor::init;

    #[test]
    fn generate_is_balanced_and_shaped() {
        let mut rng = init::rng(1);
        let d = generate(Shift::Identity, 3, 16, &mut rng).unwrap();
        assert_eq!(d.len(), 24);
        assert!(!d.is_empty());
        assert_eq!(d.images.dims(), &[24, 3, 16, 16]);
        for class in 0..NUM_CLASSES {
            assert_eq!(d.labels.iter().filter(|&&l| l == class).count(), 3);
        }
    }

    #[test]
    fn generate_applies_shift() {
        let a = generate(Shift::Identity, 1, 16, &mut init::rng(2)).unwrap();
        let b = generate(Shift::Invert, 1, 16, &mut init::rng(2)).unwrap();
        // Same seeds → same base renders → inverted pixels.
        let x = a.images.get(&[0, 0, 8, 8]).unwrap();
        let y = b.images.get(&[0, 0, 8, 8]).unwrap();
        assert!((x - (1.0 - y)).abs() < 1e-6, "{x} vs {y}");
    }

    #[test]
    fn new_validates() {
        assert!(LabeledImages::new(Tensor::zeros(&[2, 3, 4, 4]), vec![0]).is_err());
        assert!(LabeledImages::new(Tensor::zeros(&[2, 3, 4]), vec![0, 1]).is_err());
    }

    #[test]
    fn concat_appends() {
        let mut rng = init::rng(4);
        let a = generate(Shift::Identity, 1, 8, &mut rng).unwrap();
        let b = generate(Shift::Identity, 2, 8, &mut rng).unwrap();
        let c = a.concat(&b).unwrap();
        assert_eq!(c.len(), 24);
        assert_eq!(c.images.dims()[0], 24);
    }
}
