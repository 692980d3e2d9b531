//! The K-nearest-neighbour probe of Table I.
//!
//! Features come from a frozen (adapted) backbone; the probe fits on a
//! support set and classifies queries by majority vote among the K
//! nearest embeddings.
//!
//! Every `(query, support)` score of a `predict` call comes out of one
//! [`gemm`] over the whole query batch; nothing else here computes a
//! distance.
//!
//! * **L2.** `‖q − s‖² = ‖q‖² − 2·q·s + ‖s‖²`, and `‖q‖²` is the same for
//!   every support of one query, so it cannot reorder that query's
//!   supports and is dropped: the score is `‖s‖² − 2·q·s`, the product of
//!   `−2·q` (scaling by −2 is exact) with the supports transposed, and
//!   `‖s‖²` as its column bias. `fit` computes each `‖s‖²` once, as the
//!   fused multiply-add chain from `+0.0` in increasing dimension that
//!   `gemm` runs per element, so a support queried against itself scores
//!   exactly `−‖s‖²`.
//! * **Cosine.** `fit` scales the support rows to unit length once, and
//!   the score is `−q·ŝ`: the same product of `−q` without a bias. The
//!   query's own norm is, like `‖q‖²` above, the same for all its supports,
//!   so the query is not scaled. A zero row on either side scores `0`
//!   against everything, an all-way tie.
//!
//! A score ranks, it is not a distance: it can be negative, and it differs
//! from the exact distance in the last bits, so two supports almost
//! equidistant from a query can swap places. `gemm` is bitwise identical
//! across kernels and SIMD levels, so the probe is too.
//!
//! A query row with any non-finite score (a NaN or ±Inf coordinate on
//! either side, as a diverged adapt produces) has no ranking: `predict`
//! returns `InvalidArgument` naming the first such row. Otherwise each
//! query votes over its K lowest scores, equal scores ranking the lower
//! support index first; a tie between classes goes to the class of the
//! nearest member among the tied classes.

use crate::Result;
use metalora_tensor::ops::{gemm, GemmDesc};
use metalora_tensor::{Tensor, TensorError};
use std::cmp::Ordering::Equal;

/// Distance metric for the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// Squared Euclidean distance.
    L2,
    /// One minus cosine similarity.
    Cosine,
}

/// `Σ x²` over `row` as one fused multiply-add chain from `+0.0` in
/// increasing index: the accumulation `gemm` runs for one output element.
fn sq_norm(row: &[f32]) -> f32 {
    row.iter().fold(0.0, |acc, &x| x.mul_add(x, acc))
}

/// `t:[rows, d]` with every row scaled to unit length; a zero row stays
/// zero.
fn unit_rows(mut t: Tensor) -> Tensor {
    let d = t.dims()[1];
    for row in 0..t.dims()[0] {
        let row = &mut t.data_mut()[row * d..(row + 1) * d];
        let norm = sq_norm(row).sqrt();
        if norm != 0.0 {
            row.iter_mut().for_each(|x| *x /= norm);
        }
    }
    t
}

/// A fitted KNN classifier over embedding vectors.
pub struct KnnClassifier {
    /// `[N, D]`: the embeddings as given (L2) or at unit length (cosine).
    supports: Tensor,
    /// `[N]`: `‖s‖²` per support, the L2 score's column bias.
    sq_norms: Option<Tensor>,
    labels: Vec<usize>,
    distance: Distance,
}

impl KnnClassifier {
    /// Fits (stores) the support embeddings `[N, D]` and labels.
    pub fn fit(embeddings: Tensor, labels: Vec<usize>, distance: Distance) -> Result<Self> {
        if embeddings.rank() != 2 || embeddings.dims()[0] != labels.len() {
            return Err(TensorError::InvalidArgument(format!(
                "embeddings {:?} vs {} labels",
                embeddings.dims(),
                labels.len()
            )));
        }
        if labels.is_empty() {
            return Err(TensorError::InvalidArgument("empty support set".into()));
        }
        let (supports, sq_norms) = match distance {
            Distance::L2 => {
                let d = embeddings.dims()[1];
                let norms = (0..labels.len())
                    .map(|j| sq_norm(&embeddings.data()[j * d..(j + 1) * d]))
                    .collect();
                let norms = Tensor::from_vec(norms, &[labels.len()])?;
                (embeddings, Some(norms))
            }
            Distance::Cosine => (unit_rows(embeddings), None),
        };
        Ok(KnnClassifier {
            supports,
            sq_norms,
            labels,
            distance,
        })
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the support set is empty (cannot happen post-`fit`).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The `[M, N]` scores of `queries:[M, D]` against every support, lower
    /// is nearer: one `gemm` (see the module docs).
    fn scores(&self, queries: &Tensor) -> Result<Tensor> {
        let factor = match self.distance {
            Distance::L2 => -2.0,
            Distance::Cosine => -1.0,
        };
        let mut lhs = queries.clone();
        lhs.data_mut().iter_mut().for_each(|x| *x *= factor);
        gemm(
            &GemmDesc::new(&lhs, &self.supports)
                .transpose_b()
                .epilogue(self.sq_norms.as_ref()),
        )
    }

    /// Predicts labels for query embeddings `[M, D]` with `k` neighbours.
    ///
    /// A query whose score against any support is not finite (a NaN or
    /// ±Inf coordinate on either side, as a diverged adapt produces) has no
    /// ranking: the call returns `InvalidArgument` naming the first such
    /// query row.
    pub fn predict(&self, queries: &Tensor, k: usize) -> Result<Vec<usize>> {
        if queries.rank() != 2 || queries.dims()[1] != self.supports.dims()[1] {
            return Err(TensorError::ShapeMismatch {
                op: "knn predict",
                lhs: queries.dims().to_vec(),
                rhs: self.supports.dims().to_vec(),
            });
        }
        if k == 0 {
            return Err(TensorError::InvalidArgument("k must be >= 1".into()));
        }
        let k = k.min(self.len());
        let (m, d, n) = (queries.dims()[0], queries.dims()[1], self.len());
        let scores = self.scores(queries)?;
        metalora_obs::counters::record_kernel(
            metalora_obs::counters::Kernel::Knn,
            (2 * m * n * d) as u64,
            (4 * (queries.len() + self.supports.len()) + 8 * m) as u64,
        );
        let rows = scores.data().chunks_exact(n);
        // Checked before any sort: the sort below then compares finite
        // values only, where `partial_cmp` always answers.
        let non_finite = |row: &[f32]| row.iter().any(|s| !s.is_finite());
        if let Some(qi) = rows.clone().position(non_finite) {
            return Err(TensorError::InvalidArgument(format!(
                "knn predict: query row {qi} has a non-finite distance to the support set \
                 (NaN or ±Inf in the query or a support embedding)"
            )));
        }
        let mut ranked: Vec<(f32, usize)> = Vec::with_capacity(n);
        let out = rows
            .map(|row| {
                ranked.clear();
                ranked.extend(row.iter().copied().zip(0..));
                ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Equal));
                // Majority vote over the k nearest. Labels enter `votes`
                // nearest first and only a strictly larger count displaces
                // the leader, so a tie goes to the nearest tied class.
                let mut votes: Vec<(usize, usize)> = Vec::new(); // (label, count)
                for &(_, si) in &ranked[..k] {
                    let label = self.labels[si];
                    match votes.iter_mut().find(|(l, _)| *l == label) {
                        Some((_, c)) => *c += 1,
                        None => votes.push((label, 1)),
                    }
                }
                let lead = votes
                    .iter()
                    .fold((0, 0), |lead, &v| if v.1 > lead.1 { v } else { lead });
                lead.0
            })
            .collect();
        Ok(out)
    }

    /// Accuracy of the probe on labelled queries.
    pub fn accuracy(&self, queries: &Tensor, labels: &[usize], k: usize) -> Result<f32> {
        let pred = self.predict(queries, k)?;
        if pred.len() != labels.len() {
            return Err(TensorError::InvalidArgument(format!(
                "{} predictions vs {} labels",
                pred.len(),
                labels.len()
            )));
        }
        let correct = pred.iter().zip(labels).filter(|(a, b)| a == b).count();
        Ok(correct as f32 / labels.len().max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_tensor::init;
    use metalora_tensor::ops::{microkernel, KernelPath};

    fn clustered(n_per: usize, seed: u64) -> (Tensor, Vec<usize>) {
        // Three well-separated 2-D clusters.
        let centres = [(-5.0f32, 0.0f32), (5.0, 0.0), (0.0, 8.0)];
        let mut rng = init::rng(seed);
        let n = 3 * n_per;
        let mut e = Tensor::zeros(&[n, 2]);
        let mut labels = Vec::new();
        for (ci, &(cx, cy)) in centres.iter().enumerate() {
            for j in 0..n_per {
                let i = ci * n_per + j;
                let noise = init::normal(&[2], 0.0, 0.4, &mut rng);
                e.data_mut()[i * 2] = cx + noise.data()[0];
                e.data_mut()[i * 2 + 1] = cy + noise.data()[1];
                labels.push(ci);
            }
        }
        (e, labels)
    }

    #[test]
    fn classifies_separated_clusters() {
        let (support, labels) = clustered(10, 1);
        let knn = KnnClassifier::fit(support, labels, Distance::L2).unwrap();
        let (queries, qlabels) = clustered(5, 2);
        for k in [1, 5, 10] {
            let acc = knn.accuracy(&queries, &qlabels, k).unwrap();
            assert!(acc > 0.95, "k={k} acc={acc}");
        }
    }

    #[test]
    fn cosine_distance_works() {
        let (support, labels) = clustered(10, 3);
        let knn = KnnClassifier::fit(support, labels, Distance::Cosine).unwrap();
        let (queries, qlabels) = clustered(5, 4);
        let acc = knn.accuracy(&queries, &qlabels, 5).unwrap();
        assert!(acc > 0.8, "cosine acc={acc}");
    }

    #[test]
    fn k_larger_than_support_is_clamped() {
        let e = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0], &[2, 2]).unwrap();
        let knn = KnnClassifier::fit(e, vec![0, 1], Distance::L2).unwrap();
        let q = Tensor::from_vec(vec![0.1, 0.1], &[1, 2]).unwrap();
        let pred = knn.predict(&q, 100).unwrap();
        // Both neighbours vote once; tie resolves to the nearest (label 0).
        assert_eq!(pred, vec![0]);
    }

    #[test]
    fn validation_errors() {
        assert!(KnnClassifier::fit(Tensor::zeros(&[2, 3]), vec![0], Distance::L2).is_err());
        assert!(KnnClassifier::fit(Tensor::zeros(&[0, 3]), vec![], Distance::L2).is_err());
        let knn =
            KnnClassifier::fit(Tensor::zeros(&[2, 3]), vec![0, 1], Distance::L2).unwrap();
        assert_eq!(knn.len(), 2);
        assert!(!knn.is_empty());
        assert!(knn.predict(&Tensor::zeros(&[1, 4]), 1).is_err());
        assert!(knn.predict(&Tensor::zeros(&[1, 3]), 0).is_err());
        assert!(knn.accuracy(&Tensor::zeros(&[1, 3]), &[0, 1], 1).is_err());
    }

    #[test]
    fn deterministic_tie_breaking() {
        // 2 support points of different classes at equal distance-ish:
        // k=2 produces a 1-1 tie; the nearer one must win, repeatably.
        let e = Tensor::from_vec(vec![1.0, 0.0, -1.001, 0.0], &[2, 2]).unwrap();
        let knn = KnnClassifier::fit(e, vec![7, 3], Distance::L2).unwrap();
        let q = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]).unwrap();
        for _ in 0..5 {
            assert_eq!(knn.predict(&q, 2).unwrap(), vec![7]);
        }
    }

    #[test]
    fn a_support_scores_minus_its_squared_norm_against_itself() {
        // Exactly, on both kernels: `‖s‖²` is the chain `gemm` runs, and
        // scaling by −2 commutes with every rounding in it.
        let n = 9;
        let support = init::uniform(&[n, 129], -5.0, 5.0, &mut init::rng(11));
        let knn = KnnClassifier::fit(support.clone(), vec![0; n], Distance::L2).unwrap();
        let norms = knn.sq_norms.as_ref().unwrap().data();
        for path in [KernelPath::Packed, KernelPath::Reference] {
            let scores = microkernel::with_kernel_path(path, || knn.scores(&support).unwrap());
            for (j, norm) in norms.iter().enumerate() {
                let own = scores.data()[j * n + j];
                assert_eq!(own.to_bits(), (-norm).to_bits(), "{path:?}");
            }
        }
    }

    /// Predicts under both metrics on both kernel paths, expecting the error
    /// to name `row`.
    fn assert_non_finite_row(support: &Tensor, labels: &[usize], queries: &Tensor, row: usize) {
        for distance in [Distance::L2, Distance::Cosine] {
            let knn = KnnClassifier::fit(support.clone(), labels.to_vec(), distance).unwrap();
            for path in [KernelPath::Packed, KernelPath::Reference] {
                let got = microkernel::with_kernel_path(path, || knn.predict(queries, 3));
                let named = matches!(&got, Err(TensorError::InvalidArgument(msg))
                    if msg.contains(&format!("query row {row} ")));
                assert!(named, "{distance:?} on {path:?}: {got:?}");
            }
        }
    }

    #[test]
    fn nan_in_a_support_row_is_an_error_not_a_panic() {
        let (mut support, labels) = clustered(10, 5);
        support.data_mut()[7 * 2 + 1] = f32::NAN;
        let (queries, _) = clustered(3, 6);
        // Every query is at a NaN distance from support 7: row 0 is first.
        assert_non_finite_row(&support, &labels, &queries, 0);
    }

    #[test]
    fn nan_in_a_query_is_an_error_not_a_panic() {
        let (support, labels) = clustered(10, 7);
        let (mut queries, _) = clustered(3, 8);
        queries.data_mut()[4 * 2] = f32::NAN;
        assert_non_finite_row(&support, &labels, &queries, 4);
    }

    #[test]
    fn majority_beats_proximity_when_k_high() {
        // One very close label-0 point, three slightly farther label-1
        // points: k=1 picks 0, k=4 picks 1.
        let e = Tensor::from_vec(
            vec![0.1, 0.0, 1.0, 0.0, 1.1, 0.0, 0.9, 0.0],
            &[4, 2],
        )
        .unwrap();
        let knn = KnnClassifier::fit(e, vec![0, 1, 1, 1], Distance::L2).unwrap();
        let q = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]).unwrap();
        assert_eq!(knn.predict(&q, 1).unwrap(), vec![0]);
        assert_eq!(knn.predict(&q, 4).unwrap(), vec![1]);
    }
}
