//! The K-nearest-neighbour probe of Table I.
//!
//! Features come from a frozen (adapted) backbone; the probe fits on a
//! support set and classifies queries by majority vote among the K
//! nearest embeddings. Ties break toward the class of the nearest member
//! among the tied classes, which makes the probe fully deterministic.
//!
//! The L2 distance matrix runs through a blocked squared-difference
//! microkernel over supports packed with the GEMM packing of
//! [`metalora_tensor::ops::microkernel`]: [`NR`]-wide support tiles,
//! [`KC`]-tall dimension tiles, SIMD-dispatched like the matmul kernel.
//! Each `(query, support)` pair still accumulates `(q−s)²` one dimension
//! at a time in increasing order from `0.0` — the exact arithmetic of the
//! scalar loop (no `‖a‖²−2ab` expansion) — so predictions are bit-stable
//! against the legacy path and across thread counts.

use crate::Result;
use metalora_tensor::ops::microkernel::{self, SimdLevel, KC, NR};
use metalora_tensor::{workspace, Tensor, TensorError};
use std::cmp::Ordering::Equal;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Distance metric for the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// Squared Euclidean distance.
    L2,
    /// One minus cosine similarity.
    Cosine,
}

/// Blocked L2 tile: adds `(q[dd] − s[dd][j])²` for `dd ∈ [0, kc)` into
/// `acc[j]`, `j ∈ [0, ne)`, with `sp` a `[kc×ne]` packed support tile
/// (k-major, [`microkernel::pack_b`] layout). The accumulator row is
/// loaded, updated in increasing-`dd` order, and stored back, so KC tiling
/// never reorders any element's additions.
///
/// # Safety
/// `q` must be valid for `kc` reads, `sp` for `kc*ne`, `acc` for `ne`
/// reads and writes; `ne ≤ NR`.
#[inline(always)]
unsafe fn l2_tile_body(q: *const f32, sp: *const f32, kc: usize, ne: usize, acc: *mut f32) {
    let mut a = [0.0f32; NR];
    for j in 0..ne {
        a[j] = *acc.add(j);
    }
    if ne == NR {
        for dd in 0..kc {
            let qv = *q.add(dd);
            for j in 0..NR {
                let df = qv - *sp.add(dd * NR + j);
                a[j] += df * df;
            }
        }
    } else {
        for dd in 0..kc {
            let qv = *q.add(dd);
            for j in 0..ne {
                let df = qv - *sp.add(dd * ne + j);
                a[j] += df * df;
            }
        }
    }
    for j in 0..ne {
        *acc.add(j) = a[j];
    }
}

unsafe fn l2_tile_scalar(q: *const f32, sp: *const f32, kc: usize, ne: usize, acc: *mut f32) {
    l2_tile_body(q, sp, kc, ne, acc)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn l2_tile_avx2(q: *const f32, sp: *const f32, kc: usize, ne: usize, acc: *mut f32) {
    l2_tile_body(q, sp, kc, ne, acc)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn l2_tile_avx512(q: *const f32, sp: *const f32, kc: usize, ne: usize, acc: *mut f32) {
    l2_tile_body(q, sp, kc, ne, acc)
}

#[inline]
unsafe fn run_l2(lvl: SimdLevel, q: *const f32, sp: *const f32, kc: usize, ne: usize, acc: *mut f32) {
    match lvl {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => l2_tile_avx512(q, sp, kc, ne, acc),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => l2_tile_avx2(q, sp, kc, ne, acc),
        _ => l2_tile_scalar(q, sp, kc, ne, acc),
    }
}

/// Fills `dists[j] = ‖q − s_j‖²` over all `len` supports from the packed
/// panel `sp` (`len×d`, [`microkernel::pack_b`] layout). `dists` must
/// arrive zeroed — the tiles accumulate into it.
fn l2_blocked(q: &[f32], sp: &[f32], len: usize, d: usize, dists: &mut [f32]) {
    let lvl = microkernel::simd_level();
    let len_full = len - len % NR;
    for kb in (0..d).step_by(KC) {
        let kc = (kb + KC).min(d) - kb;
        let tiles = &sp[kb * len..];
        let qp = q[kb..].as_ptr();
        for j0 in (0..len_full).step_by(NR) {
            // Safety: tile j0 spans kc*NR packed floats; dists[j0..] has
            // at least NR slots below len_full.
            unsafe { run_l2(lvl, qp, tiles[j0 * kc..].as_ptr(), kc, NR, dists[j0..].as_mut_ptr()) }
        }
        let ne = len - len_full;
        if ne > 0 {
            unsafe {
                run_l2(lvl, qp, tiles[len_full * kc..].as_ptr(), kc, ne, dists[len_full..].as_mut_ptr())
            }
        }
    }
}

/// A fitted KNN classifier over embedding vectors.
pub struct KnnClassifier {
    embeddings: Tensor, // [N, D]
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
        Ok(KnnClassifier {
            embeddings,
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

    fn dist(&self, q: &[f32], s: &[f32]) -> f32 {
        match self.distance {
            Distance::L2 => q
                .iter()
                .zip(s)
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum(),
            Distance::Cosine => {
                let dot: f32 = q.iter().zip(s).map(|(&a, &b)| a * b).sum();
                let nq: f32 = q.iter().map(|&a| a * a).sum::<f32>().sqrt();
                let ns: f32 = s.iter().map(|&a| a * a).sum::<f32>().sqrt();
                1.0 - dot / (nq * ns).max(1e-12)
            }
        }
    }

    /// Predicts labels for query embeddings `[M, D]` with `k` neighbours.
    ///
    /// A query whose distance to any support is not finite (a NaN or ±Inf
    /// coordinate on either side, as a diverged adapt produces) has no
    /// ranking: the call returns `InvalidArgument` naming the first such
    /// query row.
    pub fn predict(&self, queries: &Tensor, k: usize) -> Result<Vec<usize>> {
        if queries.rank() != 2 || queries.dims()[1] != self.embeddings.dims()[1] {
            return Err(TensorError::ShapeMismatch {
                op: "knn predict",
                lhs: queries.dims().to_vec(),
                rhs: self.embeddings.dims().to_vec(),
            });
        }
        if k == 0 {
            return Err(TensorError::InvalidArgument("k must be >= 1".into()));
        }
        let k = k.min(self.len());
        let d = self.embeddings.dims()[1];
        let m = queries.dims()[0];
        let len = self.len();
        // Blocked path: pack the supports once (shared read-only across
        // the thread team) and run the tiled squared-difference kernel.
        // Cosine and tiny problems keep the legacy per-pair loop.
        let blocked = self.distance == Distance::L2 && microkernel::use_packed(3 * m * len * d);
        let packed: Option<workspace::WorkspaceGuard> = if blocked {
            let mut g = workspace::take(len * d);
            // Support j, dim dd lives at embeddings[j*d + dd]: k-stride 1,
            // column-stride d.
            microkernel::pack_b(self.embeddings.data(), 0, d, len, 1, d, &mut g);
            Some(g)
        } else {
            None
        };
        let sp: Option<&[f32]> = packed.as_deref();
        // The first query row with a non-finite distance (NaN / ±Inf in
        // the query or a support), if any: such a row has no ranking.
        // Relaxed: it publishes no other data, and is read after the team
        // has joined.
        let bad_row = AtomicUsize::new(usize::MAX);
        // Queries are fully independent (own distance row, sort and vote),
        // so the distance matrix + vote parallelises per query row with
        // results identical to the serial loop.
        let mut out = vec![0usize; m];
        metalora_tensor::par::par_row_blocks(&mut out, 1, self.len() * (d + 8), |first, block| {
            let mut scored: Vec<(f32, usize)> = Vec::with_capacity(self.len());
            let mut dists = vec![0.0f32; if sp.is_some() { len } else { 0 }];
            for (r, slot) in block.iter_mut().enumerate() {
                let qi = first + r;
                let q = &queries.data()[qi * d..(qi + 1) * d];
                scored.clear();
                if let Some(sp) = sp {
                    dists.fill(0.0);
                    l2_blocked(q, sp, len, d, &mut dists);
                    scored.extend(dists.iter().enumerate().map(|(si, &dv)| (dv, si)));
                } else {
                    for si in 0..self.len() {
                        let s = &self.embeddings.data()[si * d..(si + 1) * d];
                        scored.push((self.dist(q, s), si));
                    }
                }
                // Checked before any sort: both sorts below then compare
                // finite values only, where `partial_cmp` always answers.
                if !scored.iter().all(|(dv, _)| dv.is_finite()) {
                    bad_row.fetch_min(qi, Relaxed);
                    continue;
                }
                scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Equal));
                // Majority vote over the k nearest; ties → nearest tied class.
                let mut votes: Vec<(usize, usize, f32)> = Vec::new(); // (label, count, best_dist)
                for &(dist, si) in &scored[..k] {
                    let label = self.labels[si];
                    match votes.iter_mut().find(|(l, _, _)| *l == label) {
                        Some((_, c, best)) => {
                            *c += 1;
                            if dist < *best {
                                *best = dist;
                            }
                        }
                        None => votes.push((label, 1, dist)),
                    }
                }
                votes.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.partial_cmp(&b.2).unwrap_or(Equal)));
                *slot = votes[0].0;
            }
        });
        // Distance matrix dominates: ~3 ops per dimension per (query,
        // support) pair (sub/mul/add for L2, comparable for cosine).
        metalora_obs::counters::record_kernel(
            metalora_obs::counters::Kernel::Knn,
            (3 * m * self.len() * d) as u64,
            (4 * (queries.len() + self.embeddings.len()) + 8 * m) as u64,
        );
        match bad_row.into_inner() {
            usize::MAX => Ok(out),
            qi => Err(TensorError::InvalidArgument(format!(
                "knn predict: query row {qi} has a non-finite distance to the support set \
                 (NaN or ±Inf in the query or a support embedding)"
            ))),
        }
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
    use metalora_tensor::ops::KernelPath;

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
    fn blocked_l2_matches_legacy_bitwise() {
        // Ragged support count and dimension (not multiples of NR/KC):
        // the packed path must reproduce the legacy predictions exactly.
        let mut rng = init::rng(9);
        let n = 137;
        let support = init::uniform(&[n, 19], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % 5).collect();
        let queries = init::uniform(&[23, 19], -1.0, 1.0, &mut rng);
        let knn = KnnClassifier::fit(support, labels, Distance::L2).unwrap();
        let [packed, legacy] = [KernelPath::Packed, KernelPath::Reference]
            .map(|path| microkernel::with_kernel_path(path, || knn.predict(&queries, 5).unwrap()));
        assert_eq!(packed, legacy);
    }

    /// Predicts under both metrics on both L2 paths, expecting the error
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
