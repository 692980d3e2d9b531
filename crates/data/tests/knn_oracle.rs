//! The KNN probe against a brute-force f64 exact-distance KNN, on data with
//! a rank gap: two supports are exactly equidistant from a query or far
//! enough apart that f32 rounding cannot swap them (`oracle` checks it).
//! Support counts and dimensions ragged against the register tile and on
//! both sides of the packing gate, both kernel paths.
//!
//! The obs counters are process-global, so both tests hold `LOCK`.

use metalora_data::knn::{Distance, KnnClassifier};
use metalora_tensor::ops::{with_kernel_path, KernelPath};
use metalora_tensor::{init, Tensor};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());
const M: usize = 13;

/// Supports `[n, d]`, their labels and queries `[M, d]`.
type Data = (Tensor, Vec<usize>, Tensor);

/// `n` supports `[n, d]`, their labels (three classes) and `M` queries.
///
/// With `d == 1` the supports sit at the integers and the queries a quarter
/// past one: no two supports are equidistant from a query. Otherwise every
/// point lies on a circle of radius 2 spanned by two orthonormal directions
/// of `R^d`: support `j` at angle `j·δ` and a query at `(u + ¼)·δ` for a
/// random integer `u`, `δ = π/n`. L2 then ranks by angle, and no two of a
/// query's angles to the supports are closer than `δ/2`.
fn ranked_data(n: usize, d: usize, seed: u64) -> Data {
    let mut rng = init::rng(seed);
    let mut draw = |len| -> Vec<f64> {
        let t = init::uniform(&[len], 0.0, 1.0, &mut rng);
        t.data().iter().map(|&x| x as f64).collect()
    };
    let labels = draw(n).iter().map(|x| (x * 3.0) as usize).collect();
    let slots: Vec<f64> = draw(M).iter().map(|x| (x * n as f64).floor()).collect();
    let (s, q): (Vec<f64>, Vec<f64>) = if d == 1 {
        let mid = (n / 2) as f64;
        let s = (0..n).map(|j| j as f64 - mid).collect();
        (s, slots.iter().map(|u| u - mid + 0.25).collect())
    } else {
        let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(p, q)| p * q).sum::<f64>();
        let (a, b) = (draw(d), draw(d));
        let a: Vec<f64> = a.iter().map(|x| x / dot(&a, &a).sqrt()).collect();
        let b: Vec<f64> = b.iter().zip(&a).map(|(x, y)| x - dot(&a, &b) * y).collect();
        let b: Vec<f64> = b.iter().map(|x| x / dot(&b, &b).sqrt()).collect();
        let at = |t: f64| -> Vec<f64> {
            let (sin, cos) = (t * std::f64::consts::PI / n as f64).sin_cos();
            a.iter()
                .zip(&b)
                .map(|(x, y)| 2.0 * (cos * x + sin * y))
                .collect()
        };
        let s = (0..n).flat_map(|j| at(j as f64)).collect();
        (s, slots.iter().flat_map(|u| at(u + 0.25)).collect())
    };
    let t = |v: Vec<f64>| {
        let rows = v.len() / d;
        Tensor::from_vec(v.into_iter().map(|x| x as f32).collect(), &[rows, d]).unwrap()
    };
    (t(s), labels, t(q))
}

/// The exact squared-L2 KNN in f64 over the stored f32 points: the commonest
/// label among the `k` nearest, a tie going to the tied label whose nearest
/// member ranks first. Panics unless each query's sorted distances are
/// equal or more than `tol` apart.
fn oracle((s, labels, q): &Data, k: usize, tol: f64) -> Vec<usize> {
    let rows = |t: &Tensor| -> Vec<Vec<f64>> {
        let f64s = |r: &[f32]| r.iter().map(|&x| x as f64).collect();
        t.data().chunks(t.dims()[1]).map(f64s).collect()
    };
    let supports = rows(s);
    let vote = |q: &Vec<f64>| {
        let dist = |s: &Vec<f64>| q.iter().zip(s).map(|(a, b)| (a - b) * (a - b)).sum();
        // Stable: equal distances rank by support index.
        let mut ranked: Vec<(f64, usize)> = supports.iter().map(dist).zip(0..).collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(ranked
            .windows(2)
            .all(|w| w[1].0 == w[0].0 || w[1].0 - w[0].0 > tol));
        let nearest: Vec<usize> = ranked.iter().take(k).map(|&(_, j)| labels[j]).collect();
        let count = |l: usize| nearest.iter().filter(|&&x| x == l).count();
        let top = nearest.iter().map(|&l| count(l)).max().unwrap();
        nearest.iter().copied().find(|&l| count(l) == top).unwrap()
    };
    rows(q).iter().map(vote).collect()
}

#[test]
fn predictions_equal_the_exact_knn() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for n in [1, 7, 17, 137] {
        for d in [1, 19, 129] {
            let data = ranked_data(n, d, (1000 * n + d) as u64);
            let (support, labels, queries) = &data;
            let rows = support.data().chunks(d).chain(queries.data().chunks(d));
            let max_sq = rows
                .map(|r| r.iter().map(|&x| (x as f64).powi(2)).sum())
                .fold(0.0, f64::max);
            // Twice the worst-case rounding of one score: `d` FMA terms and a
            // bias, each off by at most ε/2 of the largest sum they can reach.
            let tol = (d + 2) as f64 * f32::EPSILON as f64 * (3.0 * max_sq);
            let knn = KnnClassifier::fit(support.clone(), labels.clone(), Distance::L2).unwrap();
            for k in [1, 5, n] {
                let want = oracle(&data, k, tol);
                for path in [KernelPath::Reference, KernelPath::Packed] {
                    let got = with_kernel_path(path, || knn.predict(queries, k).unwrap());
                    assert_eq!(got, want, "n={n} d={d} k={k} {path:?}");
                }
            }
        }
    }
}

#[test]
fn one_predict_is_one_gemm() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (support, labels, queries) = ranked_data(17, 19, 5);
    let knn = KnnClassifier::fit(support, labels, Distance::L2).unwrap();
    metalora_obs::set_enabled(true);
    metalora_obs::counters::reset();
    knn.predict(&queries, 5).unwrap();
    let snap = metalora_obs::counters::snapshot();
    metalora_obs::set_enabled(false);
    for name in ["matmul", "knn"] {
        let k = snap.kernels.iter().find(|k| k.kernel == name).unwrap();
        assert_eq!((k.calls, k.flops), (1, 2 * 13 * 17 * 19), "{name}");
    }
}
