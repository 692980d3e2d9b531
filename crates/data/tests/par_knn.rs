//! Serial-vs-parallel equivalence for the KNN probe: predictions must be
//! identical for every thread count, since each query row is scored,
//! sorted and voted independently. The worker count and the parallel
//! threshold are scoped to the test's own thread.

use metalora_data::knn::{Distance, KnnClassifier};
use metalora_tensor::{init, par};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn predictions_thread_invariant(
        n_support in 2usize..40,
        n_query in 1usize..30,
        d in 1usize..8,
        k in 1usize..10,
        classes in 2usize..5,
        seed in 0u64..1000,
    ) {
        let mut r = init::rng(seed);
        let support = init::uniform(&[n_support, d], -1.0, 1.0, &mut r);
        let labels: Vec<usize> = (0..n_support).map(|i| i % classes).collect();
        let queries = init::uniform(&[n_query, d], -1.0, 1.0, &mut r);

        for dist in [Distance::L2, Distance::Cosine] {
            let knn = KnnClassifier::fit(support.clone(), labels.clone(), dist).unwrap();
            let predict = |threads| {
                par::with_par_threshold(0, || {
                    par::with_num_threads(threads, || knn.predict(&queries, k).unwrap())
                })
            };
            let serial = predict(1);
            for threads in [2, 7, 64] {
                prop_assert_eq!(&serial, &predict(threads), "threads={}", threads);
            }
        }
    }
}
