//! Property-based tests for the autodiff engine: gradients of randomly
//! parameterised computations always pass the finite-difference check,
//! and structural invariants of the tape hold.

use metalora_autograd::check::grad_check;
use metalora_autograd::{Graph, ParamRef};
use metalora_tensor::{init, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_affine_chain_grad_checks(
        n in 1usize..4, i in 1usize..5, h in 1usize..5, o in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let x = init::uniform(&[n, i], -1.0, 1.0, &mut rng);
        let w1 = init::uniform(&[i, h], -1.0, 1.0, &mut rng);
        let b1 = init::uniform(&[h], -0.5, 0.5, &mut rng);
        let w2 = init::uniform(&[h, o], -1.0, 1.0, &mut rng);
        let r = grad_check(&[x, w1, b1, w2], 1e-2, |g, v| {
            let y = g.linear(v[0], v[1], v[2])?;
            let y = g.gelu(y);
            let y = g.matmul(y, v[3])?;
            let y2 = g.mul(y, y)?;
            g.mean_all(y2)
        }).unwrap();
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn random_broadcast_expression_grad_checks(
        rows in 1usize..5, cols in 1usize..5, seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let a = init::uniform(&[rows, cols], -1.0, 1.0, &mut rng);
        let row = init::uniform(&[cols], -1.0, 1.0, &mut rng);
        let col = init::uniform(&[rows, 1], -1.0, 1.0, &mut rng);
        let r = grad_check(&[a, row, col], 1e-2, |g, v| {
            let s = g.add(v[0], v[1])?;       // row broadcast
            let p = g.mul(s, v[2])?;          // column broadcast
            let t = g.tanh(p);
            g.mean_all(t)
        }).unwrap();
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn softmax_ce_rows_sum_to_zero_prop(
        n in 1usize..6, c in 2usize..6, seed in 0u64..500,
    ) {
        let mut rng = init::rng(seed);
        let logits = init::uniform(&[n, c], -2.0, 2.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|k| k % c).collect();
        let mut g = Graph::new();
        let l = g.variable(logits);
        let loss = g.softmax_cross_entropy(l, &labels).unwrap();
        g.backward(loss).unwrap();
        let gl = g.grad(l);
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let s: f32 = gl.data()[i * c..(i + 1) * c].iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {i} sums to {s}");
            prop_assert!(gl.data()[i * c + labels[i]] <= 0.0);
        }
    }

    #[test]
    fn grad_is_linear_in_upstream_scale(
        n in 1usize..5, d in 1usize..5, s in 0.5f32..3.0, seed in 0u64..500,
    ) {
        // d(s·L)/dx = s · dL/dx.
        let mut rng = init::rng(seed);
        let x = init::uniform(&[n, d], -1.0, 1.0, &mut rng);
        let grad_of = |scale: f32, x: &Tensor| {
            let mut g = Graph::new();
            let xv = g.variable(x.clone());
            let y = g.mul(xv, xv).unwrap();
            let m = g.mean_all(y).unwrap();
            let l = g.scale(m, scale);
            g.backward(l).unwrap();
            g.grad(xv)
        };
        let g1 = grad_of(1.0, &x);
        let gs = grad_of(s, &x);
        for (a, b) in g1.data().iter().zip(gs.data()) {
            prop_assert!((s * a - b).abs() <= 1e-4 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn flush_grads_is_additive(seed in 0u64..500, reps in 1usize..4) {
        let mut rng = init::rng(seed);
        let w = ParamRef::new("w", init::uniform(&[3, 3], -1.0, 1.0, &mut rng));
        let x = init::uniform(&[2, 3], -1.0, 1.0, &mut rng);
        let mut single = None;
        for rep in 1..=reps {
            w.zero_grad();
            for _ in 0..rep {
                let mut g = Graph::new();
                let xv = g.input(x.clone());
                let wv = g.bind(&w);
                let y = g.matmul(xv, wv).unwrap();
                let l = g.mean_all(y).unwrap();
                g.backward(l).unwrap();
                g.flush_grads();
            }
            let total = w.grad();
            let base = single.get_or_insert_with(|| total.clone());
            for (a, b) in base.data().iter().zip(total.data()) {
                prop_assert!((a * rep as f32 - b).abs() < 1e-4 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn unreached_nodes_have_zero_grad(seed in 0u64..500) {
        let mut rng = init::rng(seed);
        let mut g = Graph::new();
        let used = g.variable(init::uniform(&[4], -1.0, 1.0, &mut rng));
        let unused = g.variable(init::uniform(&[4], -1.0, 1.0, &mut rng));
        let y = g.mul(used, used).unwrap();
        let l = g.mean_all(y).unwrap();
        // Node created after the root: also untouched.
        let after = g.variable(Tensor::ones(&[2]));
        g.backward(l).unwrap();
        prop_assert!(g.grad(unused).data().iter().all(|&v| v == 0.0));
        prop_assert!(g.grad(after).data().iter().all(|&v| v == 0.0));
        prop_assert!(g.grad(used).data().iter().any(|&v| v != 0.0));
    }
}
