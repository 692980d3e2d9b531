//! The gradient-demand rule and its bitwise claim.
//!
//! A random small DAG is recorded twice on fresh tapes: once with every
//! leaf a [`Graph::variable`] — the "differentiate everything" reference —
//! and once with a random subset of the leaves entering as data through
//! [`Graph::input`]. Pruning must be invisible to what is still
//! differentiated: the remaining leaves' gradients are bitwise those of
//! the reference, and the pruned leaves read zeros.

use metalora_autograd::{Graph, Var};
use metalora_tensor::conv::ConvSpec;
use metalora_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::Rng;

/// Batch and side of the pooled `[B, D, D]` values every step maps between.
const B: usize = 2;
const D: usize = 3;

/// One recorded op; `usize` operands index the value pool, `leaf` fields
/// index the leaf list (a parameter-like operand of its own shape).
#[derive(Debug, Clone, Copy)]
enum Step {
    Add(usize, usize),
    Mul(usize, usize),
    BatchedMatmul(usize, usize),
    Matmul { x: usize, leaf: usize },
    Linear { x: usize, w: usize, b: usize },
    Permute(usize),
    Reshape(usize),
    Gelu(usize),
    LayerNorm { x: usize, gamma: usize, beta: usize },
    Conv2d { x: usize, leaf: usize },
}

/// A program: the leaves' values (the first `pooled` of them are pool
/// shaped) and the steps that grow the pool from them.
struct Program {
    leaves: Vec<Tensor>,
    pooled: usize,
    steps: Vec<Step>,
}

fn random_program(seed: u64, n_steps: usize) -> Program {
    let mut rng = init::rng(seed);
    let pooled = 3;
    let mut leaves: Vec<Tensor> = (0..pooled)
        .map(|_| init::uniform(&[B, D, D], -1.0, 1.0, &mut rng))
        .collect();
    let mut steps = Vec::new();
    for k in 0..n_steps {
        let pool = pooled + k;
        // Usually extend the newest value, so most of the DAG reaches the root.
        let a = if rng.gen_range(0..4) > 0 {
            pool - 1
        } else {
            rng.gen_range(0..pool)
        };
        let b = rng.gen_range(0..pool);
        let mut leaf = |dims: &[usize], rng: &mut rand::rngs::StdRng| {
            leaves.push(init::uniform(dims, -1.0, 1.0, rng));
            leaves.len() - 1
        };
        steps.push(match rng.gen_range(0..10) {
            0 => Step::Add(a, b),
            1 => Step::Mul(a, b),
            2 => Step::BatchedMatmul(a, b),
            3 => Step::Matmul {
                x: a,
                leaf: leaf(&[D, D], &mut rng),
            },
            4 => Step::Permute(a),
            5 => Step::Reshape(a),
            6 => Step::Gelu(a),
            7 => Step::LayerNorm {
                x: a,
                gamma: leaf(&[D], &mut rng),
                beta: leaf(&[D], &mut rng),
            },
            8 => Step::Linear {
                x: a,
                w: leaf(&[D, D], &mut rng),
                b: leaf(&[D], &mut rng),
            },
            _ => Step::Conv2d {
                x: a,
                leaf: leaf(&[3, 3, 1, 1], &mut rng),
            },
        });
    }
    Program {
        leaves,
        pooled,
        steps,
    }
}

/// Records the program on a fresh tape; leaf `i` is differentiable iff
/// `differentiable[i]`. Returns the tape, the leaf handles and the scalar
/// root (the mean of the last pooled value).
fn record(p: &Program, differentiable: &[bool]) -> (Graph, Vec<Var>, Var) {
    let mut g = Graph::new();
    let leaves: Vec<Var> = p
        .leaves
        .iter()
        .zip(differentiable)
        .map(|(t, &d)| {
            if d {
                g.variable(t.clone())
            } else {
                g.input(t.clone())
            }
        })
        .collect();
    let mut pool: Vec<Var> = leaves[..p.pooled].to_vec();
    let spec = ConvSpec::new(3, 1, 1).unwrap();
    for step in &p.steps {
        let v = match *step {
            Step::Add(a, b) => g.add(pool[a], pool[b]).unwrap(),
            Step::Mul(a, b) => g.mul(pool[a], pool[b]).unwrap(),
            Step::BatchedMatmul(a, b) => g.matmul(pool[a], pool[b]).unwrap(),
            Step::Matmul { x, leaf } => {
                let rows = g.reshape(pool[x], &[B * D, D]).unwrap();
                let y = g.matmul(rows, leaves[leaf]).unwrap();
                g.reshape(y, &[B, D, D]).unwrap()
            }
            Step::Linear { x, w, b } => {
                let rows = g.reshape(pool[x], &[B * D, D]).unwrap();
                let y = g.linear(rows, leaves[w], leaves[b]).unwrap();
                g.reshape(y, &[B, D, D]).unwrap()
            }
            Step::Permute(a) => g.permute(pool[a], &[0, 2, 1]).unwrap(),
            Step::Reshape(a) => {
                let flat = g.reshape(pool[a], &[B, D * D]).unwrap();
                g.reshape(flat, &[B, D, D]).unwrap()
            }
            Step::Gelu(a) => g.gelu(pool[a]),
            Step::LayerNorm { x, gamma, beta } => g
                .layer_norm(pool[x], leaves[gamma], leaves[beta], 1e-5)
                .unwrap(),
            Step::Conv2d { x, leaf } => {
                let img = g.reshape(pool[x], &[B, 1, D, D]).unwrap();
                let y = g.conv2d(img, leaves[leaf], spec, spec).unwrap();
                g.reshape(y, &[B, D, D]).unwrap()
            }
        };
        pool.push(v);
    }
    let root = g.mean_all(*pool.last().unwrap()).unwrap();
    (g, leaves, root)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pruned_tapes_give_the_reference_gradients_bitwise(
        seed in 0u64..10_000, n_steps in 1usize..12, mask_seed in 0u64..10_000,
    ) {
        let p = random_program(seed, n_steps);
        let all = vec![true; p.leaves.len()];
        let (mut reference, ref_leaves, ref_root) = record(&p, &all);
        reference.backward(ref_root).unwrap();

        let mut rng = init::rng(mask_seed);
        let mask: Vec<bool> = all.iter().map(|_| rng.gen_range(0..2) == 1).collect();
        let (mut pruned, leaves, root) = record(&p, &mask);
        prop_assert_eq!(pruned.len(), reference.len());
        prop_assert_eq!(bits(&pruned.value(root)), bits(&reference.value(ref_root)));
        pruned.backward(root).unwrap();

        for (i, &differentiable) in mask.iter().enumerate() {
            let got = pruned.grad(leaves[i]);
            if differentiable {
                prop_assert_eq!(
                    bits(&got), bits(&reference.grad(ref_leaves[i])),
                    "leaf {} of {:?} under mask {:?}", i, p.steps, mask
                );
            } else {
                prop_assert_eq!(got.dims(), p.leaves[i].dims());
                prop_assert!(got.data().iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn a_root_with_no_demand_anywhere_is_ok_and_does_no_work(
        seed in 0u64..10_000, n_steps in 1usize..12,
    ) {
        let p = random_program(seed, n_steps);
        let none = vec![false; p.leaves.len()];
        let (mut g, leaves, root) = record(&p, &none);
        g.backward(root).unwrap();
        // Not even the root's own slot was seeded.
        prop_assert_eq!(g.grad(root).data(), &[0.0]);
        for &leaf in &leaves {
            prop_assert!(g.grad(leaf).data().iter().all(|&v| v == 0.0));
        }

        // The same program on an inference tape: `variable` or not, no demand.
        let mut g = Graph::inference();
        let x = g.variable(p.leaves[0].clone());
        let y = g.gelu(x);
        let l = g.mean_all(y).unwrap();
        g.backward(l).unwrap();
        prop_assert_eq!(g.grad(l).data(), &[0.0]);
        prop_assert!(g.grad(x).data().iter().all(|&v| v == 0.0));
    }
}
