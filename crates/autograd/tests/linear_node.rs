//! `Graph::linear` is one tape node, bitwise the `matmul` + broadcast
//! `add` pair it replaces.
//!
//! The same computation is recorded on two tapes — once through the dense
//! node, once as `matmul` followed by `add` — and the values and the
//! gradients of `x`, `w` and `b` must agree to the bit: with `x` also
//! read by a later consumer (so its two gradient terms are summed in the
//! same order), with `w` and `b` frozen (only `dx` is built), and on an
//! inference tape (nothing is built).

use metalora_autograd::{Graph, Var};
use metalora_tensor::{init, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn rand(dims: &[usize], seed: u64) -> Tensor {
    init::uniform(dims, -1.0, 1.0, &mut init::rng(seed))
}

/// How the dense layer is recorded.
#[derive(Clone, Copy, PartialEq)]
enum Dense {
    Node,
    MatmulAdd,
}

/// `loss = mean((tanh(x·w + b) + x·v)²)`: `x` feeds the dense layer and,
/// after it, a second product. Returns the tape, `[x, w, b]` and the
/// loss; `frozen` enters `w` and `b` as data.
fn record(mut g: Graph, dense: Dense, frozen: bool) -> (Graph, [Var; 3], Var) {
    let x = g.variable(rand(&[6, 5], 1));
    let (wt, bt) = (rand(&[5, 7], 2), rand(&[7], 3));
    let (w, b) = if frozen {
        (g.input(wt), g.input(bt))
    } else {
        (g.variable(wt), g.variable(bt))
    };
    let before = g.len();
    let y = match dense {
        Dense::Node => g.linear(x, w, b).unwrap(),
        Dense::MatmulAdd => {
            let xw = g.matmul(x, w).unwrap();
            g.add(xw, b).unwrap()
        }
    };
    if dense == Dense::Node {
        assert_eq!(g.len() - before, 1, "a dense layer is one op node");
    }
    let h = g.tanh(y);
    let v = g.input(rand(&[5, 7], 4));
    let xv = g.matmul(x, v).unwrap();
    let t = g.add(h, xv).unwrap();
    let sq = g.mul(t, t).unwrap();
    let loss = g.mean_all(sq).unwrap();
    (g, [x, w, b], loss)
}

fn assert_bitwise_pair(tape: fn() -> Graph, frozen: bool) {
    let (mut node, nv, nl) = record(tape(), Dense::Node, frozen);
    let (mut pair, pv, pl) = record(tape(), Dense::MatmulAdd, frozen);
    assert_eq!(bits(&node.value(nl)), bits(&pair.value(pl)), "loss");
    node.backward(nl).unwrap();
    pair.backward(pl).unwrap();
    for (name, (&n, &p)) in ["dx", "dw", "db"].iter().zip(nv.iter().zip(&pv)) {
        assert_eq!(bits(&node.grad(n)), bits(&pair.grad(p)), "{name}");
    }
    let x_moves = node.grad(nv[0]).data().iter().any(|&v| v != 0.0);
    assert_eq!(
        x_moves,
        node.is_training(),
        "dx is built iff the tape trains"
    );
    if frozen || !node.is_training() {
        for &v in &nv[1..] {
            assert!(node.grad(v).data().iter().all(|&g| g == 0.0));
        }
    }
}

#[test]
fn linear_is_matmul_then_add_bitwise() {
    assert_bitwise_pair(Graph::new, false);
}

#[test]
fn linear_with_frozen_weight_and_bias_builds_only_dx_bitwise() {
    assert_bitwise_pair(Graph::new, true);
}

#[test]
fn linear_on_an_inference_tape_is_matmul_then_add_bitwise() {
    assert_bitwise_pair(Graph::inference, false);
}

#[test]
fn a_bias_that_is_not_one_entry_per_column_is_an_error() {
    let mut g = Graph::new();
    let x = g.input(rand(&[3, 4], 5));
    let w = g.variable(rand(&[4, 2], 6));
    for dims in [&[2, 1][..], &[1, 2], &[3], &[1], &[]] {
        let b = g.variable(Tensor::zeros(dims));
        assert!(g.linear(x, w, b).is_err(), "bias {dims:?}");
    }
    // The product itself must still be a matrix product.
    let b = g.variable(Tensor::zeros(&[2]));
    let w3 = g.variable(rand(&[1, 4, 2], 7));
    assert!(g.linear(x, w3, b).is_err());
    let x_bad = g.input(rand(&[3, 5], 8));
    assert!(g.linear(x_bad, w, b).is_err());
    // A well-shaped bias passes.
    let y = g.linear(x, w, b).unwrap();
    assert_eq!(g.dims(y), [3, 2]);
}
