//! Finite-difference gradient checks for every differentiable op.
//!
//! Each test builds a small random computation ending in a scalar and
//! compares analytic gradients against central differences.

use metalora_autograd::check::grad_check;
use metalora_tensor::conv::ConvSpec;
use metalora_tensor::{init, Tensor};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

fn rand(dims: &[usize], seed: u64) -> Tensor {
    init::uniform(dims, -1.0, 1.0, &mut init::rng(seed))
}

#[test]
fn grad_add_broadcast() {
    let r = grad_check(&[rand(&[3, 4], 1), rand(&[4], 2)], EPS, |g, v| {
        let y = g.add(v[0], v[1])?;
        g.mean_all(y)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_sub_broadcast() {
    let r = grad_check(&[rand(&[2, 3], 3), rand(&[2, 1], 4)], EPS, |g, v| {
        let y = g.sub(v[0], v[1])?;
        let y2 = g.mul(y, y)?;
        g.mean_all(y2)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_mul_broadcast() {
    let r = grad_check(&[rand(&[3, 4], 5), rand(&[3, 1], 6)], EPS, |g, v| {
        let y = g.mul(v[0], v[1])?;
        g.mean_all(y)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_scale() {
    let r = grad_check(&[rand(&[5], 7)], EPS, |g, v| {
        let y = g.scale(v[0], -2.5);
        let y2 = g.mul(y, y)?;
        g.mean_all(y2)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_matmul_both_operands() {
    let r = grad_check(&[rand(&[3, 4], 8), rand(&[4, 2], 9)], EPS, |g, v| {
        let y = g.matmul(v[0], v[1])?;
        let y2 = g.mul(y, y)?;
        g.mean_all(y2)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_reshape_permute() {
    let r = grad_check(&[rand(&[2, 3, 4], 10)], EPS, |g, v| {
        let p = g.permute(v[0], &[2, 0, 1])?;
        let f = g.reshape(p, &[4, 6])?;
        let y = g.mul(f, f)?;
        g.mean_all(y)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_relu() {
    // Keep inputs away from the kink at 0.
    let mut x = rand(&[20], 11);
    for v in x.data_mut() {
        if v.abs() < 0.1 {
            *v = 0.3;
        }
    }
    let r = grad_check(&[x], 1e-3, |g, v| {
        let y = g.relu(v[0]);
        g.mean_all(y)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_gelu() {
    let r = grad_check(&[rand(&[12], 12)], EPS, |g, v| {
        let y = g.gelu(v[0]);
        g.mean_all(y)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_tanh_sigmoid() {
    let r = grad_check(&[rand(&[10], 13)], EPS, |g, v| {
        let t = g.tanh(v[0]);
        let s = g.sigmoid(t);
        g.mean_all(s)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_softmax_cross_entropy() {
    let r = grad_check(&[rand(&[4, 5], 14)], EPS, |g, v| {
        g.softmax_cross_entropy(v[0], &[0, 3, 2, 4])
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_mse_loss() {
    let target = rand(&[3, 3], 15);
    let r = grad_check(&[rand(&[3, 3], 16)], EPS, move |g, v| {
        g.mse_loss(v[0], &target)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_layer_norm_all_inputs() {
    let r = grad_check(
        &[rand(&[4, 6], 17), rand(&[6], 18), rand(&[6], 19)],
        EPS,
        |g, v| {
            let y = g.layer_norm(v[0], v[1], v[2], 1e-5)?;
            let y2 = g.mul(y, y)?;
            g.mean_all(y2)
        },
    )
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_batch_norm2d_all_inputs() {
    let r = grad_check(
        &[rand(&[2, 3, 3, 3], 20), rand(&[3], 21), rand(&[3], 22)],
        EPS,
        |g, v| {
            let (y, _, _) = g.batch_norm2d(v[0], v[1], v[2], 1e-5)?;
            let y2 = g.mul(y, y)?;
            g.mean_all(y2)
        },
    )
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_conv2d_both_inputs() {
    let spec = ConvSpec::new(3, 1, 1).unwrap();
    let r = grad_check(
        &[rand(&[2, 2, 4, 4], 23), rand(&[3, 3, 2, 3], 24)],
        EPS,
        move |g, v| {
            let y = g.conv2d(v[0], v[1], spec, spec)?;
            let y2 = g.mul(y, y)?;
            g.mean_all(y2)
        },
    )
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_conv2d_strided() {
    let spec = ConvSpec::new(3, 2, 1).unwrap();
    let r = grad_check(
        &[rand(&[1, 2, 5, 5], 25), rand(&[3, 3, 2, 2], 26)],
        EPS,
        move |g, v| {
            let y = g.conv2d(v[0], v[1], spec, spec)?;
            g.mean_all(y)
        },
    )
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_global_avg_pool() {
    let r = grad_check(&[rand(&[2, 3, 4, 4], 27)], EPS, |g, v| {
        let y = g.global_avg_pool2d(v[0])?;
        let y2 = g.mul(y, y)?;
        g.mean_all(y2)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_sum_and_mean_axis() {
    let r = grad_check(&[rand(&[3, 4, 2], 28)], EPS, |g, v| {
        let s = g.sum_axis(v[0], 1)?;
        let m = g.mean_axis(s, 0)?;
        let y = g.mul(m, m)?;
        g.mean_all(y)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_linear_composite() {
    let r = grad_check(
        &[rand(&[5, 3], 29), rand(&[3, 4], 30), rand(&[4], 31)],
        EPS,
        |g, v| {
            let y = g.linear(v[0], v[1], v[2])?;
            let a = g.gelu(y);
            g.mean_all(a)
        },
    )
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_two_layer_mlp_end_to_end() {
    // A miniature training-style computation: two dense layers, ReLU,
    // softmax cross-entropy — all six gradients checked at once.
    let r = grad_check(
        &[
            rand(&[4, 6], 32),
            rand(&[6, 8], 33),
            rand(&[8], 34),
            rand(&[8, 3], 35),
            rand(&[3], 36),
        ],
        EPS,
        |g, v| {
            let h = g.linear(v[0], v[1], v[2])?;
            let h = g.gelu(h);
            let logits = g.linear(h, v[3], v[4])?;
            g.softmax_cross_entropy(logits, &[0, 2, 1, 2])
        },
    )
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_cp_adapter_pattern() {
    // The MetaLoRA-CP forward pattern for a dense layer:
    // Δy = ((x·A) ⊙ c)·B with a per-sample c. All four inputs checked.
    let r = grad_check(
        &[
            rand(&[3, 5], 37), // x
            rand(&[5, 2], 38), // A
            rand(&[3, 2], 39), // c (per-sample)
            rand(&[2, 4], 40), // B
        ],
        EPS,
        |g, v| {
            let xa = g.matmul(v[0], v[1])?;
            let m = g.mul(xa, v[2])?;
            let dy = g.matmul(m, v[3])?;
            let sq = g.mul(dy, dy)?;
            g.mean_all(sq)
        },
    )
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_bmm_both_operands() {
    let r = grad_check(&[rand(&[2, 3, 4], 40), rand(&[2, 4, 5], 41)], EPS, |g, v| {
        let y = g.matmul(v[0], v[1])?;
        let y2 = g.mul(y, y)?;
        g.mean_all(y2)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_softmax() {
    let r = grad_check(&[rand(&[3, 5], 42)], EPS, |g, v| {
        let y = g.softmax(v[0])?;
        let y2 = g.mul(y, y)?;
        g.mean_all(y2)
    })
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}

#[test]
fn grad_attention_pattern() {
    // A miniature single-head attention: softmax(Q·Kᵀ/√d)·V, all three
    // projections checked end-to-end.
    let r = grad_check(
        &[rand(&[1, 4, 3], 43), rand(&[1, 4, 3], 44), rand(&[1, 4, 3], 45)],
        EPS,
        |g, v| {
            let kt = g.permute(v[1], &[0, 2, 1])?;
            let scores = g.matmul(v[0], kt)?;
            let scores = g.scale(scores, 1.0 / 3.0f32.sqrt());
            let attn = g.softmax(scores)?;
            let out = g.matmul(attn, v[2])?;
            let sq = g.mul(out, out)?;
            g.mean_all(sq)
        },
    )
    .unwrap();
    assert!(r.passes(TOL), "{r:?}");
}
