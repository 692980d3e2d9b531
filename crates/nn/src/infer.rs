//! Forward-only layer math on plain tensors — no autograd tape.
//!
//! Each helper is the tape-free twin of the corresponding
//! [`crate::Module::forward`] path: it issues the **exact same sequence of
//! `ops::` calls** the graph op would (which are themselves thin wrappers
//! over these functions), so the output is bitwise identical to a
//! training-mode forward through [`metalora_autograd::Graph`] — at zero
//! tape overhead (no node pushes, no `Rc` traffic, no gradient buffers).
//!
//! This is the substrate of the multi-tenant serving engine
//! (`metalora-serve`): adapters there hold value snapshots (`Tensor`, not
//! `ParamRef`, which is `Rc`-based and not `Send`) and forward through
//! these helpers from any thread.

use crate::Result;
use metalora_autograd::gelu_fwd;
use metalora_tensor::conv::{self, ConvSpec};
use metalora_tensor::ops::GemmDesc;
use metalora_tensor::{ops, Tensor};

/// Dense layer `x·W (+ b)` for `x:[N,I]`, `w:[I,O]`, `bias:[O]` — the
/// tape-free twin of [`crate::Linear`]'s forward. The bias add rides the
/// GEMM's store — bitwise identical to the tape's separate add.
pub fn linear(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    ops::gemm(&GemmDesc::new(x, w).epilogue(bias))
}

/// Convolution `x * W (+ b)` for `x:[N,C,H,W]`, `w:[KH,KW,C,O]`,
/// `bias:[O]` — the tape-free twin of [`crate::Conv2d`]'s forward, with
/// the bias fused into the conv GEMM's store.
pub fn conv2d(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, spec: ConvSpec) -> Result<Tensor> {
    conv::conv2d_bias(x, w, bias, spec, spec)
}

/// GELU (tanh approximation) — applies the same scalar function as
/// [`metalora_autograd::Graph::gelu`] (both share
/// [`metalora_tensor::ops::gelu`]).
pub fn gelu(x: &Tensor) -> Tensor {
    ops::map(x, gelu_fwd)
}

/// tanh — the twin of [`metalora_autograd::Graph::tanh`].
pub fn tanh(x: &Tensor) -> Tensor {
    ops::map(x, f32::tanh)
}

/// ReLU — the twin of [`metalora_autograd::Graph::relu`].
pub fn relu(x: &Tensor) -> Tensor {
    ops::map(x, |v| v.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Ctx, Linear, Module};
    use metalora_autograd::Graph;
    use metalora_tensor::init;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn linear_matches_tape_forward_bitwise() {
        let mut rng = init::rng(11);
        let layer = Linear::new("fc", 7, 5, &mut rng);
        let x = init::uniform(&[4, 7], -1.0, 1.0, &mut rng);

        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let yv = layer.forward(&mut g, xv, &Ctx::none()).unwrap();
        let y_tape = g.value(yv);

        let y = linear(
            &x,
            &layer.weight().value(),
            layer.bias().map(|b| b.value()).as_ref(),
        )
        .unwrap();
        assert_eq!(bits(&y), bits(&y_tape));
    }

    #[test]
    fn linear_no_bias_matches() {
        let mut rng = init::rng(12);
        let layer = Linear::new_no_bias("fc", 6, 3, &mut rng);
        let x = init::uniform(&[2, 6], -1.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let yv = layer.forward(&mut g, xv, &Ctx::none()).unwrap();
        let y_tape = g.value(yv);
        let y = linear(&x, &layer.weight().value(), None).unwrap();
        assert_eq!(bits(&y), bits(&y_tape));
    }

    #[test]
    fn conv2d_matches_tape_forward_bitwise() {
        let mut rng = init::rng(13);
        let layer = Conv2d::new("c", 3, 4, 3, 1, 1, &mut rng).unwrap();
        let x = init::uniform(&[2, 3, 6, 6], -1.0, 1.0, &mut rng);

        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let yv = layer.forward(&mut g, xv, &Ctx::none()).unwrap();
        let y_tape = g.value(yv);

        let y = conv2d(
            &x,
            &layer.weight().value(),
            layer.bias().map(|b| b.value()).as_ref(),
            layer.spec(),
        )
        .unwrap();
        assert_eq!(bits(&y), bits(&y_tape));
    }

    #[test]
    fn activations_match_graph_ops_bitwise() {
        let mut rng = init::rng(14);
        let x = init::uniform(&[3, 9], -3.0, 3.0, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let ge = g.gelu(xv);
        let th = g.tanh(xv);
        let re = g.relu(xv);
        assert_eq!(bits(&gelu(&x)), bits(&g.value(ge)));
        assert_eq!(bits(&tanh(&x)), bits(&g.value(th)));
        assert_eq!(bits(&relu(&x)), bits(&g.value(re)));
    }
}
