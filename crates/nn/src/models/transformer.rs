//! A small Vision Transformer — the extension the paper's Sec. III-E
//! sketches ("the framework's theoretical foundations suggest broader
//! applications in transformer architectures").
//!
//! Multi-head self-attention is built from the tape's batched
//! `matmul`/`softmax` ops; the attention projections `W_q/W_k/W_v/W_o`
//! and the MLP layers are swappable [`BoxLinear`]s, so every PEFT method
//! in `metalora-peft` (LoRA, Multi-LoRA, MetaLoRA CP/TR) injects into a
//! transformer exactly as it does into the Mixer.

use crate::layers::{LayerNorm, Linear};
use crate::module::{
    dedup_params, replace_linear, Backbone, BoxLinear, Ctx, Injectable, Layer, Module,
};
use crate::Result;
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_tensor::{init, TensorError};
use rand::rngs::StdRng;

/// Architecture hyper-parameters.
#[derive(Debug, Clone)]
pub struct TransformerConfig {
    /// Input image channels.
    pub in_channels: usize,
    /// Input image side (square images).
    pub image_size: usize,
    /// Patch side; must divide `image_size`.
    pub patch_size: usize,
    /// Embedding dimension `D`; must be divisible by `heads`.
    pub dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Feed-forward hidden width.
    pub mlp_hidden: usize,
    /// Number of encoder blocks.
    pub depth: usize,
    /// Classification head width.
    pub num_classes: usize,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        TransformerConfig {
            in_channels: 3,
            image_size: 32,
            patch_size: 8,
            dim: 48,
            heads: 4,
            mlp_hidden: 96,
            depth: 2,
            num_classes: 8,
        }
    }
}

/// One pre-norm encoder block: MHSA + MLP, both residual.
struct EncoderBlock {
    ln_attn: LayerNorm,
    wq: BoxLinear,
    wk: BoxLinear,
    wv: BoxLinear,
    wo: BoxLinear,
    ln_mlp: LayerNorm,
    fc1: BoxLinear,
    fc2: BoxLinear,
    heads: usize,
}

impl EncoderBlock {
    fn new(name: &str, dim: usize, heads: usize, hidden: usize, rng: &mut StdRng) -> Self {
        EncoderBlock {
            ln_attn: LayerNorm::new(&format!("{name}.ln_attn"), dim),
            wq: Box::new(Linear::new(&format!("{name}.wq"), dim, dim, rng)),
            wk: Box::new(Linear::new(&format!("{name}.wk"), dim, dim, rng)),
            wv: Box::new(Linear::new(&format!("{name}.wv"), dim, dim, rng)),
            wo: Box::new(Linear::new(&format!("{name}.wo"), dim, dim, rng)),
            ln_mlp: LayerNorm::new(&format!("{name}.ln_mlp"), dim),
            fc1: Box::new(Linear::new(&format!("{name}.fc1"), dim, hidden, rng)),
            fc2: Box::new(Linear::new(&format!("{name}.fc2"), hidden, dim, rng)),
            heads,
        }
    }

    /// Splits `[N·T, D]` into per-head batches `[N·h, T, dh]`.
    fn split_heads(&self, g: &mut Graph, x: Var, n: usize, t: usize, d: usize) -> Result<Var> {
        let h = self.heads;
        let dh = d / h;
        let y = g.reshape(x, &[n, t, h, dh])?;
        let y = g.permute(y, &[0, 2, 1, 3])?; // [N, h, T, dh]
        g.reshape(y, &[n * h, t, dh])
    }

    /// Inverse of [`EncoderBlock::split_heads`] back to `[N·T, D]`.
    fn merge_heads(&self, g: &mut Graph, x: Var, n: usize, t: usize, d: usize) -> Result<Var> {
        let h = self.heads;
        let dh = d / h;
        let y = g.reshape(x, &[n, h, t, dh])?;
        let y = g.permute(y, &[0, 2, 1, 3])?; // [N, T, h, dh]
        g.reshape(y, &[n * t, d])
    }

    /// `x : [N, T, D]`.
    fn forward(&self, g: &mut Graph, x: Var, ctx: &Ctx, n: usize, t: usize, d: usize) -> Result<Var> {
        let dh = d / self.heads;

        // --- multi-head self-attention ---
        let y = self.ln_attn.forward(g, x, ctx)?;
        let y2 = g.reshape(y, &[n * t, d])?;
        let q = self.wq.forward(g, y2, ctx)?;
        let k = self.wk.forward(g, y2, ctx)?;
        let v = self.wv.forward(g, y2, ctx)?;
        let q = self.split_heads(g, q, n, t, d)?;
        let k = self.split_heads(g, k, n, t, d)?;
        let v = self.split_heads(g, v, n, t, d)?;
        let kt = g.permute(k, &[0, 2, 1])?; // [N·h, dh, T]
        let scores = g.matmul(q, kt)?; // [N·h, T, T]
        let scores = g.scale(scores, 1.0 / (dh as f32).sqrt());
        let attn = g.softmax(scores)?;
        let ctxv = g.matmul(attn, v)?; // [N·h, T, dh]
        let merged = self.merge_heads(g, ctxv, n, t, d)?;
        let o = self.wo.forward(g, merged, ctx)?;
        let o = g.reshape(o, &[n, t, d])?;
        let x = g.add(x, o)?;

        // --- feed-forward ---
        let y = self.ln_mlp.forward(g, x, ctx)?;
        let y = g.reshape(y, &[n * t, d])?;
        let y = self.fc1.forward(g, y, ctx)?;
        let y = g.gelu(y);
        let y = self.fc2.forward(g, y, ctx)?;
        let y = g.reshape(y, &[n, t, d])?;
        g.add(x, y)
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = self.ln_attn.params();
        for l in [&self.wq, &self.wk, &self.wv, &self.wo, &self.fc1, &self.fc2] {
            v.extend(l.params());
        }
        v.extend(self.ln_mlp.params());
        v
    }
}

/// The Vision-Transformer backbone: patch embedding + learned positional
/// embedding → encoder blocks → LayerNorm → token mean → linear head.
pub struct VisionTransformer {
    cfg: TransformerConfig,
    patch_embed: Linear,
    pos: ParamRef,
    blocks: Vec<EncoderBlock>,
    ln_out: LayerNorm,
    head: Linear,
    tokens: usize,
}

impl VisionTransformer {
    /// Builds a randomly initialised network. Errors if `patch_size` does
    /// not divide `image_size` or `heads` does not divide `dim`.
    pub fn new(cfg: &TransformerConfig, rng: &mut StdRng) -> Result<Self> {
        if !cfg.image_size.is_multiple_of(cfg.patch_size) {
            return Err(TensorError::InvalidArgument(format!(
                "patch size {} does not divide image size {}",
                cfg.patch_size, cfg.image_size
            )));
        }
        if !cfg.dim.is_multiple_of(cfg.heads) || cfg.heads == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "heads {} must divide dim {}",
                cfg.heads, cfg.dim
            )));
        }
        let side = cfg.image_size / cfg.patch_size;
        let tokens = side * side;
        let patch_dim = cfg.in_channels * cfg.patch_size * cfg.patch_size;
        let patch_embed = Linear::new("vit.patch_embed", patch_dim, cfg.dim, rng);
        let pos = ParamRef::new(
            "vit.pos_embed",
            init::normal(&[tokens, cfg.dim], 0.0, 0.02, rng),
        );
        let blocks = (0..cfg.depth)
            .map(|i| {
                EncoderBlock::new(
                    &format!("vit.block{i}"),
                    cfg.dim,
                    cfg.heads,
                    cfg.mlp_hidden,
                    rng,
                )
            })
            .collect();
        let ln_out = LayerNorm::new("vit.ln_out", cfg.dim);
        let head = Linear::new("vit.head", cfg.dim, cfg.num_classes, rng);
        Ok(VisionTransformer {
            cfg: cfg.clone(),
            patch_embed,
            pos,
            blocks,
            ln_out,
            head,
            tokens,
        })
    }

    /// Number of tokens `T`.
    pub fn num_tokens(&self) -> usize {
        self.tokens
    }

    /// Rearranges `[N, C, H, W]` into patch tokens `[N, T, C·P·P]`.
    fn patchify(&self, g: &mut Graph, x: Var, n: usize) -> Result<Var> {
        let (c, p) = (self.cfg.in_channels, self.cfg.patch_size);
        let side = self.cfg.image_size / p;
        let y = g.reshape(x, &[n, c, side, p, side, p])?;
        let y = g.permute(y, &[0, 2, 4, 1, 3, 5])?;
        g.reshape(y, &[n, side * side, c * p * p])
    }
}

impl Module for VisionTransformer {
    fn forward(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var> {
        let f = self.features(g, x, ctx)?;
        self.head.forward(g, f, ctx)
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = self.patch_embed.params();
        v.push(self.pos.clone());
        for b in &self.blocks {
            v.extend(b.params());
        }
        v.extend(self.ln_out.params());
        v.extend(self.head.params());
        dedup_params(v)
    }
}

impl Injectable for VisionTransformer {
    fn site(&self) -> &'static str {
        "vit"
    }

    /// The attention projections and MLP layers, 6 per block. Patch
    /// embedding, positional embedding and head stay plain.
    fn replace_layers(&mut self, f: &mut dyn FnMut(Layer) -> Layer) {
        for b in &mut self.blocks {
            replace_linear(&mut b.wq, f);
            replace_linear(&mut b.wk, f);
            replace_linear(&mut b.wv, f);
            replace_linear(&mut b.wo, f);
            replace_linear(&mut b.fc1, f);
            replace_linear(&mut b.fc2, f);
        }
    }
}

impl Backbone for VisionTransformer {
    fn features(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var> {
        let dims = g.dims(x);
        if dims.len() != 4
            || dims[1] != self.cfg.in_channels
            || dims[2] != self.cfg.image_size
            || dims[3] != self.cfg.image_size
        {
            return Err(TensorError::InvalidArgument(format!(
                "transformer expects [N, {}, {}, {}], got {dims:?}",
                self.cfg.in_channels, self.cfg.image_size, self.cfg.image_size
            )));
        }
        let n = dims[0];
        let (t, d) = (self.tokens, self.cfg.dim);
        let y = self.patchify(g, x, n)?;
        let y = g.reshape(y, &[n * t, self.cfg.in_channels * self.cfg.patch_size * self.cfg.patch_size])?;
        let y = self.patch_embed.forward(g, y, ctx)?;
        let mut y = g.reshape(y, &[n, t, d])?;
        // Learned positional embedding, broadcast over the batch.
        let pos = g.bind(&self.pos);
        y = g.add(y, pos)?;
        for b in &self.blocks {
            y = b.forward(g, y, ctx, n, t, d)?;
        }
        let y = self.ln_out.forward(g, y, ctx)?;
        g.mean_axis(y, 1)
    }

    fn feature_dim(&self) -> usize {
        self.cfg.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_tensor::Tensor;

    fn tiny() -> (VisionTransformer, StdRng) {
        let mut rng = init::rng(3);
        let cfg = TransformerConfig {
            in_channels: 3,
            image_size: 16,
            patch_size: 4,
            dim: 16,
            heads: 2,
            mlp_hidden: 24,
            depth: 2,
            num_classes: 5,
        };
        let v = VisionTransformer::new(&cfg, &mut rng).unwrap();
        (v, rng)
    }

    #[test]
    fn forward_shapes() {
        let (m, mut rng) = tiny();
        assert_eq!(m.num_tokens(), 16);
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut rng));
        let logits = m.forward(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(logits), vec![2, 5]);
        let f = m.features(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(f), vec![2, m.feature_dim()]);
    }

    #[test]
    fn config_validation() {
        let mut rng = init::rng(0);
        let bad_patch = TransformerConfig {
            image_size: 10,
            patch_size: 4,
            ..TransformerConfig::default()
        };
        assert!(VisionTransformer::new(&bad_patch, &mut rng).is_err());
        let bad_heads = TransformerConfig {
            dim: 48,
            heads: 5,
            ..TransformerConfig::default()
        };
        assert!(VisionTransformer::new(&bad_heads, &mut rng).is_err());
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let (m, _) = tiny();
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[2, 3, 8, 8]));
        assert!(m.forward(&mut g, x, &Ctx::none()).is_err());
    }

    #[test]
    fn replace_linears_visits_attention_and_mlp() {
        let (mut m, _) = tiny();
        let mut n = 0;
        m.replace_layers(&mut |l| {
            n += 1;
            l
        });
        assert_eq!(n, 12);
    }

    #[test]
    fn positional_embedding_matters() {
        // Permuting patches must change the output (unlike the Mixer's
        // token mean over identical embeddings).
        let (m, mut rng) = tiny();
        let img = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut rng);
        // Horizontally flip the image → different patch arrangement.
        let mut flipped = Tensor::zeros(&[1, 3, 16, 16]);
        for c in 0..3 {
            for y in 0..16 {
                for x in 0..16 {
                    flipped
                        .set(&[0, c, y, 15 - x], img.get(&[0, c, y, x]).unwrap())
                        .unwrap();
                }
            }
        }
        let mut g = Graph::inference();
        let a = g.input(img);
        let b = g.input(flipped);
        let fa = m.features(&mut g, a, &Ctx::none()).unwrap();
        let fb = m.features(&mut g, b, &Ctx::none()).unwrap();
        assert!(!metalora_tensor::approx_eq(
            &g.value(fa),
            &g.value(fb),
            1e-4
        ));
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let (m, mut rng) = tiny();
        let xv = init::uniform(&[4, 3, 16, 16], -1.0, 1.0, &mut rng);
        let labels = [0usize, 1, 2, 3];
        let run = |m: &VisionTransformer| {
            let mut g = Graph::new();
            let x = g.input(xv.clone());
            let logits = m.forward(&mut g, x, &Ctx::none()).unwrap();
            let loss = g.softmax_cross_entropy(logits, &labels).unwrap();
            (g, loss)
        };
        let (mut g, loss) = run(&m);
        let before = g.value(loss).item().unwrap();
        g.backward(loss).unwrap();
        m.zero_grad();
        g.flush_grads();
        for p in m.params() {
            let gr = p.grad();
            p.update_value(|v| {
                for (a, &b) in v.data_mut().iter_mut().zip(gr.data()) {
                    *a -= 0.1 * b;
                }
            });
        }
        let (g2, loss2) = run(&m);
        assert!(g2.value(loss2).item().unwrap() < before);
    }

    #[test]
    fn attention_rows_are_distributions() {
        // Internal check through the public surface: gradients flow and
        // the positional embedding receives gradient (it is bound).
        let (m, mut rng) = tiny();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut rng));
        let logits = m.forward(&mut g, x, &Ctx::none()).unwrap();
        let loss = g.softmax_cross_entropy(logits, &[0, 1]).unwrap();
        g.backward(loss).unwrap();
        m.zero_grad();
        g.flush_grads();
        assert!(m.pos.grad().norm() > 0.0, "pos embedding gets gradient");
    }
}
