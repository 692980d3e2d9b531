//! MLP-Mixer (Tolstikhin et al. 2021) sized for the synthetic 32×32
//! experiments, with swappable dense layers for PEFT injection.

use crate::layers::{LayerNorm, Linear};
use crate::module::{
    dedup_params, replace_linear, Backbone, BoxLinear, Ctx, Injectable, Layer, Module,
};
use crate::Result;
use metalora_autograd::{Graph, ParamRef, Var};
use metalora_tensor::TensorError;
use rand::rngs::StdRng;

/// Architecture hyper-parameters.
#[derive(Debug, Clone)]
pub struct MixerConfig {
    /// Input image channels.
    pub in_channels: usize,
    /// Input image side (square images).
    pub image_size: usize,
    /// Patch side; must divide `image_size`.
    pub patch_size: usize,
    /// Hidden (channel) dimension `D`.
    pub dim: usize,
    /// Token-mixing MLP hidden width.
    pub token_hidden: usize,
    /// Channel-mixing MLP hidden width.
    pub channel_hidden: usize,
    /// Number of mixer blocks.
    pub depth: usize,
    /// Classification head width.
    pub num_classes: usize,
}

impl Default for MixerConfig {
    fn default() -> Self {
        MixerConfig {
            in_channels: 3,
            image_size: 32,
            patch_size: 8,
            dim: 48,
            token_hidden: 32,
            channel_hidden: 96,
            depth: 2,
            num_classes: 8,
        }
    }
}

/// One mixer block: token-mixing MLP and channel-mixing MLP, each with a
/// pre-LayerNorm and a residual connection.
struct MixerBlock {
    ln_token: LayerNorm,
    token_fc1: BoxLinear,
    token_fc2: BoxLinear,
    ln_channel: LayerNorm,
    channel_fc1: BoxLinear,
    channel_fc2: BoxLinear,
}

impl MixerBlock {
    fn new(name: &str, tokens: usize, dim: usize, th: usize, ch: usize, rng: &mut StdRng) -> Self {
        MixerBlock {
            ln_token: LayerNorm::new(&format!("{name}.ln_token"), dim),
            token_fc1: Box::new(Linear::new(&format!("{name}.token_fc1"), tokens, th, rng)),
            token_fc2: Box::new(Linear::new(&format!("{name}.token_fc2"), th, tokens, rng)),
            ln_channel: LayerNorm::new(&format!("{name}.ln_channel"), dim),
            channel_fc1: Box::new(Linear::new(&format!("{name}.channel_fc1"), dim, ch, rng)),
            channel_fc2: Box::new(Linear::new(&format!("{name}.channel_fc2"), ch, dim, rng)),
        }
    }

    /// `x : [N, T, D]`.
    fn forward(&self, g: &mut Graph, x: Var, ctx: &Ctx, n: usize, t: usize, d: usize) -> Result<Var> {
        // --- token mixing: operate across T for each channel ---
        let y = self.ln_token.forward(g, x, ctx)?;
        let y = g.permute(y, &[0, 2, 1])?; // [N, D, T]
        let y = g.reshape(y, &[n * d, t])?;
        let y = self.token_fc1.forward(g, y, ctx)?;
        let y = g.gelu(y);
        let y = self.token_fc2.forward(g, y, ctx)?;
        let y = g.reshape(y, &[n, d, t])?;
        let y = g.permute(y, &[0, 2, 1])?; // [N, T, D]
        let x = g.add(x, y)?;

        // --- channel mixing: operate across D for each token ---
        let y = self.ln_channel.forward(g, x, ctx)?;
        let y = g.reshape(y, &[n * t, d])?;
        let y = self.channel_fc1.forward(g, y, ctx)?;
        let y = g.gelu(y);
        let y = self.channel_fc2.forward(g, y, ctx)?;
        let y = g.reshape(y, &[n, t, d])?;
        g.add(x, y)
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = self.ln_token.params();
        v.extend(self.token_fc1.params());
        v.extend(self.token_fc2.params());
        v.extend(self.ln_channel.params());
        v.extend(self.channel_fc1.params());
        v.extend(self.channel_fc2.params());
        v
    }
}

/// The MLP-Mixer backbone: patch embedding → mixer blocks → token mean →
/// linear head.
pub struct Mixer {
    cfg: MixerConfig,
    patch_embed: Linear,
    blocks: Vec<MixerBlock>,
    ln_out: LayerNorm,
    head: Linear,
    tokens: usize,
}

impl Mixer {
    /// Builds a randomly initialised network. Errors if `patch_size` does
    /// not divide `image_size`.
    pub fn new(cfg: &MixerConfig, rng: &mut StdRng) -> Result<Self> {
        if !cfg.image_size.is_multiple_of(cfg.patch_size) {
            return Err(TensorError::InvalidArgument(format!(
                "patch size {} does not divide image size {}",
                cfg.patch_size, cfg.image_size
            )));
        }
        let side = cfg.image_size / cfg.patch_size;
        let tokens = side * side;
        let patch_dim = cfg.in_channels * cfg.patch_size * cfg.patch_size;
        let patch_embed = Linear::new("mixer.patch_embed", patch_dim, cfg.dim, rng);
        let blocks = (0..cfg.depth)
            .map(|i| {
                MixerBlock::new(
                    &format!("mixer.block{i}"),
                    tokens,
                    cfg.dim,
                    cfg.token_hidden,
                    cfg.channel_hidden,
                    rng,
                )
            })
            .collect();
        let ln_out = LayerNorm::new("mixer.ln_out", cfg.dim);
        let head = Linear::new("mixer.head", cfg.dim, cfg.num_classes, rng);
        Ok(Mixer {
            cfg: cfg.clone(),
            patch_embed,
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
        // [N, C, H, W] → [N, C, side, P, side, P]
        let y = g.reshape(x, &[n, c, side, p, side, p])?;
        // → [N, side, side, C, P, P]
        let y = g.permute(y, &[0, 2, 4, 1, 3, 5])?;
        // → [N, T, C·P·P]
        g.reshape(y, &[n, side * side, c * p * p])
    }
}

impl Module for Mixer {
    fn forward(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var> {
        let f = self.features(g, x, ctx)?;
        self.head.forward(g, f, ctx)
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = self.patch_embed.params();
        for b in &self.blocks {
            v.extend(b.params());
        }
        v.extend(self.ln_out.params());
        v.extend(self.head.params());
        dedup_params(v)
    }
}

impl Injectable for Mixer {
    fn site(&self) -> &'static str {
        "fc"
    }

    /// The mixing dense layers, 4 per block. Patch embedding and head
    /// stay plain.
    fn replace_layers(&mut self, f: &mut dyn FnMut(Layer) -> Layer) {
        for b in &mut self.blocks {
            replace_linear(&mut b.token_fc1, f);
            replace_linear(&mut b.token_fc2, f);
            replace_linear(&mut b.channel_fc1, f);
            replace_linear(&mut b.channel_fc2, f);
        }
    }
}

impl Backbone for Mixer {
    fn features(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var> {
        let dims = g.dims(x);
        if dims.len() != 4
            || dims[1] != self.cfg.in_channels
            || dims[2] != self.cfg.image_size
            || dims[3] != self.cfg.image_size
        {
            return Err(TensorError::InvalidArgument(format!(
                "mixer expects [N, {}, {}, {}], got {dims:?}",
                self.cfg.in_channels, self.cfg.image_size, self.cfg.image_size
            )));
        }
        let n = dims[0];
        let (t, d) = (self.tokens, self.cfg.dim);
        let y = self.patchify(g, x, n)?;
        let y = g.reshape(y, &[n * t, self.cfg.in_channels * self.cfg.patch_size * self.cfg.patch_size])?;
        let y = self.patch_embed.forward(g, y, ctx)?;
        let mut y = g.reshape(y, &[n, t, d])?;
        for b in &self.blocks {
            y = b.forward(g, y, ctx, n, t, d)?;
        }
        let y = self.ln_out.forward(g, y, ctx)?;
        g.mean_axis(y, 1) // [N, D]
    }

    fn feature_dim(&self) -> usize {
        self.cfg.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_tensor::init;

    fn tiny() -> (Mixer, StdRng) {
        let mut rng = init::rng(2);
        let cfg = MixerConfig {
            in_channels: 3,
            image_size: 16,
            patch_size: 4,
            dim: 12,
            token_hidden: 8,
            channel_hidden: 16,
            depth: 2,
            num_classes: 5,
        };
        let m = Mixer::new(&cfg, &mut rng).unwrap();
        (m, rng)
    }

    #[test]
    fn forward_shapes() {
        let (m, mut rng) = tiny();
        assert_eq!(m.num_tokens(), 16);
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut rng));
        let logits = m.forward(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(logits), vec![2, 5]);
    }

    #[test]
    fn features_shape_and_dim() {
        let (m, mut rng) = tiny();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[3, 3, 16, 16], -1.0, 1.0, &mut rng));
        let f = m.features(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(f), vec![3, m.feature_dim()]);
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let (m, _) = tiny();
        let mut g = Graph::new();
        let x = g.input(metalora_tensor::Tensor::zeros(&[2, 3, 8, 8]));
        assert!(m.forward(&mut g, x, &Ctx::none()).is_err());
    }

    #[test]
    fn config_validation() {
        let mut rng = init::rng(0);
        let cfg = MixerConfig {
            image_size: 10,
            patch_size: 4,
            ..MixerConfig::default()
        };
        assert!(Mixer::new(&cfg, &mut rng).is_err());
    }

    #[test]
    fn replace_linears_visits_all_mixing_layers() {
        let (mut m, _) = tiny();
        let mut n = 0;
        m.replace_layers(&mut |l| {
            n += 1;
            l
        });
        assert_eq!(n, 8);
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let (m, mut rng) = tiny();
        let xv = init::uniform(&[4, 3, 16, 16], -1.0, 1.0, &mut rng);
        let labels = [0usize, 1, 2, 3];
        let run = |m: &Mixer| {
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
    fn patchify_preserves_pixels() {
        // A distinctive pixel lands in the right patch slot.
        let (m, _) = tiny();
        let mut img = metalora_tensor::Tensor::zeros(&[1, 3, 16, 16]);
        img.set(&[0, 1, 5, 9], 7.0).unwrap(); // patch row 1, col 2
        let mut g = Graph::new();
        let x = g.input(img);
        let y = m.patchify(&mut g, x, 1).unwrap();
        let v = g.value(y);
        assert_eq!(v.dims(), &[1, 16, 48]);
        // Token index: row 1 · 4 + col 2 = 6; inner: c=1, ph=1, pw=1 →
        // 1·16 + 1·4 + 1 = 21.
        assert_eq!(v.get(&[0, 6, 21]).unwrap(), 7.0);
        let total: f32 = v.data().iter().sum();
        assert_eq!(total, 7.0);
    }
}
