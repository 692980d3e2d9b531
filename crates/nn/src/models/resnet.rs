//! A small residual network (He et al. 2016) sized for the synthetic
//! 32×32 experiments, with swappable convolutions for PEFT injection.

use crate::layers::{BatchNorm2d, Conv2d, Linear};
use crate::module::{
    dedup_params, replace_conv, Backbone, BoxConv, Ctx, Injectable, Layer, Module,
};
use crate::Result;
use metalora_autograd::{Graph, ParamRef, Var};
use rand::rngs::StdRng;

/// Architecture hyper-parameters.
#[derive(Debug, Clone)]
pub struct ResNetConfig {
    /// Input image channels (3 for RGB).
    pub in_channels: usize,
    /// Channel width per stage; the stage count is `channels.len()`.
    pub channels: Vec<usize>,
    /// Residual blocks per stage.
    pub blocks_per_stage: usize,
    /// Classification head width.
    pub num_classes: usize,
}

impl Default for ResNetConfig {
    fn default() -> Self {
        // ~ResNet-8 for 32×32 inputs: stem + 3 stages × 1 block × 2 convs.
        ResNetConfig {
            in_channels: 3,
            channels: vec![16, 32, 64],
            blocks_per_stage: 1,
            num_classes: 8,
        }
    }
}

/// One basic residual block: conv–bn–relu–conv–bn plus a (possibly
/// projected) skip connection.
struct BasicBlock {
    conv1: BoxConv,
    bn1: BatchNorm2d,
    conv2: BoxConv,
    bn2: BatchNorm2d,
    /// 1×1 stride-matching projection when shape changes.
    down: Option<(BoxConv, BatchNorm2d)>,
}

impl BasicBlock {
    fn new(
        name: &str,
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> Result<Self> {
        let conv1: BoxConv = Box::new(Conv2d::new_no_bias(
            &format!("{name}.conv1"),
            in_ch,
            out_ch,
            3,
            stride,
            1,
            rng,
        )?);
        let conv2: BoxConv = Box::new(Conv2d::new_no_bias(
            &format!("{name}.conv2"),
            out_ch,
            out_ch,
            3,
            1,
            1,
            rng,
        )?);
        let down = if stride != 1 || in_ch != out_ch {
            let proj: BoxConv = Box::new(Conv2d::new_no_bias(
                &format!("{name}.down"),
                in_ch,
                out_ch,
                1,
                stride,
                0,
                rng,
            )?);
            Some((proj, BatchNorm2d::new(&format!("{name}.down_bn"), out_ch)))
        } else {
            None
        };
        Ok(BasicBlock {
            conv1,
            bn1: BatchNorm2d::new(&format!("{name}.bn1"), out_ch),
            conv2,
            bn2: BatchNorm2d::new(&format!("{name}.bn2"), out_ch),
            down,
        })
    }

    fn forward(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var> {
        let y = self.conv1.forward(g, x, ctx)?;
        let y = self.bn1.forward(g, y, ctx)?;
        let y = g.relu(y);
        let y = self.conv2.forward(g, y, ctx)?;
        let y = self.bn2.forward(g, y, ctx)?;
        let skip = match &self.down {
            Some((proj, bn)) => {
                let s = proj.forward(g, x, ctx)?;
                bn.forward(g, s, ctx)?
            }
            None => x,
        };
        let y = g.add(y, skip)?;
        Ok(g.relu(y))
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = self.conv1.params();
        v.extend(self.bn1.params());
        v.extend(self.conv2.params());
        v.extend(self.bn2.params());
        if let Some((proj, bn)) = &self.down {
            v.extend(proj.params());
            v.extend(bn.params());
        }
        v
    }

    fn buffers(&self) -> Vec<ParamRef> {
        let mut v = self.bn1.buffers();
        v.extend(self.bn2.buffers());
        if let Some((_, bn)) = &self.down {
            v.extend(bn.buffers());
        }
        v
    }
}

/// The ResNet backbone: stem conv → stages of basic blocks → global
/// average pool → linear head.
pub struct ResNet {
    stem: BoxConv,
    stem_bn: BatchNorm2d,
    blocks: Vec<BasicBlock>,
    head: Linear,
    feature_dim: usize,
}

impl ResNet {
    /// Builds a randomly initialised network.
    pub fn new(cfg: &ResNetConfig, rng: &mut StdRng) -> Result<Self> {
        assert!(!cfg.channels.is_empty(), "ResNet needs at least one stage");
        let stem: BoxConv = Box::new(Conv2d::new_no_bias(
            "resnet.stem",
            cfg.in_channels,
            cfg.channels[0],
            3,
            1,
            1,
            rng,
        )?);
        let stem_bn = BatchNorm2d::new("resnet.stem_bn", cfg.channels[0]);
        let mut blocks = Vec::new();
        let mut in_ch = cfg.channels[0];
        for (s, &ch) in cfg.channels.iter().enumerate() {
            for b in 0..cfg.blocks_per_stage {
                let stride = if s > 0 && b == 0 { 2 } else { 1 };
                blocks.push(BasicBlock::new(
                    &format!("resnet.stage{s}.block{b}"),
                    in_ch,
                    ch,
                    stride,
                    rng,
                )?);
                in_ch = ch;
            }
        }
        let feature_dim = *cfg.channels.last().expect("non-empty");
        let head = Linear::new("resnet.head", feature_dim, cfg.num_classes, rng);
        Ok(ResNet {
            stem,
            stem_bn,
            blocks,
            head,
            feature_dim,
        })
    }
}

impl Module for ResNet {
    fn forward(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var> {
        let f = self.features(g, x, ctx)?;
        self.head.forward(g, f, ctx)
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut v = self.stem.params();
        v.extend(self.stem_bn.params());
        for b in &self.blocks {
            v.extend(b.params());
        }
        v.extend(self.head.params());
        dedup_params(v)
    }

    fn buffers(&self) -> Vec<ParamRef> {
        let mut v = self.stem_bn.buffers();
        for b in &self.blocks {
            v.extend(b.buffers());
        }
        dedup_params(v)
    }
}

impl Injectable for ResNet {
    fn site(&self) -> &'static str {
        "conv"
    }

    /// The main-path convolutions: the stem, then both convs of each
    /// block. The 1×1 projection is part of the skip path; standard LoRA
    /// practice adapts the main convolutions only.
    fn replace_layers(&mut self, f: &mut dyn FnMut(Layer) -> Layer) {
        replace_conv(&mut self.stem, f);
        for b in &mut self.blocks {
            replace_conv(&mut b.conv1, f);
            replace_conv(&mut b.conv2, f);
        }
    }
}

impl Backbone for ResNet {
    fn features(&self, g: &mut Graph, x: Var, ctx: &Ctx) -> Result<Var> {
        let y = self.stem.forward(g, x, ctx)?;
        let y = self.stem_bn.forward(g, y, ctx)?;
        let mut y = g.relu(y);
        for b in &self.blocks {
            y = b.forward(g, y, ctx)?;
        }
        g.global_avg_pool2d(y)
    }

    fn feature_dim(&self) -> usize {
        self.feature_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metalora_tensor::init;

    fn tiny() -> (ResNet, StdRng) {
        let mut rng = init::rng(1);
        let cfg = ResNetConfig {
            in_channels: 3,
            channels: vec![4, 8],
            blocks_per_stage: 1,
            num_classes: 5,
        };
        let net = ResNet::new(&cfg, &mut rng).unwrap();
        (net, rng)
    }

    #[test]
    fn forward_shapes() {
        let (net, mut rng) = tiny();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut rng));
        let logits = net.forward(&mut g, x, &Ctx::none()).unwrap();
        assert_eq!(g.dims(logits), vec![2, 5]);
        let f = {
            let mut g = Graph::new();
            let x = g.input(init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut rng));
            let f = net.features(&mut g, x, &Ctx::none()).unwrap();
            g.dims(f)
        };
        assert_eq!(f, vec![2, net.feature_dim()]);
        assert_eq!(net.feature_dim(), 8);
    }

    #[test]
    fn param_count_is_plausible_and_deduped() {
        let (net, _) = tiny();
        let n = net.num_params();
        // Stem 3·3·3·4 + blocks + head — should be a few thousand.
        assert!(n > 500 && n < 50_000, "n = {n}");
        let ids: Vec<usize> = net.params().iter().map(|p| p.cell_id()).collect();
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(ids.len(), uniq.len(), "params must be unique");
    }

    #[test]
    fn replace_convs_visits_the_stem_and_both_convs_of_each_block() {
        let (mut net, _) = tiny();
        let mut seen = 0;
        net.replace_layers(&mut |c| {
            seen += 1;
            c
        });
        assert_eq!(seen, 5);
    }

    #[test]
    fn downsample_projection_exists_only_on_stage_change() {
        let (net, _) = tiny();
        assert!(net.blocks[0].down.is_none(), "stage 0 keeps identity skip");
        assert!(net.blocks[1].down.is_some(), "stage 1 projects");
    }

    #[test]
    fn gradient_reaches_stem() {
        let (net, mut rng) = tiny();
        let mut g = Graph::new();
        let x = g.input(init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng));
        let logits = net.forward(&mut g, x, &Ctx::none()).unwrap();
        let loss = g.softmax_cross_entropy(logits, &[0, 3]).unwrap();
        g.backward(loss).unwrap();
        net.zero_grad();
        g.flush_grads();
        let stem_w = &net.stem.params()[0];
        assert!(stem_w.grad().norm() > 0.0, "stem received gradient");
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let (net, mut rng) = tiny();
        let xv = init::uniform(&[4, 3, 8, 8], -1.0, 1.0, &mut rng);
        let labels = [0usize, 1, 2, 3];
        let run = |net: &ResNet| {
            let mut g = Graph::new();
            let x = g.input(xv.clone());
            let logits = net.forward(&mut g, x, &Ctx::none()).unwrap();
            let loss = g.softmax_cross_entropy(logits, &labels).unwrap();
            (g, loss)
        };
        let (mut g, loss) = run(&net);
        let before = g.value(loss).item().unwrap();
        g.backward(loss).unwrap();
        net.zero_grad();
        g.flush_grads();
        for p in net.params() {
            let gr = p.grad();
            p.update_value(|v| {
                for (a, &b) in v.data_mut().iter_mut().zip(gr.data()) {
                    *a -= 0.05 * b;
                }
            });
        }
        let (g2, loss2) = run(&net);
        let after = g2.value(loss2).item().unwrap();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn trainable_count_respects_freezing() {
        let (net, _) = tiny();
        let total = net.num_trainable_params();
        net.set_trainable(false);
        assert_eq!(net.num_trainable_params(), 0);
        net.set_trainable(true);
        assert_eq!(net.num_trainable_params(), total);
    }
}
