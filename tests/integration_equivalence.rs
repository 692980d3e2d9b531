//! Cross-crate numerical identities: the mathematical claims behind the
//! paper's figures, verified at moderate scale.

use metalora::nn::{Conv2d, ConvLike, Ctx, Linear, Module};
use metalora::peft::meta::{MetaLoraCpConv, MetaLoraCpLinear, MetaLoraTrConv, MetaLoraTrLinear};
use metalora::peft::{ConvLora, LoraConfig};
use metalora::tensor::conv::{conv2d, conv2d_via_dummy, ConvSpec};
use metalora::tensor::decomp::{cp_als, tr_svd};
use metalora::tensor::einsum::einsum;
use metalora::tensor::{approx_eq, contract, init, max_rel_err, ops, Tensor};
use metalora_autograd::Graph;

/// Fig. 1 — pairwise contraction (Eq. 1) agrees with the naive sum and
/// with the einsum reference across several wiring patterns.
#[test]
fn fig1_contraction_identities() {
    let mut rng = init::rng(1);
    let a = init::uniform(&[4, 6, 5], -1.0, 1.0, &mut rng);
    let b = init::uniform(&[5, 6, 3], -1.0, 1.0, &mut rng);
    let fast = contract::contract(&a, &b, &[2, 1], &[0, 1]).unwrap();
    let naive = contract::contract_naive(&a, &b, &[2, 1], &[0, 1]).unwrap();
    let es = einsum("ikj,jkm->im", &[&a, &b]).unwrap();
    assert!(approx_eq(&fast, &naive, 1e-4));
    assert!(approx_eq(&fast, &es, 1e-4));
}

/// Fig. 2 — convolution as a tensor network with dummy tensors equals the
/// im2col path across stride/padding settings and scales.
#[test]
fn fig2_dummy_tensor_convolution() {
    let mut rng = init::rng(2);
    for (hw, k, s, p) in [(12, 3, 1, 1), (16, 5, 2, 2), (9, 1, 1, 0), (10, 3, 3, 1)] {
        let spec = ConvSpec::new(k, s, p).unwrap();
        let x = init::uniform(&[2, 4, hw, hw], -1.0, 1.0, &mut rng);
        let w = init::uniform(&[k, k, 4, 6], -1.0, 1.0, &mut rng);
        let direct = conv2d(&x, &w, spec, spec).unwrap();
        let tn = conv2d_via_dummy(&x, &w, spec, spec).unwrap();
        assert!(
            approx_eq(&direct, &tn, 1e-3),
            "hw={hw} k={k} s={s} p={p}: err {}",
            max_rel_err(&direct, &tn)
        );
    }
}

/// Fig. 3 — Conv-LoRA's factored execution (small conv → 1×1 conv)
/// equals convolving with the materialised Δ𝒲 of Eq. 5.
#[test]
fn fig3_conv_lora_factorisation() {
    let mut rng = init::rng(3);
    for (stride, rank) in [(1usize, 2usize), (2, 4), (1, 1)] {
        let base = Conv2d::new_no_bias("c", 4, 6, 3, stride, 1, &mut rng).unwrap();
        let spec = base.spec();
        let cl = ConvLora::new(
            "c",
            Box::new(base),
            LoraConfig { rank, alpha: 2.0 },
            &mut rng,
        );
        cl.b.set_value(init::uniform(&[rank, 6], -0.5, 0.5, &mut rng));
        let x = init::uniform(&[2, 4, 10, 10], -1.0, 1.0, &mut rng);

        let mut g = Graph::inference();
        let xv = g.input(x.clone());
        let y = cl.forward(&mut g, xv, &Ctx::none()).unwrap();
        let dims = g.dims(y);
        // Subtract the base to isolate the factored delta.
        let mut g2 = Graph::inference();
        let xv2 = g2.input(x.clone());
        let w = g2.input(cl.delta_weight().unwrap());
        let full = g2.conv2d(xv2, w, spec, spec).unwrap();
        let full_v = g2.value(full);
        assert_eq!(dims, full_v.dims().to_vec());

        // Factored delta from forward − base forward.
        let base_out = {
            let mut g3 = Graph::inference();
            let xv3 = g3.input(x);
            // base params are inside cl; re-run with zeroed B to get base.
            let saved = cl.b.value();
            cl.b.set_value(Tensor::zeros(saved.dims()));
            let yb = cl.forward(&mut g3, xv3, &Ctx::none()).unwrap();
            cl.b.set_value(saved);
            g3.value(yb)
        };
        let factored = ops::sub(&g.value(y), &base_out).unwrap();
        assert!(
            approx_eq(&factored, &full_v, 1e-3),
            "stride={stride} rank={rank}: err {}",
            max_rel_err(&factored, &full_v)
        );
    }
}

/// Eq. 6 — the MetaLoRA-CP factored forward equals contracting
/// `Λ ×₁ A ×₂ B ×₃ c` for dense and convolutional layers.
#[test]
fn eq6_metalora_cp_consistency() {
    let mut rng = init::rng(4);
    let base = Linear::new("fc", 8, 5, &mut rng);
    let m = MetaLoraCpLinear::new(
        "fc",
        Box::new(base),
        LoraConfig { rank: 3, alpha: 3.0 },
        &mut rng,
    );
    m.b.set_value(init::uniform(&[3, 5], -0.7, 0.7, &mut rng));
    let c = init::uniform(&[3], -1.0, 1.0, &mut rng);
    let dw = m.delta_weight_for(&c).unwrap();
    let oracle = einsum("ir,ro,r->io", &[&m.a.value(), &m.b.value(), &c]).unwrap();
    assert!(approx_eq(&dw, &ops::scale(&oracle, 1.0), 1e-4));

    let basec = Conv2d::new_no_bias("c", 3, 4, 3, 1, 1, &mut rng).unwrap();
    let mc = MetaLoraCpConv::new(
        "c",
        Box::new(basec),
        LoraConfig { rank: 2, alpha: 2.0 },
        &mut rng,
    );
    mc.b.set_value(init::uniform(&[2, 4], -0.7, 0.7, &mut rng));
    let c = init::uniform(&[2], -1.0, 1.0, &mut rng);
    let dw = mc.delta_weight_for(&c).unwrap();
    assert_eq!(dw.dims(), &[3, 3, 3, 4]);
    // Oracle via flattened einsum over the spatial+channel axis.
    let a3 = mc.a.value().reshaped(&[27, 2]).unwrap();
    let oracle = einsum("sr,ro,r->so", &[&a3, &mc.b.value(), &c]).unwrap();
    let oracle = ops::scale(&oracle, 1.0).reshape(&[3, 3, 3, 4]).unwrap();
    assert!(approx_eq(&dw, &oracle, 1e-4));
}

/// Eq. 7 — the MetaLoRA-TR factored forward equals the ring contraction
/// for dense and convolutional layers (checked against einsum).
#[test]
fn eq7_metalora_tr_consistency() {
    let mut rng = init::rng(5);
    let base = Linear::new("fc", 7, 4, &mut rng);
    let m = MetaLoraTrLinear::new(
        "fc",
        Box::new(base),
        LoraConfig { rank: 3, alpha: 3.0 },
        &mut rng,
    );
    m.b.set_value(init::uniform(&[3, 4, 3], -0.7, 0.7, &mut rng));
    let c = init::uniform(&[3, 3], -1.0, 1.0, &mut rng);
    let dw = m.delta_weight_for(&c).unwrap();
    let oracle = einsum("xiy,yoz,zx->io", &[&m.a.value(), &m.b.value(), &c]).unwrap();
    assert!(approx_eq(&dw, &ops::scale(&oracle, 1.0), 1e-4));

    // Per-sample forward agreement on a batch of 3 distinct seeds.
    let x = init::uniform(&[3, 7], -1.0, 1.0, &mut rng);
    let seeds = init::uniform(&[3, 9], -1.0, 1.0, &mut rng);
    let mut g = Graph::inference();
    let xv = g.input(x.clone());
    let sv = g.input(seeds.clone());
    let y = m.forward(&mut g, xv, &Ctx::with_seed(sv)).unwrap();
    let yv = g.value(y);
    for n in 0..3 {
        let cn = seeds.index_axis0(n).unwrap().reshape(&[3, 3]).unwrap();
        let dw = m.delta_weight_for(&cn).unwrap();
        let xn = x.index_axis0(n).unwrap().reshape(&[1, 7]).unwrap();
        let dy = ops::matmul(&xn, &dw).unwrap();
        // Base output for this row.
        let mut g2 = Graph::inference();
        let xnv = g2.input(xn);
        let yb = m.forward(&mut g2, xnv, &Ctx::none()).unwrap();
        let expect = ops::add(&g2.value(yb), &dy).unwrap();
        let got = yv.index_axis0(n).unwrap().reshape(&[1, 4]).unwrap();
        assert!(
            approx_eq(&got, &expect, 1e-3),
            "sample {n}: err {}",
            max_rel_err(&got, &expect)
        );
    }

    // Convolutional TR variant.
    let basec = Conv2d::new_no_bias("c", 2, 3, 3, 1, 1, &mut rng).unwrap();
    let mc = MetaLoraTrConv::new(
        "c",
        Box::new(basec),
        LoraConfig { rank: 2, alpha: 2.0 },
        &mut rng,
    );
    mc.b.set_value(init::uniform(&[2, 3, 2], -0.5, 0.5, &mut rng));
    let c = init::uniform(&[2, 2], -1.0, 1.0, &mut rng);
    let dw = mc.delta_weight_for(&c).unwrap();
    assert_eq!(dw.dims(), &[3, 3, 2, 3]);
}

/// Sec. II-D machinery — CP-ALS and TR-SVD reconstruct structured
/// tensors at moderate scale.
#[test]
fn decomposition_drivers_reconstruct() {
    let mut rng = init::rng(6);
    // CP: exact rank-3 target.
    let cp = metalora::tensor::decomp::CpFormat::random(&[8, 7, 6], 3, &mut rng).unwrap();
    let target = cp.reconstruct().unwrap();
    let rec = cp_als(&target, 3, 80, 1e-7, &mut rng).unwrap();
    let err = rec.relative_error(&target).unwrap();
    assert!(err < 0.08, "CP-ALS err {err}");

    // TR: exact rank-2 ring target.
    let tr = metalora::tensor::decomp::TrFormat::random(&[6, 7, 5], 2, &mut rng).unwrap();
    let target = tr.reconstruct().unwrap();
    let rec = tr_svd(&target, 4, 1e-7).unwrap();
    let err = rec.relative_error(&target).unwrap();
    assert!(err < 0.05, "TR-SVD err {err}");
}
