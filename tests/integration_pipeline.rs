//! End-to-end integration: the full Table I grid at quick scale.

use metalora::config::ExperimentConfig;
use metalora::methods::Method;
use metalora::table1::{run_table1, Table1Options};
use metalora::{pipeline, Arch};

#[test]
fn quick_table1_grid_produces_complete_table() {
    let mut cfg = ExperimentConfig::quick();
    cfg.probe_rounds = 1;
    let opts = Table1Options::new(cfg.clone(), vec![0]);
    let result = run_table1(&opts).unwrap();

    assert_eq!(result.methods.len(), 5);
    assert_eq!(result.archs, vec!["ResNet", "MLP-Mixer"]);
    assert_eq!(result.ks, vec![5, 10]);
    // Every cell filled, every accuracy a valid fraction.
    for (ai, _) in result.archs.iter().enumerate() {
        for (mi, m) in result.methods.iter().enumerate() {
            for &k in &[5usize, 10] {
                let mean = result.mean(ai, k, mi).unwrap();
                assert!((0.0..=1.0).contains(&mean), "{m} arch{ai} K={k}: {mean}");
            }
        }
    }
    // The rendered table mentions every method and column.
    let rendered = result.render();
    for m in &result.methods {
        assert!(rendered.contains(m.as_str()), "missing row {m}");
    }
    assert!(rendered.contains("ResNet K=5"));
    assert!(rendered.contains("MLP-Mixer K=10"));

    // One trainable count per (arch, method): none for Original, and for
    // LoRA the count a direct adaptation at the same config optimises.
    assert_eq!(result.trainable.len(), opts.archs.len());
    let row_of = |method| opts.methods.iter().position(|&m| m == method).unwrap();
    let (original, lora) = (row_of(Method::Original), row_of(Method::Lora));
    for (ai, &arch) in opts.archs.iter().enumerate() {
        let row = &result.trainable[ai];
        assert_eq!(row.len(), opts.methods.len());
        assert_eq!(row[original], 0, "Original trains nothing");
        let net = pipeline::pretrain(&cfg, arch, 0).unwrap();
        let adapted = pipeline::adapt(net, Method::Lora, &cfg, 0).unwrap();
        let direct: usize = adapted.adapter_params.iter().map(|p| p.len()).sum();
        assert_eq!(row[lora], direct, "{arch:?} LoRA");
    }
}

#[test]
fn pipeline_is_reproducible_per_seed() {
    let cfg = ExperimentConfig::quick();
    let run = |seed: u64| {
        let net = pipeline::pretrain(&cfg, Arch::ResNet, seed).unwrap();
        let adapted = pipeline::adapt(net, Method::Lora, &cfg, seed).unwrap();
        let probe = pipeline::probe(&adapted, &cfg, seed).unwrap();
        probe.episodes(5).unwrap().to_vec()
    };
    assert_eq!(run(7), run(7), "same seed must reproduce exactly");
}

#[test]
fn adaptation_moves_adapter_weights() {
    let mut cfg = ExperimentConfig::quick();
    cfg.adapt_steps = 30;
    let net = pipeline::pretrain(&cfg, Arch::ResNet, 5).unwrap();
    let adapted = pipeline::adapt(net, Method::Lora, &cfg, 5).unwrap();
    // Every Conv-LoRA B starts at zero; training must move at least some.
    assert!(
        adapted
            .adapter_params
            .iter()
            .filter(|p| p.name().contains("_b"))
            .any(|p| p.value().norm() > 1e-6),
        "adapter up-projections never moved"
    );
    let probe = pipeline::probe(&adapted, &cfg, 5).unwrap();
    assert!(probe.mean_accuracy(5).unwrap() > 0.0);
}

#[test]
fn meta_methods_run_on_both_backbones() {
    let cfg = ExperimentConfig::quick();
    for arch in [Arch::ResNet, Arch::Mixer] {
        for method in [Method::MetaLoraCp, Method::MetaLoraTr] {
            let net = pipeline::pretrain(&cfg, arch, 11).unwrap();
            let adapted = pipeline::adapt(net, method, &cfg, 11).unwrap();
            let probe = pipeline::probe(&adapted, &cfg, 11).unwrap();
            for k in [5usize, 10] {
                assert!(
                    probe.mean_accuracy(k).is_some(),
                    "{arch:?} {method:?} K={k}"
                );
            }
            // The mapping net is part of the trainable set.
            assert!(adapted
                .adapter_params
                .iter()
                .any(|p| p.name().starts_with("mapping.")));
        }
    }
}

#[test]
fn param_reports_reflect_method() {
    let cfg = ExperimentConfig::quick();
    let net = pipeline::pretrain(&cfg, Arch::ResNet, 9).unwrap();
    let lora = pipeline::adapt(net, Method::Lora, &cfg, 9).unwrap();
    let r = lora.param_report();
    assert!(r.trainable > 0);
    assert!(r.trainable < r.total, "{r}");

    let net = pipeline::pretrain(&cfg, Arch::ResNet, 9).unwrap();
    let full = pipeline::adapt(net, Method::FullFineTune, &cfg, 9).unwrap();
    let rf = full.param_report();
    assert_eq!(rf.trainable, rf.total);
    assert!(r.fraction() < rf.fraction());
}

#[test]
fn multi_lora_routes_and_probes() {
    let cfg = ExperimentConfig::quick();
    let net = pipeline::pretrain(&cfg, Arch::Mixer, 13).unwrap();
    let adapted = pipeline::adapt(net, Method::MultiLora, &cfg, 13).unwrap();
    let probe = pipeline::probe(&adapted, &cfg, 13).unwrap();
    assert_eq!(
        probe.episodes(10).unwrap().len(),
        cfg.n_eval_tasks * cfg.probe_rounds
    );
}

#[test]
fn transformer_extension_pipeline_runs() {
    // The Sec. III-E extension: the full protocol on the Vision
    // Transformer backbone for every Table I method.
    let cfg = ExperimentConfig::quick();
    for method in [Method::Lora, Method::MultiLora, Method::MetaLoraTr] {
        let net = pipeline::pretrain(&cfg, Arch::Transformer, 21).unwrap();
        let adapted = pipeline::adapt(net, method, &cfg, 21).unwrap();
        let probe = pipeline::probe(&adapted, &cfg, 21).unwrap();
        assert!(
            probe.mean_accuracy(5).is_some(),
            "{method:?} on transformer"
        );
        assert!(!adapted.adapter_params.is_empty());
    }
}
