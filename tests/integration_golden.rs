//! Golden regression: a fully seeded quick pipeline run must reproduce
//! the committed numbers bit-for-bit. Every kernel runs on the calling
//! thread in a fixed order, so nothing but the seed decides a bit.
//!
//! After an *intentional* numeric change, regenerate with
//! `cargo test --test integration_golden -- --nocapture` and copy the
//! printed `GOLDEN_*` block over the constants below.
//!
//! The obs metrics store the losses are read from is process-global, so
//! every test that records into it holds [`OBS`] while it runs.

use metalora::config::ExperimentConfig;
use metalora::methods::Method;
use metalora::table1::{run_table1, Table1Options};
use metalora::{pipeline, Arch};

const SEED: u64 = 42;

/// Serialises the tests that switch the process-global obs collectors.
static OBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Holds [`OBS`], also after another test panicked while holding it.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Pretrain per-epoch losses followed by the adapt-phase mean loss,
/// as exact f64 bit patterns (quick config: 2 + 1 records).
const GOLDEN_LOSSES: [u64; 3] = [
    0x40036d6920000000, // 2.4284231662750244
    0x4001083ba0000000, // 2.1290199756622314
    0x400084147b333333, // 2.0644921898841857
];

/// Probe mean accuracy for K = 5 and K = 10, as exact f32 bit patterns.
const GOLDEN_ACCS: [u32; 2] = [
    0x3ea00000, // 0.3125
    0x3ea00000, // 0.3125
];

/// One seeded quick run: ResNet pretrain → Meta-LoRA TR adapt → probe.
/// Returns the K=5 / K=10 probe accuracies.
fn run_pipeline() -> [f32; 2] {
    let cfg = ExperimentConfig::quick();
    let net = pipeline::pretrain(&cfg, Arch::ResNet, SEED).unwrap();
    let adapted = pipeline::adapt(net, Method::MetaLoraTr, &cfg, SEED).unwrap();
    let probe = pipeline::probe(&adapted, &cfg, SEED).unwrap();
    [
        probe.mean_accuracy(5).unwrap(),
        probe.mean_accuracy(10).unwrap(),
    ]
}

#[test]
fn golden_quick_pipeline() {
    let _obs = obs_lock();
    // Reference run with every collector off.
    metalora_obs::set_enabled(false);
    metalora_obs::trace::set_enabled(false);
    metalora_obs::reset();
    let accs_off = run_pipeline();

    // Observed run with every collector on — spans, counters, the event
    // timeline, per-group health probes at stride 1 AND the live metrics
    // registry under the logical clock. Numerics must not move by a
    // single bit.
    metalora_obs::set_enabled(true);
    metalora_obs::trace::set_enabled(true);
    metalora_obs::health::set_sample_stride(1);
    metalora_obs::registry::set_enabled(true);
    metalora_obs::window::set_clock(metalora_obs::window::ClockMode::Logical);
    metalora_obs::reset();
    let accs_on = run_pipeline();
    let epochs = metalora_obs::metrics::snapshot();
    let spans = metalora_obs::span::snapshot();
    let counters = metalora_obs::counters::snapshot();
    let health = metalora_obs::health::snapshot();
    let (trace_events, trace_dropped) = metalora_obs::trace::snapshot();
    let chrome = metalora_obs::trace::to_chrome_json(&trace_events);
    metalora_obs::set_enabled(false);
    metalora_obs::trace::set_enabled(false);
    metalora_obs::health::set_sample_stride(0);
    metalora_obs::registry::set_enabled(false);
    metalora_obs::window::set_clock(metalora_obs::window::ClockMode::Monotonic);
    metalora_obs::reset();

    for (k, (on, off)) in [5usize, 10].into_iter().zip(accs_on.iter().zip(&accs_off)) {
        assert_eq!(
            on.to_bits(),
            off.to_bits(),
            "K={k}: instrumentation changed the numerics ({on} vs {off})"
        );
    }

    // The observed run produced the expected records.
    let losses: Vec<f64> = epochs.iter().map(|e| e.loss).collect();
    assert_eq!(
        epochs.iter().map(|e| e.phase.as_str()).collect::<Vec<_>>(),
        ["pretrain/epoch", "pretrain/epoch", "adapt/MetaLoraTr"],
    );
    for e in &epochs {
        assert!(e.loss.is_finite() && e.loss > 0.0, "{e:?}");
        assert!((0.0..=1.0).contains(&e.accuracy), "{e:?}");
        assert!(e.grad_norm.is_finite() && e.grad_norm >= 0.0, "{e:?}");
    }
    let span_paths: Vec<&str> = spans.iter().map(|(p, _)| p.as_str()).collect();
    for expect in ["pretrain", "adapt/MetaLoraTr", "probe/MetaLoraTr"] {
        assert!(span_paths.contains(&expect), "missing span {expect:?} in {span_paths:?}");
    }
    let calls_of = |k: metalora_obs::counters::Kernel| {
        counters.kernels.iter().find(|s| s.kernel == k.name()).map_or(0, |s| s.calls)
    };
    assert!(calls_of(metalora_obs::counters::Kernel::Matmul) > 0);
    assert!(calls_of(metalora_obs::counters::Kernel::Conv) > 0);
    assert!(calls_of(metalora_obs::counters::Kernel::Knn) > 0);
    assert!(counters.peak_tensor_bytes > 0);

    // Health probes fired for both the optimizer and seed generation,
    // phase-stamped from the span stack, with finite norms and no
    // non-finite sentinels anywhere in the run.
    assert!(!health.is_empty(), "no health records at stride 1");
    assert!(
        health.iter().any(|h| h.phase.starts_with("pretrain")),
        "no pretrain health records: {:?}",
        health.iter().map(|h| h.phase.as_str()).collect::<Vec<_>>()
    );
    assert!(
        health.iter().any(|h| h.phase.starts_with("adapt/MetaLoraTr")),
        "no adapt health records"
    );
    assert!(health.iter().any(|h| h.group == "mapping/seed"), "no seed-generation probes");
    for h in &health {
        assert_eq!((h.nan_count, h.inf_count), (0, 0), "non-finite values in {h:?}");
        assert!(h.weight_norm.is_finite() && h.weight_norm >= 0.0, "{h:?}");
        if h.group != "mapping/seed" {
            assert!(h.grad_norm.is_finite() && h.grad_norm >= 0.0, "{h:?}");
        }
    }

    // The timeline recorded begin/end pairs and exports as valid Chrome
    // trace JSON (what `TRACE_table1.json` carries).
    assert!(!trace_events.is_empty(), "tracing enabled but no events");
    assert_eq!(trace_dropped, 0, "quick run must fit the default ring");
    let v: serde_json::Value = serde_json::from_str(&chrome).unwrap();
    let serde_json::Value::Seq(events) = v.field("traceEvents").unwrap() else {
        panic!("traceEvents is not an array");
    };
    assert_eq!(events.len(), trace_events.len());
    for e in events {
        match e.field("ph").unwrap() {
            serde_json::Value::Str(ph) => assert!(ph == "B" || ph == "E", "bad phase {ph:?}"),
            other => panic!("ph is not a string: {other:?}"),
        }
        assert!(matches!(e.field("name").unwrap(), serde_json::Value::Str(_)));
        assert!(matches!(e.field("ts").unwrap(), serde_json::Value::Num(_)));
        assert!(matches!(e.field("tid").unwrap(), serde_json::Value::Num(_)));
    }

    // Regeneration aid: printed only under --nocapture.
    println!("const GOLDEN_LOSSES: [u64; {}] = [", losses.len());
    for l in &losses {
        println!("    0x{:016x}, // {l:?}", l.to_bits());
    }
    println!("];");
    println!("const GOLDEN_ACCS: [u32; 2] = [");
    for a in &accs_on {
        println!("    0x{:08x}, // {a:?}", a.to_bits());
    }
    println!("];");

    // The committed goldens.
    assert_eq!(losses.len(), GOLDEN_LOSSES.len());
    for (i, (l, g)) in losses.iter().zip(&GOLDEN_LOSSES).enumerate() {
        assert_eq!(
            l.to_bits(),
            *g,
            "loss[{i}] drifted: got {l:?} (0x{:016x}), golden 0x{g:016x}",
            l.to_bits()
        );
    }
    for (i, (a, g)) in accs_on.iter().zip(&GOLDEN_ACCS).enumerate() {
        assert_eq!(
            a.to_bits(),
            *g,
            "acc[{i}] drifted: got {a:?} (0x{:08x}), golden 0x{g:08x}",
            a.to_bits()
        );
    }
}

/// The Mixer pipeline's pretrain per-epoch losses and adapt-phase mean
/// loss, as exact f64 bit patterns. Every mixing MLP is linear → GELU →
/// linear, so these pin the activations of a GELU-heavy backbone on both
/// of MetaLoRA's passes and in the backward.
const GOLDEN_MIXER_LOSSES: [u64; 3] = [
    0x4001ee9b20000000, // 2.241506814956665
    0x4001276f60000000, // 2.1442553997039795
    0x4000f66e3999999a, // 2.120327425003052
];

/// The Mixer pipeline's probe mean accuracy for K = 5 and K = 10, as
/// exact f32 bit patterns.
const GOLDEN_MIXER_ACCS: [u32; 2] = [
    0x3e900000, // 0.28125
    0x3e000000, // 0.125
];

/// One seeded quick run: Mixer pretrain → Meta-LoRA CP adapt → probe,
/// pinned bit for bit.
#[test]
fn golden_quick_mixer_pipeline() {
    let _obs = obs_lock();
    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    let cfg = ExperimentConfig::quick();
    let net = pipeline::pretrain(&cfg, Arch::Mixer, SEED).unwrap();
    let adapted = pipeline::adapt(net, Method::MetaLoraCp, &cfg, SEED).unwrap();
    let probe = pipeline::probe(&adapted, &cfg, SEED).unwrap();
    let epochs = metalora_obs::metrics::snapshot();
    metalora_obs::set_enabled(false);
    metalora_obs::reset();

    assert_eq!(
        epochs.iter().map(|e| e.phase.as_str()).collect::<Vec<_>>(),
        ["pretrain/epoch", "pretrain/epoch", "adapt/MetaLoraCp"],
    );
    let losses: Vec<f64> = epochs.iter().map(|e| e.loss).collect();
    let accs = [probe.mean_accuracy(5).unwrap(), probe.mean_accuracy(10).unwrap()];

    // Regeneration aid: printed only under --nocapture.
    println!("const GOLDEN_MIXER_LOSSES: [u64; {}] = [", losses.len());
    for l in &losses {
        println!("    0x{:016x}, // {l:?}", l.to_bits());
    }
    println!("];");
    println!("const GOLDEN_MIXER_ACCS: [u32; 2] = [");
    for a in &accs {
        println!("    0x{:08x}, // {a:?}", a.to_bits());
    }
    println!("];");

    let loss_bits: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(loss_bits, GOLDEN_MIXER_LOSSES, "Mixer losses drifted: {losses:?}");
    let acc_bits = accs.map(f32::to_bits);
    assert_eq!(acc_bits, GOLDEN_MIXER_ACCS, "Mixer probe accuracies drifted: {accs:?}");
}

/// Full quick-scale Table I grid with instrumentation on: the run report
/// must serialise to valid JSON carrying per-phase spans, per-kernel
/// counters and per-epoch metrics, and land on disk as `RUNLOG_*.json`.
/// Slow (the whole 5-method × 2-backbone grid), so nightly-only.
#[test]
#[ignore = "slow: full quick-scale table1 grid; run via --include-ignored"]
fn runlog_captures_full_table1_grid() {
    let _obs = obs_lock();
    metalora_obs::set_enabled(true);
    metalora_obs::reset();
    let mut cfg = ExperimentConfig::quick();
    cfg.probe_rounds = 1;
    run_table1(&Table1Options::new(cfg, vec![0])).unwrap();

    let report = metalora_obs::report::RunReport::capture("table1_grid_test");
    metalora_obs::set_enabled(false);
    metalora_obs::reset();

    // Valid JSON with the full schema.
    let json = report.to_json();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    for key in [
        "schema_version",
        "name",
        "spans",
        "counters",
        "registry",
        "health",
        "trace",
        "epochs",
    ] {
        assert!(v.field(key).is_ok(), "missing key {key:?}");
    }

    // Every phase of every method shows up in the span tree, with ordered
    // duration quantiles…
    let span_paths: Vec<String> = report.spans.iter().map(|s| s.path.clone()).collect();
    for s in &report.spans {
        assert!(
            s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns,
            "quantiles out of order for {}: {} {} {}",
            s.path,
            s.p50_ns,
            s.p95_ns,
            s.p99_ns
        );
    }
    for m in ["Original", "Lora", "MultiLora", "MetaLoraCp", "MetaLoraTr"] {
        assert!(
            span_paths.iter().any(|p| p == &format!("adapt/{m}")),
            "no adapt span for {m}: {span_paths:?}"
        );
        assert!(span_paths.iter().any(|p| p == &format!("probe/{m}")));
    }
    // …and the epochs sink saw both pretraining and adaptation.
    let phases: Vec<&str> = report.epochs.iter().map(|e| e.phase.as_str()).collect();
    assert!(phases.contains(&"pretrain/epoch"));
    assert!(phases.contains(&"adapt/MetaLoraTr"));

    // Kernel counters moved, and wall time was accounted per phase.
    let count = |group: &str, name: &str| {
        report.counters.iter().find(|r| r.group == group && r.name == name).unwrap().value
    };
    assert!(count("matmul", "flops") > 0);
    assert!(count("tile_grid", "claims") > 0);
    assert!(count("memory", "peak_tensor_bytes") > 0);
    assert!(report.epochs.iter().all(|e| e.wall_s >= 0.0));

    // The writer puts a well-named file on disk.
    let dir = std::env::temp_dir();
    let path = report.write_to(&dir).unwrap();
    assert!(path.file_name().unwrap().to_str().unwrap().starts_with("RUNLOG_"));
    let on_disk = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(on_disk, json);

    // The human summary mentions each section.
    let table = report.summary_table();
    for needle in ["span", "counter", "epoch"] {
        assert!(
            table.to_lowercase().contains(needle),
            "summary table missing {needle:?}:\n{table}"
        );
    }
}
