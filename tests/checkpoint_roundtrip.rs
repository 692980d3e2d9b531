//! Checkpoint round-trip: save → load through the JSON file format must
//! reproduce every parameter and buffer bit-for-bit, and a restored model
//! must produce bitwise-identical forward outputs — for plain backbones
//! and for a LoRA-injected one.

use metalora::config::ExperimentConfig;
use metalora::nn::models::{Mixer, ResNet};
use metalora::nn::{Checkpoint, Ctx, Module};
use metalora::peft::inject;
use metalora::tensor::{init, Tensor};
use metalora_autograd::Graph;

/// Inference-mode forward on a fixed input.
fn forward(m: &dyn Module, x: &Tensor) -> Tensor {
    let mut g = Graph::inference();
    let xv = g.input(x.clone());
    let y = m.forward(&mut g, xv, &Ctx::none()).unwrap();
    g.value(y)
}

fn assert_bitwise(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// Save `src` to disk, load it back, apply into `dst`, then demand
/// bitwise-equal parameters, buffers, and forward outputs.
fn roundtrip(src: &dyn Module, dst: &dyn Module, x: &Tensor, tag: &str) {
    let path = std::env::temp_dir().join(format!("metalora_roundtrip_{tag}.json"));
    Checkpoint::capture(src).unwrap().save(&path).unwrap();
    let loaded = Checkpoint::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    loaded.apply(dst).unwrap();

    let (mut sp, mut dp) = (src.params(), dst.params());
    sp.extend(src.buffers());
    dp.extend(dst.buffers());
    assert_eq!(sp.len(), dp.len(), "{tag}: parameter count");
    for (a, b) in sp.iter().zip(&dp) {
        assert_eq!(a.name(), b.name(), "{tag}: parameter order");
        assert_bitwise(&a.value(), &b.value(), &format!("{tag}/{}", a.name()));
    }
    assert_bitwise(&forward(src, x), &forward(dst, x), &format!("{tag}: forward"));
}

#[test]
fn resnet_checkpoint_roundtrips_bitwise() {
    let cfg = ExperimentConfig::quick();
    let src = ResNet::new(&cfg.resnet(), &mut init::rng(1)).unwrap();
    let dst = ResNet::new(&cfg.resnet(), &mut init::rng(2)).unwrap();
    let x = init::uniform(&[2, 3, cfg.image_size, cfg.image_size], -1.0, 1.0, &mut init::rng(3));
    // Move the batch-norm running stats off their init so the buffers
    // carry real state through the file.
    let mut g = Graph::new();
    let xv = g.input(x.clone());
    src.forward(&mut g, xv, &Ctx::none()).unwrap();
    roundtrip(&src, &dst, &x, "resnet");
}

#[test]
fn mixer_checkpoint_roundtrips_bitwise() {
    let cfg = ExperimentConfig::quick();
    let src = Mixer::new(&cfg.mixer(), &mut init::rng(4)).unwrap();
    let dst = Mixer::new(&cfg.mixer(), &mut init::rng(5)).unwrap();
    let x = init::uniform(&[2, 3, cfg.image_size, cfg.image_size], -1.0, 1.0, &mut init::rng(6));
    roundtrip(&src, &dst, &x, "mixer");
}

#[test]
fn injected_lora_checkpoint_roundtrips_bitwise() {
    let cfg = ExperimentConfig::quick();
    let lora = cfg.lora_config();
    let mut src = ResNet::new(&cfg.resnet(), &mut init::rng(7)).unwrap();
    let inj = inject::lora(&mut src, lora, &mut init::rng(8));
    // Non-zero up-projections so the adapters actually shape the output.
    let mut rng = init::rng(9);
    for p in &inj.adapter_params {
        if p.name().contains("_b") {
            p.set_value(init::uniform(&p.dims(), -0.5, 0.5, &mut rng));
        }
    }
    let mut dst = ResNet::new(&cfg.resnet(), &mut init::rng(10)).unwrap();
    inject::lora(&mut dst, lora, &mut init::rng(11));
    let x = init::uniform(&[2, 3, cfg.image_size, cfg.image_size], -1.0, 1.0, &mut init::rng(12));
    roundtrip(&src, &dst, &x, "resnet_lora");
}

#[test]
fn non_finite_values_in_a_checkpoint_file_are_an_error() {
    let cfg = ExperimentConfig::quick();
    let model = Mixer::new(&cfg.mixer(), &mut init::rng(16)).unwrap();
    let json = Checkpoint::capture(&model).unwrap().to_json().unwrap();
    // Hand-edit the first stored value: `1e39` overflows f32 to `inf`, and
    // `1e400` is already `inf` as an f64.
    let first = json.find("\"data\":[").unwrap() + "\"data\":[".len();
    let end = first + json[first..].find([',', ']']).unwrap();
    for literal in ["1e39", "-1e39", "1e400"] {
        let edited = format!("{}{literal}{}", &json[..first], &json[end..]);
        let err = Checkpoint::from_json(&edited).unwrap_err();
        assert!(err.to_string().contains("element 0"), "{literal}: {err}");
        let path = std::env::temp_dir().join(format!("metalora_non_finite_{literal}.json"));
        std::fs::write(&path, &edited).unwrap();
        let loaded = Checkpoint::load(&path);
        let _ = std::fs::remove_file(&path);
        assert!(loaded.is_err(), "{literal}: loaded");
    }
}

#[test]
fn partial_apply_warm_starts_injected_model_from_base_checkpoint() {
    let cfg = ExperimentConfig::quick();
    let base = ResNet::new(&cfg.resnet(), &mut init::rng(13)).unwrap();
    let n_base = base.params().len() + base.buffers().len();
    let ck = Checkpoint::capture(&base).unwrap();

    let mut injected = ResNet::new(&cfg.resnet(), &mut init::rng(14)).unwrap();
    inject::lora(&mut injected, cfg.lora_config(), &mut init::rng(15));
    // Strict apply must refuse (adapter params missing from the file)…
    assert!(ck.apply(&injected).is_err());
    // …while partial apply restores exactly the base set.
    assert_eq!(ck.apply_partial(&injected).unwrap(), n_base);
}
