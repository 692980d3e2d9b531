//! Parameter checkpointing: capture a module's parameters by name,
//! restore them into a freshly built module, and persist them as JSON.
//!
//! Names come from each [`ParamRef`]'s hierarchical name, so a checkpoint
//! taken from a pretrained backbone restores into any architecturally
//! identical instance — including one that has since been PEFT-injected
//! (adapter parameters simply use their own names).

use crate::module::Module;
use crate::Result;
use metalora_autograd::ParamRef;
use metalora_tensor::{Tensor, TensorError};
use std::collections::BTreeMap;
use std::path::Path;

/// A named snapshot of parameter values.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Checkpoint {
    entries: BTreeMap<String, Tensor>,
}

impl Checkpoint {
    /// Captures every parameter **and buffer** (batch-norm running
    /// statistics) of a module. Errors if two entries share a name
    /// (checkpoints must be unambiguous).
    pub fn capture(module: &dyn Module) -> Result<Self> {
        let mut all = module.params();
        all.extend(module.buffers());
        Self::from_params(&all)
    }

    /// Captures an explicit parameter list.
    pub fn from_params(params: &[ParamRef]) -> Result<Self> {
        let mut entries = BTreeMap::new();
        for p in params {
            let name = p.name();
            if entries.insert(name.clone(), p.value()).is_some() {
                return Err(TensorError::InvalidArgument(format!(
                    "duplicate parameter name `{name}` in checkpoint"
                )));
            }
        }
        Ok(Checkpoint { entries })
    }

    /// Number of stored tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stored names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Looks up one tensor by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Pairs every parameter and buffer of `module` with its checkpoint
    /// entry and checks every shape, writing nothing: a load either
    /// commits whole or leaves the module untouched. `strict` also rejects
    /// a parameter the checkpoint lacks.
    fn matched(
        &self,
        module: &dyn Module,
        op: &'static str,
        strict: bool,
    ) -> Result<Vec<(ParamRef, &Tensor)>> {
        let mut params = module.params();
        params.extend(module.buffers());
        let mut pairs = Vec::with_capacity(params.len());
        for p in params {
            let name = p.name();
            match self.entries.get(&name) {
                Some(t) if t.dims() != p.dims() => {
                    return Err(TensorError::ShapeMismatch {
                        op,
                        lhs: t.dims().to_vec(),
                        rhs: p.dims(),
                    })
                }
                Some(t) => pairs.push((p, t)),
                None if strict => {
                    return Err(TensorError::InvalidArgument(format!(
                        "checkpoint missing parameter `{name}`"
                    )))
                }
                None => {}
            }
        }
        Ok(pairs)
    }

    /// Restores values into a module **strictly**: every module parameter
    /// and buffer must exist in the checkpoint with a matching shape, and
    /// every checkpoint entry must be consumed. On `Err` no value of the
    /// module has changed.
    pub fn apply(&self, module: &dyn Module) -> Result<()> {
        let pairs = self.matched(module, "checkpoint apply", true)?;
        if pairs.len() != self.entries.len() {
            return Err(TensorError::InvalidArgument(format!(
                "checkpoint has {} entries but module consumed {}",
                self.entries.len(),
                pairs.len()
            )));
        }
        for (p, t) in pairs {
            p.set_value(t.clone());
        }
        Ok(())
    }

    /// Restores values **partially**: parameters present in the checkpoint
    /// (by name, with matching shape) are loaded; everything else is left
    /// untouched. Returns how many parameters were loaded; on `Err` (a
    /// shared name with a different shape) none was. Used to warm-start an
    /// injected model from its pretrained base checkpoint.
    pub fn apply_partial(&self, module: &dyn Module) -> Result<usize> {
        let pairs = self.matched(module, "checkpoint apply_partial", false)?;
        for (p, t) in &pairs {
            p.set_value((*t).clone());
        }
        Ok(pairs.len())
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> std::result::Result<String, std::io::Error> {
        serde_json::to_string(self).map_err(std::io::Error::other)
    }

    /// Parses from JSON.
    pub fn from_json(s: &str) -> std::result::Result<Self, std::io::Error> {
        serde_json::from_str(s).map_err(std::io::Error::other)
    }

    /// Writes the checkpoint to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::result::Result<(), std::io::Error> {
        std::fs::write(path, self.to_json()?)
    }

    /// Reads a checkpoint from a file.
    pub fn load(path: impl AsRef<Path>) -> std::result::Result<Self, std::io::Error> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Mlp, MlpConfig};
    use metalora_tensor::init;

    fn mlp(seed: u64) -> Mlp {
        Mlp::new(
            "m",
            &MlpConfig {
                in_dim: 4,
                hidden: vec![6],
                out_dim: 3,
            },
            &mut init::rng(seed),
        )
    }

    #[test]
    fn capture_apply_roundtrip() {
        let a = mlp(1);
        let b = mlp(2); // different init
        let ck = Checkpoint::capture(&a).unwrap();
        assert_eq!(ck.len(), 4); // 2 layers × (weight + bias)
        assert!(!ck.is_empty());
        ck.apply(&b).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert!(metalora_tensor::approx_eq(&pa.value(), &pb.value(), 0.0));
        }
    }

    #[test]
    fn apply_preserves_trainable_flags() {
        let a = mlp(3);
        let b = mlp(4);
        b.set_trainable(false);
        Checkpoint::capture(&a).unwrap().apply(&b).unwrap();
        assert_eq!(b.num_trainable_params(), 0);
    }

    #[test]
    fn apply_rejects_missing_and_mismatched() {
        let a = mlp(5);
        let ck = Checkpoint::capture(&a).unwrap();
        let other = Mlp::new(
            "other", // different name prefix → missing entries
            &MlpConfig {
                in_dim: 4,
                hidden: vec![6],
                out_dim: 3,
            },
            &mut init::rng(6),
        );
        assert!(ck.apply(&other).is_err());
        let bigger = Mlp::new(
            "m",
            &MlpConfig {
                in_dim: 5, // shape mismatch
                hidden: vec![6],
                out_dim: 3,
            },
            &mut init::rng(7),
        );
        assert!(ck.apply(&bigger).is_err());
    }

    fn bits(m: &Mlp) -> Vec<Vec<u32>> {
        m.params()
            .iter()
            .map(|p| p.value().data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn a_failed_apply_leaves_every_value_untouched() {
        // The mismatch sits on the last parameter, behind three that match.
        let mut all = mlp(20).params();
        let last = all.pop().unwrap();
        all.push(ParamRef::new(last.name(), Tensor::zeros(&[last.len() + 1])));
        let ck = Checkpoint::from_params(&all).unwrap();
        let target = mlp(21);
        let before = bits(&target);
        assert!(ck.apply(&target).is_err());
        assert_eq!(bits(&target), before);
        assert!(ck.apply_partial(&target).is_err());
        assert_eq!(bits(&target), before);
    }

    #[test]
    fn a_missing_last_parameter_leaves_every_value_untouched() {
        let source = mlp(22);
        let mut all = source.params();
        all.pop();
        let ck = Checkpoint::from_params(&all).unwrap();
        let target = mlp(23);
        let before = bits(&target);
        assert!(ck.apply(&target).is_err());
        assert_eq!(bits(&target), before);
        // Partial loading of the same checkpoint is legal and loads the rest.
        assert_eq!(ck.apply_partial(&target).unwrap(), 3);
    }

    #[test]
    fn apply_partial_warm_starts_subset() {
        let a = mlp(8);
        let ck = Checkpoint::capture(&a).unwrap();
        let other = Mlp::new(
            "other",
            &MlpConfig {
                in_dim: 4,
                hidden: vec![6],
                out_dim: 3,
            },
            &mut init::rng(9),
        );
        // No shared names: 0 loaded, no error.
        assert_eq!(ck.apply_partial(&other).unwrap(), 0);
        // Same names: all loaded.
        let b = mlp(10);
        assert_eq!(ck.apply_partial(&b).unwrap(), 4);
    }

    #[test]
    fn checkpoint_includes_batch_norm_buffers() {
        use crate::layers::BatchNorm2d;
        use metalora_autograd::Graph;
        use crate::module::Ctx;

        let bn = BatchNorm2d::new("bn", 2);
        // Run one training forward so the running stats move off init.
        let mut g = Graph::new();
        let x = g.input(init::normal(&[4, 2, 3, 3], 5.0, 1.0, &mut init::rng(0)));
        bn.forward(&mut g, x, &Ctx::none()).unwrap();
        let (rm, rv) = bn.running_stats();

        let ck = Checkpoint::capture(&bn).unwrap();
        assert_eq!(ck.len(), 4, "gamma, beta + 2 buffers");
        // Restore into a fresh layer: stats must carry over.
        let fresh = BatchNorm2d::new("bn", 2);
        ck.apply(&fresh).unwrap();
        let (rm2, rv2) = fresh.running_stats();
        assert!(metalora_tensor::approx_eq(&rm, &rm2, 0.0));
        assert!(metalora_tensor::approx_eq(&rv, &rv2, 0.0));
    }

    #[test]
    fn duplicate_names_rejected() {
        let p = ParamRef::new("w", Tensor::zeros(&[1]));
        let q = ParamRef::new("w", Tensor::ones(&[1]));
        assert!(Checkpoint::from_params(&[p, q]).is_err());
    }

    #[test]
    fn json_and_file_roundtrip() {
        let a = mlp(11);
        let ck = Checkpoint::capture(&a).unwrap();
        let json = ck.to_json().unwrap();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(back.names(), ck.names());
        assert!(back.get("m.fc0.weight").is_some());
        assert!(back.get("nope").is_none());

        let dir = std::env::temp_dir().join("metalora_ck_test.json");
        ck.save(&dir).unwrap();
        let loaded = Checkpoint::load(&dir).unwrap();
        assert_eq!(loaded.len(), ck.len());
        let _ = std::fs::remove_file(dir);
    }
}
