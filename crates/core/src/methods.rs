//! The method axis of the evaluation: the rows of Table I plus the
//! ablation rows (full fine-tuning for A2, the static seed for A5) that
//! the same grid runs.

use serde::{Deserialize, Serialize};

/// Adaptation method — the rows of Table I plus full fine-tuning (A2) and
/// the static-seed MetaLoRA-CP (A5) ablation rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Frozen pretrained backbone, no adaptation.
    Original,
    /// One shared LoRA / Conv-LoRA per injected layer.
    Lora,
    /// A bank of adapters, one per training task, routed by feature
    /// centroid at evaluation time.
    MultiLora,
    /// MetaLoRA with CP-format integration (Eq. 6).
    MetaLoraCp,
    /// MetaLoRA with Tensor-Ring-format integration (Eq. 7).
    MetaLoraTr,
    /// Every backbone parameter trainable (A2 upper-bound ablation).
    FullFineTune,
    /// MetaLoRA-CP layers driven by one learned constant seed instead of
    /// a generated one (A5: the parameterisation without the input
    /// conditioning).
    StaticSeedCp,
}

impl Method {
    /// The five rows of Table I, in paper order.
    pub fn table1() -> [Method; 5] {
        [
            Method::Original,
            Method::Lora,
            Method::MultiLora,
            Method::MetaLoraCp,
            Method::MetaLoraTr,
        ]
    }

    /// Display name matching the paper's table.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Original => "Original",
            Method::Lora => "LoRA",
            Method::MultiLora => "Multi-LoRA",
            Method::MetaLoraCp => "Meta-LoRA CP",
            Method::MetaLoraTr => "Meta-LoRA TR",
            Method::FullFineTune => "Full fine-tune",
            Method::StaticSeedCp => "CP + static seed",
        }
    }

    /// Whether the method is one of the paper's baselines (the set the
    /// t-test compares the meta methods against).
    pub fn is_baseline(&self) -> bool {
        matches!(self, Method::Original | Method::Lora | Method::MultiLora)
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_in_paper_order() {
        let rows = Method::table1();
        assert_eq!(rows[0], Method::Original);
        assert_eq!(rows[4], Method::MetaLoraTr);
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn baseline_partition() {
        assert!(Method::Original.is_baseline());
        assert!(Method::Lora.is_baseline());
        assert!(Method::MultiLora.is_baseline());
        assert!(!Method::MetaLoraCp.is_baseline());
        assert!(!Method::MetaLoraTr.is_baseline());
        assert!(!Method::FullFineTune.is_baseline());
        assert!(!Method::StaticSeedCp.is_baseline());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Method::MetaLoraTr.to_string(), "Meta-LoRA TR");
        assert_eq!(Method::MultiLora.name(), "Multi-LoRA");
        assert_eq!(Method::StaticSeedCp.to_string(), "CP + static seed");
    }
}
