//! Analytic cost evaluation for the figure experiments.
//!
//! The paper's §7 metric is "the number of HVE bilinear map pairing
//! operations incurred by each technique", presented as absolute counts
//! and as percentage improvement over the basic fixed-length scheme of
//! \[14\]. Evaluating a token with `k` non-star bits against one ciphertext
//! costs `1 + 2k` pairings (§2.1), so workload costs are computable
//! without running cryptography; `AlertSystem` tests prove these numbers
//! equal the live engine's counters.

use sla_encoding::CellCodebook;

/// Cost of one encoder on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCost {
    /// Encoder name.
    pub encoder: String,
    /// Workload label.
    pub workload: String,
    /// Total tokens issued across all zones.
    pub tokens: u64,
    /// Total non-star bits across all tokens.
    pub non_star_bits: u64,
    /// Total pairings against `n_ciphertexts` ciphertexts per zone.
    pub pairings: u64,
}

impl WorkloadCost {
    /// Percentage improvement of `self` over a baseline cost (the paper's
    /// y-axis in Figs. 9b/10/11/12): `100·(base − self)/base`.
    pub fn improvement_vs(&self, baseline: &WorkloadCost) -> f64 {
        if baseline.pairings == 0 {
            return 0.0;
        }
        100.0 * (baseline.pairings as f64 - self.pairings as f64) / baseline.pairings as f64
    }
}

/// Evaluates one codebook over a batch of alert zones (cell-index lists)
/// against `n_ciphertexts` stored ciphertexts per zone.
pub fn evaluate_workload(
    codebook: &CellCodebook,
    workload_label: &str,
    zones: &[Vec<usize>],
    n_ciphertexts: u64,
) -> WorkloadCost {
    let mut tokens = 0u64;
    let mut non_star_bits = 0u64;
    let mut pairings = 0u64;
    for zone in zones {
        let patterns = codebook.tokens_for(zone);
        tokens += patterns.len() as u64;
        non_star_bits += patterns
            .iter()
            .map(|p| p.non_star_count() as u64)
            .sum::<u64>();
        pairings += patterns
            .iter()
            .map(|p| 1 + 2 * p.non_star_count() as u64)
            .sum::<u64>()
            * n_ciphertexts;
    }
    WorkloadCost {
        encoder: codebook.kind().name(),
        workload: workload_label.to_string(),
        tokens,
        non_star_bits,
        pairings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_encoding::EncoderKind;

    #[test]
    fn cost_arithmetic() {
        let probs = [0.1, 0.2, 0.5, 0.4, 0.6];
        let cb = CellCodebook::build(EncoderKind::Huffman, &probs);
        // §3.3 example zone: cells with indexes 001,100,110 -> tokens
        // {001, 1**}: 2 tokens, 4 non-star bits, (7+3) pairings/ct.
        let cost = evaluate_workload(&cb, "paper", &[vec![1, 2, 4]], 100);
        assert_eq!(cost.tokens, 2);
        assert_eq!(cost.non_star_bits, 4);
        assert_eq!(cost.pairings, 1_000);
    }

    #[test]
    fn improvement_percentage() {
        let a = WorkloadCost {
            encoder: "huffman".into(),
            workload: "w".into(),
            tokens: 1,
            non_star_bits: 1,
            pairings: 60,
        };
        let b = WorkloadCost {
            encoder: "basic".into(),
            workload: "w".into(),
            tokens: 2,
            non_star_bits: 4,
            pairings: 100,
        };
        assert!((a.improvement_vs(&b) - 40.0).abs() < 1e-12);
        assert!((b.improvement_vs(&b) - 0.0).abs() < 1e-12);
        // negative when worse
        assert!(b.improvement_vs(&a) < 0.0);
    }

    #[test]
    fn multiple_zones_accumulate() {
        let probs = [0.1, 0.2, 0.5, 0.4, 0.6];
        let cb = CellCodebook::build(EncoderKind::Huffman, &probs);
        let single = evaluate_workload(&cb, "w", &[vec![2]], 10);
        let double = evaluate_workload(&cb, "w", &[vec![2], vec![2]], 10);
        assert_eq!(double.pairings, 2 * single.pairings);
        assert_eq!(double.tokens, 2 * single.tokens);
    }
}
