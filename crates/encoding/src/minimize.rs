//! Algorithm 3: **deterministic minimization** of alert-zone tokens on the
//! coding tree.
//!
//! Instead of boolean minimization over fixed-length codes, alerted cells
//! are mapped to their leaf codewords (unique by Thm 2), split into
//! clusters of *consecutive* leaves (tree order), and each cluster is
//! greedily covered by the deepest common subtree roots whose leaf sets are
//! fully alerted — "all leaves under a common subtree root must be alerted;
//! otherwise ... a user would be falsely notified".

use crate::code::{BitString, Codeword};
use crate::coding_tree::{CharWord, CodingScheme};

/// Runs Algorithm 3: returns the minimized token codewords (character
/// level) for the given set of alerted cells.
///
/// Duplicate cells are tolerated; output order follows tree order. An empty
/// alert set yields no tokens.
///
/// # Panics
/// Panics if any cell id is out of range.
pub fn minimize_tokens(scheme: &CodingScheme, alert_cells: &[usize]) -> Vec<CharWord> {
    let rl = scheme.reference_length();

    // Map alert cells to leaf positions (lines 6-10) and sort so that
    // clusters of consecutive leaves are maximal.
    let mut positions: Vec<usize> = alert_cells
        .iter()
        .map(|&c| {
            assert!(c < scheme.n_cells(), "cell {c} out of range");
            scheme.leaf_position(c)
        })
        .collect();
    positions.sort_unstable();
    positions.dedup();

    // Split into clusters of consecutive positions (lines 11-20).
    let mut clusters: Vec<&[usize]> = Vec::new();
    let mut start = 0;
    for i in 1..=positions.len() {
        if i == positions.len() || positions[i] != positions[i - 1] + 1 {
            clusters.push(&positions[start..i]);
            start = i;
        }
    }

    // Greedy maximal-subtree covering per cluster (lines 21-37).
    let mut tokens = Vec::new();
    for cluster_positions in clusters {
        let words: Vec<CharWord> = cluster_positions
            .iter()
            .map(|&p| scheme.leaves()[p].clone())
            .collect();
        let mut lo = 0;
        while lo < words.len() {
            let mut l = words.len() - lo;
            loop {
                if l == 1 {
                    tokens.push(words[lo].clone());
                    lo += 1;
                    break;
                }
                let prefix = CharWord::common_prefix(&words[lo..lo + l]);
                let padded = prefix.pad_stars_to(rl);
                if scheme.parent_dict().get(&padded) == Some(&l) {
                    tokens.push(padded);
                    lo += l;
                    break;
                }
                l -= 1;
            }
        }
    }
    tokens
}

/// Convenience: minimize and expand to bit-level HVE patterns.
pub fn minimize_to_patterns(scheme: &CodingScheme, alert_cells: &[usize]) -> Vec<Codeword> {
    minimize_tokens(scheme, alert_cells)
        .iter()
        .map(|w| scheme.expand_codeword(w))
        .collect()
}

/// Test/verification helper: checks that a token set covers **exactly** the
/// alert set over a code's per-cell `indexes` — every alerted cell's index
/// matches some token, and no non-alerted cell's index matches any token.
/// Returns the misclassified cells `(missed, false_positives)`.
pub fn coverage_errors(
    indexes: &[BitString],
    tokens: &[Codeword],
    alert_cells: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let alerted: std::collections::HashSet<usize> = alert_cells.iter().copied().collect();
    let mut missed = Vec::new();
    let mut false_pos = Vec::new();
    for (cell, index) in indexes.iter().enumerate() {
        let covered = tokens.iter().any(|t| t.matches(index));
        if alerted.contains(&cell) && !covered {
            missed.push(cell);
        }
        if !alerted.contains(&cell) && covered {
            false_pos.push(cell);
        }
    }
    (missed, false_pos)
}

/// Total number of non-star *bits* across expanded tokens — the HVE cost
/// driver ("the number of expensive bilinear maps is proportional to the
/// count of non-star bits", §2.1).
pub fn non_star_cost(patterns: &[Codeword]) -> u64 {
    patterns.iter().map(|p| p.non_star_count() as u64).sum()
}

/// Pairing operations for evaluating `patterns` against `num_ciphertexts`
/// ciphertexts: each (token, ciphertext) evaluation costs `1 + 2·non_star`
/// pairings (§2.1, Eq. 2).
pub fn pairing_cost(patterns: &[Codeword], num_ciphertexts: u64) -> u64 {
    patterns
        .iter()
        .map(|p| 1 + 2 * p.non_star_count() as u64)
        .sum::<u64>()
        * num_ciphertexts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding_tree::CodingScheme;
    use crate::huffman::{build_bary_huffman_tree, build_huffman_tree};

    const FIG4_PROBS: [f64; 5] = [0.1, 0.2, 0.5, 0.4, 0.6];

    fn fig4_scheme() -> CodingScheme {
        CodingScheme::from_tree(&build_huffman_tree(&FIG4_PROBS))
    }

    #[test]
    fn paper_running_example() {
        // §3.3: alert cells with indexes [001, 100, 110] map to leaves
        // [001, 10*, 11*]; clusters [001] and [10*, 11*]; tokens
        // {001, 1**}. Index 001 belongs to cell 1 under Algorithm 2's
        // deterministic child order (see coding_tree tests).
        let scheme = fig4_scheme();
        let tokens = minimize_tokens(&scheme, &[1, 2, 4]);
        let strs: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        assert_eq!(strs, vec!["001", "1**"]);
    }

    #[test]
    fn full_grid_collapses_to_root() {
        let scheme = fig4_scheme();
        let tokens = minimize_tokens(&scheme, &[0, 1, 2, 3, 4]);
        let strs: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        assert_eq!(strs, vec!["***"]);
    }

    #[test]
    fn single_cell_uses_leaf_codeword() {
        let scheme = fig4_scheme();
        let tokens = minimize_tokens(&scheme, &[4]);
        let strs: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        assert_eq!(strs, vec!["11*"]);
    }

    #[test]
    fn subtree_cluster_compresses() {
        // v2 (000) and v1 (001) are the two leaves of subtree 00*.
        let scheme = fig4_scheme();
        let tokens = minimize_tokens(&scheme, &[0, 1]);
        let strs: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        assert_eq!(strs, vec!["00*"]);
    }

    #[test]
    fn consecutive_but_not_a_subtree_stays_split() {
        // Leaves 01* (v4) and 10* (v3) are consecutive in tree order but
        // their common ancestor (the root) has 5 leaves, so they cannot
        // merge.
        let scheme = fig4_scheme();
        let tokens = minimize_tokens(&scheme, &[3, 2]);
        let strs: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        assert_eq!(strs, vec!["01*", "10*"]);
    }

    #[test]
    fn left_branch_collapses() {
        // v2, v1, v4 are exactly the 3 leaves of subtree 0**.
        let scheme = fig4_scheme();
        let tokens = minimize_tokens(&scheme, &[0, 1, 3]);
        let strs: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        assert_eq!(strs, vec!["0**"]);
    }

    #[test]
    fn empty_and_duplicate_inputs() {
        let scheme = fig4_scheme();
        assert!(minimize_tokens(&scheme, &[]).is_empty());
        let tokens = minimize_tokens(&scheme, &[2, 2, 2]);
        assert_eq!(tokens.len(), 1);
    }

    #[test]
    fn coverage_is_exact_for_all_32_subsets() {
        // Exhaustive: every subset of the 5-cell grid must be covered
        // exactly (no false positives / negatives) after expansion.
        let scheme = fig4_scheme();
        for mask in 0u32..32 {
            let alert: Vec<usize> = (0..5).filter(|&c| (mask >> c) & 1 == 1).collect();
            let patterns = minimize_to_patterns(&scheme, &alert);
            let (missed, false_pos) = coverage_errors(scheme.indexes(), &patterns, &alert);
            assert!(missed.is_empty(), "mask {mask:#b}: missed {missed:?}");
            assert!(
                false_pos.is_empty(),
                "mask {mask:#b}: false positives {false_pos:?}"
            );
        }
    }

    #[test]
    fn ternary_coverage_exact() {
        let tree = build_bary_huffman_tree(&FIG4_PROBS, 3);
        let scheme = CodingScheme::from_tree(&tree);
        for mask in 0u32..32 {
            let alert: Vec<usize> = (0..5).filter(|&c| (mask >> c) & 1 == 1).collect();
            let patterns = minimize_to_patterns(&scheme, &alert);
            let (missed, false_pos) = coverage_errors(scheme.indexes(), &patterns, &alert);
            assert!(missed.is_empty() && false_pos.is_empty(), "mask {mask:#b}");
        }
    }

    #[test]
    fn cost_helpers() {
        let scheme = fig4_scheme();
        let patterns = minimize_to_patterns(&scheme, &[0, 2, 4]);
        // tokens 001 (3 non-star) + 1** (1 non-star) = 4 non-star bits
        assert_eq!(non_star_cost(&patterns), 4);
        // pairing cost per ciphertext: (1+2*3) + (1+2*1) = 10
        assert_eq!(pairing_cost(&patterns, 1), 10);
        assert_eq!(pairing_cost(&patterns, 7), 70);
    }

    #[test]
    fn aggregation_reduces_cost_versus_naive() {
        // §2.2: aggregating tokens must never cost more than one token per
        // alerted cell.
        let scheme = fig4_scheme();
        for mask in 1u32..32 {
            let alert: Vec<usize> = (0..5).filter(|&c| (mask >> c) & 1 == 1).collect();
            let patterns = minimize_to_patterns(&scheme, &alert);
            let naive: u64 = alert
                .iter()
                .map(|&c| 1 + 2 * scheme.index_of(c).len() as u64)
                .sum();
            assert!(
                pairing_cost(&patterns, 1) <= naive,
                "mask {mask:#b}: {} > {naive}",
                pairing_cost(&patterns, 1)
            );
        }
    }
}
