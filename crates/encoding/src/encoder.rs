//! Unified grid-encoder facade: one entry point for the paper's proposed
//! scheme and every baseline it is evaluated against (§7).

use crate::balanced::build_balanced_tree;
use crate::code::{BitString, Codeword};
use crate::coding_tree::CodingScheme;
use crate::error::EncodingError;
use crate::fixed::{gray_sgo_assignment, natural_assignment, unused_codes};
use crate::huffman::{build_bary_huffman_tree, build_huffman_tree};
use crate::minimize::minimize_to_patterns;
use crate::qm::minimize_boolean;

/// Which encoding scheme to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncoderKind {
    /// Fixed-length natural binary codes with boolean minimization —
    /// the baseline of \[14\] (all cells equally likely).
    BasicFixed,
    /// Fixed-length gray-code assignment ranked by probability with
    /// boolean minimization — approximates the SGO of \[23\].
    GraySgo,
    /// Variable-length balanced tree (probability-agnostic) with
    /// deterministic minimization — the paper's sanity baseline.
    Balanced,
    /// Binary Huffman coding tree with deterministic minimization —
    /// **the paper's proposal**.
    Huffman,
    /// B-ary Huffman with §4 expansion; `BaryHuffman(3)` is the ternary
    /// scheme of Fig. 6.
    BaryHuffman(usize),
}

impl EncoderKind {
    /// Human-readable name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            EncoderKind::BasicFixed => "basic-fixed".to_string(),
            EncoderKind::GraySgo => "sgo-gray".to_string(),
            EncoderKind::Balanced => "balanced".to_string(),
            EncoderKind::Huffman => "huffman".to_string(),
            EncoderKind::BaryHuffman(b) => format!("huffman-{b}ary"),
        }
    }

    /// All encoders compared in the paper's figures (binary alphabet).
    pub fn paper_lineup() -> Vec<EncoderKind> {
        vec![
            EncoderKind::BasicFixed,
            EncoderKind::GraySgo,
            EncoderKind::Balanced,
            EncoderKind::Huffman,
        ]
    }
}

/// How tokens are generated for an alert set.
#[derive(Debug, Clone)]
enum TokenStrategy {
    /// Algorithm 3 over a coding tree (variable-length schemes).
    Tree(CodingScheme),
    /// Quine–McCluskey boolean minimization (fixed-length schemes);
    /// unused codes serve as don't-cares.
    Boolean {
        width: usize,
        codes: Vec<u64>,
        dont_cares: Vec<u64>,
    },
}

/// A complete cell codebook: per-cell indexes plus a token-generation
/// strategy. This is the artifact the Trusted Authority builds at system
/// initialization (Fig. 3) and the single API the protocol layer needs.
#[derive(Debug, Clone)]
pub struct CellCodebook {
    kind: EncoderKind,
    width_bits: usize,
    indexes: Vec<BitString>,
    strategy: TokenStrategy,
}

impl CellCodebook {
    /// Builds the codebook for `probs[i]` = likelihood of cell `i` being
    /// alerted. Probabilities need not be normalized.
    ///
    /// # Panics
    /// Panics if `probs` is empty or invalid for the chosen scheme; use
    /// [`Self::try_build`] for a fallible version.
    pub fn build(kind: EncoderKind, probs: &[f64]) -> Self {
        Self::try_build(kind, probs).expect("invalid probability surface for codebook")
    }

    /// Fallible [`Self::build`]: rejects empty/invalid probability
    /// surfaces, degenerate B-ary arities, and any build whose codes
    /// come out unprefixable (`ZeroWidthCode` — a degenerate
    /// distribution such as a single cell must still yield a ≥ 1-bit
    /// code) with the matching [`EncodingError`] instead of panicking.
    pub fn try_build(kind: EncoderKind, probs: &[f64]) -> Result<Self, EncodingError> {
        if probs.is_empty() {
            return Err(EncodingError::EmptyProbabilities);
        }
        for (cell, &value) in probs.iter().enumerate() {
            if !(value.is_finite() && value >= 0.0) {
                return Err(EncodingError::InvalidProbability { cell, value });
            }
        }
        if let EncoderKind::BaryHuffman(arity) = kind {
            if arity < 2 {
                return Err(EncodingError::InvalidArity { arity });
            }
        }
        let built = Self::build_validated(kind, probs);
        // A zero-length index could neither be prefix-matched by a token
        // nor HVE-encrypted; the built-in encoders pad degenerate inputs
        // (single cell, one-hot mass) to 1-bit codes, and this guard
        // keeps that a hard contract for every encoder behind the facade.
        if let Some(cell) = built.indexes.iter().position(|c| c.is_empty()) {
            return Err(EncodingError::ZeroWidthCode { cell });
        }
        Ok(built)
    }

    /// Shared body of [`Self::build`]/[`Self::try_build`] on validated
    /// inputs.
    fn build_validated(kind: EncoderKind, probs: &[f64]) -> Self {
        match kind {
            EncoderKind::BasicFixed | EncoderKind::GraySgo => {
                let indexes = if kind == EncoderKind::BasicFixed {
                    natural_assignment(probs.len())
                } else {
                    gray_sgo_assignment(probs)
                };
                let width = indexes[0].len();
                let dont_cares = unused_codes(&indexes);
                let codes = indexes.iter().map(|c| c.to_u64()).collect();
                CellCodebook {
                    kind,
                    width_bits: width,
                    indexes,
                    strategy: TokenStrategy::Boolean {
                        width,
                        codes,
                        dont_cares,
                    },
                }
            }
            EncoderKind::Balanced | EncoderKind::Huffman | EncoderKind::BaryHuffman(_) => {
                let tree = match kind {
                    EncoderKind::Balanced => build_balanced_tree(probs),
                    EncoderKind::Huffman => build_huffman_tree(probs),
                    EncoderKind::BaryHuffman(b) => build_bary_huffman_tree(probs, b),
                    _ => unreachable!(),
                };
                let scheme = CodingScheme::from_tree(&tree);
                CellCodebook {
                    kind,
                    width_bits: scheme.width_bits(),
                    indexes: scheme.indexes().to_vec(),
                    strategy: TokenStrategy::Tree(scheme),
                }
            }
        }
    }

    /// The scheme that produced this codebook.
    pub fn kind(&self) -> EncoderKind {
        self.kind
    }

    /// HVE width `l` in bits (all indexes and tokens have this length —
    /// the equal-length requirement of §2).
    pub fn width_bits(&self) -> usize {
        self.width_bits
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.indexes.len()
    }

    /// The index users in `cell` encrypt.
    pub fn index_of(&self, cell: usize) -> &BitString {
        &self.indexes[cell]
    }

    /// All indexes.
    pub fn indexes(&self) -> &[BitString] {
        &self.indexes
    }

    /// Generates minimized token patterns for an alert set.
    ///
    /// # Panics
    /// Panics on out-of-range cells; use [`Self::try_tokens_for`] for a
    /// fallible version.
    pub fn tokens_for(&self, alert_cells: &[usize]) -> Vec<Codeword> {
        for &c in alert_cells {
            assert!(c < self.n_cells(), "cell {c} out of range");
        }
        self.tokens_for_validated(alert_cells)
    }

    /// Fallible [`Self::tokens_for`]: `Err(EncodingError::CellOutOfRange)`
    /// on the first out-of-range alert cell.
    pub fn try_tokens_for(&self, alert_cells: &[usize]) -> Result<Vec<Codeword>, EncodingError> {
        for &cell in alert_cells {
            if cell >= self.n_cells() {
                return Err(EncodingError::CellOutOfRange {
                    cell,
                    n_cells: self.n_cells(),
                });
            }
        }
        Ok(self.tokens_for_validated(alert_cells))
    }

    /// Shared body of the token generators on validated cells.
    fn tokens_for_validated(&self, alert_cells: &[usize]) -> Vec<Codeword> {
        match &self.strategy {
            TokenStrategy::Tree(scheme) => minimize_to_patterns(scheme, alert_cells),
            TokenStrategy::Boolean {
                width,
                codes,
                dont_cares,
            } => {
                let mut minterms: Vec<u64> = alert_cells.iter().map(|&c| codes[c]).collect();
                minterms.sort_unstable();
                minterms.dedup();
                minimize_boolean(&minterms, dont_cares, *width)
            }
        }
    }

    /// Total pairing operations to evaluate the alert against
    /// `num_ciphertexts` ciphertexts (the paper's Figure 9–12 metric).
    pub fn pairing_cost(&self, alert_cells: &[usize], num_ciphertexts: u64) -> u64 {
        crate::minimize::pairing_cost(&self.tokens_for(alert_cells), num_ciphertexts)
    }

    /// Verification helper: token set must cover exactly the alert set
    /// ([`crate::minimize::coverage_errors`] over this codebook's indexes).
    pub fn coverage_errors(
        &self,
        tokens: &[Codeword],
        alert_cells: &[usize],
    ) -> (Vec<usize>, Vec<usize>) {
        crate::minimize::coverage_errors(&self.indexes, tokens, alert_cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG4_PROBS: [f64; 5] = [0.1, 0.2, 0.5, 0.4, 0.6];

    fn all_kinds() -> Vec<EncoderKind> {
        vec![
            EncoderKind::BasicFixed,
            EncoderKind::GraySgo,
            EncoderKind::Balanced,
            EncoderKind::Huffman,
            EncoderKind::BaryHuffman(3),
            EncoderKind::BaryHuffman(4),
        ]
    }

    #[test]
    fn all_encoders_cover_exactly() {
        for kind in all_kinds() {
            let cb = CellCodebook::build(kind, &FIG4_PROBS);
            for mask in 0u32..32 {
                let alert: Vec<usize> = (0..5).filter(|&c| (mask >> c) & 1 == 1).collect();
                let tokens = cb.tokens_for(&alert);
                let (missed, fp) = cb.coverage_errors(&tokens, &alert);
                assert!(
                    missed.is_empty() && fp.is_empty(),
                    "{}: mask {mask:#b} missed={missed:?} fp={fp:?}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn indexes_have_uniform_width() {
        for kind in all_kinds() {
            let cb = CellCodebook::build(kind, &FIG4_PROBS);
            for cell in 0..cb.n_cells() {
                assert_eq!(cb.index_of(cell).len(), cb.width_bits(), "{}", kind.name());
            }
        }
    }

    #[test]
    fn tokens_have_codebook_width() {
        for kind in all_kinds() {
            let cb = CellCodebook::build(kind, &FIG4_PROBS);
            for tokens in [cb.tokens_for(&[0]), cb.tokens_for(&[1, 2, 4])] {
                for t in tokens {
                    assert_eq!(t.len(), cb.width_bits(), "{}", kind.name());
                }
            }
        }
    }

    #[test]
    fn huffman_beats_balanced_on_skewed_single_cell() {
        // The most likely cell gets the shortest Huffman code, so single-
        // cell alerts on it are cheaper than under the balanced tree.
        let probs = [0.01, 0.01, 0.02, 0.9, 0.03, 0.01, 0.01, 0.01];
        let huff = CellCodebook::build(EncoderKind::Huffman, &probs);
        let bal = CellCodebook::build(EncoderKind::Balanced, &probs);
        let hot_cell = 3;
        assert!(
            huff.pairing_cost(&[hot_cell], 1) < bal.pairing_cost(&[hot_cell], 1),
            "huffman {} vs balanced {}",
            huff.pairing_cost(&[hot_cell], 1),
            bal.pairing_cost(&[hot_cell], 1)
        );
    }

    #[test]
    fn basic_fixed_ignores_probabilities() {
        let cb1 = CellCodebook::build(EncoderKind::BasicFixed, &[0.9, 0.05, 0.05]);
        let cb2 = CellCodebook::build(EncoderKind::BasicFixed, &[0.05, 0.05, 0.9]);
        assert_eq!(cb1.indexes(), cb2.indexes());
    }

    #[test]
    fn try_build_and_try_tokens_for_return_typed_errors() {
        assert_eq!(
            CellCodebook::try_build(EncoderKind::Huffman, &[]).unwrap_err(),
            EncodingError::EmptyProbabilities
        );
        assert!(matches!(
            CellCodebook::try_build(EncoderKind::Huffman, &[0.5, f64::NAN]),
            Err(EncodingError::InvalidProbability { cell: 1, .. })
        ));
        assert_eq!(
            CellCodebook::try_build(EncoderKind::BaryHuffman(1), &FIG4_PROBS).unwrap_err(),
            EncodingError::InvalidArity { arity: 1 }
        );

        let cb = CellCodebook::try_build(EncoderKind::Huffman, &FIG4_PROBS).unwrap();
        assert_eq!(
            cb.try_tokens_for(&[1, 9]).unwrap_err(),
            EncodingError::CellOutOfRange {
                cell: 9,
                n_cells: 5
            }
        );
        assert_eq!(cb.try_tokens_for(&[1, 2]).unwrap(), cb.tokens_for(&[1, 2]));
    }

    #[test]
    fn degenerate_distributions_yield_prefixable_codes() {
        // A single cell, a one-hot surface, and an all-zero surface are
        // the degenerate inputs that could tempt an encoder into a
        // zero-length "code"; every kind must instead produce uniform
        // ≥ 1-bit indexes that still cover exactly.
        let surfaces: [&[f64]; 4] = [&[1.0], &[0.0], &[1.0, 0.0], &[1.0, 0.0, 0.0, 0.0]];
        for kind in all_kinds() {
            for probs in surfaces {
                let cb = CellCodebook::try_build(kind, probs)
                    .unwrap_or_else(|e| panic!("{} over {probs:?}: {e}", kind.name()));
                assert!(
                    cb.width_bits() >= 1,
                    "{} over {probs:?}: zero-width codebook",
                    kind.name()
                );
                for cell in 0..cb.n_cells() {
                    assert_eq!(
                        cb.index_of(cell).len(),
                        cb.width_bits(),
                        "{} over {probs:?}: cell {cell} has a non-uniform code",
                        kind.name()
                    );
                }
                // Single-cell alerts on every cell still cover exactly.
                for cell in 0..cb.n_cells() {
                    let tokens = cb.try_tokens_for(&[cell]).unwrap();
                    assert!(!tokens.is_empty());
                    let (missed, fp) = cb.coverage_errors(&tokens, &[cell]);
                    assert!(
                        missed.is_empty() && fp.is_empty(),
                        "{} over {probs:?}: cell {cell} missed={missed:?} fp={fp:?}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EncoderKind::Huffman.name(), "huffman");
        assert_eq!(EncoderKind::BaryHuffman(3).name(), "huffman-3ary");
        assert_eq!(EncoderKind::paper_lineup().len(), 4);
    }
}
