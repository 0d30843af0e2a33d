//! The coding scheme of Algorithm 1: grid **indexes** (zero-padded prefix
//! codes used by mobile users) and the **coding tree** (star-padded
//! codewords used by the TA for token minimization), plus the §4 expansion
//! of B-ary characters to bit vectors.

use crate::code::{BitString, Codeword, Symbol};
use crate::prefix_tree::PrefixTree;
use std::collections::HashMap;
use std::fmt;

/// A codeword at B-ary *character* granularity: `Some(c)` is character
/// `c ∈ 0..B`, `None` is the star character. For the binary alphabet this
/// coincides with [`Codeword`]; for `B > 2` it is the pre-expansion form of
/// §4.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CharWord(Vec<Option<u8>>);

impl CharWord {
    /// Builds from raw characters.
    pub fn from_chars(chars: &[Option<u8>]) -> Self {
        CharWord(chars.to_vec())
    }

    /// The characters.
    pub fn chars(&self) -> &[Option<u8>] {
        &self.0
    }

    /// Length in characters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the empty word.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of non-star characters.
    pub fn non_star_count(&self) -> usize {
        self.0.iter().filter(|c| c.is_some()).count()
    }

    /// Right-pads with stars to `len`.
    pub fn pad_stars_to(&self, len: usize) -> Self {
        let mut v = self.0.clone();
        while v.len() < len {
            v.push(None);
        }
        CharWord(v)
    }

    /// Longest common prefix of a slice of words (raw characters, stars
    /// included) — Alg. 3 line 26.
    pub fn common_prefix(words: &[CharWord]) -> CharWord {
        let Some(first) = words.first() else {
            return CharWord(Vec::new());
        };
        let mut len = first.len();
        for w in &words[1..] {
            let mut i = 0;
            while i < len && i < w.len() && w.0[i] == first.0[i] {
                i += 1;
            }
            len = i;
        }
        CharWord(first.0[..len].to_vec())
    }
}

impl fmt::Display for CharWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.0 {
            match c {
                Some(v) => write!(f, "{v}")?,
                None => f.write_str("*")?,
            }
        }
        Ok(())
    }
}

/// The full coding scheme produced by Algorithm 1 from a prefix tree:
/// per-cell indexes, the coding tree (leaf codewords + `parentDict`) and
/// the expansion machinery for B-ary alphabets.
#[derive(Debug, Clone)]
pub struct CodingScheme {
    arity: usize,
    rl: usize,
    width_bits: usize,
    n_cells: usize,
    /// Raw prefix code (tree path characters) per cell.
    cell_codes: Vec<Vec<u8>>,
    /// Final binary index per cell (zero-padded; expanded for B > 2).
    cell_indexes: Vec<BitString>,
    /// Star-padded leaf codewords in tree order (dummy leaves included).
    leaves: Vec<CharWord>,
    /// Cell of each leaf position (`None` = dummy).
    leaf_cell: Vec<Option<usize>>,
    /// Leaf position of each cell (the Thm 2 bijection).
    leaf_pos_of_cell: Vec<usize>,
    /// Algorithm 3's `parentDict`: padded internal-node codeword →
    /// number of descendant leaves.
    parent_dict: HashMap<CharWord, usize>,
}

impl CodingScheme {
    /// Runs Algorithm 1 over a finalized prefix tree.
    ///
    /// # Panics
    /// Panics if the tree has no cells or a cell id is repeated.
    pub fn from_tree(tree: &PrefixTree) -> Self {
        let arity = tree.arity();
        let rl = tree.reference_length();
        let width_bits = if arity == 2 { rl } else { arity * rl };

        let leaf_ids = tree.leaves_in_order();
        let mut leaves = Vec::with_capacity(leaf_ids.len());
        let mut leaf_cell = Vec::with_capacity(leaf_ids.len());
        let mut cells: Vec<(usize, Vec<u8>)> = Vec::new();

        for (pos, &leaf) in leaf_ids.iter().enumerate() {
            let node = tree.node(leaf);
            let word = CharWord(node.code.iter().map(|&c| Some(c)).collect()).pad_stars_to(rl);
            leaves.push(word);
            leaf_cell.push(node.cell);
            if let Some(cell) = node.cell {
                cells.push((cell, node.code.clone()));
                // pos recorded below once n_cells is known
                let _ = pos;
            }
        }

        let n_cells = cells.len();
        assert!(n_cells > 0, "tree encodes no cells");
        let mut cell_codes = vec![Vec::new(); n_cells];
        let mut leaf_pos_of_cell = vec![usize::MAX; n_cells];
        for (pos, cell_opt) in leaf_cell.iter().enumerate() {
            if let Some(cell) = cell_opt {
                assert!(
                    leaf_pos_of_cell[*cell] == usize::MAX,
                    "cell {cell} appears on multiple leaves"
                );
                leaf_pos_of_cell[*cell] = pos;
            }
        }
        for (cell, code) in cells {
            cell_codes[cell] = code;
        }

        // Grid indexes (Algorithm 1, step III): zero-pad to RL, then (§4)
        // expand characters to bits and turn residual stars into zeros.
        let cell_indexes: Vec<BitString> = (0..n_cells)
            .map(|cell| Self::index_bits(arity, rl, &cell_codes[cell]))
            .collect();

        // parentDict (Algorithm 3 initialization).
        let mut parent_dict = HashMap::new();
        for node_id in tree.internal_nodes() {
            let node = tree.node(node_id);
            let word = CharWord(node.code.iter().map(|&c| Some(c)).collect()).pad_stars_to(rl);
            parent_dict.insert(word, tree.descendant_leaf_count(node_id));
        }

        CodingScheme {
            arity,
            rl,
            width_bits,
            n_cells,
            cell_codes,
            cell_indexes,
            leaves,
            leaf_cell,
            leaf_pos_of_cell,
            parent_dict,
        }
    }

    fn index_bits(arity: usize, rl: usize, code: &[u8]) -> BitString {
        if arity == 2 {
            // Binary: prefix code bits, zero-padded to RL (§3.2 III).
            let bits: Vec<bool> = code.iter().map(|&c| c == 1).collect();
            BitString::from_bits(&bits).pad_to(rl, false)
        } else {
            // B-ary (§4): data character i -> one-hot block (star bits
            // become zeros); padding characters -> all-zero blocks.
            let mut bits = Vec::with_capacity(arity * rl);
            for &c in code {
                for j in 0..arity {
                    bits.push(j == c as usize);
                }
            }
            while bits.len() < arity * rl {
                bits.push(false);
            }
            BitString::from_bits(&bits)
        }
    }

    /// Alphabet size `B`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Reference length RL in characters.
    pub fn reference_length(&self) -> usize {
        self.rl
    }

    /// HVE width `l` in bits: `RL` for the binary alphabet, `B·RL` after
    /// §4 expansion otherwise.
    pub fn width_bits(&self) -> usize {
        self.width_bits
    }

    /// Number of encoded cells.
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// The binary index users encrypt for `cell`.
    pub fn index_of(&self, cell: usize) -> &BitString {
        &self.cell_indexes[cell]
    }

    /// All cell indexes.
    pub fn indexes(&self) -> &[BitString] {
        &self.cell_indexes
    }

    /// The raw prefix code (tree path) of `cell`.
    pub fn prefix_code_of(&self, cell: usize) -> &[u8] {
        &self.cell_codes[cell]
    }

    /// Star-padded leaf codewords in tree order (dummies included).
    pub fn leaves(&self) -> &[CharWord] {
        &self.leaves
    }

    /// Cell occupying each leaf position.
    pub fn leaf_cells(&self) -> &[Option<usize>] {
        &self.leaf_cell
    }

    /// Leaf position of `cell` (the Thm 2 bijection, index → unique leaf).
    pub fn leaf_position(&self, cell: usize) -> usize {
        self.leaf_pos_of_cell[cell]
    }

    /// Algorithm 3's `parentDict`.
    pub fn parent_dict(&self) -> &HashMap<CharWord, usize> {
        &self.parent_dict
    }

    /// Expands a character-level codeword into the bit-level HVE pattern
    /// (§4: character `i` ↦ B bits with the `(i+1)`-th set and stars
    /// elsewhere; `*` ↦ B stars). Binary codewords pass through unchanged.
    pub fn expand_codeword(&self, word: &CharWord) -> Codeword {
        assert_eq!(word.len(), self.rl, "codeword must be RL characters");
        if self.arity == 2 {
            let symbols: Vec<Symbol> = word
                .chars()
                .iter()
                .map(|c| match c {
                    Some(v) => Symbol::from_bit(*v == 1),
                    None => Symbol::Star,
                })
                .collect();
            return Codeword::from_symbols(&symbols);
        }
        let mut symbols = Vec::with_capacity(self.width_bits);
        for c in word.chars() {
            match c {
                Some(v) => {
                    for j in 0..self.arity {
                        symbols.push(if j == *v as usize {
                            Symbol::One
                        } else {
                            Symbol::Star
                        });
                    }
                }
                None => {
                    for _ in 0..self.arity {
                        symbols.push(Symbol::Star);
                    }
                }
            }
        }
        Codeword::from_symbols(&symbols)
    }

    /// §4 granularity refinement: the star bits of a cell's expanded index
    /// template can address sub-cells "without violating the structure of
    /// the grid or the coding tree". Returns the `2^s` refined indexes
    /// (`s` = star count); the all-zeros assignment is the cell's original
    /// index. For the binary alphabet there are no spare star bits and the
    /// cell's own index is returned.
    pub fn refinement_indexes(&self, cell: usize) -> Vec<BitString> {
        let template = self.index_template(cell);
        let star_positions: Vec<usize> = template
            .symbols()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_star().then_some(i))
            .collect();
        let s = star_positions.len();
        assert!(s < 24, "refinement would enumerate 2^{s} indexes");
        let mut out = Vec::with_capacity(1 << s);
        for assignment in 0..(1u32 << s) {
            let mut bits: Vec<bool> = template
                .symbols()
                .iter()
                .map(|sym| sym.bit().unwrap_or(false))
                .collect();
            for (k, &pos) in star_positions.iter().enumerate() {
                bits[pos] = (assignment >> k) & 1 == 1;
            }
            out.push(BitString::from_bits(&bits));
        }
        out
    }

    /// The expanded index *template* of a cell: data characters become
    /// one-hot blocks with star bits, padding characters become zero
    /// blocks (the intermediate form of Fig. 5b, before stars are zeroed).
    pub fn index_template(&self, cell: usize) -> Codeword {
        let code = &self.cell_codes[cell];
        if self.arity == 2 {
            return self.cell_indexes[cell].to_codeword();
        }
        let mut symbols = Vec::with_capacity(self.width_bits);
        for &c in code {
            for j in 0..self.arity {
                symbols.push(if j == c as usize {
                    Symbol::One
                } else {
                    Symbol::Star
                });
            }
        }
        while symbols.len() < self.width_bits {
            symbols.push(Symbol::Zero);
        }
        Codeword::from_symbols(&symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::{build_bary_huffman_tree, build_huffman_tree};

    const FIG4_PROBS: [f64; 5] = [0.1, 0.2, 0.5, 0.4, 0.6];

    #[test]
    fn fig4_indexes_are_zero_padded_prefix_codes() {
        // §3.2 III: the index multiset is {000, 001, 100, 010, 110}.
        // Note: the paper's narrative (§3.2 step 1) swaps the v1/v2 labels
        // relative to Fig. 4a; following Algorithm 2 verbatim (first
        // extracted = left child), the 0.1-probability cell gets 000 and
        // the 0.2 cell gets 001. Lengths and costs are identical.
        let tree = build_huffman_tree(&FIG4_PROBS);
        let scheme = CodingScheme::from_tree(&tree);
        assert_eq!(scheme.reference_length(), 3);
        assert_eq!(scheme.width_bits(), 3);
        let expected = ["000", "001", "100", "010", "110"];
        for (cell, exp) in expected.iter().enumerate() {
            assert_eq!(
                scheme.index_of(cell),
                &BitString::parse(exp),
                "cell v{}",
                cell + 1
            );
        }
    }

    #[test]
    fn fig4_parent_dict() {
        // §3.3: [00*: 2, 0**: 3, 1**: 2, ***: 5].
        let tree = build_huffman_tree(&FIG4_PROBS);
        let scheme = CodingScheme::from_tree(&tree);
        let dict = scheme.parent_dict();
        assert_eq!(dict.len(), 4);
        let get = |s: &str| {
            let chars: Vec<Option<u8>> = s
                .chars()
                .map(|c| match c {
                    '*' => None,
                    d => Some(d as u8 - b'0'),
                })
                .collect();
            dict.get(&CharWord::from_chars(&chars)).copied()
        };
        assert_eq!(get("00*"), Some(2));
        assert_eq!(get("0**"), Some(3));
        assert_eq!(get("1**"), Some(2));
        assert_eq!(get("***"), Some(5));
    }

    #[test]
    fn fig4_leaves_in_order() {
        // §3.3: leaf codewords in tree order are [000, 001, 01*, 10*, 11*]
        // (cells: 0.1-cell, 0.2-cell, v4, v3, v5 — see labeling note above).
        let tree = build_huffman_tree(&FIG4_PROBS);
        let scheme = CodingScheme::from_tree(&tree);
        let printed: Vec<String> = scheme.leaves().iter().map(|w| w.to_string()).collect();
        assert_eq!(printed, vec!["000", "001", "01*", "10*", "11*"]);
        let cells: Vec<Option<usize>> = scheme.leaf_cells().to_vec();
        assert_eq!(cells, vec![Some(0), Some(1), Some(3), Some(2), Some(4)]);
        // bijection: cell -> leaf -> cell
        for cell in 0..5 {
            let pos = scheme.leaf_position(cell);
            assert_eq!(scheme.leaf_cells()[pos], Some(cell));
        }
    }

    #[test]
    fn thm2_bijection_codeword_matches_only_its_index() {
        // Each leaf codeword must match exactly its own cell's index.
        let tree = build_huffman_tree(&FIG4_PROBS);
        let scheme = CodingScheme::from_tree(&tree);
        for (pos, word) in scheme.leaves().iter().enumerate() {
            let pattern = scheme.expand_codeword(word);
            let matches: Vec<usize> = (0..scheme.n_cells())
                .filter(|&c| pattern.matches(scheme.index_of(c)))
                .collect();
            assert_eq!(matches, vec![scheme.leaf_cells()[pos].unwrap()]);
        }
    }

    /// Hand-builds the exact Fig. 6a ternary tree of the paper:
    /// `r1 = (v2, v1, v4)` under character 0 of the root; `v3` under 1,
    /// `v5` under 2. (The deterministic Huffman builder produces an
    /// equivalent-cost tree with a different child order, so paper-exact
    /// assertions use this fixture.)
    fn fig6_tree() -> crate::prefix_tree::PrefixTree {
        let mut t = crate::prefix_tree::PrefixTree::new(3);
        let v1 = t.add_leaf(0.1, Some(0));
        let v2 = t.add_leaf(0.2, Some(1));
        let v3 = t.add_leaf(0.5, Some(2));
        let v4 = t.add_leaf(0.4, Some(3));
        let v5 = t.add_leaf(0.6, Some(4));
        let r1 = t.add_internal(&[v2, v1, v4]);
        let root = t.add_internal(&[r1, v3, v5]);
        t.finalize(root);
        t
    }

    #[test]
    fn ternary_expansion_fig5() {
        // Fig. 5a: codeword '2*' expands to '**1***'.
        let scheme = CodingScheme::from_tree(&fig6_tree());
        assert_eq!(scheme.width_bits(), 6);
        let word = CharWord::from_chars(&[Some(2), None]);
        assert_eq!(scheme.expand_codeword(&word).to_string(), "**1***");
        // '2*' is exactly v5's leaf codeword on the coding tree.
        let pos = scheme.leaf_position(4);
        assert_eq!(scheme.leaves()[pos].to_string(), "2*");
    }

    #[test]
    fn ternary_index_fig5b() {
        // Fig. 5b: index '20' (prefix '2' + zero-pad) expands to '001000'.
        let scheme = CodingScheme::from_tree(&fig6_tree());
        assert_eq!(scheme.prefix_code_of(4), &[2]);
        assert_eq!(scheme.index_of(4), &BitString::parse("001000"));
        // v3 has prefix '1' -> '010' + pad '000'.
        assert_eq!(scheme.prefix_code_of(2), &[1]);
        assert_eq!(scheme.index_of(2), &BitString::parse("010000"));
        // v4 has prefix '02' -> blocks '100' + '001'.
        assert_eq!(scheme.prefix_code_of(3), &[0, 2]);
        assert_eq!(scheme.index_of(3), &BitString::parse("100001"));
    }

    #[test]
    fn ternary_codewords_match_their_cells() {
        // Structural property on the machine-built ternary Huffman tree.
        let tree = build_bary_huffman_tree(&FIG4_PROBS, 3);
        let scheme = CodingScheme::from_tree(&tree);
        for (pos, word) in scheme.leaves().iter().enumerate() {
            let Some(cell) = scheme.leaf_cells()[pos] else {
                continue;
            };
            let pattern = scheme.expand_codeword(word);
            let matches: Vec<usize> = (0..scheme.n_cells())
                .filter(|&c| pattern.matches(scheme.index_of(c)))
                .collect();
            assert_eq!(matches, vec![cell], "leaf {pos}");
        }
    }

    #[test]
    fn fig5b_refinement_example() {
        // §4: cell v5 (index '20' -> '001000') refines into four indexes
        // '001000', '011000', '101000', '111000' via its two star bits.
        let scheme = CodingScheme::from_tree(&fig6_tree());
        let mut refined: Vec<String> = scheme
            .refinement_indexes(4)
            .iter()
            .map(|b| b.to_string())
            .collect();
        refined.sort();
        assert_eq!(refined, vec!["001000", "011000", "101000", "111000"]);
        // The refined indexes still match v5's coding-tree codeword.
        let pos = scheme.leaf_position(4);
        let pattern = scheme.expand_codeword(&scheme.leaves()[pos]);
        for r in scheme.refinement_indexes(4) {
            assert!(pattern.matches(&r));
        }
    }

    #[test]
    fn binary_refinement_is_trivial() {
        let tree = build_huffman_tree(&FIG4_PROBS);
        let scheme = CodingScheme::from_tree(&tree);
        for cell in 0..5 {
            assert_eq!(
                scheme.refinement_indexes(cell),
                vec![scheme.index_of(cell).clone()]
            );
        }
    }

    #[test]
    fn all_indexes_distinct_and_full_width() {
        for arity in [2usize, 3, 4] {
            let probs: Vec<f64> = (0..23).map(|i| 1.0 / (i as f64 + 1.5)).collect();
            let tree = build_bary_huffman_tree(&probs, arity);
            let scheme = CodingScheme::from_tree(&tree);
            let mut seen = std::collections::HashSet::new();
            for cell in 0..scheme.n_cells() {
                let idx = scheme.index_of(cell);
                assert_eq!(idx.len(), scheme.width_bits());
                assert!(
                    seen.insert(idx.clone()),
                    "duplicate index for arity {arity}"
                );
            }
        }
    }
}
