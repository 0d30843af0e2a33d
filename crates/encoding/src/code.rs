//! Code representations: binary strings, ternary `{0,1,*}` codewords and
//! B-ary symbol strings.

use std::fmt;

/// A symbol of the extended binary alphabet `Σ* = {0, 1, *}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symbol {
    /// Binary zero.
    Zero,
    /// Binary one.
    One,
    /// Wildcard ("don't care").
    Star,
}

impl Symbol {
    /// Creates a non-star symbol from a bit.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            Symbol::One
        } else {
            Symbol::Zero
        }
    }

    /// The bit value, or `None` for a star.
    pub fn bit(self) -> Option<bool> {
        match self {
            Symbol::Zero => Some(false),
            Symbol::One => Some(true),
            Symbol::Star => None,
        }
    }

    /// `true` for the wildcard symbol.
    pub fn is_star(self) -> bool {
        self == Symbol::Star
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Symbol::Zero => "0",
            Symbol::One => "1",
            Symbol::Star => "*",
        })
    }
}

/// A variable-length binary string (a prefix code or padded index).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BitString(Vec<bool>);

impl BitString {
    /// The empty string.
    pub fn new() -> Self {
        BitString(Vec::new())
    }

    /// Builds from bits.
    pub fn from_bits(bits: &[bool]) -> Self {
        BitString(bits.to_vec())
    }

    /// Parses from a `"0101"` literal.
    ///
    /// # Panics
    /// Panics on characters other than `0`/`1` (this is a test/fixture
    /// convenience; use [`BitString::try_parse`] for fallible parsing).
    pub fn parse(s: &str) -> Self {
        Self::try_parse(s).expect("invalid bit character")
    }

    /// Fallible parse from a `"0101"` literal.
    pub fn try_parse(s: &str) -> Option<Self> {
        s.chars()
            .map(|c| match c {
                '0' => Some(false),
                '1' => Some(true),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .map(BitString)
    }

    /// The bits.
    pub fn bits(&self) -> &[bool] {
        &self.0
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the empty string.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends a bit, returning the extended string.
    pub fn push(&self, bit: bool) -> Self {
        let mut v = self.0.clone();
        v.push(bit);
        BitString(v)
    }

    /// Right-pads with `bit` up to `len` (Algorithm 1's index padding).
    pub fn pad_to(&self, len: usize, bit: bool) -> Self {
        let mut v = self.0.clone();
        while v.len() < len {
            v.push(bit);
        }
        BitString(v)
    }

    /// `true` iff `self` is a (strict or equal) prefix of `other`.
    pub fn is_prefix_of(&self, other: &BitString) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// Interprets the bits as a big-endian integer.
    pub fn to_u64(&self) -> u64 {
        assert!(self.0.len() <= 64, "bit string exceeds 64 bits");
        self.0.iter().fold(0u64, |acc, &b| (acc << 1) | b as u64)
    }

    /// Builds the `width`-bit big-endian representation of `value`.
    pub fn from_u64(value: u64, width: usize) -> Self {
        assert!(width <= 64);
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        BitString((0..width).rev().map(|i| (value >> i) & 1 == 1).collect())
    }

    /// Converts to an all-non-star [`Codeword`].
    pub fn to_codeword(&self) -> Codeword {
        Codeword(self.0.iter().map(|&b| Symbol::from_bit(b)).collect())
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.0 {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

/// A codeword over the extended alphabet `{0, 1, *}` — the objects living
/// on the paper's *coding tree*, and the shape of HVE token patterns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Codeword(Vec<Symbol>);

impl Codeword {
    /// The empty codeword.
    pub fn new() -> Self {
        Codeword(Vec::new())
    }

    /// Builds from symbols.
    pub fn from_symbols(symbols: &[Symbol]) -> Self {
        Codeword(symbols.to_vec())
    }

    /// Parses from a `"01*"` literal.
    ///
    /// # Panics
    /// Panics on invalid characters.
    pub fn parse(s: &str) -> Self {
        Codeword(
            s.chars()
                .map(|c| match c {
                    '0' => Symbol::Zero,
                    '1' => Symbol::One,
                    '*' => Symbol::Star,
                    other => panic!("invalid codeword character {other:?}"),
                })
                .collect(),
        )
    }

    /// The symbols.
    pub fn symbols(&self) -> &[Symbol] {
        &self.0
    }

    /// Length in symbols.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the empty codeword.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of non-star symbols — the HVE cost driver.
    pub fn non_star_count(&self) -> usize {
        self.0.iter().filter(|s| !s.is_star()).count()
    }

    /// Right-pads with stars up to `len` (Algorithm 1's codeword padding).
    pub fn pad_stars_to(&self, len: usize) -> Self {
        let mut v = self.0.clone();
        while v.len() < len {
            v.push(Symbol::Star);
        }
        Codeword(v)
    }

    /// `true` iff the codeword matches the index: every non-star symbol
    /// equals the corresponding bit (§2.2 matching semantics).
    pub fn matches(&self, index: &BitString) -> bool {
        self.0.len() == index.len()
            && self
                .0
                .iter()
                .zip(index.bits())
                .all(|(s, &b)| s.bit().is_none_or(|sb| sb == b))
    }

    /// Longest common prefix (over raw symbols, stars included) of a
    /// non-empty slice of codewords — the "common bits" step of Alg. 3.
    pub fn common_prefix(words: &[Codeword]) -> Codeword {
        let Some(first) = words.first() else {
            return Codeword::new();
        };
        let mut len = first.len();
        for w in &words[1..] {
            let mut i = 0;
            while i < len && i < w.len() && w.0[i] == first.0[i] {
                i += 1;
            }
            len = i;
        }
        Codeword(first.0[..len].to_vec())
    }

    /// Converts to a [`BitString`] if star-free.
    pub fn to_bitstring(&self) -> Option<BitString> {
        self.0
            .iter()
            .map(|s| s.bit())
            .collect::<Option<Vec<_>>>()
            .map(|bits| BitString::from_bits(&bits))
    }

    /// Replaces stars with zeros (the §4 index finalization step).
    pub fn stars_to_zeros(&self) -> BitString {
        BitString::from_bits(
            &self
                .0
                .iter()
                .map(|s| s.bit().unwrap_or(false))
                .collect::<Vec<_>>(),
        )
    }

    /// Concatenates two codewords.
    pub fn concat(&self, other: &Codeword) -> Codeword {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        Codeword(v)
    }
}

impl fmt::Display for Codeword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.0 {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Verifies the prefix property: no code in the set is a prefix of another
/// (§3.1). Returns the offending pair if violated.
pub fn check_prefix_property(codes: &[BitString]) -> Result<(), (usize, usize)> {
    for (i, a) in codes.iter().enumerate() {
        for (j, b) in codes.iter().enumerate() {
            if i != j && a.is_prefix_of(b) {
                return Err((i, j));
            }
        }
    }
    Ok(())
}

/// Kraft sum `Σ 2^{-l_i}` (§3.1, Eq. 5). A prefix code exists iff this is
/// ≤ 1; a *complete* prefix code (full tree) has sum exactly 1.
pub fn kraft_sum(lengths: &[usize]) -> f64 {
    lengths.iter().map(|&l| 0.5f64.powi(l as i32)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitstring_basics() {
        let b = BitString::parse("1011");
        assert_eq!(b.len(), 4);
        assert_eq!(b.to_u64(), 0b1011);
        assert_eq!(BitString::from_u64(0b1011, 4), b);
        assert_eq!(b.to_string(), "1011");
        assert_eq!(b.pad_to(6, false).to_string(), "101100");
        assert!(BitString::try_parse("10x").is_none());
    }

    #[test]
    fn prefix_relation() {
        let a = BitString::parse("10");
        let b = BitString::parse("101");
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
    }

    #[test]
    fn paper_prefix_code_example() {
        // §3.1: [000, 001, 01, 10, 11] is a prefix code.
        let codes: Vec<_> = ["000", "001", "01", "10", "11"]
            .iter()
            .map(|s| BitString::parse(s))
            .collect();
        assert!(check_prefix_property(&codes).is_ok());
        // Kraft sum of a complete code is exactly 1 (Eq. 5 tight).
        let lengths: Vec<_> = codes.iter().map(|c| c.len()).collect();
        assert!((kraft_sum(&lengths) - 1.0).abs() < 1e-12);

        // [0, 01] violates the prefix property.
        let bad = vec![BitString::parse("0"), BitString::parse("01")];
        assert_eq!(check_prefix_property(&bad), Err((0, 1)));
    }

    #[test]
    fn codeword_matching() {
        let cw = Codeword::parse("*00");
        assert!(cw.matches(&BitString::parse("000")));
        assert!(cw.matches(&BitString::parse("100")));
        assert!(!cw.matches(&BitString::parse("110")));
        assert!(!cw.matches(&BitString::parse("0000"))); // width mismatch
        assert_eq!(cw.non_star_count(), 2);
    }

    #[test]
    fn codeword_padding_and_conversion() {
        let cw = Codeword::parse("10").pad_stars_to(4);
        assert_eq!(cw.to_string(), "10**");
        assert_eq!(cw.to_bitstring(), None);
        assert_eq!(cw.stars_to_zeros().to_string(), "1000");
        let pure = Codeword::parse("101");
        assert_eq!(pure.to_bitstring().unwrap(), BitString::parse("101"));
    }

    #[test]
    fn common_prefix() {
        let words = vec![Codeword::parse("10*"), Codeword::parse("11*")];
        assert_eq!(Codeword::common_prefix(&words).to_string(), "1");
        let words = vec![Codeword::parse("001"), Codeword::parse("01*")];
        assert_eq!(Codeword::common_prefix(&words).to_string(), "0");
        let single = vec![Codeword::parse("01*")];
        assert_eq!(Codeword::common_prefix(&single).to_string(), "01*");
        assert_eq!(Codeword::common_prefix(&[]).to_string(), "");
    }

    #[test]
    fn kraft_inequality_violations() {
        // Three codes of length 1 cannot form a binary prefix code.
        assert!(kraft_sum(&[1, 1, 1]) > 1.0);
        assert!(kraft_sum(&[1, 2, 3, 3]) <= 1.0 + 1e-12);
    }
}
