//! Attribute vectors (`{0,1}^l`) and search patterns (`{0,1,*}^l`).

use std::fmt;

/// Error for textual vector/pattern parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVectorError {
    /// The character that was neither `0`, `1` nor `*`.
    pub bad_char: char,
}

impl fmt::Display for ParseVectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid vector character {:?}", self.bad_char)
    }
}

impl std::error::Error for ParseVectorError {}

/// A binary attribute vector `I ∈ {0,1}^l` — the encrypted "index" of a
/// ciphertext (in the alert protocol: the user's padded cell index).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttributeVector(Vec<bool>);

impl AttributeVector {
    /// Builds from a bit slice.
    pub fn from_bits(bits: &[bool]) -> Self {
        AttributeVector(bits.to_vec())
    }

    /// Vector width `l`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff the width is zero.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Bit at position `i` (0-based, most significant first by convention).
    pub fn bit(&self, i: usize) -> bool {
        self.0[i]
    }

    /// Iterates over bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.0.iter().copied()
    }

    /// The bits, position 0 first.
    pub(crate) fn bits(&self) -> &[bool] {
        &self.0
    }
}

impl fmt::Display for AttributeVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            f.write_str(if *b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl std::str::FromStr for AttributeVector {
    type Err = ParseVectorError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.chars()
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                other => Err(ParseVectorError { bad_char: other }),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(AttributeVector)
    }
}

/// A search pattern `I* ∈ {0,1,*}^l`; `None` encodes the wildcard `*`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SearchPattern(Vec<Option<bool>>);

impl SearchPattern {
    /// Builds from raw symbols.
    pub fn from_symbols(symbols: &[Option<bool>]) -> Self {
        SearchPattern(symbols.to_vec())
    }

    /// A pattern of `len` wildcards (matches everything).
    pub fn all_stars(len: usize) -> Self {
        SearchPattern(vec![None; len])
    }

    /// Pattern width `l`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff the width is zero.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Symbol at position `i`.
    pub fn symbol(&self, i: usize) -> Option<bool> {
        self.0[i]
    }

    /// Indices of the non-star positions — the set `J` of the paper; its
    /// size drives the pairing cost `1 + 2·|J|`.
    pub fn non_star_positions(&self) -> Vec<usize> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|_| i))
            .collect()
    }

    /// Number of non-star symbols.
    pub fn non_star_count(&self) -> usize {
        self.0.iter().filter(|s| s.is_some()).count()
    }

    /// Plaintext match semantics: every non-star symbol must equal the
    /// attribute bit (used as the specification oracle in tests; the HVE
    /// evaluation must agree with this on every input).
    pub fn matches(&self, attr: &AttributeVector) -> bool {
        self.0.len() == attr.len()
            && self
                .0
                .iter()
                .zip(attr.iter())
                .all(|(pat, bit)| pat.is_none_or(|p| p == bit))
    }

    /// Iterates over symbols.
    pub fn iter(&self) -> impl Iterator<Item = Option<bool>> + '_ {
        self.0.iter().copied()
    }

    /// The symbols, position 0 first (`None` is `*`).
    pub(crate) fn symbols(&self) -> &[Option<bool>] {
        &self.0
    }
}

impl fmt::Display for SearchPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.0 {
            f.write_str(match s {
                Some(true) => "1",
                Some(false) => "0",
                None => "*",
            })?;
        }
        Ok(())
    }
}

impl std::str::FromStr for SearchPattern {
    type Err = ParseVectorError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.chars()
            .map(|c| match c {
                '0' => Ok(Some(false)),
                '1' => Ok(Some(true)),
                '*' => Ok(None),
                other => Err(ParseVectorError { bad_char: other }),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(SearchPattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let a: AttributeVector = "1011".parse().unwrap();
        assert_eq!(a.to_string(), "1011");
        let p: SearchPattern = "1*0*".parse().unwrap();
        assert_eq!(p.to_string(), "1*0*");
        assert!("10x".parse::<AttributeVector>().is_err());
        assert!("1*x".parse::<SearchPattern>().is_err());
    }

    #[test]
    fn match_semantics() {
        let attr: AttributeVector = "110".parse().unwrap();
        assert!("110".parse::<SearchPattern>().unwrap().matches(&attr));
        assert!("1**".parse::<SearchPattern>().unwrap().matches(&attr));
        assert!("***".parse::<SearchPattern>().unwrap().matches(&attr));
        assert!(!"100".parse::<SearchPattern>().unwrap().matches(&attr));
        assert!(!"*00".parse::<SearchPattern>().unwrap().matches(&attr));
        // width mismatch never matches
        assert!(!"11".parse::<SearchPattern>().unwrap().matches(&attr));
    }

    #[test]
    fn paper_fig1_example() {
        // §2.2: token *00 matches user B (000) but not user A (110).
        let token: SearchPattern = "*00".parse().unwrap();
        assert!(token.matches(&"000".parse().unwrap()));
        assert!(!token.matches(&"110".parse().unwrap()));
        assert_eq!(token.non_star_count(), 2);
        assert_eq!(token.non_star_positions(), vec![1, 2]);
    }

    #[test]
    fn star_accounting() {
        let p: SearchPattern = "**1*0".parse().unwrap();
        assert_eq!(p.non_star_count(), 2);
        assert_eq!(p.non_star_positions(), vec![2, 4]);
        let all = SearchPattern::all_stars(4);
        assert_eq!(all.non_star_count(), 0);
        assert!(all.matches(&"1010".parse().unwrap()));
    }
}
