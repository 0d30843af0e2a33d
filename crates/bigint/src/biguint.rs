//! Core [`BigUint`] type: representation, construction, comparison and
//! radix conversion.

use std::cmp::Ordering;
use std::fmt;

/// Error returned when parsing a [`BigUint`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError {
    /// Offending character, if any.
    pub bad_char: Option<char>,
}

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bad_char {
            Some(c) => write!(f, "invalid digit {c:?} in big integer literal"),
            None => write!(f, "empty big integer literal"),
        }
    }
}

impl std::error::Error for ParseBigUintError {}

/// Arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs with the invariant that the most
/// significant limb is non-zero (the value zero is the empty limb vector).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = BigUint {
            limbs: vec![lo, hi],
        };
        out.normalize();
        out
    }

    /// Constructs from little-endian limbs (trailing zeros allowed).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Borrow the little-endian limb slice (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Drops high zero limbs to restore the representation invariant.
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// `true` iff the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// `true` iff the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (0 for the value zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Tests bit `i` (little-endian; bit 0 is the least significant).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to one.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % 64);
    }

    /// Lowest 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Big-endian byte representation without leading zero bytes
    /// (the value zero yields a single `0` byte).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return vec![0];
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first);
        out
    }

    /// Constructs from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        Self::from_limbs(limbs)
    }

    /// Little-endian byte representation without trailing zero bytes
    /// (the value zero yields an empty vector). This is the canonical
    /// wire form of the `sla-persist` binary codec: minimal — no
    /// representation ambiguity a length prefix could hide — and
    /// byte-order-stable across platforms.
    pub fn to_bytes_le(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in &self.limbs {
            out.extend_from_slice(&limb.to_le_bytes());
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Constructs from little-endian bytes (trailing zeros allowed).
    pub fn from_bytes_le(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            limbs.push(u64::from_le_bytes(buf));
        }
        Self::from_limbs(limbs)
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    pub fn from_hex_str(s: &str) -> Result<Self, ParseBigUintError> {
        if s.is_empty() {
            return Err(ParseBigUintError { bad_char: None });
        }
        let mut limbs: Vec<u64> = Vec::with_capacity(s.len() / 16 + 1);
        let bytes = s.as_bytes();
        let mut idx = bytes.len();
        while idx > 0 {
            let start = idx.saturating_sub(16);
            let chunk = &s[start..idx];
            let v = u64::from_str_radix(chunk, 16).map_err(|_| ParseBigUintError {
                bad_char: chunk.chars().find(|c| !c.is_ascii_hexdigit()),
            })?;
            limbs.push(v);
            idx = start;
        }
        Ok(Self::from_limbs(limbs))
    }

    /// Hexadecimal representation (lowercase, no prefix).
    pub fn to_hex_str(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Parses a decimal string.
    pub fn from_decimal_str(s: &str) -> Result<Self, ParseBigUintError> {
        if s.is_empty() {
            return Err(ParseBigUintError { bad_char: None });
        }
        let mut acc = BigUint::zero();
        // Process 19 digits at a time (19 decimal digits < 2^64).
        let bytes = s.as_bytes();
        let mut pos = 0;
        while pos < bytes.len() {
            let take = (bytes.len() - pos).min(19);
            let chunk = &s[pos..pos + take];
            let v: u64 = chunk.parse().map_err(|_| ParseBigUintError {
                bad_char: chunk.chars().find(|c| !c.is_ascii_digit()),
            })?;
            let scale = 10u64.pow(take as u32);
            acc = acc.mul_u64(scale);
            acc = &acc + &BigUint::from_u64(v);
            pos += take;
        }
        Ok(acc)
    }

    /// Decimal representation.
    pub fn to_decimal_str(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut chunks: Vec<u64> = Vec::new();
        let mut cur = self.clone();
        const CHUNK: u64 = 10_000_000_000_000_000_000; // 10^19
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::with_capacity(chunks.len() * 19);
        for (i, c) in chunks.iter().enumerate().rev() {
            if i == chunks.len() - 1 {
                s.push_str(&c.to_string());
            } else {
                s.push_str(&format!("{c:019}"));
            }
        }
        s
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal_str())
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex_str())
    }
}

impl std::str::FromStr for BigUint {
    type Err = ParseBigUintError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(hex) = s.strip_prefix("0x") {
            Self::from_hex_str(hex)
        } else {
            Self::from_decimal_str(s)
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        Self::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn from_u128_roundtrip() {
        let v = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        assert_eq!(BigUint::from_u128(v).to_u128(), Some(v));
    }

    #[test]
    fn normalization_strips_high_zeros() {
        let a = BigUint::from_limbs(vec![5, 0, 0]);
        assert_eq!(a.limbs(), &[5]);
        assert_eq!(a, BigUint::from_u64(5));
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(10);
        let b = BigUint::from_u128(1 << 100);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn bit_access() {
        let mut a = BigUint::zero();
        a.set_bit(130);
        assert!(a.bit(130));
        assert!(!a.bit(129));
        assert_eq!(a.bit_len(), 131);
    }

    #[test]
    fn bytes_roundtrip() {
        let v = BigUint::from_u128(0xdead_beef_cafe_babe_0102_0304_0506_0708);
        let bytes = v.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), v);
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 7]), BigUint::from_u64(7));
    }

    #[test]
    fn bytes_le_roundtrip_is_minimal() {
        for v in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from_u64(0x0100),
            BigUint::from_u128(0xdead_beef_cafe_babe_0102_0304_0506_0708),
        ] {
            let bytes = v.to_bytes_le();
            assert_eq!(BigUint::from_bytes_le(&bytes), v);
            assert_ne!(bytes.last(), Some(&0), "trailing zero byte");
        }
        assert!(BigUint::zero().to_bytes_le().is_empty());
        assert_eq!(BigUint::from_bytes_le(&[7, 0, 0]), BigUint::from_u64(7));
        assert_eq!(
            BigUint::from_u64(0x0102).to_bytes_le(),
            vec![0x02u8, 0x01],
            "little-endian order"
        );
    }

    #[test]
    fn hex_roundtrip() {
        for s in ["0", "1", "ff", "deadbeefcafebabe0102030405060708090a"] {
            let v = BigUint::from_hex_str(s).unwrap();
            assert_eq!(v.to_hex_str(), s);
            assert_eq!(BigUint::from_hex_str(&v.to_hex_str()).unwrap(), v);
        }
        assert!(BigUint::from_hex_str("xyz").is_err());
        assert!(BigUint::from_hex_str("").is_err());
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "18446744073709551615",
            "18446744073709551616",
            "340282366920938463463374607431768211455",
            "123456789012345678901234567890123456789012345678901234567890",
        ] {
            let v = BigUint::from_decimal_str(s).unwrap();
            assert_eq!(v.to_decimal_str(), s);
        }
        assert!(BigUint::from_decimal_str("12a").is_err());
    }

    #[test]
    fn from_str_dispatches_on_prefix() {
        let a: BigUint = "0xff".parse().unwrap();
        let b: BigUint = "255".parse().unwrap();
        assert_eq!(a, b);
    }
}
