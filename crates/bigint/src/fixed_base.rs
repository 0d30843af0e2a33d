//! Fixed-base exponentiation tables.
//!
//! The HVE workload exponentiates a handful of *fixed* bases (the group
//! generators and the per-key material) with many different exponents.
//! A generic windowed ladder pays `bits` squarings per call no matter how
//! often the base repeats; [`FixedBaseTable`] moves that work into a
//! one-time radix-2^w precomputation
//!
//! ```text
//! rows[i][d-1] = base^(d · 2^{w·i})   (domain form, d ∈ [1, 2^w))
//! ```
//!
//! after which `base^e` is the product of one table entry per non-zero
//! exponent digit — `⌈bits/w⌉` domain products, **zero squarings**. The
//! table lives in the residue domain of its [`Reducer`] (Montgomery form
//! for odd moduli, canonical for even), so every product is a single
//! reduction pass.

use crate::{BigUint, Reducer};
use std::sync::Arc;

/// Default radix width: `2^4` entries per digit row balances table size
/// (15 entries/row) against products per call (`bits/4`).
pub const DEFAULT_WINDOW: usize = 4;

/// Precomputed radix-2^w power table for one fixed base.
///
/// Built once per `(base, modulus)` pair from a shared [`Reducer`];
/// afterwards [`FixedBaseTable::pow`] costs `⌈bits/w⌉` domain products.
/// Exponents longer than `max_exp_bits` transparently fall back to the
/// generic windowed ladder (still division-free).
#[derive(Debug, Clone)]
pub struct FixedBaseTable {
    reducer: Arc<Reducer>,
    window: usize,
    max_bits: usize,
    /// Residue-domain image of the reduced base (fallback path).
    base_res: BigUint,
    /// `rows[i][d-1] = base^(d · 2^{window·i})` in residue form.
    rows: Vec<Vec<BigUint>>,
}

impl FixedBaseTable {
    /// Builds a table covering exponents of up to `max_exp_bits` bits with
    /// `window`-bit digits (1–8).
    ///
    /// # Panics
    /// Panics if `window` is outside `1..=8`.
    pub fn new(reducer: Arc<Reducer>, base: &BigUint, max_exp_bits: usize, window: usize) -> Self {
        assert!((1..=8).contains(&window), "window width must be in 1..=8");
        let base_res = reducer.to_residue(base);
        let n_rows = max_exp_bits.div_ceil(window).max(1);
        let mut rows = Vec::with_capacity(n_rows);
        let mut cur = base_res.clone(); // base^(2^{window·i})
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity((1 << window) - 1);
            row.push(cur.clone());
            for _ in 2..(1usize << window) {
                let next = reducer.residue_mul(row.last().expect("row is non-empty"), &cur);
                row.push(next);
            }
            // cur^(2^window) = row.last (= cur^(2^window - 1)) · cur
            cur = reducer.residue_mul(row.last().expect("row is non-empty"), &cur);
            rows.push(row);
        }
        FixedBaseTable {
            reducer,
            window,
            max_bits: n_rows * window,
            base_res,
            rows,
        }
    }

    /// Builds a table with the default window width.
    pub fn with_default_window(reducer: Arc<Reducer>, base: &BigUint, max_exp_bits: usize) -> Self {
        Self::new(reducer, base, max_exp_bits, DEFAULT_WINDOW)
    }

    /// The reduction context the table is built over.
    pub fn reducer(&self) -> &Arc<Reducer> {
        &self.reducer
    }

    /// Largest exponent bit length served by the table path.
    pub fn max_exp_bits(&self) -> usize {
        self.max_bits
    }

    /// `base^exp mod N`, canonical result.
    pub fn pow(&self, exp: &BigUint) -> BigUint {
        self.reducer.from_residue(&self.pow_residue(exp))
    }

    /// `base^exp mod N` with the result left in the residue domain (for
    /// callers chaining further domain products).
    pub fn pow_residue(&self, exp: &BigUint) -> BigUint {
        if exp.bit_len() > self.max_bits {
            // Exponent exceeds the precomputation — generic ladder.
            return self.reducer.pow_residue(&self.base_res, exp);
        }
        let mut acc = self.reducer.residue_one();
        for (i, row) in self.rows.iter().enumerate() {
            let d = crate::pow::window_digit(exp, i * self.window, self.window);
            if d != 0 {
                acc = self.reducer.residue_mul(&acc, &row[d - 1]);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    fn table(m: u128, base: u128, bits: usize, w: usize) -> FixedBaseTable {
        let reducer = Arc::new(Reducer::new(&b(m)).expect("modulus > 1"));
        FixedBaseTable::new(reducer, &b(base), bits, w)
    }

    #[test]
    fn matches_naive_small_cases() {
        let t = table(1_000_003, 7, 64, 4);
        for e in [0u128, 1, 2, 3, 15, 16, 255, 1 << 40, (1 << 60) + 12345] {
            assert_eq!(
                t.pow(&b(e)),
                b(7).mod_pow_naive(&b(e), &b(1_000_003)),
                "e = {e}"
            );
        }
    }

    #[test]
    fn matches_naive_even_modulus() {
        let m = (1u128 << 80) + 4;
        let t = table(m, 0xdead_beef, 96, 5);
        for e in [0u128, 1, 31, 32, 0xffff_ffff, (1 << 90) - 1] {
            // exponents above max_bits exercise the fallback ladder
            assert_eq!(
                t.pow(&b(e)),
                b(0xdead_beef).mod_pow_naive(&b(e), &b(m)),
                "e = {e}"
            );
        }
    }

    #[test]
    fn every_window_width_agrees() {
        let m = 0xffff_ffff_0000_0001u128;
        for w in 1..=8 {
            let t = table(m, 3, 64, w);
            let e = b(0x0123_4567_89ab_cdef);
            assert_eq!(t.pow(&e), b(3).mod_pow_naive(&e, &b(m)), "w = {w}");
        }
    }

    #[test]
    fn zero_base_and_identity_exponent() {
        let t = table(97, 0, 16, 4);
        assert_eq!(t.pow(&BigUint::zero()), BigUint::one()); // 0^0 = 1 mod N
        assert_eq!(t.pow(&b(5)), BigUint::zero());
        let t1 = table(97, 1, 16, 4);
        assert_eq!(t1.pow(&b(12345)), BigUint::one());
    }

    #[test]
    fn unreduced_base_is_canonicalized() {
        let t = table(1_000_003, 1_000_003 * 5 + 42, 40, 4);
        assert_eq!(t.pow(&b(777)), b(42).mod_pow_naive(&b(777), &b(1_000_003)));
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn rejects_zero_window() {
        let _ = table(97, 3, 16, 0);
    }
}
