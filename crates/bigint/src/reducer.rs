//! [`Reducer`]: the **total** reduction dispatch.
//!
//! Every modulus `N > 1` gets a division-free fast path: odd `N` through
//! [`MontgomeryCtx`] (CIOS passes in the `x·R mod N` domain), even `N`
//! through [`BarrettCtx`] (precomputed-µ reduction in the canonical
//! domain). [`BigUint::mod_pow`] builds a `Reducer` and never falls back
//! to per-step division, and long-lived consumers (the pairing engine,
//! the fixed-base tables) hold one behind an `Arc` so precomputation is
//! shared.
//!
//! The enum also fixes a *residue domain* for values that live across
//! many operations: Montgomery form for odd moduli, canonical residues
//! for even ones. [`Reducer::to_residue`]/[`Reducer::from_residue`]
//! convert at the boundary and [`Reducer::residue_mul`] multiplies inside
//! the domain — one reduction pass per product, with no per-operation
//! round trip.

use crate::pow::{window_pow_res, ResidueOps};
use crate::{BarrettCtx, BigUint, MontgomeryCtx};

/// Division-free reduction context for an arbitrary modulus `N > 1`.
#[derive(Debug, Clone)]
pub enum Reducer {
    /// Odd modulus: CIOS passes in the Montgomery domain.
    Montgomery(MontgomeryCtx),
    /// Even modulus: Barrett reduction in the canonical domain.
    Barrett(BarrettCtx),
}

impl Reducer {
    /// Builds the appropriate context for `n`; `None` only for the
    /// degenerate moduli `0` and `1`.
    pub fn new(n: &BigUint) -> Option<Self> {
        if let Some(ctx) = MontgomeryCtx::new(n) {
            return Some(Reducer::Montgomery(ctx));
        }
        BarrettCtx::new(n).map(Reducer::Barrett)
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        match self {
            Reducer::Montgomery(ctx) => ctx.modulus(),
            Reducer::Barrett(ctx) => ctx.modulus(),
        }
    }

    /// `true` when the residue domain is Montgomery form (odd moduli).
    pub fn is_montgomery(&self) -> bool {
        matches!(self, Reducer::Montgomery(_))
    }

    /// `true` when `other` defines the same residue domain, i.e. values in
    /// one context's domain are directly meaningful in the other's. The
    /// modulus determines the domain completely (the backend parity — and
    /// hence `R` — is a function of it), so domain-compatibility checks
    /// must go through here rather than re-deriving the rule.
    pub fn same_domain(&self, other: &Reducer) -> bool {
        self.modulus() == other.modulus()
    }

    /// Converts a canonical value (any magnitude) into the residue domain.
    pub fn to_residue(&self, a: &BigUint) -> BigUint {
        match self {
            Reducer::Montgomery(ctx) => ctx.to_mont(a),
            Reducer::Barrett(ctx) => ctx.to_res(a),
        }
    }

    /// Converts a residue-domain value back to its canonical residue.
    pub fn from_residue(&self, a: &BigUint) -> BigUint {
        match self {
            Reducer::Montgomery(ctx) => ctx.from_mont(a),
            Reducer::Barrett(_) => a.clone(),
        }
    }

    /// The residue-domain image of `1`.
    pub fn residue_one(&self) -> BigUint {
        match self {
            Reducer::Montgomery(ctx) => ctx.one_mont(),
            Reducer::Barrett(_) => BigUint::one(),
        }
    }

    /// Product of two residue-domain values, staying in the domain: one
    /// CIOS pass (Montgomery) or one Barrett reduction.
    pub fn residue_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        match self {
            Reducer::Montgomery(ctx) => ctx.mont_mul(a, b),
            Reducer::Barrett(ctx) => ctx.mul_res(a, b),
        }
    }

    /// Residue-domain products for a batch of **independent** pairs:
    /// Montgomery moduli take [`MontgomeryCtx::mont_mul_batch`] (eight,
    /// then four, products in lockstep through interleaved u128 carry
    /// chains); Barrett moduli reduce pair-by-pair. Byte-identical, in
    /// order, to mapping [`Reducer::residue_mul`] over the slice.
    pub fn residue_mul_batch(&self, pairs: &[(&BigUint, &BigUint)]) -> Vec<BigUint> {
        match self {
            Reducer::Montgomery(ctx) => ctx.mont_mul_batch(pairs),
            Reducer::Barrett(ctx) => pairs.iter().map(|(a, b)| ctx.mul_res(a, b)).collect(),
        }
    }

    /// `(a · b) mod N` on canonical operands.
    pub fn mod_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        match self {
            Reducer::Montgomery(ctx) => ctx.mod_mul(a, b),
            Reducer::Barrett(ctx) => ctx.mod_mul(a, b),
        }
    }

    /// `base^exp mod N` via the windowed ladder of the active backend.
    pub fn mod_pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        match self {
            Reducer::Montgomery(ctx) => ctx.mod_pow(base, exp),
            Reducer::Barrett(ctx) => ctx.mod_pow(base, exp),
        }
    }

    /// `base^exp` with `base` and the result in the residue domain (used
    /// by the fixed-base tables' long-exponent fallback).
    pub(crate) fn pow_residue(&self, base_res: &BigUint, exp: &BigUint) -> BigUint {
        match self {
            Reducer::Montgomery(ctx) => window_pow_res(ctx, base_res, exp),
            Reducer::Barrett(ctx) => window_pow_res(ctx, base_res, exp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn dispatch_is_total_above_one() {
        assert!(Reducer::new(&BigUint::zero()).is_none());
        assert!(Reducer::new(&BigUint::one()).is_none());
        assert!(Reducer::new(&b(2)).unwrap().modulus() == &b(2));
        assert!(!Reducer::new(&b(4096)).unwrap().is_montgomery());
        assert!(Reducer::new(&b(97)).unwrap().is_montgomery());
    }

    #[test]
    fn residue_round_trip_both_backends() {
        for m in [97u128, 4096, (1 << 90) + 6, (1 << 90) + 7] {
            let r = Reducer::new(&b(m)).unwrap();
            for v in [0u128, 1, 2, 12345, m - 1, m + 17] {
                let res = r.to_residue(&b(v));
                assert_eq!(r.from_residue(&res), b(v % m), "v = {v}, m = {m}");
            }
            assert_eq!(r.from_residue(&r.residue_one()), b(1 % m));
        }
    }

    #[test]
    fn residue_mul_agrees_with_mod_mul() {
        for m in [10u128, 97, 4096, (1 << 80) + 2, (1 << 80) + 1] {
            let r = Reducer::new(&b(m)).unwrap();
            let (x, y) = (b(0xdead_beef_1234), b(0xcafe_babe_5678));
            let via_domain = r.from_residue(&r.residue_mul(&r.to_residue(&x), &r.to_residue(&y)));
            assert_eq!(via_domain, x.mod_mul(&y, &b(m)), "m = {m}");
            assert_eq!(r.mod_mul(&x, &y), x.mod_mul(&y, &b(m)), "m = {m}");
        }
    }

    #[test]
    fn batch_products_match_serial_both_backends() {
        for m in [97u128, 4096, (1 << 80) + 2, (1 << 80) + 1] {
            let r = Reducer::new(&b(m)).unwrap();
            let elems: Vec<BigUint> = (0..9u128)
                .map(|i| r.to_residue(&b(0xfeed_beef + 31 * i)))
                .collect();
            let pairs: Vec<(&BigUint, &BigUint)> = elems
                .iter()
                .enumerate()
                .map(|(i, a)| (a, &elems[(i + 4) % elems.len()]))
                .collect();
            let want: Vec<BigUint> = pairs.iter().map(|(a, b)| r.residue_mul(a, b)).collect();
            assert_eq!(r.residue_mul_batch(&pairs), want, "m = {m}");
        }
    }

    #[test]
    fn mod_pow_agrees_with_naive_both_parities() {
        for m in [97u128, 98, 4096, (1 << 90) + 6, (1 << 90) + 7] {
            let r = Reducer::new(&b(m)).unwrap();
            let base = b(0x1234_5678_9abc);
            let exp = b(0xfeed_face);
            assert_eq!(
                r.mod_pow(&base, &exp),
                base.mod_pow_naive(&exp, &b(m)),
                "m = {m}"
            );
        }
    }
}
