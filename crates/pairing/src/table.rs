//! Fixed-base exponentiation precomputation for the simulated group.
//!
//! In the exponent representation a group exponentiation `a^e` is the
//! *log-domain scalar product* `log(a)·e mod N` — a single modular
//! multiplication, not a square-and-multiply ladder. The radix-2^w power
//! tables of [`sla_bigint::FixedBaseTable`] are therefore the wrong shape
//! at this layer (a chain of `bits/w` dependent table additions costs
//! more than one two-limb product); the profitable per-base
//! precomputation is the Montgomery *double-lift*:
//!
//! ```text
//! mul_ready = log(a) · R² mod N        (one-time, per base)
//! a^e       = mont_mul(mul_ready, e) = (log(a)·e) · R mod N
//! ```
//!
//! — **one** CIOS pass per exponentiation, landing directly in the
//! residue domain, versus the generic path's two (exponent conversion
//! plus domain product). Under a Barrett reducer (even orders, canonical
//! domain) the same shape degenerates gracefully: `mul_ready` is the
//! canonical log and the product is one Barrett reduction.
//!
//! [`SimulatedGroup`](crate::SimulatedGroup) builds a [`FixedBaseMul`]
//! for its four fixed generators (`g`, `g_p`, `g_q`, `gt`) at
//! construction, and hands them out for arbitrary bases — HVE key
//! material, typically — through
//! [`BilinearGroup::prepare_g`](crate::BilinearGroup::prepare_g).

use crate::{GElem, GtElem};
use sla_bigint::{BigUint, Reducer};
use std::sync::Arc;

/// Per-base precomputation mapping an exponent to the base's power with a
/// single reduction pass.
#[derive(Debug, Clone)]
pub(crate) struct FixedBaseMul {
    ctx: Arc<Reducer>,
    /// Residue-domain image of the base log (for base identification and
    /// as the value the exponent `1` must map back to).
    base_res: BigUint,
    /// `log(a)·R² mod N` under Montgomery reducers (so one `mont_mul`
    /// against a canonical exponent yields the residue-domain power);
    /// the canonical log under Barrett reducers.
    mul_ready: BigUint,
}

impl FixedBaseMul {
    /// Builds the precomputation for `base_res` (residue form).
    pub(crate) fn new(ctx: Arc<Reducer>, base_res: BigUint) -> Self {
        // Lifting the residue once more through the domain map gives
        // log·R² (Montgomery) or the canonical log (Barrett) — exactly
        // the left operand that makes `residue_mul(·, e)` a one-pass
        // exponentiation.
        let mul_ready = ctx.to_residue(&base_res);
        FixedBaseMul {
            ctx,
            base_res,
            mul_ready,
        }
    }

    /// The residue-domain base log (for table-hit identification).
    pub(crate) fn base_res(&self) -> &BigUint {
        &self.base_res
    }

    /// The reduction context the precomputation was built for.
    pub(crate) fn ctx(&self) -> &Reducer {
        &self.ctx
    }

    /// Residue of `log(base) · e mod N` — one reduction pass.
    pub(crate) fn scalar_mul(&self, e: &BigUint) -> BigUint {
        let n = self.ctx.modulus();
        let folded;
        let e = if e < n {
            e
        } else {
            // log·e ≡ log·(e mod N); oversized exponents are cold-path.
            folded = e % n;
            &folded
        };
        self.ctx.residue_mul(&self.mul_ready, e)
    }
}

/// A base in `G` prepared for repeated exponentiation.
///
/// Obtained from [`BilinearGroup::prepare_g`](crate::BilinearGroup::prepare_g);
/// engines that precompute (the simulated engine does) attach a
/// `FixedBaseMul` table, others fall back to the plain element. Exponentiating
/// through a prepared base is metered exactly like
/// [`pow_g`](crate::BilinearGroup::pow_g).
#[derive(Debug, Clone)]
pub struct PreparedG {
    pub(crate) base: GElem,
    pub(crate) table: Option<FixedBaseMul>,
}

/// A base in `GT` prepared for repeated exponentiation (see [`PreparedG`]).
#[derive(Debug, Clone)]
pub struct PreparedGt {
    pub(crate) base: GtElem,
    pub(crate) table: Option<FixedBaseMul>,
}

impl PreparedG {
    /// Wraps a base without precomputation (the trait-default fallback).
    pub fn unprepared(base: GElem) -> Self {
        PreparedG { base, table: None }
    }

    /// The underlying base element.
    pub fn base(&self) -> &GElem {
        &self.base
    }
}

impl PreparedGt {
    /// Wraps a base without precomputation (the trait-default fallback).
    pub fn unprepared(base: GtElem) -> Self {
        PreparedGt { base, table: None }
    }

    /// The underlying base element.
    pub fn base(&self) -> &GtElem {
        &self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(n: u64) -> Arc<Reducer> {
        Arc::new(Reducer::new(&BigUint::from_u64(n)).expect("modulus > 1"))
    }

    #[test]
    fn scalar_mul_matches_mod_mul() {
        let ctx = fixture(0xffff_ffff_0000_0001);
        let n = ctx.modulus().clone();
        for base in [0u64, 1, 2, 0xdead_beef, 0xffff_ffff_0000_0000] {
            let b = BigUint::from_u64(base);
            let fixed = FixedBaseMul::new(ctx.clone(), ctx.to_residue(&b));
            for e in [0u64, 1, 15, 16, 0xcafe_babe, u64::MAX] {
                let e = BigUint::from_u64(e);
                let got = ctx.from_residue(&fixed.scalar_mul(&e));
                assert_eq!(got, b.mod_mul(&e, &n), "base = {base}, e = {e}");
            }
        }
    }

    #[test]
    fn oversized_exponents_fold_modulo_n() {
        let ctx = fixture(1_000_003);
        let b = BigUint::from_u64(777);
        let fixed = FixedBaseMul::new(ctx.clone(), ctx.to_residue(&b));
        let huge = BigUint::one().shl_bits(300);
        assert_eq!(
            ctx.from_residue(&fixed.scalar_mul(&huge)),
            b.mod_mul(&huge, ctx.modulus())
        );
    }

    #[test]
    fn even_modulus_precomputation_works() {
        // Degenerate even group orders take the Barrett (canonical)
        // domain; the precomputation must behave identically.
        let ctx = fixture(1 << 20);
        let b = BigUint::from_u64(12345);
        let fixed = FixedBaseMul::new(ctx.clone(), ctx.to_residue(&b));
        for e in [0u64, 3, 1 << 19, (1 << 20) + 7] {
            let e = BigUint::from_u64(e);
            assert_eq!(
                ctx.from_residue(&fixed.scalar_mul(&e)),
                b.mod_mul(&e, ctx.modulus())
            );
        }
    }
}
