//! Fixed-base exponentiation precomputation for the simulated group.
//!
//! In the exponent representation a group exponentiation `a^e` is the
//! *log-domain scalar product* `log(a)·e mod N`: a single modular
//! multiplication, not a square-and-multiply ladder, so the profitable
//! per-base precomputation is the Montgomery *double-lift*:
//!
//! ```text
//! mul_ready = log(a) · R² mod N        (one-time, per base)
//! a^e       = mont_mul(mul_ready, e) = (log(a)·e) · R mod N
//! ```
//!
//! — **one** CIOS pass per exponentiation, landing directly in the
//! Montgomery domain, versus the generic path's two (exponent conversion
//! plus domain product).
//!
//! [`SimulatedGroup`](crate::SimulatedGroup) builds a [`FixedBaseMul`]
//! for its four fixed generators (`g`, `g_p`, `g_q`, `gt`) at
//! construction, and hands them out for arbitrary bases — HVE key
//! material, typically — through
//! [`BilinearGroup::prepare_g`](crate::BilinearGroup::prepare_g).

use crate::{GElem, GtElem};
use sla_bigint::{BigUint, MontgomeryCtx};
use std::sync::Arc;

/// Per-base precomputation mapping an exponent to the base's power with a
/// single reduction pass.
#[derive(Debug, Clone)]
pub(crate) struct FixedBaseMul {
    ctx: Arc<MontgomeryCtx>,
    /// Montgomery-domain image of the base log (for base identification
    /// and as the value the exponent `1` must map back to).
    base_res: BigUint,
    /// `log(a)·R² mod N`, so one `mont_mul` against a canonical exponent
    /// yields the Montgomery-domain power.
    mul_ready: BigUint,
}

impl FixedBaseMul {
    /// Builds the precomputation for `base_res` (Montgomery form).
    pub(crate) fn new(ctx: Arc<MontgomeryCtx>, base_res: BigUint) -> Self {
        // Lifting the residue once more through the domain map gives
        // log·R², exactly the left operand that makes `mont_mul(·, e)` a
        // one-pass exponentiation.
        let mul_ready = ctx.to_mont(&base_res);
        FixedBaseMul {
            ctx,
            base_res,
            mul_ready,
        }
    }

    /// The Montgomery-domain base log (for table-hit identification).
    pub(crate) fn base_res(&self) -> &BigUint {
        &self.base_res
    }

    /// The Montgomery context the precomputation was built for.
    pub(crate) fn ctx(&self) -> &Arc<MontgomeryCtx> {
        &self.ctx
    }

    /// Montgomery residue of `log(base) · e mod N` — one CIOS pass.
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
        self.ctx.mont_mul(&self.mul_ready, e)
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

    fn fixture(n: u64) -> Arc<MontgomeryCtx> {
        Arc::new(MontgomeryCtx::new(&BigUint::from_u64(n)).expect("odd modulus"))
    }

    #[test]
    fn scalar_mul_matches_mod_mul() {
        let ctx = fixture(0xffff_ffff_0000_0001);
        let n = ctx.modulus().clone();
        for base in [0u64, 1, 2, 0xdead_beef, 0xffff_ffff_0000_0000] {
            let b = BigUint::from_u64(base);
            let fixed = FixedBaseMul::new(ctx.clone(), ctx.to_mont(&b));
            for e in [0u64, 1, 15, 16, 0xcafe_babe, u64::MAX] {
                let e = BigUint::from_u64(e);
                let got = ctx.from_mont(&fixed.scalar_mul(&e));
                assert_eq!(got, b.mod_mul(&e, &n), "base = {base}, e = {e}");
            }
        }
    }

    #[test]
    fn oversized_exponents_fold_modulo_n() {
        let ctx = fixture(1_000_003);
        let b = BigUint::from_u64(777);
        let fixed = FixedBaseMul::new(ctx.clone(), ctx.to_mont(&b));
        let huge = BigUint::one().shl_bits(300);
        assert_eq!(
            ctx.from_mont(&fixed.scalar_mul(&huge)),
            b.mod_mul(&huge, ctx.modulus())
        );
    }
}
