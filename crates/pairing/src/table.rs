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
//! construction; they serve `pow_g`/`pow_gt` on a generator and the
//! blinding factors of `random_gp`/`random_gq`. HVE key material takes
//! the same double lift once per key, as flat limbs, in the engine's
//! Encrypt and GenToken loops (`issue.rs`).

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
