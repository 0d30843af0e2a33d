//! Barrett reduction: division-free modular arithmetic for **any**
//! modulus, covering the even moduli [`crate::MontgomeryCtx`] rejects.
//!
//! Montgomery form needs `gcd(N, 2^64) = 1`, so even moduli used to fall
//! back to Knuth Algorithm-D division on every step. [`BarrettCtx`]
//! instead precomputes, once per modulus,
//!
//! * `µ = ⌊ b^{2k} / N ⌋` with `b = 2^64` and `k` the limb count of `N`,
//!
//! after which any `x < b^{2k}` (in particular any product of two reduced
//! operands) reduces with two multiplications, two shifts and at most two
//! conditional subtractions — no division (HAC Algorithm 14.42, run at
//! full width). Together with Montgomery this makes the modulus dispatch
//! in [`BigUint::mod_pow`] **total**: odd `N` takes CIOS passes, even `N`
//! takes Barrett passes, and the division-based ladder survives only as
//! the explicitly-named [`BigUint::mod_pow_naive`] baseline.

use crate::montgomery::{limbs_lt, limbs_sub_assign};
use crate::pow::{window_pow_res, ResidueOps};
use crate::BigUint;

/// Limb cap for the fixed stack-buffer reduction path (512-bit moduli,
/// mirroring the Montgomery batch path's cap). Larger moduli take the allocating
/// `BigUint` path.
const STACK_K: usize = 8;

/// Precomputed per-modulus state for division-free reduction by an
/// arbitrary modulus `N > 1`.
///
/// The "residue domain" of a Barrett context is the canonical residues
/// themselves (unlike Montgomery's `x·R mod N`), so domain conversion is
/// just reduction into `[0, N)`.
#[derive(Debug, Clone)]
pub struct BarrettCtx {
    /// The modulus `N`.
    n: BigUint,
    /// Limb count `k` of `N`.
    k: usize,
    /// `⌊ 2^{128k} / N ⌋`.
    mu: BigUint,
}

impl BarrettCtx {
    /// Builds a context for any modulus `n > 1`; `None` otherwise.
    pub fn new(n: &BigUint) -> Option<Self> {
        if n.is_zero() || n.is_one() {
            return None;
        }
        let k = n.limbs().len();
        let mu = &BigUint::one().shl_bits(128 * k) / n;
        Some(BarrettCtx {
            n: n.clone(),
            k,
            mu,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Reduces `x < 2^{128k}` into `[0, N)` without division.
    ///
    /// Any product of two reduced operands satisfies the bound; larger
    /// values are canonicalized with one (cold-path) division.
    pub fn reduce(&self, x: &BigUint) -> BigUint {
        if x < &self.n {
            return x.clone();
        }
        if x.bit_len() > 128 * self.k {
            return x % &self.n; // outside Barrett's input range
        }
        if self.k <= STACK_K {
            return self.reduce_limbs(x.limbs());
        }
        // Allocating fallback for oversized moduli.
        // q̂ = ⌊ ⌊x / b^{k-1}⌋ · µ / b^{k+1} ⌋  underestimates the true
        // quotient by at most 2 (HAC Theorem 14.43, given x < b^{2k} and
        // µ = ⌊b^{2k}/N⌋), so r = x - q̂·N lands in [0, 3N) and at most
        // two correcting subtractions can ever run.
        let q = (&x.shr_bits(64 * (self.k - 1)) * &self.mu).shr_bits(64 * (self.k + 1));
        let mut r = x - &(&q * &self.n);
        let mut corrections = 0u32;
        while r >= self.n {
            r = &r - &self.n;
            corrections += 1;
            debug_assert!(
                corrections <= 2,
                "Barrett correction bound violated: q̂ underestimated by more than 2 \
                 (x bits = {}, k = {})",
                x.bit_len(),
                self.k
            );
        }
        r
    }

    /// The HAC 14.42 reduction over fixed stack limb buffers — the same
    /// q̂ as the allocating path, with every intermediate (`q1·µ`,
    /// `q3·N`, `x − q3·N mod b^{k+1}`) living in a stack array, so a
    /// reduction allocates exactly once (the result). `xl` may carry
    /// trailing zero limbs; callers guarantee `xl` spans ≤ `2k` limbs.
    fn reduce_limbs(&self, xl: &[u64]) -> BigUint {
        let k = self.k;
        let nl = self.n.limbs();
        let ml = self.mu.limbs(); // µ ≤ b^{k+1} (k+2 limbs when N = b^{k-1})
        debug_assert!(xl.len() <= 2 * k && ml.len() <= k + 2);

        // q1 = ⌊x / b^{k-1}⌋ — a limb-slice view, no copy.
        let q1 = if xl.len() > k - 1 { &xl[k - 1..] } else { &[] };
        // q2 = q1·µ  (≤ 2k+3 limbs).
        let mut q2 = [0u64; 2 * STACK_K + 4];
        limbs_mul_into(q1, ml, &mut q2[..q1.len() + ml.len()]);
        // q3 = ⌊q2 / b^{k+1}⌋ — again a slice view.
        let q2_len = q1.len() + ml.len();
        let q3 = if q2_len > k + 1 {
            &q2[k + 1..q2_len]
        } else {
            &[]
        };
        // q3·N (≤ 2k+2 limbs).
        let mut q3n = [0u64; 2 * STACK_K + 4];
        limbs_mul_into(q3, nl, &mut q3n[..q3.len() + nl.len()]);
        // r = (x − q3·N) mod b^{k+1}: the true difference is in [0, 3N)
        // ⊂ [0, b^{k+1}), so the wrap-around subtraction is exact.
        let mut r = [0u64; STACK_K + 1];
        let mut borrow = 0u64;
        for (i, ri) in r.iter_mut().enumerate().take(k + 1) {
            let xi = xl.get(i).copied().unwrap_or(0);
            let yi = q3n.get(i).copied().unwrap_or(0);
            let (d1, o1) = xi.overflowing_sub(yi);
            let (d2, o2) = d1.overflowing_sub(borrow);
            *ri = d2;
            borrow = (o1 | o2) as u64;
        }
        // At most two correcting subtractions (HAC 14.43).
        let mut corrections = 0u32;
        while r[k] != 0 || !limbs_lt(&r[..k], nl) {
            limbs_sub_assign(&mut r[..=k], nl);
            corrections += 1;
            debug_assert!(
                corrections <= 2,
                "Barrett correction bound violated: q̂ underestimated by more than 2 (k = {k})",
            );
        }
        BigUint::from_limbs(r[..k].to_vec())
    }

    /// `(a · b) mod N` via one full product and one Barrett reduction.
    pub fn mod_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (ra, rb);
        let a = if a < &self.n {
            a
        } else {
            ra = a % &self.n;
            &ra
        };
        let b = if b < &self.n {
            b
        } else {
            rb = b % &self.n;
            &rb
        };
        self.mul_reduced(a, b)
    }

    /// Product + reduction of already-reduced operands: the hot path
    /// behind [`ResidueOps::mul_res`]. For stack-sized moduli the full
    /// product lands in a fixed limb buffer — no `BigUint` temporary.
    fn mul_reduced(&self, a: &BigUint, b: &BigUint) -> BigUint {
        debug_assert!(a < &self.n && b < &self.n);
        if self.k <= STACK_K {
            let (al, bl) = (a.limbs(), b.limbs());
            let mut prod = [0u64; 2 * STACK_K];
            limbs_mul_into(al, bl, &mut prod[..al.len() + bl.len()]);
            self.reduce_limbs(&prod[..al.len() + bl.len()])
        } else {
            self.reduce(&(a * b))
        }
    }

    /// `base^exp mod N` via the shared sliding-window ladder with a
    /// Barrett reduction per step.
    pub fn mod_pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        window_pow_res(self, &self.to_res(base), exp)
    }
}

impl ResidueOps for BarrettCtx {
    fn one_res(&self) -> BigUint {
        BigUint::one() // N > 1 by construction
    }
    fn to_res(&self, a: &BigUint) -> BigUint {
        if a < &self.n {
            a.clone()
        } else {
            a % &self.n
        }
    }
    fn mul_res(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.mul_reduced(a, b)
    }
}

/// Schoolbook product `a·b` accumulated into the zeroed buffer `out`
/// (`out.len() >= a.len() + b.len()`); trailing zero limbs in either
/// operand are harmless.
fn limbs_mul_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert!(out.len() >= a.len() + b.len());
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let s = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = s as u64;
            carry = s >> 64;
        }
        // The final carry fits one limb and, because the total product
        // is < b^{a.len()+b.len()}, the ripple never leaves `out`.
        let mut idx = i + b.len();
        let mut c = carry as u64;
        while c != 0 {
            let (v, overflow) = out[idx].overflowing_add(c);
            out[idx] = v;
            c = overflow as u64;
            idx += 1;
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
    fn rejects_degenerate_moduli() {
        assert!(BarrettCtx::new(&BigUint::zero()).is_none());
        assert!(BarrettCtx::new(&BigUint::one()).is_none());
        assert!(BarrettCtx::new(&b(2)).is_some());
        assert!(BarrettCtx::new(&b(4096)).is_some());
    }

    #[test]
    fn reduce_matches_remainder() {
        for m in [2u128, 6, 97, 4096, 1 << 64, (1 << 80) + 2] {
            let ctx = BarrettCtx::new(&b(m)).unwrap();
            for x in [0u128, 1, m - 1, m, m + 1, m * 3 + 5, u128::MAX >> 8] {
                assert_eq!(ctx.reduce(&b(x)), b(x % m), "x = {x}, m = {m}");
            }
        }
    }

    #[test]
    fn mod_mul_matches_naive_even_moduli() {
        let samples = [0u128, 1, 2, 0x1234_5678, 0xdead_beef_cafe, u128::MAX >> 64];
        for m in [2u128, 10, 4096, (1u128 << 96) + 4, (1 << 64) - 2] {
            let m = b(m);
            let ctx = BarrettCtx::new(&m).unwrap();
            for &x in &samples {
                for &y in &samples {
                    assert_eq!(ctx.mod_mul(&b(x), &b(y)), b(x).mod_mul(&b(y), &m));
                }
            }
        }
    }

    #[test]
    fn mod_pow_matches_naive() {
        let m = b((1u128 << 90) + 6); // even, multi-limb
        let ctx = BarrettCtx::new(&m).unwrap();
        for (base, exp) in [
            (0u128, 0u128),
            (0, 5),
            (5, 0),
            (2, 1),
            (3, 1_000_000),
            (0xdead_beef, 0xcafe_babe_1234),
        ] {
            assert_eq!(
                ctx.mod_pow(&b(base), &b(exp)),
                b(base).mod_pow_naive(&b(exp), &m),
                "base = {base}, exp = {exp}"
            );
        }
    }

    #[test]
    fn stack_path_agrees_on_power_of_two_and_near_cap_moduli() {
        // N = b^{k-1} exactly (µ occupies k+2 limbs) and an 8-limb
        // (cap-sized) even modulus, with full-width products.
        let mut near_cap = BigUint::one().shl_bits(64 * 8 - 1);
        near_cap.set_bit(1); // even, 8 limbs
        for m in [
            BigUint::one().shl_bits(64),
            BigUint::one().shl_bits(128),
            near_cap,
        ] {
            let ctx = BarrettCtx::new(&m).unwrap();
            let a = &(&BigUint::one().shl_bits(64 * ctx.k) - &BigUint::one()) % &m;
            let b = &(&BigUint::one().shl_bits(64 * ctx.k - 7) - &b(99)) % &m;
            assert_eq!(ctx.mod_mul(&a, &b), a.mod_mul(&b, &m));
            assert_eq!(ctx.mul_res(&a, &b), a.mod_mul(&b, &m));
            assert_eq!(ctx.reduce(&(&a * &b)), (&a * &b) % &m);
        }
    }

    #[test]
    fn oversized_moduli_use_allocating_fallback() {
        // 9-limb even modulus exceeds the stack path's cap.
        let mut m = BigUint::one().shl_bits(64 * 8 + 13);
        m.set_bit(1);
        let ctx = BarrettCtx::new(&m).unwrap();
        let a = &BigUint::one().shl_bits(64 * 9 - 5) % &m;
        let b = &(&BigUint::one().shl_bits(64 * 9 - 11) - &b(7)) % &m;
        assert_eq!(ctx.mod_mul(&a, &b), a.mod_mul(&b, &m));
    }

    #[test]
    fn oversized_inputs_are_canonicalized() {
        let m = b(1 << 20);
        let ctx = BarrettCtx::new(&m).unwrap();
        let huge = BigUint::one().shl_bits(500);
        assert_eq!(ctx.reduce(&huge), &huge % &m);
        assert_eq!(ctx.mod_mul(&huge, &huge), huge.mod_mul(&huge, &m));
    }
}
