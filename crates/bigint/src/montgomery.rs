//! Montgomery-form modular arithmetic: the crate's one reduction path.
//!
//! Every HVE operation in this stack bottoms out in modular
//! multiplications mod the composite group order `N = P·Q`. The naive
//! path computes `(a·b) % N` with a full Knuth Algorithm-D division per
//! product; [`MontgomeryCtx`] instead precomputes, once per modulus,
//!
//! * `n' = -N^{-1} mod 2^64` (one Newton inversion of the low limb), and
//! * `R^2 mod N` where `R = 2^{64k}` for a `k`-limb modulus,
//!
//! after which each product costs one or two CIOS (Coarsely Integrated
//! Operand Scanning) passes — `k(k+1)` word multiplies each, running in
//! fixed stack buffers with **no division and no intermediate
//! allocation**. Exponentiation stays entirely inside the Montgomery
//! domain and uses a sliding window over a table of odd powers, cutting
//! both the per-step reduction cost and the number of multiplies.
//!
//! The context requires an **odd** modulus, which every order the
//! protocol builds is (`N = P·Q` with odd primes); [`MontgomeryCtx::new`]
//! returns `None` otherwise, and [`BigUint::mod_pow`] takes the
//! division ladder [`BigUint::mod_pow_naive`] for such moduli.

use crate::BigUint;

/// Stack-buffer capacity in limbs: moduli of up to 32 limbs (2048
/// bits, far beyond the simulation's group orders) run every CIOS pass
/// in stack buffers. Larger moduli fall back to a heap scratch buffer.
const STACK_LIMBS: usize = 32;

/// Precomputed per-modulus state for division-free modular arithmetic.
///
/// Build once with [`MontgomeryCtx::new`], then use
/// [`mod_mul`](MontgomeryCtx::mod_mul) / [`mod_pow`](MontgomeryCtx::mod_pow)
/// (standard-domain API) or the `mont_*` primitives (Montgomery-domain
/// API) for long operation chains.
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    /// The (odd) modulus `N`.
    n: BigUint,
    /// Limb count `k` of `N`; `R = 2^{64k}`.
    k: usize,
    /// `-N^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R mod N` — the Montgomery form of 1.
    r1: BigUint,
    /// `R^2 mod N` — converts standard → Montgomery form via one
    /// `mont_mul`.
    r2: BigUint,
}

impl MontgomeryCtx {
    /// Builds a context for an odd modulus `n > 1`; `None` otherwise.
    pub fn new(n: &BigUint) -> Option<Self> {
        if n.is_even() || n.is_zero() || n.is_one() {
            return None;
        }
        let k = n.limbs().len();
        // Newton–Hensel inversion of the low limb mod 2^64: five
        // iterations double the valid bits from 5 to 64+.
        let n0 = n.limbs()[0];
        let mut inv = n0; // valid to 5 bits for odd n0
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        let r1 = &BigUint::one().shl_bits(64 * k) % n;
        let r2 = &BigUint::one().shl_bits(128 * k) % n;
        Some(MontgomeryCtx {
            n: n.clone(),
            k,
            n0_inv,
            r1,
            r2,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The Montgomery form of 1 (`R mod N`).
    fn one_mont(&self) -> BigUint {
        self.r1.clone()
    }

    /// One CIOS pass: `out = a·b·R^{-1} mod N`, reduced into `[0, N)`.
    ///
    /// `out` holds exactly `k` limbs; `a`/`b` hold at most `k` limbs
    /// (shorter slices are implicitly zero-padded). The operands must
    /// satisfy `a·b < N·R`, which holds whenever one of them is reduced:
    /// the pass then ends below `2N`, and one conditional subtraction
    /// normalizes it. Always inlined, so callers holding fixed-size
    /// arrays get the loops at a constant width.
    #[inline(always)]
    fn cios(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let k = out.len();
        debug_assert_eq!(k, self.k);
        let nl = &self.n.limbs()[..k];
        out.fill(0);
        // `hi` is limb k of the running sum; limb k + 1 is at most one
        // and folds into it at the end of every round.
        let mut hi = 0u64;
        for i in 0..k {
            let ai = a.get(i).copied().unwrap_or(0);

            // t += a_i · b
            let mut carry = 0u128;
            for (j, tj) in out.iter_mut().enumerate() {
                let bj = b.get(j).copied().unwrap_or(0);
                let s = *tj as u128 + ai as u128 * bj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let s = hi as u128 + carry;
            let (t_k, t_k1) = (s as u64, (s >> 64) as u64);

            // m = t[0] · n' mod 2^64 makes (t + m·N) divisible by 2^64.
            let m = out[0].wrapping_mul(self.n0_inv);

            // t = (t + m·N) >> 64
            let s = out[0] as u128 + m as u128 * nl[0] as u128;
            debug_assert_eq!(s as u64, 0);
            let mut carry = s >> 64;
            for j in 1..k {
                let s = out[j] as u128 + m as u128 * nl[j] as u128 + carry;
                out[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t_k as u128 + carry;
            out[k - 1] = s as u64;
            hi = t_k1.wrapping_add((s >> 64) as u64);
        }

        // t < 2N at this point; one conditional subtraction normalizes
        // into [0, N), its borrow cancelling `hi`.
        if hi != 0 || !limbs_lt(out, nl) {
            let borrow = limbs_sub_wrapping(out, nl);
            debug_assert_eq!(borrow, hi != 0);
        }
    }

    /// Runs `f` with a `k`-limb result buffer — on the stack for every
    /// realistic modulus size.
    #[inline]
    fn with_scratch<R>(&self, f: impl FnOnce(&mut [u64]) -> R) -> R {
        if self.k <= STACK_LIMBS {
            let mut t = [0u64; STACK_LIMBS];
            f(&mut t[..self.k])
        } else {
            let mut t = vec![0u64; self.k];
            f(&mut t)
        }
    }

    /// Converts `a` (standard form, any magnitude) to Montgomery form
    /// `a·R mod N`.
    pub fn to_mont(&self, a: &BigUint) -> BigUint {
        let reduced;
        let al = if a < &self.n {
            a.limbs()
        } else {
            reduced = a % &self.n;
            reduced.limbs()
        };
        self.with_scratch(|t| {
            self.cios(al, self.r2.limbs(), t);
            BigUint::from_limbs(t.to_vec())
        })
    }

    /// Converts `a` (Montgomery form) back to standard form `a·R^{-1} mod N`.
    pub fn from_mont(&self, a: &BigUint) -> BigUint {
        self.mont_mul(a, &BigUint::one())
    }

    /// Montgomery product `a·b·R^{-1} mod N` via a single CIOS pass.
    ///
    /// Both operands must already be reduced (`< N`); the result is `< N`.
    pub fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        debug_assert!(a < &self.n && b < &self.n, "operands must be reduced");
        self.with_scratch(|t| {
            self.cios(a.limbs(), b.limbs(), t);
            BigUint::from_limbs(t.to_vec())
        })
    }

    /// Limb count `k` of `N` (`R = 2^{64k}`): the width of every buffer
    /// the `*_limbs` primitives below take.
    pub fn limb_count(&self) -> usize {
        self.k
    }

    /// Montgomery product `a·b·R^{-1} mod N` of two reduced `k`-limb
    /// residues, written into `out`: one CIOS pass with no allocation.
    /// Called with fixed-size arrays, the pass runs at a constant width.
    /// Always inlined, as the pass itself is: a call left out of line
    /// runs the pass at the run-time width `k` whatever its callers
    /// hold.
    ///
    /// # Panics
    /// Panics if a buffer is not `k` limbs wide.
    #[inline(always)]
    pub fn mont_mul_limbs(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert!(
            a.len() == self.k && b.len() == self.k && out.len() == self.k,
            "limb buffers must be k limbs wide"
        );
        self.cios(a, b, out);
    }

    /// `acc = (acc + b) mod N` on reduced `k`-limb values, in place.
    ///
    /// # Panics
    /// Panics if a buffer is not `k` limbs wide.
    #[inline]
    pub fn add_mod_limbs(&self, acc: &mut [u64], b: &[u64]) {
        assert!(
            acc.len() == self.k && b.len() == self.k,
            "limb buffers must be k limbs wide"
        );
        let nl = self.n.limbs();
        // The sum is below 2N; a carry out of limb k - 1 means it is at
        // least R > N, and the subtraction's borrow cancels the carry.
        if limbs_add_wrapping(acc, b) || !limbs_lt(acc, nl) {
            limbs_sub_wrapping(acc, nl);
        }
    }

    /// `acc = (acc − b) mod N` on reduced `k`-limb values, in place.
    ///
    /// # Panics
    /// Panics if a buffer is not `k` limbs wide.
    #[inline]
    pub fn sub_mod_limbs(&self, acc: &mut [u64], b: &[u64]) {
        assert!(
            acc.len() == self.k && b.len() == self.k,
            "limb buffers must be k limbs wide"
        );
        if limbs_sub_wrapping(acc, b) {
            limbs_add_wrapping(acc, self.n.limbs());
        }
    }

    /// `(a · b) mod N` without any division: one conversion pass plus one
    /// Montgomery pass (`mont_mul(a·R, b) = a·b`), all in stack buffers
    /// with a single allocation for the result.
    pub fn mod_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (ra, rb);
        let al = if a < &self.n {
            a.limbs()
        } else {
            ra = a % &self.n;
            ra.limbs()
        };
        let bl = if b < &self.n {
            b.limbs()
        } else {
            rb = b % &self.n;
            rb.limbs()
        };
        let k = self.k;
        if k <= STACK_LIMBS {
            let mut t1 = [0u64; STACK_LIMBS];
            self.cios(al, self.r2.limbs(), &mut t1[..k]);
            let mut t2 = [0u64; STACK_LIMBS];
            self.cios(&t1[..k], bl, &mut t2[..k]);
            BigUint::from_limbs(t2[..k].to_vec())
        } else {
            let mut t1 = vec![0u64; k];
            self.cios(al, self.r2.limbs(), &mut t1);
            let mut t2 = vec![0u64; k];
            self.cios(&t1, bl, &mut t2);
            BigUint::from_limbs(t2)
        }
    }

    /// `base^exp mod N` with a sliding window over a table of odd powers,
    /// performed entirely in the Montgomery domain.
    pub fn mod_pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.from_mont(&self.pow_mont(&self.to_mont(base), exp))
    }

    /// `base^exp` with `base` and the result in Montgomery form: a
    /// left-to-right sliding window over a table of odd powers, plain
    /// square-and-multiply for exponents of up to 8 bits.
    fn pow_mont(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let bits = exp.bit_len();
        let window = match bits {
            0..=8 => 1,
            9..=32 => 2,
            33..=96 => 3,
            97..=512 => 4,
            _ => 5,
        };
        let mut acc = self.one_mont();
        if window == 1 {
            for i in (0..bits).rev() {
                acc = self.mont_mul(&acc, &acc);
                if exp.bit(i) {
                    acc = self.mont_mul(&acc, base);
                }
            }
            return acc;
        }

        // Odd-power table: odd[i] = base^(2i+1).
        let base_sq = self.mont_mul(base, base);
        let mut odd = Vec::with_capacity(1 << (window - 1));
        odd.push(base.clone());
        for i in 1..(1usize << (window - 1)) {
            let next = self.mont_mul(&odd[i - 1], &base_sq);
            odd.push(next);
        }

        let mut i = bits as isize - 1;
        while i >= 0 {
            if !exp.bit(i as usize) {
                acc = self.mont_mul(&acc, &acc);
                i -= 1;
                continue;
            }
            // Greedily take up to `window` bits ending on a set bit so the
            // window value is odd and hits the precomputed table.
            let mut lo = (i - window as isize + 1).max(0);
            while !exp.bit(lo as usize) {
                lo += 1;
            }
            let mut value = 0usize;
            for b in (lo..=i).rev() {
                acc = self.mont_mul(&acc, &acc);
                value = (value << 1) | exp.bit(b as usize) as usize;
            }
            acc = self.mont_mul(&acc, &odd[(value - 1) / 2]);
            i = lo - 1;
        }
        acc
    }
}

/// `a < b` over little-endian limb slices of equal length.
fn limbs_lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// `a += b` modulo `2^{64·len}` over equal-length limb slices; returns
/// the carry out of the top limb.
#[inline(always)]
fn limbs_add_wrapping(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        *x = s2;
        carry = c1 | c2;
    }
    carry
}

/// `a -= b` modulo `2^{64·len}` over equal-length limb slices; returns
/// the borrow out of the top limb.
#[inline(always)]
fn limbs_sub_wrapping(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *x = d2;
        borrow = b1 | b2;
    }
    borrow
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn rejects_degenerate_moduli() {
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_none());
        assert!(MontgomeryCtx::new(&b(4096)).is_none());
        assert!(MontgomeryCtx::new(&b(97)).is_some());
    }

    #[test]
    fn round_trip_through_montgomery_form() {
        let n = b(1_000_000_007);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        for v in [0u128, 1, 2, 12345, 999_999_999] {
            let m = ctx.to_mont(&b(v));
            assert_eq!(ctx.from_mont(&m), b(v), "v = {v}");
        }
    }

    #[test]
    fn mont_mul_matches_naive_single_limb() {
        let n = b(0xffff_ffff_0000_0001); // odd 64-bit modulus
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let samples = [0u128, 1, 2, 0x1234_5678, 0xdead_beef_cafe];
        for &x in &samples {
            for &y in &samples {
                assert_eq!(
                    ctx.mod_mul(&b(x), &b(y)),
                    b(x).mod_mul(&b(y), &n),
                    "x = {x}, y = {y}"
                );
            }
        }
    }

    #[test]
    fn mont_mul_matches_naive_multi_limb() {
        // 96-bit composite modulus like the pairing group's N.
        let n = &b(0x8000_0000_0000_0000_0000_0001u128) + &b(6);
        assert!(n.is_odd());
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let mut x = b(0x0123_4567_89ab_cdef_1111_2222);
        let mut y = b(0xfeed_face_dead_c0de_3333_4444);
        for _ in 0..50 {
            assert_eq!(ctx.mod_mul(&x, &y), x.mod_mul(&y, &n));
            x = &(&x * &b(0x9e37_79b9)) + &b(17);
            y = &(&y * &b(0x85eb_ca6b)) + &b(29);
        }
    }

    #[test]
    fn large_modulus_falls_back_to_heap_scratch() {
        // 33-limb odd modulus exceeds the stack-buffer capacity.
        let mut n = BigUint::one().shl_bits(64 * 32 + 7);
        n.set_bit(0);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let x = BigUint::one().shl_bits(1999);
        let y = &BigUint::one().shl_bits(2000) - &b(12345);
        assert_eq!(ctx.mod_mul(&x, &y), x.mod_mul(&y, &n));
    }

    #[test]
    fn unreduced_operands_are_reduced() {
        let n = b(1_000_003);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let big_a = b(u128::MAX);
        let big_b = b(u128::MAX - 12345);
        assert_eq!(ctx.mod_mul(&big_a, &big_b), big_a.mod_mul(&big_b, &n));
    }

    #[test]
    fn mod_pow_matches_naive() {
        let n = &b(1_000_000_007) * &b(998_244_353);
        let ctx = MontgomeryCtx::new(&n).unwrap();
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
                b(base).mod_pow_naive(&b(exp), &n),
                "base = {base}, exp = {exp}"
            );
        }
    }

    #[test]
    fn fermat_little_theorem_via_montgomery() {
        let p = b(1_000_000_007);
        let ctx = MontgomeryCtx::new(&p).unwrap();
        for a in [2u128, 3, 65537, 999_999_999] {
            assert_eq!(ctx.mod_pow(&b(a), &(&p - &b(1))), BigUint::one());
        }
    }

    #[test]
    fn window_boundaries_exercised() {
        // Exponent bit lengths straddling each window-size threshold.
        let n = &b(0xffff_ffff_ffff_fffb) * &b(0xffff_ffff_ffff_ffc5);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let base = b(0x1234_5678_9abc_def0);
        for bits in [1usize, 8, 9, 32, 33, 96, 97, 120] {
            let exp = &BigUint::one().shl_bits(bits) - &BigUint::one();
            assert_eq!(
                ctx.mod_pow(&base, &exp),
                base.mod_pow_naive(&exp, &n),
                "bits = {bits}"
            );
        }
    }
}
