//! Montgomery-form modular arithmetic (the hot-path fast lane).
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
//! The context requires an **odd** modulus (true for `N = P·Q` with odd
//! primes); [`MontgomeryCtx::new`] returns `None` otherwise and the
//! [`crate::Reducer`] dispatch routes those moduli through the Barrett
//! context instead, keeping every `mod_pow` division-free.

use crate::BigUint;

/// Stack-buffer capacity in limbs (`k + 2` scratch for `k ≤ 32`, i.e.
/// moduli up to 2048 bits — far beyond the simulation's group orders).
/// Larger moduli transparently fall back to a heap scratch buffer.
const STACK_LIMBS: usize = 34;

/// Largest modulus limb count the lockstep batch path covers (512-bit
/// moduli — beyond every group order the simulation uses). Larger
/// moduli run batches as a serial map.
const KMAX: usize = 8;
/// Narrow lockstep width: the group that mops up after the wide ones.
const LANES: usize = 4;
/// Wide lockstep width: eight interleaved carry chains per sweep.
const LANES8: usize = 2 * LANES;

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
    pub fn one_mont(&self) -> BigUint {
        self.r1.clone()
    }

    /// One CIOS pass: `t[..k] = a·b·R^{-1} mod N`, reduced into `[0, N)`.
    ///
    /// `t` is a zeroed scratch of `k + 2` limbs; `a`/`b` hold reduced
    /// operands (shorter-than-`k` slices are implicitly zero-padded).
    /// This u128 schoolbook loop is the oracle the lockstep batch path
    /// is pinned byte-identical to.
    fn cios(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let k = self.k;
        let nl = self.n.limbs();
        debug_assert_eq!(t.len(), k + 2);
        for i in 0..k {
            let ai = a.get(i).copied().unwrap_or(0);

            // t += a_i · b
            let mut carry = 0u128;
            for (j, tj) in t.iter_mut().enumerate().take(k) {
                let bj = b.get(j).copied().unwrap_or(0);
                let s = *tj as u128 + ai as u128 * bj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64; // cannot overflow: t[k+1] was 0

            // m = t[0] · n' mod 2^64 makes (t + m·N) divisible by 2^64.
            let m = t[0].wrapping_mul(self.n0_inv);

            // t = (t + m·N) >> 64
            let s = t[0] as u128 + m as u128 * nl[0] as u128;
            debug_assert_eq!(s as u64, 0);
            let mut carry = s >> 64;
            for j in 1..k {
                let s = t[j] as u128 + m as u128 * nl[j] as u128 + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            t[k] = t[k + 1].wrapping_add((s >> 64) as u64);
            t[k + 1] = 0;
        }

        // t[..=k] < 2N at this point; one conditional subtraction
        // normalizes into [0, N).
        if t[k] != 0 || !limbs_lt(&t[..k], nl) {
            limbs_sub_assign(&mut t[..=k], nl);
        }
        debug_assert_eq!(t[k], 0);
    }

    /// Runs `f` with a zeroed `k + 2`-limb scratch buffer — on the stack
    /// for every realistic modulus size.
    #[inline]
    fn with_scratch<R>(&self, f: impl FnOnce(&mut [u64]) -> R) -> R {
        if self.k + 2 <= STACK_LIMBS {
            let mut t = [0u64; STACK_LIMBS];
            f(&mut t[..self.k + 2])
        } else {
            let mut t = vec![0u64; self.k + 2];
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
            BigUint::from_limbs(t[..self.k].to_vec())
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
            BigUint::from_limbs(t[..self.k].to_vec())
        })
    }

    /// Montgomery products for a batch of independent reduced pairs.
    ///
    /// For moduli of up to eight limbs, groups of eight (then one group
    /// of four) advance in lockstep: the scalar CIOS recurrence per lane,
    /// with the lanes' u128 carry chains interleaved. The remaining
    /// pairs, and every pair of a larger modulus, take the scalar CIOS of
    /// [`Self::mont_mul`]. Results are byte-identical to mapping
    /// [`Self::mont_mul`] over the slice, in order.
    pub fn mont_mul_batch(&self, pairs: &[(&BigUint, &BigUint)]) -> Vec<BigUint> {
        let mut out = Vec::with_capacity(pairs.len());
        let mut rest = pairs;
        if self.k <= KMAX {
            rest = self.lockstep_groups::<LANES8>(rest, &mut out);
            rest = self.lockstep_groups::<LANES>(rest, &mut out);
        }
        out.extend(rest.iter().map(|(a, b)| self.mont_mul(a, b)));
        out
    }

    /// Runs every whole group of `L` pairs at the front of `pairs`
    /// through [`lockstep_portable`], appending the products to `out`,
    /// and returns the pairs left over (fewer than `L`).
    fn lockstep_groups<'p, 'v, const L: usize>(
        &self,
        pairs: &'p [(&'v BigUint, &'v BigUint)],
        out: &mut Vec<BigUint>,
    ) -> &'p [(&'v BigUint, &'v BigUint)] {
        let mut groups = pairs.chunks_exact(L);
        let mut group = [[0u64; L]; KMAX];
        for g in &mut groups {
            debug_assert!(
                g.iter().all(|(a, b)| *a < &self.n && *b < &self.n),
                "operands must be reduced"
            );
            let a_ops: [&[u64]; L] = std::array::from_fn(|l| g[l].0.limbs());
            let b_ops: [&[u64]; L] = std::array::from_fn(|l| g[l].1.limbs());
            lockstep_portable(self.n.limbs(), self.n0_inv, &a_ops, &b_ops, &mut group);
            out.extend(
                (0..L)
                    .map(|lane| BigUint::from_limbs((0..self.k).map(|j| group[j][lane]).collect())),
            );
        }
        groups.remainder()
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
        if k + 2 <= STACK_LIMBS {
            let mut t1 = [0u64; STACK_LIMBS];
            self.cios(al, self.r2.limbs(), &mut t1[..k + 2]);
            let mut t2 = [0u64; STACK_LIMBS];
            self.cios(&t1[..k], bl, &mut t2[..k + 2]);
            BigUint::from_limbs(t2[..k].to_vec())
        } else {
            let mut t1 = vec![0u64; k + 2];
            self.cios(al, self.r2.limbs(), &mut t1);
            let mut t2 = vec![0u64; k + 2];
            self.cios(&t1[..k], bl, &mut t2);
            t2.truncate(k);
            BigUint::from_limbs(t2)
        }
    }

    /// `base^exp mod N` with a sliding window over a table of odd powers,
    /// performed entirely in the Montgomery domain (the shared ladder in
    /// `pow.rs`, instantiated with CIOS products).
    pub fn mod_pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one(); // N > 1 guaranteed by construction
        }
        let base_m = self.to_mont(base);
        self.from_mont(&crate::pow::window_pow_res(self, &base_m, exp))
    }
}

impl crate::pow::ResidueOps for MontgomeryCtx {
    fn one_res(&self) -> BigUint {
        self.r1.clone()
    }
    fn to_res(&self, a: &BigUint) -> BigUint {
        self.to_mont(a)
    }
    fn mul_res(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.mont_mul(a, b)
    }
}

/// `a < b` over little-endian limb slices of equal length.
pub(crate) fn limbs_lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// `a -= b` over limb slices; `a` may be one limb longer than `b` (the
/// borrow drains into it). Caller guarantees `a >= b`.
pub(crate) fn limbs_sub_assign(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (i, ai) in a.iter_mut().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, o1) = ai.overflowing_sub(bi);
        let (d2, o2) = d1.overflowing_sub(borrow);
        *ai = d2;
        borrow = (o1 as u64) + (o2 as u64);
    }
    debug_assert_eq!(borrow, 0, "montgomery conditional subtract underflow");
}

/// `L` independent CIOS passes in lockstep: the exact scalar recurrence
/// of [`MontgomeryCtx::cios`] per lane, but with operands transposed into
/// `[limb][lane]` (struct-of-arrays) buffers so the `L` u128 carry chains
/// interleave — the compiler schedules them in parallel where the serial
/// loop is one long dependency chain. Byte-identical to `L` scalar passes
/// by construction (same arithmetic per lane).
///
/// Instantiated at [`LANES8`] and [`LANES`]; the width is a const
/// generic so each instantiation unrolls its lane loops fully.
///
/// `out[limb][lane]` receives the reduced results (`out.len() >= k`).
#[allow(clippy::needless_range_loop)] // lane/limb index math mirrors the SoA layout
fn lockstep_portable<const L: usize>(
    nl: &[u64],
    n0_inv: u64,
    a: &[&[u64]; L],
    b: &[&[u64]; L],
    out: &mut [[u64; L]],
) {
    let k = nl.len();
    debug_assert!(k <= KMAX && out.len() >= k);
    // SoA transpose of b: bt[limb][lane].
    let mut bt = [[0u64; L]; KMAX];
    for lane in 0..L {
        for j in 0..k {
            bt[j][lane] = b[lane].get(j).copied().unwrap_or(0);
        }
    }
    let mut t = [[0u64; L]; KMAX + 2];
    for i in 0..k {
        let mut ai = [0u64; L];
        for lane in 0..L {
            ai[lane] = a[lane].get(i).copied().unwrap_or(0);
        }
        // t += a_i · b, L carry chains interleaved.
        let mut carry = [0u128; L];
        for j in 0..k {
            for lane in 0..L {
                let s = t[j][lane] as u128 + ai[lane] as u128 * bt[j][lane] as u128 + carry[lane];
                t[j][lane] = s as u64;
                carry[lane] = s >> 64;
            }
        }
        let mut m = [0u64; L];
        for lane in 0..L {
            let s = t[k][lane] as u128 + carry[lane];
            t[k][lane] = s as u64;
            t[k + 1][lane] = (s >> 64) as u64;
            m[lane] = t[0][lane].wrapping_mul(n0_inv);
            carry[lane] = (t[0][lane] as u128 + m[lane] as u128 * nl[0] as u128) >> 64;
        }
        // t = (t + m·N) >> 64
        for j in 1..k {
            for lane in 0..L {
                let s = t[j][lane] as u128 + m[lane] as u128 * nl[j] as u128 + carry[lane];
                t[j - 1][lane] = s as u64;
                carry[lane] = s >> 64;
            }
        }
        for lane in 0..L {
            let s = t[k][lane] as u128 + carry[lane];
            t[k - 1][lane] = s as u64;
            t[k][lane] = t[k + 1][lane].wrapping_add((s >> 64) as u64);
            t[k + 1][lane] = 0;
        }
    }
    for lane in 0..L {
        let mut tl = [0u64; KMAX + 2];
        for j in 0..=k {
            tl[j] = t[j][lane];
        }
        if tl[k] != 0 || !limbs_lt(&tl[..k], nl) {
            limbs_sub_assign(&mut tl[..=k], nl);
        }
        debug_assert_eq!(tl[k], 0);
        for j in 0..k {
            out[j][lane] = tl[j];
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
