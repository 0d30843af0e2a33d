//! Modular arithmetic: `+`, `-`, `*`, exponentiation, gcd and inverses.

use crate::BigUint;

impl BigUint {
    /// `(self + rhs) mod m`. Operands need not be reduced.
    ///
    /// When both operands are already reduced (`< m`) — the common case on
    /// the group hot path, where every element is kept canonical — this is
    /// one addition plus at most one subtraction, with no division.
    pub fn mod_add(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if self < m && rhs < m {
            let sum = self + rhs;
            if &sum >= m {
                return &sum - m;
            }
            return sum;
        }
        &(self + rhs) % m
    }

    /// `(self - rhs) mod m`, wrapping negative results into `[0, m)`.
    ///
    /// Reduced operands take a division-free fast path, mirroring
    /// [`BigUint::mod_add`].
    pub fn mod_sub(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if self < m && rhs < m {
            return if self >= rhs {
                self - rhs
            } else {
                &(self + m) - rhs
            };
        }
        let a = self % m;
        let b = rhs % m;
        if a >= b {
            &a - &b
        } else {
            &(&a + m) - &b
        }
    }

    /// `(self * rhs) mod m`.
    pub fn mod_mul(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be non-zero");
        &(self * rhs) % m
    }

    /// `self^exp mod m`.
    ///
    /// Odd moduli (every prime and every HVE group order `N = P·Q`) take
    /// the windowed Montgomery ladder of [`crate::MontgomeryCtx`], which
    /// never divides per step. Even moduli, which only tests pass, take
    /// the division ladder [`BigUint::mod_pow_naive`].
    ///
    /// `0^0 mod m` is defined as `1 mod m`, matching the usual convention.
    pub fn mod_pow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        match crate::MontgomeryCtx::new(m) {
            Some(ctx) => ctx.mod_pow(self, exp),
            None => self.mod_pow_naive(exp, m),
        }
    }

    /// `self^exp mod m` by left-to-right binary square-and-multiply with a
    /// full division per step: the path of even moduli, and the baseline
    /// benchmarks and property tests compare the Montgomery ladder with.
    pub fn mod_pow_naive(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m.is_one() {
            return BigUint::zero();
        }
        let base = self % m;
        if exp.is_zero() {
            return BigUint::one();
        }
        let mut acc = BigUint::one();
        for i in (0..exp.bit_len()).rev() {
            acc = acc.mod_mul(&acc, m);
            if exp.bit(i) {
                acc = acc.mod_mul(&base, m);
            }
        }
        acc
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let az = a.trailing_zeros();
        let bz = b.trailing_zeros();
        let shift = az.min(bz);
        a = a.shr_bits(az);
        b = b.shr_bits(bz);
        loop {
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = &b - &a; // b >= a, both odd => b-a even
            if b.is_zero() {
                return a.shl_bits(shift);
            }
            b = b.shr_bits(b.trailing_zeros());
        }
    }

    /// Number of trailing zero bits (0 for the value zero).
    pub fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * 64 + l.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Modular inverse: `self^{-1} mod m`, or `None` when
    /// `gcd(self, m) != 1`.
    ///
    /// Uses the extended Euclidean algorithm with explicit sign tracking
    /// (this crate has no signed big integer).
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m.is_one() {
            return Some(BigUint::zero());
        }
        let a = self % m;
        if a.is_zero() {
            return None;
        }

        // Invariants: r0 = s0*a (mod m), r1 = s1*a (mod m), with the signs of
        // s0/s1 tracked separately.
        let mut r0 = m.clone();
        let mut r1 = a;
        let mut s0 = (BigUint::zero(), false); // (magnitude, negative?)
        let mut s1 = (BigUint::one(), false);

        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // s2 = s0 - q * s1 (signed)
            let qs1 = &q * &s1.0;
            let s2 = signed_sub(&s0, &(qs1, s1.1));
            r0 = r1;
            r1 = r2;
            s0 = s1;
            s1 = s2;
        }

        if !r0.is_one() {
            return None; // not coprime
        }
        let (mag, neg) = s0;
        let mag = &mag % m;
        Some(if neg && !mag.is_zero() { m - &mag } else { mag })
    }
}

/// Signed subtraction on (magnitude, negative?) pairs: `a - b`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - (-b) = a + b ; (-a) - b = -(a + b)
        (false, true) => (&a.0 + &b.0, false),
        (true, false) => (&a.0 + &b.0, true),
        // same sign: subtract magnitudes
        (sa, _) => {
            if a.0 >= b.0 {
                (&a.0 - &b.0, sa)
            } else {
                (&b.0 - &a.0, !sa)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::BigUint;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn mod_add_sub() {
        let m = b(97);
        assert_eq!(b(90).mod_add(&b(20), &m), b(13));
        assert_eq!(b(5).mod_sub(&b(20), &m), b(82));
        assert_eq!(b(20).mod_sub(&b(5), &m), b(15));
    }

    #[test]
    fn mod_mul_large() {
        let m = b(1_000_000_007);
        let a = b(u128::MAX) % &m;
        let r = a.mod_mul(&a, &m);
        let expect = ((u128::MAX % 1_000_000_007) * (u128::MAX % 1_000_000_007)) % 1_000_000_007;
        assert_eq!(r, b(expect));
    }

    #[test]
    fn mod_pow_fermat() {
        // Fermat's little theorem: a^(p-1) = 1 mod p.
        let p = b(1_000_000_007);
        for a in [2u128, 3, 65537, 999_999_999] {
            assert_eq!(b(a).mod_pow(&(&p - &b(1)), &p), BigUint::one());
        }
    }

    #[test]
    fn mod_pow_edges() {
        let m = b(13);
        assert_eq!(b(0).mod_pow(&b(0), &m), BigUint::one());
        assert_eq!(b(5).mod_pow(&b(0), &m), BigUint::one());
        assert_eq!(b(5).mod_pow(&b(1), &m), b(5));
        assert_eq!(b(5).mod_pow(&b(3), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(b(12).gcd(&b(18)), b(6));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(5).gcd(&b(0)), b(5));
        assert_eq!(b(17).gcd(&b(13)), b(1));
        assert_eq!(b(1 << 40).gcd(&b(1 << 22)), b(1 << 22));
    }

    #[test]
    fn mod_inverse_roundtrip() {
        let m = b(1_000_000_007);
        for a in [2u128, 3, 12345, 999_999_999, 65537] {
            let inv = b(a).mod_inverse(&m).unwrap();
            assert_eq!(b(a).mod_mul(&inv, &m), BigUint::one(), "a = {a}");
        }
    }

    #[test]
    fn mod_inverse_not_coprime() {
        assert_eq!(b(6).mod_inverse(&b(9)), None);
        assert_eq!(b(0).mod_inverse(&b(9)), None);
    }

    #[test]
    fn mod_inverse_composite_modulus() {
        // Works for any coprime pair, incl. the composite N = P*Q case used
        // by the pairing group.
        let n = &b(1_000_000_007) * &b(998_244_353);
        let a = b(0x1234_5678_9abc);
        let inv = a.mod_inverse(&n).unwrap();
        assert_eq!(a.mod_mul(&inv, &n), BigUint::one());
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(b(0).trailing_zeros(), 0);
        assert_eq!(b(1).trailing_zeros(), 0);
        assert_eq!(b(8).trailing_zeros(), 3);
        assert_eq!(b(1 << 100).trailing_zeros(), 100);
    }
}
