//! Shared sliding-window exponentiation ladder.
//!
//! Both reduction backends ([`crate::MontgomeryCtx`] for odd moduli,
//! [`crate::BarrettCtx`] for even ones) expose the same *residue-domain*
//! primitives — a domain constant for 1, conversions in and out, and a
//! domain product. The windowed square-and-multiply ladder only needs
//! those, so it lives here once and is instantiated for each backend
//! through the [`ResidueOps`] trait instead of being duplicated.

use crate::BigUint;

/// The residue-domain primitives a reduction backend must provide.
///
/// For Montgomery the domain is `x ↦ x·R mod N`; for Barrett it is the
/// identity (canonical residues). Either way `mul` composes inside the
/// domain and `to`/`from` convert at the boundary.
pub(crate) trait ResidueOps {
    /// The domain image of `1`.
    fn one_res(&self) -> BigUint;
    /// Canonical → domain (reduces unreduced inputs).
    fn to_res(&self, a: &BigUint) -> BigUint;
    /// Domain product of two domain residues.
    fn mul_res(&self, a: &BigUint, b: &BigUint) -> BigUint;
}

/// Window width for an exponent of `bits` significant bits: 1 for short
/// exponents up to 5 for very long ones.
pub(crate) fn window_for_bits(bits: usize) -> usize {
    match bits {
        0..=8 => 1,
        9..=32 => 2,
        33..=96 => 3,
        97..=512 => 4,
        _ => 5,
    }
}

/// `base^exp` over a residue ring, with `base` already in the domain and
/// the result left in the domain. Left-to-right sliding window over a
/// table of odd powers; plain square-and-multiply for short exponents.
pub(crate) fn window_pow_res<R: ResidueOps>(
    ring: &R,
    base_res: &BigUint,
    exp: &BigUint,
) -> BigUint {
    if exp.is_zero() {
        return ring.one_res();
    }
    let bits = exp.bit_len();
    let window = window_for_bits(bits);

    if window == 1 {
        let mut acc = ring.one_res();
        for i in (0..bits).rev() {
            acc = ring.mul_res(&acc, &acc);
            if exp.bit(i) {
                acc = ring.mul_res(&acc, base_res);
            }
        }
        return acc;
    }

    // Odd-power table: odd[i] = base^(2i+1) in the domain.
    let base_sq = ring.mul_res(base_res, base_res);
    let mut odd = Vec::with_capacity(1 << (window - 1));
    odd.push(base_res.clone());
    for i in 1..(1usize << (window - 1)) {
        let next = ring.mul_res(&odd[i - 1], &base_sq);
        odd.push(next);
    }

    let mut acc = ring.one_res();
    let mut i = bits as isize - 1;
    while i >= 0 {
        if !exp.bit(i as usize) {
            acc = ring.mul_res(&acc, &acc);
            i -= 1;
            continue;
        }
        // Greedily take up to `window` bits ending on a set bit so the
        // window value is odd and hits the precomputed table.
        let mut lo = (i - window as isize + 1).max(0);
        while !exp.bit(lo as usize) {
            lo += 1;
        }
        let width = (i - lo + 1) as usize;
        let mut value = 0usize;
        for b in (lo..=i).rev() {
            value = (value << 1) | exp.bit(b as usize) as usize;
        }
        for _ in 0..width {
            acc = ring.mul_res(&acc, &acc);
        }
        acc = ring.mul_res(&acc, &odd[(value - 1) / 2]);
        i = lo - 1;
    }
    acc
}

/// Extracts the `width`-bit little-endian digit of `exp` starting at bit
/// `lo` (used by the fixed-base tables' radix-2^w decomposition).
pub(crate) fn window_digit(exp: &BigUint, lo: usize, width: usize) -> usize {
    let mut value = 0usize;
    for b in (lo..lo + width).rev() {
        value = (value << 1) | exp.bit(b) as usize;
    }
    value
}
