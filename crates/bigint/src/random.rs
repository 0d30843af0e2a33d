//! Uniform random sampling of big integers.

use crate::BigUint;
use rand::Rng;

/// A uniformly random integer with at most `bits` bits.
pub fn random_bits<R: Rng>(bits: usize, rng: &mut R) -> BigUint {
    if bits == 0 {
        return BigUint::zero();
    }
    let limbs = bits.div_ceil(64);
    let mut out: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
    let top_bits = bits % 64;
    if top_bits != 0 {
        let mask = (1u64 << top_bits) - 1;
        *out.last_mut().expect("limbs >= 1") &= mask;
    }
    BigUint::from_limbs(out)
}

/// A uniformly random integer in `[0, bound)` by rejection sampling
/// (see [`random_below_limbs`]).
///
/// # Panics
/// Panics if `bound` is zero.
pub fn random_below<R: Rng>(bound: &BigUint, rng: &mut R) -> BigUint {
    let mut out = vec![0; bound.limbs().len()];
    random_below_limbs(bound, rng, &mut out);
    BigUint::from_limbs(out)
}

/// A uniformly random integer in `[1, bound)` (see
/// [`random_nonzero_below_limbs`]).
///
/// # Panics
/// Panics if `bound <= 1`.
pub fn random_nonzero_below<R: Rng>(bound: &BigUint, rng: &mut R) -> BigUint {
    let mut out = vec![0; bound.limbs().len()];
    random_nonzero_below_limbs(bound, rng, &mut out);
    BigUint::from_limbs(out)
}

/// [`random_below`] into caller-owned limbs: writes the draw into `out`,
/// little-endian and zero-extended, without allocating. Each attempt
/// takes one `u64` per limb of `bound`, low limb first, masks the top
/// limb to `bound`'s bit length, and is rejected unless below `bound`.
///
/// # Panics
/// Panics if `bound` is zero or wider than `out`.
pub fn random_below_limbs<R: Rng>(bound: &BigUint, rng: &mut R, out: &mut [u64]) {
    assert!(!bound.is_zero(), "bound must be positive");
    let bl = bound.limbs();
    assert!(bl.len() <= out.len(), "out must hold the bound's limbs");
    let top_bits = bound.bit_len() % 64;
    let (draw, rest) = out.split_at_mut(bl.len());
    rest.fill(0);
    loop {
        for limb in draw.iter_mut() {
            *limb = rng.gen();
        }
        if top_bits != 0 {
            draw[bl.len() - 1] &= (1u64 << top_bits) - 1;
        }
        if below(draw, bl) {
            return;
        }
    }
}

/// [`random_nonzero_below`] into caller-owned limbs: [`random_below_limbs`]
/// until the draw is non-zero.
///
/// # Panics
/// Panics if `bound <= 1` or `bound` is wider than `out`.
pub fn random_nonzero_below_limbs<R: Rng>(bound: &BigUint, rng: &mut R, out: &mut [u64]) {
    assert!(!bound.is_one() && !bound.is_zero(), "bound must exceed 1");
    loop {
        random_below_limbs(bound, rng, out);
        if out.iter().any(|&l| l != 0) {
            return;
        }
    }
}

/// `a < b` over little-endian limb slices of equal length.
fn below(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_bits_respects_width() {
        let mut rng = StdRng::seed_from_u64(7);
        for bits in [1usize, 5, 63, 64, 65, 130] {
            for _ in 0..50 {
                let v = random_bits(bits, &mut rng);
                assert!(v.bit_len() <= bits, "bits = {bits}, got {}", v.bit_len());
            }
        }
        assert!(random_bits(0, &mut rng).is_zero());
    }

    #[test]
    fn random_below_in_range_and_varied() {
        let mut rng = StdRng::seed_from_u64(8);
        let bound = BigUint::from_u64(1000);
        let mut seen_distinct = std::collections::HashSet::new();
        for _ in 0..200 {
            let v = random_below(&bound, &mut rng);
            assert!(v < bound);
            seen_distinct.insert(v.low_u64());
        }
        assert!(seen_distinct.len() > 50, "sampling looks degenerate");
    }

    /// The draws of one seed, through both forms: seeded keys, tokens
    /// and ciphertexts rest on this stream, so it must not change.
    /// Covers a bound whose top limb is one bit (rejections) and one of
    /// all-ones limbs (no mask).
    #[test]
    fn draws_keep_their_stream() {
        let mut rng = StdRng::seed_from_u64(11);
        let one_bit_top = BigUint::from_limbs(vec![0x1234_5678_9abc_def1, 1]);
        let all_ones = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let want: [&[u64]; 6] = [
            &[4839874613846199058],
            &[14553790721794834938],
            &[5634002725903801820],
            &[1884760351349877472, 15256576738695087982],
            &[1435359488146124319, 11892888367298640305],
            &[17234911850648455854, 8214623283993615682],
        ];
        let mut out = [u64::MAX; 3];
        for (j, want) in want.iter().enumerate() {
            let bound = if j < 3 { &one_bit_top } else { &all_ones };
            if j % 2 == 0 {
                assert_eq!(random_below(bound, &mut rng).limbs(), *want);
            } else {
                random_below_limbs(bound, &mut rng, &mut out);
                assert_eq!(BigUint::from_limbs(out.to_vec()).limbs(), *want);
            }
        }
        let small = BigUint::from_u64(1000);
        for want in [402, 877, 89] {
            assert_eq!(
                random_nonzero_below(&small, &mut rng),
                BigUint::from_u64(want)
            );
        }
        assert_eq!(rng.gen::<u64>(), 14523538693163026661);
    }

    #[test]
    fn random_nonzero_never_zero() {
        let mut rng = StdRng::seed_from_u64(9);
        let bound = BigUint::from_u64(2);
        for _ in 0..20 {
            assert!(random_nonzero_below(&bound, &mut rng).is_one());
        }
    }
}
