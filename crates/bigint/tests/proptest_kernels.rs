//! Property tests: the lockstep batch path must be **byte-identical** to
//! the scalar CIOS oracle.
//!
//! `MontgomeryCtx::mont_mul_batch` advances groups of eight, then four,
//! products through interleaved u128 carry chains for moduli of up to
//! eight limbs; the leftover pairs, and every pair of a larger modulus,
//! take the scalar `mont_mul`. The batch must reproduce the serial
//! `mont_mul` map exactly — same limbs, same normalization, same order —
//! at every limb count 1..=8, for a modulus above eight limbs (the scalar
//! fallback), and at every batch width 0..=17, which covers both 8+8+1
//! and 8+4+remainder. Random moduli force an exact top limb so each
//! limb count is genuinely exercised, and the directed vectors pin the
//! carry edges (all-ones limbs, operands `N − 1`, zero, zero-padded short
//! operands) that random sampling rarely hits.

use proptest::prelude::*;
use sla_bigint::{BigUint, MontgomeryCtx};

/// Widest batch checked: two wide groups plus one leftover pair.
const MAX_WIDTH: usize = 17;
/// Largest limb count checked: one past the lockstep path's cap.
const MAX_LIMBS: usize = 9;

/// Odd modulus with **exactly** `limbs.len()` limbs: top limb forced
/// nonzero, bottom bit forced set.
fn odd_modulus_exact(limbs: &[u64]) -> BigUint {
    let mut limbs = limbs.to_vec();
    let top = limbs.len() - 1;
    limbs[top] |= 1 << 63; // exact limb count, no normalization shrink
    limbs[0] |= 1; // odd
    BigUint::from_limbs(limbs)
}

/// Reduces `raw` into `[0, n)` so it is a valid `mont_mul` operand.
fn reduced(raw: &[u64], n: &BigUint) -> BigUint {
    &BigUint::from_limbs(raw.to_vec()) % n
}

/// Asserts `mont_mul_batch` equals the serial `mont_mul` map, limb for
/// limb and in order, on every prefix of `pairs`.
fn assert_batch_matches_serial(ctx: &MontgomeryCtx, pairs: &[(&BigUint, &BigUint)]) {
    let want: Vec<BigUint> = pairs.iter().map(|(a, b)| ctx.mont_mul(a, b)).collect();
    for w in 0..=pairs.len() {
        let got = ctx.mont_mul_batch(&pairs[..w]);
        assert_eq!(got, want[..w], "batch diverged at width {w}");
        for (g, s) in got.iter().zip(&want) {
            assert_eq!(g.limbs(), s.limbs(), "non-canonical limbs at width {w}");
        }
    }
}

proptest! {
    /// Random moduli with an exact top limb for every limb count
    /// 1..=9 and per-lane random operands: every width prefix of a
    /// 17-pair batch equals the serial scalar map.
    #[test]
    fn batch_matches_serial_on_random_inputs(
        k in 1usize..MAX_LIMBS + 1,
        seed in prop::collection::vec(any::<u64>(), MAX_LIMBS),
        lanes in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 2 * MAX_LIMBS),
            MAX_WIDTH,
        ),
    ) {
        let n = odd_modulus_exact(&seed[..k]);
        let ctx = MontgomeryCtx::new(&n).expect("odd modulus accepted");
        let elems: Vec<(BigUint, BigUint)> = lanes
            .iter()
            .map(|raw| (reduced(&raw[..MAX_LIMBS], &n), reduced(&raw[MAX_LIMBS..], &n)))
            .collect();
        let pairs: Vec<(&BigUint, &BigUint)> = elems.iter().map(|(a, b)| (a, b)).collect();
        assert_batch_matches_serial(&ctx, &pairs);
    }
}

/// Directed carry-edge vectors at every limb count 1..=9: all-ones
/// moduli (maximal `m·N` carries) and sparse ones (mostly zero limbs),
/// operands at `N − 1` (maximal partial products), zero and one
/// (degenerate accumulators), and zero-padded short operands (a lane
/// must not read past a short slice). Every ordered operand pair forms
/// one 25-pair batch, checked at every width prefix.
#[test]
fn directed_carry_edges_all_limb_counts() {
    for k in 1usize..=MAX_LIMBS {
        // 2^(64k) - 1: every limb all-ones. Odd, exact top limb.
        let all_ones = BigUint::from_limbs(vec![u64::MAX; k]);
        // 2^(64(k-1)) + 1 for k > 1: a single high bit over a long run
        // of zero limbs, so most operand limbs are zero mid-loop.
        let sparse = if k > 1 {
            let mut limbs = vec![0u64; k];
            limbs[k - 1] = 1;
            limbs[0] = 1;
            BigUint::from_limbs(limbs)
        } else {
            BigUint::from_u64(3)
        };
        for n in [all_ones, sparse] {
            let ctx = MontgomeryCtx::new(&n).expect("odd modulus accepted");
            let n_minus_1 = &n - &BigUint::one();
            let half = &n >> 1;
            // Zero-padded short operand: value fits in one limb even
            // when the modulus has many.
            let short = BigUint::from_u64(0xdead_beef_cafe_f00d) % &n;
            let zero = BigUint::zero();
            let one = BigUint::one() % &n;
            let operands = [&n_minus_1, &half, &short, &zero, &one];
            let pairs: Vec<(&BigUint, &BigUint)> = operands
                .iter()
                .flat_map(|&a| operands.iter().map(move |&b| (a, b)))
                .collect();
            assert_batch_matches_serial(&ctx, &pairs);
        }
    }
}
