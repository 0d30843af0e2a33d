//! Property tests: the Montgomery fast path must agree exactly with the
//! naive division-based arithmetic for random odd moduli of arbitrary
//! limb counts, and `BigUint::mod_pow`'s automatic dispatch must be
//! indistinguishable from either implementation.

use proptest::prelude::*;
use sla_bigint::{BigUint, MontgomeryCtx};

/// Builds an odd modulus > 1 from random limbs.
fn odd_modulus(limbs: &[u64]) -> BigUint {
    let mut m = BigUint::from_limbs(limbs.to_vec());
    m.set_bit(0); // force odd
    if m.is_one() {
        m = BigUint::from_u64(3);
    }
    m
}

proptest! {
    #[test]
    fn mont_mod_mul_matches_naive(
        m in prop::collection::vec(any::<u64>(), 1..6),
        a in prop::collection::vec(any::<u64>(), 1..8),
        b in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let m = odd_modulus(&m);
        let a = BigUint::from_limbs(a);
        let b = BigUint::from_limbs(b);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus accepted");
        prop_assert_eq!(ctx.mod_mul(&a, &b), a.mod_mul(&b, &m));
    }

    #[test]
    fn mont_mul_domain_is_consistent(
        m in prop::collection::vec(any::<u64>(), 1..5),
        a in prop::collection::vec(any::<u64>(), 1..5),
        b in prop::collection::vec(any::<u64>(), 1..5),
    ) {
        // mont_mul over Montgomery-form operands equals naive mod_mul
        // after round-tripping through the domain conversions.
        let m = odd_modulus(&m);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus accepted");
        let a = &BigUint::from_limbs(a) % &m;
        let b = &BigUint::from_limbs(b) % &m;
        let product = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        prop_assert_eq!(product, a.mod_mul(&b, &m));
    }

    #[test]
    fn mont_mod_pow_matches_naive(
        m in prop::collection::vec(any::<u64>(), 1..4),
        base in prop::collection::vec(any::<u64>(), 1..4),
        exp in prop::collection::vec(any::<u64>(), 1..3),
    ) {
        let m = odd_modulus(&m);
        let base = BigUint::from_limbs(base);
        let exp = BigUint::from_limbs(exp);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus accepted");
        let expected = base.mod_pow_naive(&exp, &m);
        prop_assert_eq!(ctx.mod_pow(&base, &exp), expected.clone());
        // The public mod_pow dispatches odd moduli through Montgomery.
        prop_assert_eq!(base.mod_pow(&exp, &m), expected);
    }

    #[test]
    fn dispatch_agrees_for_even_moduli_too(
        m in 2u64..,
        base in any::<u64>(),
        exp in 0u64..2_000,
    ) {
        // Even moduli have no Montgomery form, so mod_pow takes the
        // division ladder for them; every modulus, odd or even, must give
        // the same function as the division-based baseline.
        let m = BigUint::from_u64(m);
        let base = BigUint::from_u64(base);
        let exp = BigUint::from_u64(exp);
        prop_assert_eq!(base.mod_pow(&exp, &m), base.mod_pow_naive(&exp, &m));
    }

    #[test]
    fn fast_path_mod_add_sub_match_reference(
        m in prop::collection::vec(any::<u64>(), 1..5),
        a in prop::collection::vec(any::<u64>(), 1..7),
        b in prop::collection::vec(any::<u64>(), 1..7),
    ) {
        // mod_add/mod_sub now have a division-free fast path for reduced
        // operands; verify both the reduced and unreduced entry points
        // against the plain remainder definition.
        let m = odd_modulus(&m);
        let a = BigUint::from_limbs(a);
        let b = BigUint::from_limbs(b);
        let (ar, br) = (&a % &m, &b % &m);

        prop_assert_eq!(a.mod_add(&b, &m), &(&a + &b) % &m);
        prop_assert_eq!(ar.mod_add(&br, &m), &(&ar + &br) % &m);
        // subtraction reference: (a - b) mod m == (a + (m - b mod m)) mod m
        let expect = &(&ar + &(&m - &br)) % &m;
        prop_assert_eq!(a.mod_sub(&b, &m), expect.clone());
        prop_assert_eq!(ar.mod_sub(&br, &m), expect);
    }

    #[test]
    fn limb_primitives_match_biguint_api(
        m in prop::collection::vec(any::<u64>(), 1..9),
        top_ones in any::<bool>(),
        a in prop::collection::vec(any::<u64>(), 1..9),
        b in prop::collection::vec(any::<u64>(), 1..9),
    ) {
        // The fixed-width primitives equal the BigUint API limb for
        // limb. A modulus whose top limb is all ones puts sums next to
        // R = 2^{64k}, where add_mod_limbs must handle the carry out.
        let mut m = m;
        if top_ones {
            *m.last_mut().expect("non-empty") = u64::MAX;
        }
        let m = odd_modulus(&m);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus accepted");
        let k = ctx.limb_count();
        prop_assert_eq!(k, m.limbs().len());
        let (a, b) = (BigUint::from_limbs(a), BigUint::from_limbs(b));
        let (ar, br) = (&a % &m, &b % &m);

        let mut out = vec![0u64; k];
        ctx.mont_mul_limbs(&padded(&ar, k), &padded(&br, k), &mut out);
        prop_assert_eq!(&out, &padded(&ctx.mont_mul(&ar, &br), k));

        let mut acc = padded(&ar, k);
        ctx.add_mod_limbs(&mut acc, &padded(&br, k));
        prop_assert_eq!(&acc, &padded(&ar.mod_add(&br, &m), k));
        let mut acc = padded(&ar, k);
        ctx.sub_mod_limbs(&mut acc, &padded(&br, k));
        prop_assert_eq!(&acc, &padded(&ar.mod_sub(&br, &m), k));
    }
}

/// `x`'s limbs zero-padded to `k`.
fn padded(x: &BigUint, k: usize) -> Vec<u64> {
    let mut v = x.limbs().to_vec();
    v.resize(k, 0);
    v
}
