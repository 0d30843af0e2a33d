//! Property tests for the Montgomery-domain element representation.
//!
//! `GElem`/`GtElem` logs live in the Montgomery domain of the engine's
//! shared `MontgomeryCtx`; these tests pin the two contracts that make
//! that representation invisible from outside:
//!
//! 1. **Serde canonicality** — the wire encoding of any engine-produced
//!    element is the canonical log's hex string, byte-identical to the
//!    pre-refactor derived (transparent newtype) encoding, regardless of
//!    the in-memory representation.
//! 2. **Representation transparency** — canonical-representation elements
//!    (the post-deserialization state) are equal to, hash like, and
//!    operate identically to their residue-domain twins.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_bigint::BigUint;
use sla_pairing::{BilinearGroup, GElem, GtElem, SimulatedGroup};

fn group(seed: u64) -> (SimulatedGroup, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let grp = SimulatedGroup::generate(40, &mut rng);
    (grp, rng)
}

/// The pre-refactor encoding: `GElem` was `#[derive(Serialize)]` on a
/// newtype over the canonical `BigUint` log, which serializes
/// transparently as the log's hex string.
fn legacy_encoding(canonical_log: &BigUint) -> String {
    serde_json::to_string(canonical_log).expect("BigUint serializes")
}

proptest! {
    #[test]
    fn serde_bytes_are_canonical_and_representation_independent(seed in any::<u64>()) {
        let (grp, mut rng) = group(seed);
        // A residue-domain element straight off the engine...
        let a = grp.random_gp(&mut rng);
        let e = grp.random_zn(&mut rng);
        let b = grp.pow_g(&a, &e);
        let gt = grp.pair(&a, &b);

        for (json, log) in [
            (serde_json::to_string(&a).unwrap(), a.discrete_log()),
            (serde_json::to_string(&b).unwrap(), b.discrete_log()),
            (serde_json::to_string(&gt).unwrap(), gt.discrete_log()),
        ] {
            // ...must serialize exactly as the pre-refactor canonical
            // newtype did.
            prop_assert_eq!(&json, &legacy_encoding(&log));
        }
    }

    #[test]
    fn serde_round_trip_preserves_equality_and_ops(seed in any::<u64>()) {
        let (grp, mut rng) = group(seed);
        let a = grp.random_gp(&mut rng);
        let b = grp.random_gq(&mut rng);

        let a2: GElem = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        prop_assert_eq!(&a2, &a);

        // Deserialized (canonical) elements interoperate with
        // residue-domain ones bit-for-bit.
        prop_assert_eq!(grp.mul_g(&a2, &b), grp.mul_g(&a, &b));
        prop_assert_eq!(grp.pair(&a2, &b), grp.pair(&a, &b));
        let e = grp.random_zn(&mut rng);
        prop_assert_eq!(grp.pow_g(&a2, &e), grp.pow_g(&a, &e));

        let gt = grp.pair(&a, &a);
        let gt2: GtElem = serde_json::from_str(&serde_json::to_string(&gt).unwrap()).unwrap();
        prop_assert_eq!(grp.pow_gt(&gt2, &e), grp.pow_gt(&gt, &e));
    }

    #[test]
    fn generator_tables_agree_with_direct_log_arithmetic(seed in any::<u64>()) {
        let (grp, mut rng) = group(seed);
        let e = grp.random_zn(&mut rng);
        let n = grp.order();
        // g has log 1, g_p has log Q, g_q has log P.
        prop_assert_eq!(grp.pow_g(&grp.g(), &e).discrete_log(), &e % n);
        prop_assert_eq!(
            grp.pow_g(&grp.gp_generator(), &e).discrete_log(),
            grp.q().mod_mul(&e, n)
        );
        prop_assert_eq!(
            grp.pow_g(&grp.gq_generator(), &e).discrete_log(),
            grp.p().mod_mul(&e, n)
        );
    }
}
