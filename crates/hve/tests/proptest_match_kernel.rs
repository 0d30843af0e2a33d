//! Property test: the engine's fused query check behind `match_rows`
//! decides every (token, ciphertext) pair exactly like the reference
//! `eq_gt(query(tk, ct), expected)` and like `match_query_reference`
//! over the same packed rows, and moves the operation counters exactly
//! as they do.
//!
//! Covered: group orders of one to eight limbs; batches of 0 to 33
//! ciphertexts; matching and non-matching rows, including rows whose
//! components and payload are identity elements, rows whose operands
//! are `N − 1`, and rows narrow enough to pack below the order's limb
//! count, which enter a slab at their own width and are widened when the
//! slab is brought to the group (as a store does at its pin);
//! ciphertexts, payloads and tokens as the engine made them and after a
//! serde round trip (the state of recovered material).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sla_bigint::BigUint;
use sla_hve::{AttributeVector, Ciphertext, HveScheme, SearchPattern};
use sla_pairing::{match_query_reference, BilinearGroup, GElem, GtElem, QueryRows, SimulatedGroup};

/// `x` after a serde round trip: the state of recovered material.
fn recovered<T: serde::Serialize + for<'de> serde::Deserialize<'de>>(x: &T) -> T {
    serde_json::from_str(&serde_json::to_string(x).unwrap()).unwrap()
}

/// A ciphertext of `width` positions with every operand `log`.
fn uniform_ciphertext(width: usize, log: &BigUint) -> Ciphertext {
    let g = || GElem::from_canonical_log(log.clone());
    Ciphertext::from_parts(
        GtElem::from_canonical_log(log.clone()),
        g(),
        (0..width).map(|_| (g(), g())).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn kernel_equals_reference_query_check(
        seed in any::<u64>(),
        limbs in 1usize..9,
        width in 1usize..7,
        symbols in prop::collection::vec(0usize..3, 6),
        n in 0usize..34,
        token_recovered in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let grp = SimulatedGroup::generate(32 * limbs - 6, &mut rng);
        prop_assert_eq!(grp.order().limbs().len(), limbs);
        let scheme = HveScheme::new(&grp, width);
        let (pk, sk) = scheme.setup(&mut rng);
        let n_minus_1 = grp.order() - &BigUint::one();

        let pattern = SearchPattern::from_symbols(
            &symbols[..width]
                .iter()
                .map(|&s| [Some(false), Some(true), None][s])
                .collect::<Vec<_>>(),
        );
        // The token as made, or recovered too.
        let tk = scheme.gen_token(&sk, &pattern, &mut rng);
        let tk = if token_recovered { recovered(&tk) } else { tk };

        // (ciphertext, payload, narrow): narrow rows pack below the
        // order's limb count when it has more than one limb.
        let rows: Vec<(Ciphertext, GtElem, bool)> = (0..n)
            .map(|j| {
                // Half the rows agree with the pattern on every non-star
                // position; the rest draw their attribute at random.
                let agree = rng.gen::<bool>();
                let bits: Vec<bool> = (0..width)
                    .map(|i| match pattern.symbol(i) {
                        Some(b) if agree => b,
                        _ => rng.gen(),
                    })
                    .collect();
                let msg = scheme.encode_message(j as u64);
                let mut ct = scheme.encrypt(&pk, &AttributeVector::from_bits(&bits), &msg, &mut rng);
                let mut narrow = false;
                let expected = match rng.gen_range(0, 6) {
                    // The honest payload: a hit iff the pattern matches.
                    0 | 1 => msg,
                    // Someone else's payload: never a hit.
                    2 => scheme.encode_message(j as u64 + 1),
                    // Identity components, checked against the query's own
                    // candidate (a hit) or the identity (almost never one).
                    3 => {
                        let (c_prime, _, c) = ct.parts();
                        let mut c = c.to_vec();
                        c[rng.gen_range(0, width as u64) as usize] = (GElem::identity(), GElem::identity());
                        ct = Ciphertext::from_parts(c_prime.clone(), GElem::identity(), c);
                        if rng.gen::<bool>() {
                            scheme.query(&tk, &ct)
                        } else {
                            GtElem::identity()
                        }
                    }
                    // Every operand N − 1, checked against the query's own
                    // candidate or N − 1 itself.
                    4 => {
                        ct = uniform_ciphertext(width, &n_minus_1);
                        if rng.gen::<bool>() {
                            scheme.query(&tk, &ct)
                        } else {
                            GtElem::from_canonical_log(n_minus_1.clone())
                        }
                    }
                    // Small logs: identity C_0 and components, so the
                    // candidate is C' itself; the payload is C' (a hit) or
                    // C' + 1 (a miss).
                    _ => {
                        narrow = true;
                        let small = |rng: &mut StdRng| BigUint::from_u64(rng.gen::<u64>() >> 1);
                        let c_prime = small(&mut rng);
                        ct = Ciphertext::from_parts(
                            GtElem::from_canonical_log(c_prime.clone()),
                            GElem::identity(),
                            (0..width).map(|_| (GElem::identity(), GElem::identity())).collect(),
                        );
                        let payload = if rng.gen::<bool>() { c_prime } else { &c_prime + &BigUint::one() };
                        GtElem::from_canonical_log(payload)
                    }
                };
                if rng.gen::<bool>() {
                    (recovered(&ct), recovered(&expected), narrow)
                } else {
                    (ct, expected, narrow)
                }
            })
            .collect();

        let before = grp.counters().snapshot();
        let reference: Vec<bool> = rows
            .iter()
            .map(|(ct, expected, _)| grp.eq_gt(&scheme.query(&tk, ct), expected))
            .collect();
        let reference_delta = grp.counters().snapshot() - before;
        prop_assert_eq!(reference_delta.pairings, n as u64 * tk.pairing_cost());
        prop_assert_eq!(reference_delta.canonicalizations, 0);

        // A slab: the narrow rows enter at their own width, the pin brings
        // the slab to the group (widening it to the order's limbs), and the
        // other rows follow packed for the group.
        let mut slab = QueryRows::new();
        let mut order = Vec::new();
        for (i, (ct, e, narrow)) in rows.iter().enumerate() {
            if *narrow {
                slab.push(&ct.to_row(e));
                order.push(i);
            }
        }
        if limbs > 1 && !slab.is_empty() {
            prop_assert!(slab.shape().limbs < limbs, "narrow rows pack narrow");
        }
        slab.fit(grp.order());
        for (i, (ct, e, narrow)) in rows.iter().enumerate() {
            if !*narrow {
                slab.push(&scheme.pack(ct, e));
                order.push(i);
            }
        }
        prop_assert_eq!(slab.shape().limbs, limbs);
        prop_assert_eq!(slab.len(), n);

        let query = scheme.prepare_token(&tk);
        let mut want = vec![false; n];
        let before = grp.counters().snapshot();
        let oracle = match_query_reference(&grp, &query, &slab, &mut want);
        let oracle_delta = grp.counters().snapshot() - before;
        prop_assert_eq!(oracle, oracle_delta);
        prop_assert_eq!(oracle_delta, reference_delta);
        let in_slab_order: Vec<bool> = order.iter().map(|&i| reference[i]).collect();
        prop_assert_eq!(&want, &in_slab_order);

        // The sweep reports exactly what it added to the shared counters.
        let mut hits = vec![false; n];
        let before = grp.counters().snapshot();
        let recorded = scheme.match_rows(&query, &slab, &mut hits);
        prop_assert_eq!(grp.counters().snapshot() - before, recorded);
        prop_assert_eq!(recorded, oracle_delta);
        prop_assert_eq!(hits, want);
    }
}
