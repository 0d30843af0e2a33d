//! Property test: the engine's flat Encrypt and GenToken equal the
//! element reference, and the served sweep over their output decides
//! and counts exactly as the reference query check does.
//!
//! Per case, under one seed for each side:
//!
//! * (a) `gen_query`'s keys equal `prepare_token(gen_token(…))`, token
//!   for token;
//! * (b) `encrypt_for_user`'s rows equal
//!   `pack_for_user(encrypt(…, encode_message(id)), id)` byte for byte;
//! * both leave the RNG in the same state;
//! * (c) each phase records exactly the reference's counter deltas;
//! * (d) the flat queries swept over the flat rows (`match_rows`) decide
//!   and count as `match_query_reference` does under the reference
//!   tokens, and the decisions are the plaintext pattern semantics.
//!
//! Covered: group orders of one to eight limbs, which take the flat
//! loops, and a ten-limb order, which takes the reference through the
//! same entry points; widths 1 to 32; patterns of every mix of `0`, `1`
//! and `*`, the all-star pattern included; user ids across the message
//! domain, its largest included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sla_hve::{AttributeVector, Ciphertext, HveScheme, SearchPattern, Token, MESSAGE_DOMAIN_BITS};
use sla_pairing::{
    match_query_reference, BilinearGroup, GtElem, PackedRow, PreparedQuery, QueryRows,
    SimulatedGroup,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn flat_issuance_equals_the_reference(
        seed in any::<u64>(),
        order in 0usize..9,
        width in 1usize..33,
        symbols in prop::collection::vec(0usize..3, 32),
        tokens in 1usize..5,
        users in 0usize..9,
    ) {
        let limbs = [1, 2, 3, 4, 5, 6, 7, 8, 10][order];
        let mut rng = StdRng::seed_from_u64(seed);
        let grp = SimulatedGroup::generate(32 * limbs - 6, &mut rng);
        prop_assert_eq!(grp.order().limbs().len(), limbs);
        let scheme = HveScheme::new(&grp, width);
        let (pk, sk) = scheme.setup(&mut rng);
        let ppk = scheme.prepare_public_key(&pk);
        let psk = scheme.prepare_secret_key(&sk);

        // The drawn symbols, shifted per token; the last token is all
        // stars.
        let patterns: Vec<SearchPattern> = (0..tokens)
            .map(|t| {
                let all_stars = t + 1 == tokens && tokens > 1;
                let symbol = |i: usize| {
                    if all_stars {
                        None
                    } else {
                        [Some(false), Some(true), None][symbols[(i + 7 * t) % 32]]
                    }
                };
                SearchPattern::from_symbols(&(0..width).map(symbol).collect::<Vec<_>>())
            })
            .collect();
        // Half the users agree with the first pattern; ids span the
        // message domain.
        let people: Vec<(u64, AttributeVector)> = (0..users)
            .map(|u| {
                let agree = rng.gen::<bool>();
                let bits: Vec<bool> = (0..width)
                    .map(|i| match patterns[0].symbol(i) {
                        Some(b) if agree => b,
                        _ => rng.gen(),
                    })
                    .collect();
                let id = match u {
                    0 => (1 << MESSAGE_DOMAIN_BITS) - 1,
                    _ => rng.gen::<u64>() >> (64 - MESSAGE_DOMAIN_BITS),
                };
                (id, AttributeVector::from_bits(&bits))
            })
            .collect();
        let messages: Vec<GtElem> = people.iter().map(|(id, _)| scheme.encode_message(*id)).collect();
        let draws = rng.gen::<u64>();

        // The element reference.
        let mut r_ref = StdRng::seed_from_u64(draws);
        let t0 = grp.counters().snapshot();
        let cts: Vec<Ciphertext> = people
            .iter()
            .zip(&messages)
            .map(|((_, attr), m)| scheme.encrypt(&pk, attr, m, &mut r_ref))
            .collect();
        let t1 = grp.counters().snapshot();
        let tks: Vec<Token> = patterns.iter().map(|p| scheme.gen_token(&sk, p, &mut r_ref)).collect();
        let t2 = grp.counters().snapshot();

        // The flat loops, from the same stream.
        let mut r_flat = StdRng::seed_from_u64(draws);
        let rows: Vec<PackedRow> = people
            .iter()
            .map(|(id, attr)| scheme.encrypt_for_user(&ppk, attr, *id, &mut r_flat).unwrap())
            .collect();
        let t3 = grp.counters().snapshot();
        let queries: Vec<PreparedQuery> =
            patterns.iter().map(|p| scheme.gen_query(&psk, p, &mut r_flat)).collect();
        let t4 = grp.counters().snapshot();

        // (a), (b) and the RNG state.
        for (tk, query) in tks.iter().zip(&queries) {
            prop_assert_eq!(&scheme.prepare_token(tk), query);
            prop_assert_eq!(query.positions(), &tk.pattern().non_star_positions()[..]);
        }
        for ((ct, (id, _)), row) in cts.iter().zip(&people).zip(&rows) {
            prop_assert_eq!(&scheme.pack_for_user(ct, *id).unwrap(), row);
        }
        prop_assert_eq!(r_ref.next_u64(), r_flat.next_u64(), "the RNG streams must agree");
        // (c)
        prop_assert_eq!(t3 - t2, t1 - t0, "Encrypt counters");
        prop_assert_eq!(t4 - t3, t2 - t1, "GenToken counters");

        // (d)
        let mut slab = QueryRows::new();
        for row in &rows {
            slab.push(row);
        }
        for ((tk, query), pattern) in tks.iter().zip(&queries).zip(&patterns) {
            let mut want = vec![false; users];
            let before = grp.counters().snapshot();
            let oracle = match_query_reference(&grp, &scheme.prepare_token(tk), &slab, &mut want);
            let mid = grp.counters().snapshot();
            let mut hits: Vec<bool> = want.iter().map(|w| !w).collect();
            let recorded = scheme.match_rows(query, &slab, &mut hits);
            let after = grp.counters().snapshot();
            prop_assert_eq!(&hits, &want);
            prop_assert_eq!(recorded, oracle);
            prop_assert_eq!(after - mid, mid - before);
            let plaintext: Vec<bool> = people.iter().map(|(_, attr)| pattern.matches(attr)).collect();
            prop_assert_eq!(hits, plaintext);
        }
    }
}
