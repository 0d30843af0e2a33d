//! Observable security properties from §6 of the paper, checked against
//! the simulation. (The group backend is a simulation — see README — so
//! these tests verify *protocol-level* properties: what the SP's
//! interface exposes, padding uniformity, and leakage shape.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::{codeword_to_pattern, index_to_attribute};
use secure_location_alerts::encoding::{CellCodebook, EncoderKind};
use secure_location_alerts::hve::HveScheme;
use secure_location_alerts::pairing::SimulatedGroup;

/// §2: "All indexes must have the same length for security purposes (to
/// prevent an adversary from distinguishing cells based on length)" —
/// and the resulting ciphertexts, and the rows the SP stores for them,
/// must be structurally identical in size.
#[test]
fn ciphertexts_are_length_uniform_across_cells() {
    let mut rng = StdRng::seed_from_u64(1);
    let probs = [0.5, 0.2, 0.1, 0.1, 0.05, 0.05]; // skewed: codes differ in length
    for kind in [
        EncoderKind::Huffman,
        EncoderKind::BaryHuffman(3),
        EncoderKind::Balanced,
    ] {
        let cb = CellCodebook::build(kind, &probs);
        let group = SimulatedGroup::generate(40, &mut rng);
        let scheme = HveScheme::new(&group, cb.width_bits());
        let (pk, _) = scheme.setup(&mut rng);

        let shapes: Vec<_> = (0..cb.n_cells())
            .map(|cell| {
                let msg = scheme.encode_message(cell as u64);
                let ct =
                    scheme.encrypt(&pk, &index_to_attribute(cb.index_of(cell)), &msg, &mut rng);
                (ct.width(), scheme.pack(&ct, &msg).shape())
            })
            .collect();
        // identical widths, and stored rows of one shape: the same
        // component count and limbs per operand for every cell
        assert!(
            shapes.iter().all(|s| *s == shapes[0]),
            "{kind:?}: ciphertext widths or stored row shapes differ: {shapes:?}"
        );
    }
}

/// §6: "the SP learns only whether the user is included in the alert
/// zone ... conversely, if the match is not successful, the SP learns
/// only that the user is not inside" — a non-matching query must yield
/// ⊥ for *every* non-matching cell, with no distinction between
/// different non-matching cells.
#[test]
fn non_match_outcomes_are_uniform_bot() {
    let mut rng = StdRng::seed_from_u64(2);
    let probs = [0.3, 0.3, 0.2, 0.1, 0.1];
    let cb = CellCodebook::build(EncoderKind::Huffman, &probs);
    let group = SimulatedGroup::generate(40, &mut rng);
    let scheme = HveScheme::new(&group, cb.width_bits());
    let (pk, sk) = scheme.setup(&mut rng);

    // token for a single-cell zone {0}
    let tokens = cb.tokens_for(&[0]);
    let tk = scheme.gen_token(&sk, &codeword_to_pattern(&tokens[0]), &mut rng);

    for cell in 1..cb.n_cells() {
        let ct = scheme.encrypt(
            &pk,
            &index_to_attribute(cb.index_of(cell)),
            &scheme.encode_message(7),
            &mut rng,
        );
        // ⊥: decode fails, regardless of *which* non-matching cell
        assert_eq!(
            scheme.query_decode(&tk, &ct),
            None,
            "cell {cell} must look like every other non-match"
        );
    }
}

/// §6: "our technique is guided by statistical information that is
/// derived solely from public data ... No private information regarding
/// any system user is included in the encoding process." The codebook is
/// a deterministic function of the public likelihoods alone — no user
/// state, no RNG.
#[test]
fn codebook_is_deterministic_in_public_likelihoods_only() {
    let probs = [0.25, 0.1, 0.4, 0.15, 0.1];
    for kind in [
        EncoderKind::Huffman,
        EncoderKind::GraySgo,
        EncoderKind::Balanced,
        EncoderKind::BasicFixed,
        EncoderKind::BaryHuffman(3),
    ] {
        let a = CellCodebook::build(kind, &probs);
        let b = CellCodebook::build(kind, &probs);
        assert_eq!(a.indexes(), b.indexes(), "{kind:?}");
        assert_eq!(a.tokens_for(&[1, 3]), b.tokens_for(&[1, 3]), "{kind:?}");
    }
}

/// The token reveals its pattern (inherent to HVE), but the pattern for
/// an aggregated zone does not reveal *which* of the covered cells
/// triggered the alert: the §3.3 token {1**} is identical whether the
/// alert originated in v3 or v5.
#[test]
fn aggregated_tokens_hide_the_triggering_cell() {
    let probs = [0.1, 0.2, 0.5, 0.4, 0.6];
    let cb = CellCodebook::build(EncoderKind::Huffman, &probs);
    // zone {2, 4} = subtree 1**
    let zone_tokens = cb.tokens_for(&[2, 4]);
    assert_eq!(zone_tokens.len(), 1);
    assert_eq!(zone_tokens[0].to_string(), "1**");
    // the same token would have been issued for any superset ordering
    let reordered = cb.tokens_for(&[4, 2]);
    assert_eq!(zone_tokens, reordered);
}
