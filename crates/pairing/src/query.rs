//! HVE's query check as one engine operation.
//!
//! Matching an alert token against a stored ciphertext decides whether
//!
//! ```text
//! C' · Π_{i∈J} e(C_{i,1}, K_{i,1}) · e(C_{i,2}, K_{i,2}) / e(C_0, K_0)
//! ```
//!
//! equals the payload the ciphertext is known to carry. The reference
//! evaluation builds every pairing as a `GT` element and folds them with
//! the metered group law ([`match_query_reference`]). The simulated
//! engine decides the same predicate in fixed-width limbs on the stack
//! instead (`SimulatedGroup`'s [`BilinearGroup::match_query_batch`]):
//! one CIOS pass per pairing, the folds as modular additions and
//! subtractions, one comparison, and one bulk counter update per sweep.
//! Both record exactly the operations of [`query_cost`].

use crate::element::Log;
use crate::{BilinearGroup, CounterSnapshot, GElem, GtElem, SimulatedGroup};
use sla_bigint::MontgomeryCtx;

/// One ciphertext of an HVE query check, borrowed: its components and
/// the payload the query must recover for the check to pass.
#[derive(Debug, Clone, Copy)]
pub struct QueryTarget<'a> {
    /// `C'`, the blinded message.
    pub c_prime: &'a GtElem,
    /// `C_0`.
    pub c0: &'a GElem,
    /// `(C_{i,1}, C_{i,2})`, indexed by attribute position.
    pub c: &'a [(GElem, GElem)],
    /// The message the candidate is compared against.
    pub expected: &'a GtElem,
}

/// HVE's query candidate `C' / (e_0 / Π_{j≥1} e_j)` from a ciphertext's
/// `C'` and its query pairings `[e_0, e_1, …]`, numerator first. Meters
/// `pairings.len() + 1` multiplications in `GT`.
///
/// # Panics
/// Panics if `pairings` is empty.
pub fn query_candidate<G: BilinearGroup + ?Sized>(
    grp: &G,
    c_prime: &GtElem,
    pairings: &[GtElem],
) -> GtElem {
    let (numer, rest) = pairings.split_first().expect("numerator pairing present");
    let mut denom = GtElem::identity();
    for gt in rest {
        denom = grp.mul_gt(&denom, gt);
    }
    let blinding = grp.div_gt(numer, &denom);
    grp.div_gt(c_prime, &blinding)
}

/// The operations one sweep of `targets` ciphertexts under a token with
/// `j` non-star positions records: per ciphertext `1 + 2j` pairings and
/// `2j + 2` multiplications in `GT` (the folds of [`query_candidate`]).
pub(crate) fn query_cost(j: usize, targets: usize) -> CounterSnapshot {
    let (j, n) = (j as u64, targets as u64);
    CounterSnapshot {
        pairings: n * (1 + 2 * j),
        gt_mults: n * (2 * j + 2),
        ..CounterSnapshot::default()
    }
}

/// The reference query check, and the default body of
/// [`BilinearGroup::match_query_batch`]: per ciphertext, the `1 + 2·|J|`
/// pairings through [`BilinearGroup::pair_batch`], the candidate through
/// [`query_candidate`], and the decision through
/// [`BilinearGroup::eq_gt`].
pub(crate) fn match_query_reference<G: BilinearGroup + ?Sized>(
    grp: &G,
    k0: &GElem,
    k: &[(usize, GElem, GElem)],
    targets: &[QueryTarget<'_>],
    hits: &mut [bool],
) -> CounterSnapshot {
    assert_eq!(hits.len(), targets.len(), "one decision per target");
    let mut pairs = Vec::with_capacity(1 + 2 * k.len());
    for (t, hit) in targets.iter().zip(hits) {
        pairs.clear();
        pairs.push((t.c0, k0));
        for (i, k1, k2) in k {
            let (c1, c2) = &t.c[*i];
            pairs.push((c1, k1));
            pairs.push((c2, k2));
        }
        let candidate = query_candidate(grp, t.c_prime, &grp.pair_batch(&pairs));
        *hit = grp.eq_gt(&candidate, t.expected);
    }
    query_cost(k.len(), targets.len())
}

impl SimulatedGroup {
    /// The fused query check at a fixed width of `K` limbs (`K` is the
    /// limb count of `N`). Every log is a residue of this engine's
    /// Montgomery domain, so a pairing is one CIOS product and the `GT`
    /// folds are modular additions: the candidate's log is
    /// `log C' − e_0 + Σ_{j≥1} e_j`. Nothing here allocates per pairing
    /// or per ciphertext; the token's operands are resolved once.
    pub(crate) fn match_query_fused<const K: usize>(
        &self,
        ctx: &MontgomeryCtx,
        k0: &GElem,
        k: &[(usize, GElem, GElem)],
        targets: &[QueryTarget<'_>],
        hits: &mut [bool],
    ) {
        // K_0, then K_{i,1} and K_{i,2} for every position i of J.
        let key: Vec<[u64; K]> = std::iter::once(k0)
            .chain(k.iter().flat_map(|(_, k1, k2)| [k1, k2]))
            .map(|e| self.limbs_of(ctx, &e.0))
            .collect();
        let (key0, key_j) = key.split_first().expect("K_0 present");
        let mut product = [0u64; K];
        for (t, hit) in targets.iter().zip(hits) {
            let mut acc = self.limbs_of::<K>(ctx, &t.c_prime.0);
            ctx.mont_mul_limbs(&self.limbs_of::<K>(ctx, &t.c0.0), key0, &mut product);
            ctx.sub_mod_limbs(&mut acc, &product);
            for ((i, _, _), key_i) in k.iter().zip(key_j.chunks_exact(2)) {
                let (c1, c2) = &t.c[*i];
                ctx.mont_mul_limbs(&self.limbs_of::<K>(ctx, &c1.0), &key_i[0], &mut product);
                ctx.add_mod_limbs(&mut acc, &product);
                ctx.mont_mul_limbs(&self.limbs_of::<K>(ctx, &c2.0), &key_i[1], &mut product);
                ctx.add_mod_limbs(&mut acc, &product);
            }
            *hit = acc == self.limbs_of::<K>(ctx, &t.expected.0);
        }
    }

    /// `log` as `K` limbs of this engine's residue domain: lifted by one
    /// CIOS pass when it is canonical (WAL-decoded or deserialized
    /// material, identities), otherwise copied from [`Self::residue_of`],
    /// which borrows residues of this domain. Only residues of a group of
    /// another order, and canonical logs wider than `N`, allocate there;
    /// no served path holds either.
    #[inline]
    fn limbs_of<const K: usize>(&self, ctx: &MontgomeryCtx, log: &Log) -> [u64; K] {
        let mut out = [0u64; K];
        match log {
            Log::Canonical(v) if v.limbs().len() <= K => ctx.to_mont_limbs(v.limbs(), &mut out),
            _ => copy_limbs(self.residue_of(log).limbs(), &mut out),
        }
        out
    }
}

/// Copies a normalized residue's limbs into a zeroed fixed-width buffer.
#[inline(always)]
fn copy_limbs(limbs: &[u64], out: &mut [u64]) {
    debug_assert!(limbs.len() <= out.len(), "residues are below N");
    for (o, l) in out.iter_mut().zip(limbs) {
        *o = *l;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sla_bigint::BigUint;

    /// A ciphertext's `(C', C_0, [(C_{i,1}, C_{i,2})])`.
    type Parts = (GtElem, GElem, Vec<(GElem, GElem)>);

    /// A token `(K_0, [(i, K_{i,1}, K_{i,2})])` over positions 0, 2 and 3,
    /// and five targets of width 4: two built to pass (their `expected`
    /// is the reference candidate), one with identity components, one
    /// canonical (post-serde), one failing.
    fn check_engine_against_reference(grp: &SimulatedGroup, rng: &mut StdRng) {
        let k0 = grp.random_gp(rng);
        let k: Vec<(usize, GElem, GElem)> = [0, 2, 3]
            .into_iter()
            .map(|i| (i, grp.random_gp(rng), grp.random_gp(rng)))
            .collect();
        let mut cts: Vec<Parts> = (0..4)
            .map(|_| {
                let c = (0..4)
                    .map(|_| (grp.random_gp(rng), grp.random_gp(rng)))
                    .collect();
                (
                    grp.pair(&grp.g(), &grp.random_gp(rng)),
                    grp.random_gp(rng),
                    c,
                )
            })
            .collect();
        cts[2].1 = GElem::identity();
        cts[2].2[2] = (GElem::identity(), GElem::identity());
        let canonical = &cts[1];
        cts.push((
            GtElem::from_canonical_log(canonical.0.discrete_log()),
            GElem::from_canonical_log(canonical.1.discrete_log()),
            canonical
                .2
                .iter()
                .map(|(a, b)| {
                    (
                        GElem::from_canonical_log(a.discrete_log()),
                        GElem::from_canonical_log(b.discrete_log()),
                    )
                })
                .collect(),
        ));
        let candidate = |(c_prime, c0, c): &Parts| {
            let mut pairs = vec![(c0, &k0)];
            for (i, k1, k2) in &k {
                pairs.push((&c[*i].0, k1));
                pairs.push((&c[*i].1, k2));
            }
            query_candidate(grp, c_prime, &grp.pair_batch(&pairs))
        };
        let mut expected: Vec<GtElem> = cts.iter().map(candidate).collect();
        expected[3] = grp.mul_gt(&expected[3], &grp.pair(&grp.g(), &grp.g()));
        expected[4] = GtElem::from_canonical_log(expected[4].discrete_log());
        let targets: Vec<QueryTarget<'_>> = cts
            .iter()
            .zip(&expected)
            .map(|((c_prime, c0, c), expected)| QueryTarget {
                c_prime,
                c0,
                c,
                expected,
            })
            .collect();

        let mut want = vec![false; targets.len()];
        let before = grp.counters().snapshot();
        let reference = match_query_reference(grp, &k0, &k, &targets, &mut want);
        let mid = grp.counters().snapshot();
        let mut got = vec![true; targets.len()];
        let fused = grp.match_query_batch(&k0, &k, &targets, &mut got);
        let after = grp.counters().snapshot();

        assert_eq!(want, [true, true, true, false, true]);
        assert_eq!(got, want);
        assert_eq!(fused, reference);
        assert_eq!(
            after - mid,
            mid - before,
            "counters must equal the reference"
        );
        assert_eq!(mid - before, query_cost(k.len(), targets.len()));
    }

    #[test]
    fn fused_kernel_equals_reference_at_every_width_and_parity() {
        let mut rng = StdRng::seed_from_u64(0x9e37);
        // Orders of one to eight limbs take the fused kernel, ten limbs
        // the reference body.
        for (bits, limbs) in [
            (20, 1),
            (48, 2),
            (80, 3),
            (120, 4),
            (150, 5),
            (180, 6),
            (220, 7),
            (250, 8),
            (300, 10),
        ] {
            let grp = SimulatedGroup::generate(bits, &mut rng);
            assert_eq!(grp.order().limbs().len(), limbs);
            check_engine_against_reference(&grp, &mut rng);
        }
        // An even order runs on the Barrett reducer and the reference body.
        let even = GroupParams::from_factors(BigUint::from_u64(2), BigUint::from_u64(1_000_003));
        check_engine_against_reference(&SimulatedGroup::new(even), &mut rng);
    }
}
