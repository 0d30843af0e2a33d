//! HVE's query check as one engine operation.
//!
//! Matching an alert token against a stored ciphertext decides whether
//!
//! ```text
//! C' · Π_{i∈J} e(C_{i,1}, K_{i,1}) · e(C_{i,2}, K_{i,2}) / e(C_0, K_0)
//! ```
//!
//! equals the payload the ciphertext is known to carry. The ciphertexts
//! arrive as packed rows of canonical limbs ([`QueryRows`]) and the
//! token as a [`PreparedQuery`] that owns its keys as Montgomery residue
//! limbs: as the engine's GenToken wrote them
//! ([`BilinearGroup::gen_token_query`]), or as
//! [`BilinearGroup::prepare_query`] resolved a token's elements, once
//! for any number of sweeps. The reference evaluation
//! ([`match_query_reference`]) rebuilds each row's elements and the
//! keys' canonical logs, builds every pairing as a `GT` element and
//! folds them with the metered group law. The simulated engine decides
//! the same predicate on the rows in place (`SimulatedGroup`'s
//! [`BilinearGroup::match_query_rows`]): against a key held as the
//! residue `k·R`, one CIOS pass per pairing yields the canonical
//! `c·k mod N`, so the folds, the start value `C'` and the comparison
//! with the payload all stay canonical and no stored operand is ever
//! lifted. Both record exactly the operations of [`query_cost`].

use crate::rows::below;
use crate::{BilinearGroup, CounterSnapshot, GElem, GtElem, QueryRows, RowShape, SimulatedGroup};
use sla_bigint::{BigUint, MontgomeryCtx};
use std::sync::Arc;

/// A token's keys `(K_0, [(i, K_{i,1}, K_{i,2})])` as flat limbs, owned,
/// for any number of row sweeps: what an engine's GenToken writes
/// ([`BilinearGroup::gen_token_query`]), and what
/// [`BilinearGroup::prepare_query`] makes of a token's elements.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The token's non-star positions `J`, in order.
    pub(crate) positions: Vec<usize>,
    /// `K_0`, then `K_{i,1}` and `K_{i,2}` for every position, the
    /// order's limb count each: Montgomery residues of `ctx`.
    pub(crate) keys: Vec<u64>,
    /// The Montgomery context of the order the keys were prepared for.
    pub(crate) ctx: Arc<MontgomeryCtx>,
}

impl PreparedQuery {
    /// The token's non-star positions `J`, in order; the query costs
    /// `1 + 2·|J|` pairings per row.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Limbs per key.
    pub(crate) fn limbs(&self) -> usize {
        self.keys.len() / (1 + 2 * self.positions.len())
    }

    /// The keys `(K_0, [(i, K_{i,1}, K_{i,2})])` as elements, the form
    /// of a token: each residue returned to its canonical log.
    pub fn elements(&self) -> (GElem, Vec<(usize, GElem, GElem)>) {
        let width = self.limbs();
        let mut keys = self
            .keys
            .chunks_exact(width)
            .map(|limbs| GElem(self.ctx.from_mont(&BigUint::from_limbs(limbs.to_vec()))));
        let k0 = keys.next().expect("K_0 is present");
        let k = self
            .positions
            .iter()
            .map(|&i| {
                let k1 = keys.next().expect("K_{i,1} per position");
                let k2 = keys.next().expect("K_{i,2} per position");
                (i, k1, k2)
            })
            .collect();
        (k0, k)
    }
}

/// Equal positions and equal key limbs, prepared for the same order (one
/// modulus fixes `R`, and with it the residues).
impl PartialEq for PreparedQuery {
    fn eq(&self, other: &Self) -> bool {
        self.ctx.modulus() == other.ctx.modulus()
            && self.positions == other.positions
            && self.keys == other.keys
    }
}

impl Eq for PreparedQuery {}

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

/// The operations one sweep of `rows` ciphertexts under a token with
/// `j` non-star positions records: per ciphertext `1 + 2j` pairings and
/// `2j + 2` multiplications in `GT` (the folds of [`query_candidate`]).
pub(crate) fn query_cost(j: usize, rows: usize) -> CounterSnapshot {
    let (j, n) = (j as u64, rows as u64);
    CounterSnapshot {
        pairings: n * (1 + 2 * j),
        gt_mults: n * (2 * j + 2),
        ..CounterSnapshot::default()
    }
}

/// Checks a sweep's arguments: a query prepared for the group of order
/// `n`, one decision per row, and a component in the rows at every
/// position of the token.
pub(crate) fn check_sweep(n: &BigUint, query: &PreparedQuery, rows: &QueryRows, hits: &[bool]) {
    assert!(
        query.ctx.modulus() == n,
        "a query prepared for a group of another order"
    );
    assert_eq!(hits.len(), rows.len(), "one decision per row");
    let width = rows.shape().width;
    assert!(
        rows.is_empty() || query.positions.iter().all(|i| *i < width),
        "every position of the token has a component in the rows"
    );
}

/// The reference query check, the default body of
/// [`BilinearGroup::match_query_rows`] and the oracle the fused kernel
/// is tested against: the keys returned to elements
/// ([`PreparedQuery::elements`]), per row its elements rebuilt from
/// their canonical logs, the `1 + 2·|J|` pairings through
/// [`BilinearGroup::pair`], the candidate through
/// [`query_candidate`], and the decision through
/// [`BilinearGroup::eq_gt`]. Returns the operations it recorded.
///
/// # Panics
/// Panics if `query` was prepared for a group of another order, `hits`
/// and `rows` differ in length, or the rows have no component at a
/// position of the token.
pub fn match_query_reference<G: BilinearGroup + ?Sized>(
    grp: &G,
    query: &PreparedQuery,
    rows: &QueryRows,
    hits: &mut [bool],
) -> CounterSnapshot {
    check_sweep(grp.order(), query, rows, hits);
    let (k0, k) = query.elements();
    let shape = rows.shape();
    let log = |row: &[u64], idx: usize| {
        BigUint::from_limbs(row[idx * shape.limbs..(idx + 1) * shape.limbs].to_vec())
    };
    for (i, hit) in hits.iter_mut().enumerate() {
        let row = rows.row(i);
        let g = |idx| GElem::from_canonical_log(log(row, idx));
        let c0 = g(RowShape::C0);
        let c: Vec<(GElem, GElem)> = k
            .iter()
            .map(|(i, _, _)| (g(RowShape::component(*i, 0)), g(RowShape::component(*i, 1))))
            .collect();
        let mut pairings = Vec::with_capacity(1 + 2 * k.len());
        pairings.push(grp.pair(&c0, &k0));
        for ((c1, c2), (_, k1, k2)) in c.iter().zip(&k) {
            pairings.push(grp.pair(c1, k1));
            pairings.push(grp.pair(c2, k2));
        }
        let c_prime = GtElem::from_canonical_log(log(row, RowShape::C_PRIME));
        let candidate = query_candidate(grp, &c_prime, &pairings);
        let expected = GtElem::from_canonical_log(log(row, shape.expected()));
        *hit = grp.eq_gt(&candidate, &expected);
    }
    query_cost(query.positions.len(), rows.len())
}

impl SimulatedGroup {
    /// A token's keys as Montgomery residues of this engine, `K` limbs
    /// each.
    pub(crate) fn query_residues(&self, k0: &GElem, k: &[(usize, GElem, GElem)]) -> PreparedQuery {
        let ctx = self.ctx();
        let width = ctx.limb_count();
        let mut keys = vec![0u64; (1 + 2 * k.len()) * width];
        let elems = std::iter::once(k0).chain(k.iter().flat_map(|(_, k1, k2)| [k1, k2]));
        for (key, out) in elems.zip(keys.chunks_exact_mut(width)) {
            let r = ctx.to_mont(&key.0);
            out[..r.limbs().len()].copy_from_slice(r.limbs());
        }
        PreparedQuery {
            positions: k.iter().map(|(i, _, _)| *i).collect(),
            keys,
            ctx: ctx.clone(),
        }
    }

    /// The fused query check over rows `K` limbs wide (`K` is the limb
    /// count of `N`). A pairing is one CIOS pass of a canonical operand
    /// against a residue key, which yields the canonical product, so the
    /// candidate's log is `C' − e_0 + Σ_{j≥1} e_j` in canonical form and
    /// is compared with the row's payload as it is stored. Nothing here
    /// allocates per pairing or per row.
    pub(crate) fn match_rows_fused<const K: usize>(
        &self,
        ctx: &MontgomeryCtx,
        query: &PreparedQuery,
        rows: &QueryRows,
        hits: &mut [bool],
    ) {
        let shape = rows.shape();
        debug_assert_eq!(shape.limbs, K);
        let n: &[u64; K] = ctx.modulus().limbs().try_into().expect("N has K limbs");
        let key = |j: usize| -> &[u64; K] {
            query.keys[j * K..(j + 1) * K]
                .try_into()
                .expect("a key holds K limbs")
        };
        let expected = shape.expected();
        let mut product = [0u64; K];
        for (row, hit) in rows.as_limbs().chunks_exact(shape.stride()).zip(hits) {
            let operand = |idx: usize| -> &[u64; K] {
                row[idx * K..(idx + 1) * K]
                    .try_into()
                    .expect("a row holds K limbs per operand")
            };
            let mut acc = canonical(operand(RowShape::C_PRIME), n);
            ctx.mont_mul_limbs(operand(RowShape::C0), key(0), &mut product);
            ctx.sub_mod_limbs(&mut acc, &product);
            for (t, i) in query.positions.iter().enumerate() {
                ctx.mont_mul_limbs(
                    operand(RowShape::component(*i, 0)),
                    key(1 + 2 * t),
                    &mut product,
                );
                ctx.add_mod_limbs(&mut acc, &product);
                ctx.mont_mul_limbs(
                    operand(RowShape::component(*i, 1)),
                    key(2 + 2 * t),
                    &mut product,
                );
                ctx.add_mod_limbs(&mut acc, &product);
            }
            *hit = acc == canonical(operand(expected), n);
        }
    }
}

/// `x mod n` for an operand of `n`'s width. A CIOS pass against a
/// reduced key already reduces any such operand, but the folds start
/// from `C'` and end at the payload, which must be below `n`: rows a
/// store has brought to the group always are, and only rows packed from
/// other material take the division.
#[inline(always)]
fn canonical<const K: usize>(x: &[u64; K], n: &[u64; K]) -> [u64; K] {
    if below(x, n) {
        return *x;
    }
    let reduced = &BigUint::from_limbs(x.to_vec()) % &BigUint::from_limbs(n.to_vec());
    let mut out = [0u64; K];
    out[..reduced.limbs().len()].copy_from_slice(reduced.limbs());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackedRow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A ciphertext's `(C', C_0, [(C_{i,1}, C_{i,2})])`.
    type Parts = (GtElem, GElem, Vec<(GElem, GElem)>);

    /// A token `(K_0, [(i, K_{i,1}, K_{i,2})])` over positions 0, 2 and 3,
    /// and five rows of width 4: two built to pass (their payload is the
    /// reference candidate), one with identity components, one failing —
    /// all brought to the group, as a store brings them — and a passing
    /// one whose logs are not below N.
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
        let candidate = |(c_prime, c0, c): &Parts| {
            let mut pairings = vec![grp.pair(c0, &k0)];
            for (i, k1, k2) in &k {
                pairings.push(grp.pair(&c[*i].0, k1));
                pairings.push(grp.pair(&c[*i].1, k2));
            }
            query_candidate(grp, c_prime, &pairings)
        };
        let mut expected: Vec<GtElem> = cts.iter().map(candidate).collect();
        expected[3] = grp.mul_gt(&expected[3], &grp.pair(&grp.g(), &grp.g()));
        let mut rows = QueryRows::new();
        for ((c_prime, c0, c), expected) in cts.iter().zip(&expected) {
            let mut row = PackedRow::from_elements(c_prime, c0, c, expected);
            row.fit(grp.order());
            rows.push(&row);
        }
        // The first row again with `C'`, `C_0` and the payload raised by
        // N and not brought to the group: still a hit.
        let plus_n = |log: BigUint| &log + grp.order();
        let (c_prime, c0, c) = &cts[0];
        rows.push(&PackedRow::from_elements(
            &GtElem::from_canonical_log(plus_n(c_prime.discrete_log())),
            &GElem::from_canonical_log(plus_n(c0.discrete_log())),
            c,
            &GtElem::from_canonical_log(plus_n(expected[0].discrete_log())),
        ));
        assert_eq!(rows.shape().limbs, grp.order().limbs().len());

        let query = grp.prepare_query(&k0, &k);
        let mut want = vec![false; rows.len()];
        let before = grp.counters().snapshot();
        let reference = match_query_reference(grp, &query, &rows, &mut want);
        let mid = grp.counters().snapshot();
        let mut got = vec![true; rows.len()];
        let fused = grp.match_query_rows(&query, &rows, &mut got);
        let after = grp.counters().snapshot();

        assert_eq!(want, [true, true, true, false, true]);
        assert_eq!(got, want);
        assert_eq!(fused, reference);
        assert_eq!(
            after - mid,
            mid - before,
            "counters must equal the reference"
        );
        assert_eq!(mid - before, query_cost(k.len(), rows.len()));
    }

    #[test]
    fn fused_kernel_equals_reference_at_every_width() {
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
    }

    #[test]
    #[should_panic(expected = "a query prepared for a group of another order")]
    fn a_query_of_another_order_is_refused() {
        let mut rng = StdRng::seed_from_u64(4);
        let grp = SimulatedGroup::generate(20, &mut rng);
        let other = SimulatedGroup::generate(20, &mut rng);
        let query = other.prepare_query(&other.random_gp(&mut rng), &[]);
        grp.match_query_rows(&query, &QueryRows::new(), &mut []);
    }

    #[test]
    fn empty_rows_cost_nothing() {
        let mut rng = StdRng::seed_from_u64(3);
        let grp = SimulatedGroup::generate(20, &mut rng);
        let k = vec![(5, grp.random_gp(&mut rng), grp.random_gp(&mut rng))];
        let k0 = grp.random_gp(&mut rng);
        let query = grp.prepare_query(&k0, &k);
        let cost = grp.match_query_rows(&query, &QueryRows::new(), &mut []);
        assert_eq!(cost, CounterSnapshot::default());
        assert_eq!(grp.counters().pairings(), 0);
    }
}
