//! The [`BilinearGroup`] abstraction and its simulated implementation.

use crate::query::{check_sweep, match_query_reference, query_cost};
use crate::{
    CounterSnapshot, EncryptBases, GElem, GroupParams, GtElem, OpCounters, PackedRow,
    PreparedQuery, QueryRows, ReadyBases, TokenBases,
};
use rand::Rng;
use sla_bigint::{random_below, random_nonzero_below, BigUint, MontgomeryCtx};
use std::sync::Arc;

/// A symmetric bilinear group of composite order `N = P·Q`.
///
/// This is the seam between the HVE scheme and the group backend: the HVE
/// crate is generic over this trait, so a curve-based pairing engine can be
/// swapped in without touching the scheme. All operations are instance
/// methods (not methods on elements) so the engine can meter them.
pub trait BilinearGroup {
    /// Group order `N`.
    fn order(&self) -> &BigUint;
    /// Prime factor `P`.
    fn p(&self) -> &BigUint;
    /// Prime factor `Q`.
    fn q(&self) -> &BigUint;

    /// Canonical generator of the full group `G`.
    fn g(&self) -> GElem;
    /// Canonical generator of the order-`P` subgroup `G_p`.
    fn gp_generator(&self) -> GElem;
    /// Canonical generator of the order-`Q` subgroup `G_q`.
    fn gq_generator(&self) -> GElem;

    /// Group law in `G`.
    fn mul_g(&self, a: &GElem, b: &GElem) -> GElem;
    /// Exponentiation in `G`.
    fn pow_g(&self, a: &GElem, e: &BigUint) -> GElem;
    /// Inverse in `G`.
    fn inv_g(&self, a: &GElem) -> GElem;

    /// Group law in `GT`.
    fn mul_gt(&self, a: &GtElem, b: &GtElem) -> GtElem;
    /// Exponentiation in `GT`.
    fn pow_gt(&self, a: &GtElem, e: &BigUint) -> GtElem;
    /// Inverse in `GT`.
    fn inv_gt(&self, a: &GtElem) -> GtElem;
    /// Division in `GT` (`a · b^{-1}`), a common HVE step.
    fn div_gt(&self, a: &GtElem, b: &GtElem) -> GtElem {
        let inv = self.inv_gt(b);
        self.mul_gt(a, &inv)
    }

    /// The bilinear map `e : G × G → GT`.
    fn pair(&self, a: &GElem, b: &GElem) -> GtElem;

    /// Resolves a token's keys `(K_0, [(i, K_{i,1}, K_{i,2})])` once, in
    /// the form the engine's sweep reads, for any number of
    /// [`Self::match_query_rows`] sweeps.
    fn prepare_query(&self, k0: &GElem, k: &[(usize, GElem, GElem)]) -> PreparedQuery;

    /// Readies GenToken's secret-key bases for [`Self::gen_token_query`],
    /// once per key.
    fn prepare_token_bases(&self, key: &TokenBases<'_>) -> ReadyBases;

    /// HVE's GenToken for `pattern` (`None` is `*`) straight into a
    /// query the sweep reads. `ready` is [`Self::prepare_token_bases`]
    /// of the same `key`. The query's keys, the draws from `rng` and the
    /// counters recorded must equal those of the reference: the token of
    /// [`crate::gen_token_reference`] prepared by [`Self::prepare_query`].
    ///
    /// # Panics
    /// Panics if `pattern` is wider than the key, or `ready` was readied
    /// from a key with another `v` or of another width.
    fn gen_token_query<R: Rng>(
        &self,
        key: &TokenBases<'_>,
        ready: &ReadyBases,
        pattern: &[Option<bool>],
        rng: &mut R,
    ) -> PreparedQuery
    where
        Self: Sized;

    /// Readies Encrypt's public-key bases for [`Self::encrypt_row`], once
    /// per key.
    fn prepare_encrypt_bases(&self, key: &EncryptBases<'_>) -> ReadyBases;

    /// HVE's Encrypt of `message` under the attribute `bits`, straight
    /// into the row a Service Provider stores with `message` as its
    /// expected payload. `ready` is [`Self::prepare_encrypt_bases`] of the
    /// same `key`. The row, the draws from `rng` and the counters
    /// recorded must equal those of the reference: the ciphertext of
    /// [`crate::encrypt_reference`] packed for this group
    /// ([`PackedRow::pack`]).
    ///
    /// # Panics
    /// Panics if `bits` is wider than the key, or `ready` was readied
    /// from a key with another `V` or of another width.
    fn encrypt_row<R: Rng>(
        &self,
        key: &EncryptBases<'_>,
        ready: &ReadyBases,
        bits: &[bool],
        message: &GtElem,
        rng: &mut R,
    ) -> PackedRow
    where
        Self: Sized;

    /// HVE's query check over packed rows under one prepared token:
    /// `hits[r]` becomes whether
    /// `C' · Π_{i∈J} e(C_{i,1}, K_{i,1})·e(C_{i,2}, K_{i,2}) / e(C_0, K_0)`
    /// of row `r` equals the row's expected payload.
    ///
    /// The default body is [`crate::match_query_reference`]: per row its
    /// `1 + 2·|J|` pairings through [`Self::pair`], the `GT` folds
    /// of [`crate::query_candidate`], and [`Self::eq_gt`]. An engine may
    /// fuse the evaluation, but its decisions and its counters must equal
    /// the reference: per row, pairings advance by `1 + 2·|J|`,
    /// `gt_mults` by `2·|J| + 2`, and no other counter moves.
    ///
    /// Returns the operations the sweep added to [`Self::counters`], so a
    /// caller sharing the engine with other threads can count its own.
    ///
    /// # Panics
    /// Panics if `query` was prepared for a group of another order,
    /// `hits` and `rows` differ in length, or the rows have no component
    /// at a position of the token.
    fn match_query_rows(
        &self,
        query: &PreparedQuery,
        rows: &QueryRows,
        hits: &mut [bool],
    ) -> CounterSnapshot {
        match_query_reference(self, query, rows, hits)
    }

    /// The canonical discrete log of a `GT` element, metered as one
    /// canonicalization in [`OpCounters`]: the read of a log that
    /// message decoding makes. Consumers that only need a match/no-match
    /// decision use [`BilinearGroup::eq_gt`], which meters none.
    fn gt_canonical(&self, a: &GtElem) -> BigUint {
        self.counters().record_canonicalization();
        a.discrete_log()
    }

    /// Equality of two `GT` elements as group elements: their logs
    /// compared reduced mod `N`, so material whose log is not below `N`
    /// equals its reduced twin. Meters nothing.
    fn eq_gt(&self, a: &GtElem, b: &GtElem) -> bool {
        let n = self.order();
        if &a.0 < n && &b.0 < n {
            a.0 == b.0
        } else {
            &a.0 % n == &b.0 % n
        }
    }

    /// Uniformly random element of the order-`P` subgroup `G_p` (excluding
    /// the identity).
    fn random_gp<R: Rng>(&self, rng: &mut R) -> GElem
    where
        Self: Sized;
    /// Uniformly random element of the order-`Q` subgroup `G_q` (excluding
    /// the identity).
    fn random_gq<R: Rng>(&self, rng: &mut R) -> GElem
    where
        Self: Sized;
    /// Uniformly random scalar in `[0, P)`.
    fn random_zp<R: Rng>(&self, rng: &mut R) -> BigUint
    where
        Self: Sized;
    /// Uniformly random scalar in `[0, N)`.
    fn random_zn<R: Rng>(&self, rng: &mut R) -> BigUint
    where
        Self: Sized;

    /// Operation meters.
    fn counters(&self) -> &OpCounters;
}

/// Exponent-representation implementation of [`BilinearGroup`].
///
/// See the crate docs for the simulation argument. Deterministic given the
/// RNG used to generate [`GroupParams`].
///
/// Every element operation works on canonical logs: the group law is a
/// division-free `mod_add`/`mod_sub`, and an exponentiation or a pairing
/// is one product mod `N` through the engine's [`MontgomeryCtx`] for the
/// odd order `N = P·Q`.
///
/// For orders of up to eight limbs it runs HVE's Encrypt, GenToken and
/// query check as flat limb loops over bases readied once per key
/// ([`BilinearGroup::encrypt_row`], [`BilinearGroup::gen_token_query`],
/// [`BilinearGroup::match_query_rows`]), monomorphized over the order's
/// limb count, on Montgomery residues of the same context; larger orders
/// take the element reference.
#[derive(Debug)]
pub struct SimulatedGroup {
    params: GroupParams,
    counters: OpCounters,
    /// The Montgomery context of `N`: the products of the element
    /// operations, and the residue domain of the flat loops' limbs.
    ctx: Arc<MontgomeryCtx>,
}

impl SimulatedGroup {
    /// Builds an engine over existing parameters, precomputing the
    /// Montgomery context of the order.
    ///
    /// # Panics
    /// Panics if the order `params.n` is even or below 3: the flat
    /// loops' residues are Montgomery forms, which exist for odd moduli
    /// only. [`GroupParams::generate`] and [`GroupParams::from_factors`]
    /// only build odd orders.
    pub fn new(params: GroupParams) -> Self {
        let ctx = Arc::new(
            MontgomeryCtx::new(&params.n).expect("the group order N = P·Q must be odd and above 1"),
        );
        SimulatedGroup {
            params,
            counters: OpCounters::new(),
            ctx,
        }
    }

    /// Generates fresh parameters with `bits`-bit prime factors.
    pub fn generate<R: Rng>(bits: usize, rng: &mut R) -> Self {
        Self::new(GroupParams::generate(bits, rng))
    }

    /// The group parameters.
    pub fn params(&self) -> &GroupParams {
        &self.params
    }

    /// The Montgomery context of the order.
    pub(crate) fn ctx(&self) -> &Arc<MontgomeryCtx> {
        &self.ctx
    }
}

impl BilinearGroup for SimulatedGroup {
    fn order(&self) -> &BigUint {
        &self.params.n
    }
    fn p(&self) -> &BigUint {
        &self.params.p
    }
    fn q(&self) -> &BigUint {
        &self.params.q
    }

    fn g(&self) -> GElem {
        GElem(BigUint::one())
    }
    fn gp_generator(&self) -> GElem {
        GElem(self.params.q.clone())
    }
    fn gq_generator(&self) -> GElem {
        GElem(self.params.p.clone())
    }

    fn mul_g(&self, a: &GElem, b: &GElem) -> GElem {
        self.counters.record_g_mult();
        GElem(a.0.mod_add(&b.0, &self.params.n))
    }

    fn pow_g(&self, a: &GElem, e: &BigUint) -> GElem {
        self.counters.record_g_exp();
        GElem(self.ctx.mod_mul(&a.0, e))
    }

    fn inv_g(&self, a: &GElem) -> GElem {
        GElem(BigUint::zero().mod_sub(&a.0, &self.params.n))
    }

    fn mul_gt(&self, a: &GtElem, b: &GtElem) -> GtElem {
        self.counters.record_gt_mult();
        GtElem(a.0.mod_add(&b.0, &self.params.n))
    }

    fn pow_gt(&self, a: &GtElem, e: &BigUint) -> GtElem {
        self.counters.record_gt_exp();
        GtElem(self.ctx.mod_mul(&a.0, e))
    }

    fn inv_gt(&self, a: &GtElem) -> GtElem {
        GtElem(BigUint::zero().mod_sub(&a.0, &self.params.n))
    }

    fn pair(&self, a: &GElem, b: &GElem) -> GtElem {
        self.counters.record_pairing();
        GtElem(self.ctx.mod_mul(&a.0, &b.0))
    }

    fn prepare_query(&self, k0: &GElem, k: &[(usize, GElem, GElem)]) -> PreparedQuery {
        self.query_residues(k0, k)
    }

    fn prepare_token_bases(&self, key: &TokenBases<'_>) -> ReadyBases {
        self.token_ready(key)
    }

    fn gen_token_query<R: Rng>(
        &self,
        key: &TokenBases<'_>,
        ready: &ReadyBases,
        pattern: &[Option<bool>],
        rng: &mut R,
    ) -> PreparedQuery {
        self.token_query(key, ready, pattern, rng)
    }

    fn prepare_encrypt_bases(&self, key: &EncryptBases<'_>) -> ReadyBases {
        self.encrypt_ready(key)
    }

    fn encrypt_row<R: Rng>(
        &self,
        key: &EncryptBases<'_>,
        ready: &ReadyBases,
        bits: &[bool],
        message: &GtElem,
        rng: &mut R,
    ) -> PackedRow {
        self.encrypted_row(key, ready, bits, message, rng)
    }

    fn match_query_rows(
        &self,
        query: &PreparedQuery,
        rows: &QueryRows,
        hits: &mut [bool],
    ) -> CounterSnapshot {
        // The fused kernel covers orders of up to eight limbs (512 bits,
        // `SystemBuilder`'s largest group) on rows at the order's width;
        // larger orders and rows no store has brought to the group take
        // the reference evaluation.
        let ctx = &self.ctx;
        let k = ctx.limb_count();
        if rows.shape().limbs != k || k > 8 {
            return match_query_reference(self, query, rows, hits);
        }
        check_sweep(self.order(), query, rows, hits);
        match k {
            1 => self.match_rows_fused::<1>(ctx, query, rows, hits),
            2 => self.match_rows_fused::<2>(ctx, query, rows, hits),
            3 => self.match_rows_fused::<3>(ctx, query, rows, hits),
            4 => self.match_rows_fused::<4>(ctx, query, rows, hits),
            5 => self.match_rows_fused::<5>(ctx, query, rows, hits),
            6 => self.match_rows_fused::<6>(ctx, query, rows, hits),
            7 => self.match_rows_fused::<7>(ctx, query, rows, hits),
            _ => self.match_rows_fused::<8>(ctx, query, rows, hits),
        }
        let cost = query_cost(query.positions.len(), rows.len());
        self.counters.record(&cost);
        cost
    }

    fn random_gp<R: Rng>(&self, rng: &mut R) -> GElem {
        // g_p^r for r in [1, P): log Q·r, already below N = P·Q.
        let r = random_nonzero_below(&self.params.p, rng);
        GElem(&self.params.q * &r)
    }

    fn random_gq<R: Rng>(&self, rng: &mut R) -> GElem {
        // g_q^r for r in [1, Q): log P·r, already below N.
        let r = random_nonzero_below(&self.params.q, rng);
        GElem(&self.params.p * &r)
    }

    fn random_zp<R: Rng>(&self, rng: &mut R) -> BigUint {
        random_below(&self.params.p, rng)
    }

    fn random_zn<R: Rng>(&self, rng: &mut R) -> BigUint {
        random_below(&self.params.n, rng)
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SimulatedGroup, StdRng) {
        let mut rng = StdRng::seed_from_u64(0xabcd);
        let grp = SimulatedGroup::generate(48, &mut rng);
        (grp, rng)
    }

    #[test]
    fn group_laws() {
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        let b = grp.random_gq(&mut rng);
        // associativity / commutativity via exponents
        assert_eq!(grp.mul_g(&a, &b), grp.mul_g(&b, &a));
        // identity
        assert_eq!(grp.mul_g(&a, &GElem::identity()), a);
        // inverse
        assert!(grp.mul_g(&a, &grp.inv_g(&a)).is_identity());
    }

    #[test]
    fn bilinearity() {
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        let b = grp.random_gp(&mut rng);
        let x = grp.random_zn(&mut rng);
        let y = grp.random_zn(&mut rng);
        let lhs = grp.pair(&grp.pow_g(&a, &x), &grp.pow_g(&b, &y));
        let exp = x.mod_mul(&y, grp.order());
        let rhs = grp.pow_gt(&grp.pair(&a, &b), &exp);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn symmetry() {
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        let b = grp.random_gq(&mut rng);
        assert_eq!(grp.pair(&a, &b), grp.pair(&b, &a));
    }

    #[test]
    fn cross_subgroup_annihilation() {
        // e(G_p, G_q) = 1: the property HVE's blinding terms rely on.
        let (grp, mut rng) = setup();
        for _ in 0..10 {
            let a = grp.random_gp(&mut rng);
            let b = grp.random_gq(&mut rng);
            assert!(grp.pair(&a, &b).is_identity());
        }
    }

    #[test]
    fn subgroup_orders() {
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        // a^P = identity for a in G_p
        assert!(grp.pow_g(&a, grp.p()).is_identity());
        let b = grp.random_gq(&mut rng);
        assert!(grp.pow_g(&b, grp.q()).is_identity());
        // but a^Q != identity (a has order exactly P for random sampling)
        assert!(!grp.pow_g(&a, grp.q()).is_identity());
    }

    #[test]
    fn pairing_counter_increments() {
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        assert_eq!(grp.counters().pairings(), 0);
        let _ = grp.pair(&a, &a);
        let _ = grp.pair(&a, &a);
        assert_eq!(grp.counters().pairings(), 2);
        grp.counters().reset();
        assert_eq!(grp.counters().pairings(), 0);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_order_rejected() {
        SimulatedGroup::new(GroupParams {
            p: BigUint::from_u64(2),
            q: BigUint::from_u64(1_000_003),
            n: BigUint::from_u64(2_000_006),
        });
    }

    #[test]
    fn gt_division() {
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        let b = grp.random_gp(&mut rng);
        let ab = grp.pair(&a, &b);
        let quotient = grp.div_gt(&ab, &ab);
        assert!(quotient.is_identity());
    }

    #[test]
    fn generators_have_logs_one_q_and_p() {
        // g has log 1, g_p log Q and g_q log P, so a power of each is
        // its exponent times that log mod N, exponents not below N
        // included.
        let (grp, mut rng) = setup();
        let n = grp.order();
        for e in [grp.random_zn(&mut rng), n + &BigUint::from_u64(5)] {
            assert_eq!(grp.pow_g(&grp.g(), &e).discrete_log(), &e % n);
            assert_eq!(
                grp.pow_g(&grp.gp_generator(), &e).discrete_log(),
                grp.q().mod_mul(&e, n)
            );
            assert_eq!(
                grp.pow_g(&grp.gq_generator(), &e).discrete_log(),
                grp.p().mod_mul(&e, n)
            );
        }
    }

    #[test]
    fn eq_gt_compares_logs_mod_n_and_meters_nothing() {
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        let b = grp.random_gp(&mut rng);
        let x = grp.pair(&a, &b);
        let y = grp.pair(&b, &a);
        let z = grp.mul_gt(&x, &x);

        let before = grp.counters().snapshot();
        assert!(grp.eq_gt(&x, &y));
        assert!(!grp.eq_gt(&x, &z));
        // A log not below N (material built from outside the engine)
        // equals its reduced twin under eq_gt, though not as a value.
        let x_plus_n = GtElem::from_canonical_log(&x.discrete_log() + grp.order());
        assert!(grp.eq_gt(&x, &x_plus_n));
        assert!(grp.eq_gt(&x_plus_n, &x));
        assert!(!grp.eq_gt(&x_plus_n, &z));
        assert_ne!(x, x_plus_n);
        assert_eq!(grp.counters().snapshot(), before, "eq_gt meters nothing");
    }

    #[test]
    fn gt_canonical_is_metered() {
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        let x = grp.pair(&a, &a);
        let before = grp.counters().snapshot();
        let log = grp.gt_canonical(&x);
        let delta = grp.counters().snapshot() - before;
        assert_eq!(log, x.discrete_log());
        assert_eq!(delta.canonicalizations, 1);
    }
}
