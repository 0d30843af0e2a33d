//! The [`BilinearGroup`] abstraction and its simulated implementation.

use crate::element::Log;
use crate::query::{check_sweep, match_query_reference, query_cost};
use crate::table::FixedBaseMul;
use crate::{
    CounterSnapshot, EncryptBases, GElem, GroupParams, GtElem, OpCounters, PackedRow,
    PreparedQuery, QueryRows, ReadyBases, TokenBases,
};
use rand::Rng;
use sla_bigint::{random_below, random_nonzero_below, BigUint, MontgomeryCtx};
use std::borrow::Cow;
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

    /// Resolves a token's keys `(K_0, [(i, K_{i,1}, K_{i,2})])` once, for
    /// any number of [`Self::match_query_rows`] sweeps. The default holds
    /// their canonical logs; an engine holds them in the form its sweep
    /// reads.
    fn prepare_query(&self, k0: &GElem, k: &[(usize, GElem, GElem)]) -> PreparedQuery {
        PreparedQuery::canonical(self.order(), k0, k)
    }

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
    /// Panics if `pattern` is wider than the key.
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
    /// Panics if `bits` is wider than the key.
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
    /// Panics if `hits` and `rows` differ in length, or the rows have no
    /// component at a position of the token.
    fn match_query_rows(
        &self,
        query: &PreparedQuery,
        rows: &QueryRows,
        hits: &mut [bool],
    ) -> CounterSnapshot {
        match_query_reference(self, query, rows, hits)
    }

    /// The canonical discrete log of a `GT` element, metered as one
    /// canonicalization in [`OpCounters`]. This is the **conversion
    /// boundary** out of the engine's residue domain: every call pays
    /// (at most) one `from_mont` pass, so consumers that only need a
    /// match/no-match decision should use [`BilinearGroup::eq_gt`] and
    /// convert on match only.
    fn gt_canonical(&self, a: &GtElem) -> BigUint {
        self.counters().record_canonicalization();
        a.discrete_log()
    }

    /// Equality of two `GT` elements decided **inside the residue
    /// domain** — the comparison never converts an engine-produced
    /// element back to canonical form, so it is safe on the hottest
    /// matching paths. (Canonical-form operands — deserialized material —
    /// are lifted *into* the domain instead, which for Montgomery moduli
    /// is a single CIOS pass.)
    fn eq_gt(&self, a: &GtElem, b: &GtElem) -> bool {
        a == b
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
/// On construction the engine builds a shared [`MontgomeryCtx`] for the
/// odd group order `N = P·Q` and keeps every element it produces
/// **inside the Montgomery domain**: a pairing is one domain product (a
/// single CIOS pass), the group law is one division-free `mod_add`, and
/// nothing converts back per operation. It also builds fixed-base
/// precomputations for the four generators, so `pow_g`/`pow_gt` on `g`,
/// `g_p`, `g_q` or `gt` cost a single CIOS pass.
/// Canonical conversion happens at `discrete_log()`/serde only; operation
/// counts and all algebraic invariants are unchanged.
///
/// For orders of up to eight limbs it runs HVE's Encrypt, GenToken and
/// query check as flat limb loops over bases readied once per key
/// ([`BilinearGroup::encrypt_row`], [`BilinearGroup::gen_token_query`],
/// [`BilinearGroup::match_query_rows`]), monomorphized over the order's
/// limb count; larger orders take the element reference.
#[derive(Debug)]
pub struct SimulatedGroup {
    params: GroupParams,
    counters: OpCounters,
    /// Shared Montgomery context defining the residue domain of every
    /// element this engine produces.
    ctx: Arc<MontgomeryCtx>,
    /// Fixed-base precomputation for `g` — and for `gt = e(g, g)`, which
    /// shares it because both have log 1 (`pow_g`/`pow_gt` dispatch
    /// through the same [`SimulatedGroup::pow_log`]).
    g_table: FixedBaseMul,
    /// Fixed-base precomputation for the `G_p` generator `g^Q` (log `Q`).
    gp_table: FixedBaseMul,
    /// Fixed-base precomputation for the `G_q` generator `g^P` (log `P`).
    gq_table: FixedBaseMul,
}

impl SimulatedGroup {
    /// Builds an engine over existing parameters, precomputing the
    /// Montgomery context and the generator tables.
    ///
    /// # Panics
    /// Panics if the order `params.n` is even or below 3: the engine's
    /// residues are Montgomery forms, which exist for odd moduli only.
    /// [`GroupParams::generate`] and [`GroupParams::from_factors`] only
    /// build odd orders.
    pub fn new(params: GroupParams) -> Self {
        let ctx = Arc::new(
            MontgomeryCtx::new(&params.n).expect("the group order N = P·Q must be odd and above 1"),
        );
        let g_table = FixedBaseMul::new(ctx.clone(), ctx.one_mont());
        let gp_table = FixedBaseMul::new(ctx.clone(), ctx.to_mont(&params.q));
        let gq_table = FixedBaseMul::new(ctx.clone(), ctx.to_mont(&params.p));
        SimulatedGroup {
            params,
            counters: OpCounters::new(),
            ctx,
            g_table,
            gp_table,
            gq_table,
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

    /// The shared Montgomery context of this engine's residue domain.
    pub(crate) fn ctx(&self) -> &Arc<MontgomeryCtx> {
        &self.ctx
    }

    /// The engine's residue domain of `log`: borrowed when the element
    /// already lives in this engine's domain (the hot path), converted
    /// otherwise (identity elements, deserialized material, foreign
    /// engines).
    pub(crate) fn residue_of<'a>(&self, log: &'a Log) -> Cow<'a, BigUint> {
        match log {
            Log::Residue { value, ctx } if self.same_domain(ctx) => Cow::Borrowed(value),
            Log::Residue { value, ctx } => Cow::Owned(self.ctx.to_mont(&ctx.from_mont(value))),
            Log::Canonical(v) if v.is_zero() => Cow::Owned(BigUint::zero()),
            Log::Canonical(v) => Cow::Owned(self.ctx.to_mont(v)),
        }
    }

    /// `true` when residues under `ctx` are residues of this engine: the
    /// modulus fixes `R` and with it the domain.
    pub(crate) fn same_domain(&self, ctx: &Arc<MontgomeryCtx>) -> bool {
        Arc::ptr_eq(ctx, &self.ctx) || ctx.modulus() == self.ctx.modulus()
    }

    /// Residue of `log(a) · e mod N`: fixed-base tables for the cached
    /// generators, otherwise one exponent conversion plus one domain
    /// product.
    pub(crate) fn pow_log(&self, log: &Log, e: &BigUint) -> BigUint {
        let r = self.residue_of(log);
        for table in [&self.g_table, &self.gp_table, &self.gq_table] {
            if *r == *table.base_res() {
                return table.scalar_mul(e);
            }
        }
        self.ctx.mont_mul(&r, &self.ctx.to_mont(e))
    }

    /// Wraps a residue-domain log as a `G` element of this engine.
    fn g_elem(&self, residue: BigUint) -> GElem {
        GElem::residue(residue, self.ctx.clone())
    }

    /// Wraps a residue-domain log as a `GT` element of this engine.
    fn gt_elem(&self, residue: BigUint) -> GtElem {
        GtElem::residue(residue, self.ctx.clone())
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
        self.g_elem(self.g_table.base_res().clone())
    }
    fn gp_generator(&self) -> GElem {
        self.g_elem(self.gp_table.base_res().clone())
    }
    fn gq_generator(&self) -> GElem {
        self.g_elem(self.gq_table.base_res().clone())
    }

    fn mul_g(&self, a: &GElem, b: &GElem) -> GElem {
        self.counters.record_g_mult();
        let (ra, rb) = (self.residue_of(&a.0), self.residue_of(&b.0));
        self.g_elem(ra.mod_add(&rb, &self.params.n))
    }

    fn pow_g(&self, a: &GElem, e: &BigUint) -> GElem {
        self.counters.record_g_exp();
        self.g_elem(self.pow_log(&a.0, e))
    }

    fn inv_g(&self, a: &GElem) -> GElem {
        let ra = self.residue_of(&a.0);
        self.g_elem(BigUint::zero().mod_sub(&ra, &self.params.n))
    }

    fn mul_gt(&self, a: &GtElem, b: &GtElem) -> GtElem {
        self.counters.record_gt_mult();
        let (ra, rb) = (self.residue_of(&a.0), self.residue_of(&b.0));
        self.gt_elem(ra.mod_add(&rb, &self.params.n))
    }

    fn pow_gt(&self, a: &GtElem, e: &BigUint) -> GtElem {
        self.counters.record_gt_exp();
        self.gt_elem(self.pow_log(&a.0, e))
    }

    fn inv_gt(&self, a: &GtElem) -> GtElem {
        let ra = self.residue_of(&a.0);
        self.gt_elem(BigUint::zero().mod_sub(&ra, &self.params.n))
    }

    fn eq_gt(&self, a: &GtElem, b: &GtElem) -> bool {
        // Both operands are compared as residues of this engine's domain:
        // engine-produced elements are borrowed as-is, canonical ones are
        // lifted in. No from_mont pass on either side.
        self.residue_of(&a.0) == self.residue_of(&b.0)
    }

    fn pair(&self, a: &GElem, b: &GElem) -> GtElem {
        self.counters.record_pairing();
        // Both logs live in the residue domain, so the pairing's log
        // product is a *single* domain multiplication — the refactor
        // deleted the two per-op conversion passes this used to need.
        let (ra, rb) = (self.residue_of(&a.0), self.residue_of(&b.0));
        self.gt_elem(self.ctx.mont_mul(&ra, &rb))
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
        // the builder's largest group) on rows at the order's width, under
        // keys held in this engine's domain; anything else (larger
        // orders, rows no store has brought to the group, keys of another
        // engine or of the trait default) takes the reference evaluation.
        let ctx = &self.ctx;
        let k = ctx.limb_count();
        let Some(domain) = &query.domain else {
            return match_query_reference(self, query, rows, hits);
        };
        if rows.shape().limbs != k || k > 8 || !self.same_domain(domain) {
            return match_query_reference(self, query, rows, hits);
        }
        check_sweep(query, rows, hits);
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
        // g_p^r for r in [1, P): exponent Q·r mod N, via the G_p table.
        let r = random_nonzero_below(&self.params.p, rng);
        self.g_elem(self.gp_table.scalar_mul(&r))
    }

    fn random_gq<R: Rng>(&self, rng: &mut R) -> GElem {
        let r = random_nonzero_below(&self.params.q, rng);
        self.g_elem(self.gq_table.scalar_mul(&r))
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
    fn generator_exponentiation_uses_tables_and_agrees() {
        // pow_g on the cached generators must equal the log product the
        // generic path computes, for both representations of the base.
        let (grp, mut rng) = setup();
        let e = grp.random_zn(&mut rng);
        let n = grp.order();

        let via_table = grp.pow_g(&grp.g(), &e);
        assert_eq!(via_table.discrete_log(), &e % n);

        let gp = grp.gp_generator();
        assert_eq!(grp.pow_g(&gp, &e).discrete_log(), grp.q().mod_mul(&e, n));
        // Canonical-representation base (as after deserialization).
        let gp_canonical = GElem::canonical(grp.q().clone());
        assert_eq!(grp.pow_g(&gp_canonical, &e), grp.pow_g(&gp, &e));
    }

    #[test]
    fn eq_gt_is_conversion_free_and_agrees_with_partial_eq() {
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        let b = grp.random_gp(&mut rng);
        let x = grp.pair(&a, &b);
        let y = grp.pair(&b, &a);
        let z = grp.mul_gt(&x, &x);

        let before = grp.counters().snapshot();
        assert!(grp.eq_gt(&x, &y));
        assert!(!grp.eq_gt(&x, &z));
        // Canonical-form operand (post-serde state) still compares right.
        let x_canonical = GtElem::canonical(x.discrete_log());
        assert!(grp.eq_gt(&x, &x_canonical));
        let delta = grp.counters().snapshot() - before;
        assert_eq!(
            delta.canonicalizations, 0,
            "eq_gt must never leave the residue domain"
        );
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

    #[test]
    fn deserialized_material_interoperates() {
        // Canonical-representation elements (the post-serde state) mix
        // freely with residue-domain ones.
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        let b = grp.random_gp(&mut rng);
        let a2 = GElem::canonical(a.discrete_log());
        assert_eq!(a, a2);
        assert_eq!(grp.mul_g(&a2, &b), grp.mul_g(&a, &b));
        assert_eq!(grp.pair(&a2, &b), grp.pair(&a, &b));
        assert_eq!(grp.inv_g(&a2), grp.inv_g(&a));
    }
}
