//! The [`BilinearGroup`] abstraction and its simulated implementation.

use crate::element::Log;
use crate::table::FixedBaseMul;
use crate::{CostModel, GElem, GroupParams, GtElem, OpCounters, PreparedG, PreparedGt};
use rand::Rng;
use sla_bigint::{random_below, random_nonzero_below, BigUint, Reducer};
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

    /// The bilinear map over a batch of **independent** pairs.
    ///
    /// Engines may evaluate the pairs together (the simulated engine
    /// hands them to [`Reducer::residue_mul_batch`], whose portable
    /// lockstep advances eight, then four, products through interleaved
    /// u128 carry chains); the default is a serial loop. The contract is
    /// strict: output `i` is **byte-identical** to `self.pair(a_i, b_i)`,
    /// results are in input order, and the pairing counter advances by
    /// exactly `pairs.len()` — batching is a throughput optimization,
    /// never a semantic or accounting change.
    fn pair_batch(&self, pairs: &[(&GElem, &GElem)]) -> Vec<GtElem> {
        pairs.iter().map(|(a, b)| self.pair(a, b)).collect()
    }

    /// The canonical discrete log of a `GT` element, metered as one
    /// canonicalization in [`OpCounters`]. This is the **conversion
    /// boundary** out of the engine's residue domain: every call pays
    /// (at most) one `from_residue` pass, so consumers that only need a
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

    /// Prepares a base in `G` for repeated exponentiation (key material,
    /// generators). Engines may attach per-base precomputation; the
    /// default is a plain wrapper with no speedup.
    fn prepare_g(&self, a: &GElem) -> PreparedG {
        PreparedG::unprepared(a.clone())
    }

    /// Exponentiation through a prepared base — metered exactly like
    /// [`BilinearGroup::pow_g`], so op-count invariants are unchanged.
    fn pow_prepared_g(&self, base: &PreparedG, e: &BigUint) -> GElem {
        self.pow_g(&base.base, e)
    }

    /// Prepares a base in `GT` for repeated exponentiation.
    fn prepare_gt(&self, a: &GtElem) -> PreparedGt {
        PreparedGt::unprepared(a.clone())
    }

    /// Exponentiation through a prepared `GT` base (metered like
    /// [`BilinearGroup::pow_gt`]).
    fn pow_prepared_gt(&self, base: &PreparedGt, e: &BigUint) -> GtElem {
        self.pow_gt(&base.base, e)
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
/// On construction the engine builds a shared [`Reducer`] for the group
/// order `N` (Montgomery for the odd `N = P·Q` orders, Barrett for the
/// degenerate even orders constructible in tests) and keeps every element
/// it produces **inside the residue domain**: a pairing is one domain
/// product (a single CIOS pass), the group law is one division-free
/// `mod_add`, and nothing converts back per operation. It also builds
/// fixed-base precomputations for the four generators, so
/// `pow_g`/`pow_gt` on `g`, `g_p`, `g_q` or `gt` (and on any base wrapped
/// via [`BilinearGroup::prepare_g`]) cost a single reduction pass.
/// Canonical conversion happens at `discrete_log()`/serde only; operation
/// counts and all algebraic invariants are unchanged.
#[derive(Debug)]
pub struct SimulatedGroup {
    params: GroupParams,
    cost: CostModel,
    counters: OpCounters,
    /// Shared reduction context defining the residue domain of every
    /// element this engine produces.
    reducer: Arc<Reducer>,
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
    /// reduction context and the generator tables.
    pub fn new(params: GroupParams) -> Self {
        let reducer = Arc::new(Reducer::new(&params.n).expect("group order N = P·Q exceeds 1"));
        let one_res = reducer.to_residue(&BigUint::one());
        let g_table = FixedBaseMul::new(reducer.clone(), one_res);
        let gp_table = FixedBaseMul::new(reducer.clone(), reducer.to_residue(&params.q));
        let gq_table = FixedBaseMul::new(reducer.clone(), reducer.to_residue(&params.p));
        SimulatedGroup {
            params,
            cost: CostModel::default(),
            counters: OpCounters::new(),
            reducer,
            g_table,
            gp_table,
            gq_table,
        }
    }

    /// Generates fresh parameters with `bits`-bit prime factors.
    pub fn generate<R: Rng>(bits: usize, rng: &mut R) -> Self {
        Self::new(GroupParams::generate(bits, rng))
    }

    /// Sets the wall-clock cost model (see [`CostModel`]).
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The group parameters.
    pub fn params(&self) -> &GroupParams {
        &self.params
    }

    /// The engine's residue domain of `log`: borrowed when the element
    /// already lives in this engine's domain (the hot path), converted
    /// otherwise (identity elements, deserialized material, foreign
    /// engines).
    fn residue_of<'a>(&self, log: &'a Log) -> Cow<'a, BigUint> {
        match log {
            Log::Residue { value, ctx }
                if Arc::ptr_eq(ctx, &self.reducer) || ctx.same_domain(&self.reducer) =>
            {
                Cow::Borrowed(value)
            }
            Log::Residue { value, ctx } => {
                Cow::Owned(self.reducer.to_residue(&ctx.from_residue(value)))
            }
            Log::Canonical(v) if v.is_zero() => Cow::Owned(BigUint::zero()),
            Log::Canonical(v) => Cow::Owned(self.reducer.to_residue(v)),
        }
    }

    /// Residue of `log(a) · e mod N`: fixed-base tables for the cached
    /// generators, otherwise one exponent conversion plus one domain
    /// product.
    fn pow_log(&self, log: &Log, e: &BigUint) -> BigUint {
        let r = self.residue_of(log);
        for table in [&self.g_table, &self.gp_table, &self.gq_table] {
            if *r == *table.base_res() {
                return table.scalar_mul(e);
            }
        }
        self.reducer.residue_mul(&r, &self.reducer.to_residue(e))
    }

    /// Wraps a residue-domain log as a `G` element of this engine.
    fn g_elem(&self, residue: BigUint) -> GElem {
        GElem::residue(residue, self.reducer.clone())
    }

    /// Wraps a residue-domain log as a `GT` element of this engine.
    fn gt_elem(&self, residue: BigUint) -> GtElem {
        GtElem::residue(residue, self.reducer.clone())
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
        // lifted in. No from_residue pass on either side.
        self.residue_of(&a.0) == self.residue_of(&b.0)
    }

    fn pair(&self, a: &GElem, b: &GElem) -> GtElem {
        self.counters.record_pairing();
        // Both logs live in the residue domain, so the pairing's log
        // product is a *single* domain multiplication — the refactor
        // deleted the two per-op conversion passes this used to need.
        let (ra, rb) = (self.residue_of(&a.0), self.residue_of(&b.0));
        let out = self.reducer.residue_mul(&ra, &rb);
        self.cost.burn(&out, &self.reducer);
        self.gt_elem(out)
    }

    fn pair_batch(&self, pairs: &[(&GElem, &GElem)]) -> Vec<GtElem> {
        self.counters.record_pairings(pairs.len() as u64);
        // Gather every log into the residue domain once, then hand the
        // whole slice to the batch multiplier. Cost burning stays
        // per-output so the Calibrated model meters exactly as many
        // modmuls as the serial path.
        let residues: Vec<(Cow<'_, BigUint>, Cow<'_, BigUint>)> = pairs
            .iter()
            .map(|(a, b)| (self.residue_of(&a.0), self.residue_of(&b.0)))
            .collect();
        let refs: Vec<(&BigUint, &BigUint)> = residues
            .iter()
            .map(|(ra, rb)| (ra.as_ref(), rb.as_ref()))
            .collect();
        self.reducer
            .residue_mul_batch(&refs)
            .into_iter()
            .map(|out| {
                self.cost.burn(&out, &self.reducer);
                self.gt_elem(out)
            })
            .collect()
    }

    fn prepare_g(&self, a: &GElem) -> PreparedG {
        let res = self.residue_of(&a.0).into_owned();
        PreparedG {
            base: a.clone(),
            table: Some(FixedBaseMul::new(self.reducer.clone(), res)),
        }
    }

    fn pow_prepared_g(&self, base: &PreparedG, e: &BigUint) -> GElem {
        self.counters.record_g_exp();
        let res = match &base.table {
            Some(t) if t.ctx().same_domain(&self.reducer) => t.scalar_mul(e),
            _ => self.pow_log(&base.base.0, e),
        };
        self.g_elem(res)
    }

    fn prepare_gt(&self, a: &GtElem) -> PreparedGt {
        let res = self.residue_of(&a.0).into_owned();
        PreparedGt {
            base: a.clone(),
            table: Some(FixedBaseMul::new(self.reducer.clone(), res)),
        }
    }

    fn pow_prepared_gt(&self, base: &PreparedGt, e: &BigUint) -> GtElem {
        self.counters.record_gt_exp();
        let res = match &base.table {
            Some(t) if t.ctx().same_domain(&self.reducer) => t.scalar_mul(e),
            _ => self.pow_log(&base.base.0, e),
        };
        self.gt_elem(res)
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
    fn pair_batch_is_byte_identical_to_serial_pairs() {
        let (grp, mut rng) = setup();
        let elems: Vec<GElem> = (0..9)
            .map(|i| {
                if i % 3 == 0 {
                    grp.random_gq(&mut rng)
                } else {
                    grp.random_gp(&mut rng)
                }
            })
            .collect();
        // Mix in a canonical-form operand (post-serde state) so the
        // batch path exercises the Cow conversion arm too.
        let canonical = GElem::canonical(elems[1].discrete_log());
        let mut pairs: Vec<(&GElem, &GElem)> = elems
            .iter()
            .enumerate()
            .map(|(i, a)| (a, &elems[(i + 4) % elems.len()]))
            .collect();
        pairs.push((&canonical, &elems[5]));

        // Every width, including the empty batch and ragged remainders.
        for w in 0..=pairs.len() {
            let before = grp.counters().snapshot();
            let serial: Vec<GtElem> = pairs[..w].iter().map(|(a, b)| grp.pair(a, b)).collect();
            let mid = grp.counters().snapshot();
            let batched = grp.pair_batch(&pairs[..w]);
            let after = grp.counters().snapshot();
            assert_eq!(batched, serial, "width {w}");
            for (x, y) in batched.iter().zip(&serial) {
                assert_eq!(x.discrete_log(), y.discrete_log(), "width {w}");
            }
            assert_eq!((mid - before).pairings, w as u64);
            assert_eq!(
                after - mid,
                mid - before,
                "batch must meter exactly like serial at width {w}"
            );
        }
    }

    #[test]
    fn pair_batch_burns_calibrated_cost_per_output() {
        let mut rng = StdRng::seed_from_u64(7);
        let grp = SimulatedGroup::generate(32, &mut rng).with_cost_model(CostModel::Calibrated {
            modmuls_per_pairing: 4,
        });
        let a = grp.random_gp(&mut rng);
        let b = grp.random_gp(&mut rng);
        let pairs = [(&a, &b), (&b, &a), (&a, &a), (&b, &b), (&a, &b)];
        let serial: Vec<GtElem> = pairs.iter().map(|(x, y)| grp.pair(x, y)).collect();
        assert_eq!(grp.pair_batch(&pairs), serial);
        assert_eq!(grp.counters().pairings(), 10);
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
    fn calibrated_cost_model_still_correct() {
        let mut rng = StdRng::seed_from_u64(5);
        let grp = SimulatedGroup::generate(32, &mut rng).with_cost_model(CostModel::Calibrated {
            modmuls_per_pairing: 8,
        });
        let a = grp.random_gp(&mut rng);
        let b = grp.random_gp(&mut rng);
        assert_eq!(grp.pair(&a, &b), grp.pair(&b, &a));
        assert_eq!(grp.counters().pairings(), 2);
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
    fn prepared_bases_match_generic_pow_and_count_identically() {
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        let e = grp.random_zn(&mut rng);

        let prepared = grp.prepare_g(&a);
        let before = grp.counters().snapshot();
        let fast = grp.pow_prepared_g(&prepared, &e);
        let slow = grp.pow_g(&a, &e);
        let delta = grp.counters().snapshot() - before;
        assert_eq!(fast, slow);
        assert_eq!(delta.g_exps, 2, "prepared pow meters like pow_g");

        let gt = grp.pair(&a, &a);
        let pgt = grp.prepare_gt(&gt);
        assert_eq!(grp.pow_prepared_gt(&pgt, &e), grp.pow_gt(&gt, &e));
    }

    #[test]
    fn unprepared_fallback_agrees() {
        let (grp, mut rng) = setup();
        let a = grp.random_gp(&mut rng);
        let e = grp.random_zn(&mut rng);
        let plain = PreparedG::unprepared(a.clone());
        assert_eq!(grp.pow_prepared_g(&plain, &e), grp.pow_g(&a, &e));
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
