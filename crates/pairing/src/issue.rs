//! HVE's Encrypt and GenToken as engine operations.
//!
//! Beside the query check, the alert service runs two HVE phases per
//! request: a user's Encrypt, whose ciphertext the Service Provider
//! stores as a packed row, and the Trusted Authority's GenToken, whose
//! keys the Service Provider sweeps. Each is a [`BilinearGroup`] method
//! ([`BilinearGroup::encrypt_row`], [`BilinearGroup::gen_token_query`])
//! held to the element reference ([`encrypt_reference`],
//! [`gen_token_reference`]): every exponentiation and product through
//! the metered group law, then the ciphertext packed
//! ([`PackedRow::pack`]) or the token prepared
//! ([`BilinearGroup::prepare_query`]).
//!
//! The simulated engine runs both phases as flat limb loops against
//! bases it readied once per key ([`ReadyBases`]), and the reference for
//! orders above eight limbs. A base whose log is held as `log·R` gives
//! `mont_mul(log·R, s) = log·s`, the canonical log a row stores; held as
//! `log·R²` it gives `log·r·R`, the residue a swept key is. Either way
//! one CIOS pass is one exponentiation, and a product of group elements
//! is one modular addition of logs. The loops draw their scalars with
//! the sampler the reference's draws wrap
//! ([`sla_bigint::random_below_limbs`]), so their output, the RNG state
//! they leave and the counters they record all equal the reference's.

use crate::{BilinearGroup, GElem, GtElem, PackedRow, PreparedQuery, SimulatedGroup};
use crate::{CounterSnapshot, RowShape};
use rand::Rng;
use sla_bigint::{random_below_limbs, random_nonzero_below_limbs, BigUint, MontgomeryCtx};
use std::sync::Arc;

/// The secret-key bases of GenToken, as elements. The token for a
/// pattern `I*` with non-star positions `J` is
/// `K_0 = g^a · Π_{i∈J} (u_i^{I*_i}·h_i)^{r_{i,1}} · w_i^{r_{i,2}}`,
/// `K_{i,1} = v^{r_{i,1}}` and `K_{i,2} = v^{r_{i,2}}`, with every
/// `r` drawn from `Z_p`.
#[derive(Debug, Clone, Copy)]
pub struct TokenBases<'k> {
    /// `g`.
    pub g: &'k GElem,
    /// `a ∈ Z_p`.
    pub a: &'k BigUint,
    /// `v`.
    pub v: &'k GElem,
    /// `u_i`, one per position.
    pub u: &'k [GElem],
    /// `h_i`, one per position.
    pub h: &'k [GElem],
    /// `w_i`, one per position.
    pub w: &'k [GElem],
}

/// The public-key bases of Encrypt, as elements. The ciphertext of a
/// message `M` under an attribute `I` is `C' = M·A^s`, `C_0 = V^s·Z`,
/// `C_{i,1} = (U_i^{I_i}·H_i)^s·Z_{i,1}` and `C_{i,2} = W_i^s·Z_{i,2}`,
/// with `s` drawn from `Z_N` and every blinding factor `Z` from `G_q`.
#[derive(Debug, Clone, Copy)]
pub struct EncryptBases<'k> {
    /// `A = e(g, v)^a`.
    pub a: &'k GtElem,
    /// `V`.
    pub v: &'k GElem,
    /// `U_i`, one per position.
    pub u: &'k [GElem],
    /// `H_i`, one per position.
    pub h: &'k [GElem],
    /// `W_i`, one per position.
    pub w: &'k [GElem],
}

/// A key's bases as an engine readied them for its Encrypt or GenToken
/// loop ([`BilinearGroup::prepare_encrypt_bases`],
/// [`BilinearGroup::prepare_token_bases`]).
#[derive(Debug, Clone)]
pub struct ReadyBases {
    /// The domain the bases were readied in.
    pub(crate) ctx: Arc<MontgomeryCtx>,
    /// The bases' limbs in the order the loop reads them, the order's
    /// limb count each.
    pub(crate) limbs: Vec<u64>,
}

/// The reference GenToken, which [`BilinearGroup::gen_token_query`] must
/// equal: for each non-star position of `pattern` (`None` is `*`) in
/// order, `r_{i,1}` then `r_{i,2}` drawn through
/// [`BilinearGroup::random_zp`], and every exponentiation and product
/// through the metered group law. Per token it records `1 + 4·|J|`
/// exponentiations and `2·|J|` multiplications in `G`, plus one more
/// multiplication (`u_i·h_i`) per set bit.
///
/// # Panics
/// Panics if `pattern` is wider than the key.
pub fn gen_token_reference<G: BilinearGroup, R: Rng>(
    grp: &G,
    key: &TokenBases<'_>,
    pattern: &[Option<bool>],
    rng: &mut R,
) -> (GElem, Vec<(usize, GElem, GElem)>) {
    let mut k0 = grp.pow_g(key.g, key.a);
    let mut k = Vec::with_capacity(pattern.iter().flatten().count());
    for (i, bit) in non_star(pattern) {
        let r1 = grp.random_zp(rng);
        let r2 = grp.random_zp(rng);
        let base_pow = if bit {
            grp.pow_g(&grp.mul_g(&key.u[i], &key.h[i]), &r1)
        } else {
            grp.pow_g(&key.h[i], &r1)
        };
        k0 = grp.mul_g(&k0, &base_pow);
        k0 = grp.mul_g(&k0, &grp.pow_g(&key.w[i], &r2));
        k.push((i, grp.pow_g(key.v, &r1), grp.pow_g(key.v, &r2)));
    }
    (k0, k)
}

/// The reference Encrypt, which [`BilinearGroup::encrypt_row`] must
/// equal once packed: `s` drawn through [`BilinearGroup::random_zn`],
/// then `Z`, and `Z_{i,1}`, `Z_{i,2}` per position, through
/// [`BilinearGroup::random_gq`]; every exponentiation and product
/// through the metered group law. It records one exponentiation and one
/// multiplication in `GT`, `1 + 2l` exponentiations and `1 + 2l`
/// multiplications in `G`, plus one more multiplication (`U_i·H_i`) per
/// set bit. Returns `(C', C_0, [(C_{i,1}, C_{i,2})])`.
///
/// # Panics
/// Panics if `bits` is wider than the key.
pub fn encrypt_reference<G: BilinearGroup, R: Rng>(
    grp: &G,
    key: &EncryptBases<'_>,
    bits: &[bool],
    message: &GtElem,
    rng: &mut R,
) -> (GtElem, GElem, Vec<(GElem, GElem)>) {
    let s = grp.random_zn(rng);
    let c_prime = grp.mul_gt(message, &grp.pow_gt(key.a, &s));
    let z = grp.random_gq(rng);
    let c0 = grp.mul_g(&grp.pow_g(key.v, &s), &z);
    let c = bits
        .iter()
        .enumerate()
        .map(|(i, &bit)| {
            let c1_pow = if bit {
                grp.pow_g(&grp.mul_g(&key.u[i], &key.h[i]), &s)
            } else {
                grp.pow_g(&key.h[i], &s)
            };
            let z1 = grp.random_gq(rng);
            let z2 = grp.random_gq(rng);
            (
                grp.mul_g(&c1_pow, &z1),
                grp.mul_g(&grp.pow_g(&key.w[i], &s), &z2),
            )
        })
        .collect();
    (c_prime, c0, c)
}

/// The non-star positions of `pattern` with their bits, in order.
fn non_star(pattern: &[Option<bool>]) -> impl Iterator<Item = (usize, bool)> + '_ {
    pattern
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.map(|bit| (i, bit)))
}

/// Operand `j` of a flat array of `K`-limb values.
#[inline(always)]
fn limbs_at<const K: usize>(limbs: &[u64], j: usize) -> &[u64; K] {
    limbs[j * K..(j + 1) * K]
        .try_into()
        .expect("a value holds K limbs")
}

impl SimulatedGroup {
    /// `values` as this engine's ready limbs, the order's limb count
    /// each.
    fn ready(&self, values: impl IntoIterator<Item = BigUint>) -> ReadyBases {
        let k = self.ctx().limb_count();
        let mut limbs = Vec::new();
        for v in values {
            let at = limbs.len();
            limbs.resize(at + k, 0);
            limbs[at..at + v.limbs().len()].copy_from_slice(v.limbs());
        }
        ReadyBases {
            ctx: self.ctx().clone(),
            limbs,
        }
    }

    /// The limbs of `ready` when this engine's flat loops can read them:
    /// readied in this engine's domain, for an order of at most eight
    /// limbs (512 bits, the builder's largest group).
    fn ready_limbs<'r>(&self, ready: &'r ReadyBases) -> Option<&'r [u64]> {
        (self.ctx().limb_count() <= 8 && self.same_domain(&ready.ctx)).then_some(&ready.limbs)
    }

    /// GenToken's ready limbs: the `g^a` residue, `log·R²` of `v`, then
    /// `log·R²` of `h_i`, `u_i·h_i` and `w_i` per position.
    pub(crate) fn token_ready(&self, key: &TokenBases<'_>) -> ReadyBases {
        let (ctx, n) = (self.ctx(), self.order());
        let lift = |e: &GElem| ctx.to_mont(&self.residue_of(&e.0));
        let per_position = (0..key.h.len()).flat_map(|i| {
            let h = self.residue_of(&key.h[i].0);
            let uh = self.residue_of(&key.u[i].0).mod_add(&h, n);
            [ctx.to_mont(&h), ctx.to_mont(&uh), lift(&key.w[i])]
        });
        self.ready(
            [self.pow_log(&key.g.0, key.a), lift(key.v)]
                .into_iter()
                .chain(per_position),
        )
    }

    /// Encrypt's ready limbs: the residues `log·R` of `A`, `V` and the
    /// `G_q` generator (log `P`), then of `H_i`, `U_i·H_i` and `W_i` per
    /// position.
    pub(crate) fn encrypt_ready(&self, key: &EncryptBases<'_>) -> ReadyBases {
        let n = self.order();
        let per_position = (0..key.h.len()).flat_map(|i| {
            let h = self.residue_of(&key.h[i].0).into_owned();
            let uh = self.residue_of(&key.u[i].0).mod_add(&h, n);
            [h, uh, self.residue_of(&key.w[i].0).into_owned()]
        });
        self.ready(
            [
                self.residue_of(&key.a.0).into_owned(),
                self.residue_of(&key.v.0).into_owned(),
                self.residue_of(&self.gq_generator().0).into_owned(),
            ]
            .into_iter()
            .chain(per_position),
        )
    }

    /// GenToken through the flat loop when `ready` is readable, through
    /// the reference otherwise.
    pub(crate) fn token_query<R: Rng>(
        &self,
        key: &TokenBases<'_>,
        ready: &ReadyBases,
        pattern: &[Option<bool>],
        rng: &mut R,
    ) -> PreparedQuery {
        let Some(bases) = self.ready_limbs(ready) else {
            let (k0, k) = gen_token_reference(self, key, pattern, rng);
            return self.prepare_query(&k0, &k);
        };
        assert_eq!(
            bases.len(),
            (2 + 3 * key.h.len()) * self.ctx().limb_count(),
            "ready limbs of a token key of this width"
        );
        assert!(pattern.len() <= key.h.len(), "pattern wider than the key");
        match self.ctx().limb_count() {
            1 => self.gen_token_flat::<1, R>(bases, pattern, rng),
            2 => self.gen_token_flat::<2, R>(bases, pattern, rng),
            3 => self.gen_token_flat::<3, R>(bases, pattern, rng),
            4 => self.gen_token_flat::<4, R>(bases, pattern, rng),
            5 => self.gen_token_flat::<5, R>(bases, pattern, rng),
            6 => self.gen_token_flat::<6, R>(bases, pattern, rng),
            7 => self.gen_token_flat::<7, R>(bases, pattern, rng),
            _ => self.gen_token_flat::<8, R>(bases, pattern, rng),
        }
    }

    /// Encrypt through the flat loop when `ready` is readable, through
    /// the reference otherwise.
    pub(crate) fn encrypted_row<R: Rng>(
        &self,
        key: &EncryptBases<'_>,
        ready: &ReadyBases,
        bits: &[bool],
        message: &GtElem,
        rng: &mut R,
    ) -> PackedRow {
        let Some(bases) = self.ready_limbs(ready) else {
            let (c_prime, c0, c) = encrypt_reference(self, key, bits, message, rng);
            return PackedRow::pack(&c_prime, &c0, &c, message, self.order());
        };
        assert_eq!(
            bases.len(),
            (3 + 3 * key.h.len()) * self.ctx().limb_count(),
            "ready limbs of a public key of this width"
        );
        assert!(bits.len() <= key.h.len(), "attribute wider than the key");
        match self.ctx().limb_count() {
            1 => self.encrypt_flat::<1, R>(bases, bits, message, rng),
            2 => self.encrypt_flat::<2, R>(bases, bits, message, rng),
            3 => self.encrypt_flat::<3, R>(bases, bits, message, rng),
            4 => self.encrypt_flat::<4, R>(bases, bits, message, rng),
            5 => self.encrypt_flat::<5, R>(bases, bits, message, rng),
            6 => self.encrypt_flat::<6, R>(bases, bits, message, rng),
            7 => self.encrypt_flat::<7, R>(bases, bits, message, rng),
            _ => self.encrypt_flat::<8, R>(bases, bits, message, rng),
        }
    }

    /// GenToken over `K`-limb ready bases (see [`Self::token_ready`]):
    /// `K_0` starts at the `g^a` residue, and per non-star position two
    /// draws, four CIOS passes and two modular additions write the
    /// residues `K_{i,1} = log v·r_1·R` and `K_{i,2} = log v·r_2·R` and
    /// add `log(u_i^{I*_i}·h_i)·r_1·R` and `log w_i·r_2·R` into `K_0`.
    fn gen_token_flat<const K: usize, R: Rng>(
        &self,
        bases: &[u64],
        pattern: &[Option<bool>],
        rng: &mut R,
    ) -> PreparedQuery {
        let (ctx, p) = (&**self.ctx(), self.p());
        let base = |j: usize| limbs_at::<K>(bases, j);
        let positions: Vec<usize> = non_star(pattern).map(|(i, _)| i).collect();
        let mut keys = vec![0u64; (1 + 2 * positions.len()) * K];
        let (k0, k) = keys.split_at_mut(K);
        let k0: &mut [u64; K] = k0.try_into().expect("K_0 holds K limbs");
        k0.copy_from_slice(base(0));
        let (mut r1, mut r2, mut term) = ([0u64; K], [0u64; K], [0u64; K]);
        let mut set_bits = 0;
        for ((i, bit), pair) in non_star(pattern).zip(k.chunks_exact_mut(2 * K)) {
            random_below_limbs(p, rng, &mut r1);
            random_below_limbs(p, rng, &mut r2);
            set_bits += bit as u64;
            ctx.mont_mul_limbs(base(2 + 3 * i + bit as usize), &r1, &mut term);
            ctx.add_mod_limbs(k0, &term);
            ctx.mont_mul_limbs(base(4 + 3 * i), &r2, &mut term);
            ctx.add_mod_limbs(k0, &term);
            let (k1, k2) = pair.split_at_mut(K);
            ctx.mont_mul_limbs(base(1), &r1, k1);
            ctx.mont_mul_limbs(base(1), &r2, k2);
        }
        let j = positions.len() as u64;
        self.counters().record(&CounterSnapshot {
            g_exps: 1 + 4 * j,
            g_mults: 2 * j + set_bits,
            ..CounterSnapshot::default()
        });
        PreparedQuery {
            positions,
            keys,
            domain: Some(self.ctx().clone()),
        }
    }

    /// Encrypt over `K`-limb ready bases (see [`Self::encrypt_ready`]),
    /// written straight into the stored row: a base held as `log·R`
    /// gives `mont_mul(log·R, s) = log·s`, so every operand is the
    /// canonical log the reference's element would pack to. `C' = m +
    /// log A·s` for the message's log `m`, which is also the payload;
    /// each `G` operand is its base's power plus a blinding factor
    /// `P·z`.
    fn encrypt_flat<const K: usize, R: Rng>(
        &self,
        bases: &[u64],
        bits: &[bool],
        message: &GtElem,
        rng: &mut R,
    ) -> PackedRow {
        let (ctx, n, q) = (&**self.ctx(), self.order(), self.q());
        let base = |j: usize| limbs_at::<K>(bases, j);
        let shape = RowShape {
            width: bits.len(),
            limbs: K,
        };
        let mut row = PackedRow::zeroed(shape);
        let mut s = [0u64; K];
        random_below_limbs(n, rng, &mut s);

        let mut m = [0u64; K];
        message.0.write_canonical(n, &mut None, &mut m);
        row.operand_mut(shape.expected()).copy_from_slice(&m);
        let c_prime = row.operand_mut(RowShape::C_PRIME);
        ctx.mont_mul_limbs(base(0), &s, c_prime);
        ctx.add_mod_limbs(c_prime, &m);

        // `log·s + P·z` into operand `idx`, drawing `z` in the
        // reference's order.
        let (mut z, mut blind) = ([0u64; K], [0u64; K]);
        let mut blinded = |row: &mut PackedRow, idx: usize, b: &[u64; K]| {
            let out = row.operand_mut(idx);
            ctx.mont_mul_limbs(b, &s, out);
            random_nonzero_below_limbs(q, rng, &mut z);
            ctx.mont_mul_limbs(base(2), &z, &mut blind);
            ctx.add_mod_limbs(out, &blind);
        };
        blinded(&mut row, RowShape::C0, base(1));
        let mut set_bits = 0;
        for (i, &bit) in bits.iter().enumerate() {
            set_bits += bit as u64;
            blinded(
                &mut row,
                RowShape::component(i, 0),
                base(3 + 3 * i + bit as usize),
            );
            blinded(&mut row, RowShape::component(i, 1), base(5 + 3 * i));
        }
        let l = bits.len() as u64;
        self.counters().record(&CounterSnapshot {
            gt_exps: 1,
            gt_mults: 1,
            g_exps: 1 + 2 * l,
            g_mults: 1 + 2 * l + set_bits,
            ..CounterSnapshot::default()
        });
        row
    }
}
