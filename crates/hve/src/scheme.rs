//! The four HVE phases: Setup, Encrypt, GenToken, Query (§2.1 of the
//! paper, following Boneh–Waters TCC 2007).

use crate::error::HveError;
use crate::keys::{Ciphertext, PublicKey, SecretKey, Token};
use crate::prepared::{PreparedPublicKey, PreparedSecretKey};
use crate::vector::{AttributeVector, SearchPattern};
use rand::Rng;
use sla_bigint::BigUint;
use sla_pairing::{
    encrypt_reference, gen_token_reference, query_candidate, BilinearGroup, CounterSnapshot,
    GtElem, PackedRow, PreparedQuery, QueryRows,
};

/// Bit size of the valid message domain used by
/// [`HveScheme::encode_message`] / [`HveScheme::decode_message`].
///
/// A query that does not match returns a `GT` element uniformly distributed
/// in a subgroup of order ≈ `N`; the probability that it accidentally lands
/// inside the `2^MESSAGE_DOMAIN_BITS`-element valid domain is negligible
/// (≈ `2^{32}/N`). This realizes the paper's "special number ⊥ not in the
/// valid message domain".
pub const MESSAGE_DOMAIN_BITS: u32 = 32;

/// HVE scheme bound to a bilinear group engine and a fixed width `l`.
#[derive(Debug, Clone, Copy)]
pub struct HveScheme<'g, G: BilinearGroup> {
    group: &'g G,
    width: usize,
}

impl<'g, G: BilinearGroup> HveScheme<'g, G> {
    /// Creates a scheme of width `l` (attribute bit length) over `group`.
    ///
    /// # Panics
    /// Panics if `width == 0`; use [`Self::try_new`] for a fallible
    /// version.
    pub fn new(group: &'g G, width: usize) -> Self {
        Self::try_new(group, width).expect("HVE width must be positive")
    }

    /// Fallible [`Self::new`]: `Err(HveError::ZeroWidth)` when
    /// `width == 0`.
    pub fn try_new(group: &'g G, width: usize) -> Result<Self, HveError> {
        if width == 0 {
            return Err(HveError::ZeroWidth);
        }
        Ok(HveScheme { group, width })
    }

    /// The configured width `l`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The underlying group engine.
    pub fn group(&self) -> &'g G {
        self.group
    }

    /// **Setup** — generates the `(PK, SK)` pair.
    ///
    /// `SK = (g_q, a ∈ Z_p, ∀i: u_i, h_i, w_i, g, v ∈ G_p)`;
    /// `PK = (g_q, V = v·R_v, A = e(g,v)^a, ∀i: U_i = u_i·R_{u,i},
    /// H_i = h_i·R_{h,i}, W_i = w_i·R_{w,i})` with `R ∈ G_q`.
    pub fn setup<R: Rng>(&self, rng: &mut R) -> (PublicKey, SecretKey) {
        let grp = self.group;
        let l = self.width;

        let a = grp.random_zp(rng);
        let g = grp.random_gp(rng);
        let v = grp.random_gp(rng);
        let gq = grp.random_gq(rng);

        let u: Vec<_> = (0..l).map(|_| grp.random_gp(rng)).collect();
        let h: Vec<_> = (0..l).map(|_| grp.random_gp(rng)).collect();
        let w: Vec<_> = (0..l).map(|_| grp.random_gp(rng)).collect();

        let blind = |x: &sla_pairing::GElem, rng: &mut R| {
            let r = grp.random_gq(rng);
            grp.mul_g(x, &r)
        };

        let v_pub = blind(&v, rng);
        let a_pub = grp.pow_gt(&grp.pair(&g, &v), &a);
        let u_pub: Vec<_> = u.iter().map(|x| blind(x, rng)).collect();
        let h_pub: Vec<_> = h.iter().map(|x| blind(x, rng)).collect();
        let w_pub: Vec<_> = w.iter().map(|x| blind(x, rng)).collect();

        (
            PublicKey {
                width: l,
                gq: gq.clone(),
                v: v_pub,
                a: a_pub,
                u: u_pub,
                h: h_pub,
                w: w_pub,
            },
            SecretKey {
                width: l,
                a,
                g,
                v,
                gq,
                u,
                h,
                w,
            },
        )
    }

    /// **Encrypt** — produces a ciphertext for message `M` under attribute
    /// vector `I`:
    /// `C' = M·A^s`, `C_0 = V^s·Z`,
    /// `C_{i,1} = (U_i^{I_i}·H_i)^s·Z_{i,1}`, `C_{i,2} = W_i^s·Z_{i,2}`.
    ///
    /// This is the element reference ([`encrypt_reference`]) that the
    /// served Encrypt ([`Self::encrypt_for_user`]) is pinned to.
    ///
    /// # Panics
    /// Panics if `index.len() != width`.
    pub fn encrypt<R: Rng>(
        &self,
        pk: &PublicKey,
        index: &AttributeVector,
        message: &GtElem,
        rng: &mut R,
    ) -> Ciphertext {
        assert_eq!(index.len(), self.width, "attribute width mismatch");
        let (c_prime, c0, c) =
            encrypt_reference(self.group, &pk.bases(), index.bits(), message, rng);
        Ciphertext { c_prime, c0, c }
    }

    /// **Encrypt** straight into the row a Service Provider stores for
    /// the user with routing id `id`: the row of
    /// `pack_for_user(encrypt(pk, index, encode_message(id)), id)`, byte
    /// for byte and with the same draws from `rng`, written by the
    /// engine's flat loop ([`BilinearGroup::encrypt_row`]) without
    /// building a group element. It records [`Self::encrypt`]'s
    /// operations, and no pairing: the payload `gt^{id+1}` is written as
    /// its log `id + 1`, not encoded through `e(g, g)`.
    ///
    /// `Err(HveError::MessageOutOfDomain)` when
    /// `id >= 2^MESSAGE_DOMAIN_BITS`.
    ///
    /// # Panics
    /// Panics if `index.len() != width`.
    pub fn encrypt_for_user<R: Rng>(
        &self,
        ppk: &PreparedPublicKey,
        index: &AttributeVector,
        id: u64,
        rng: &mut R,
    ) -> Result<PackedRow, HveError> {
        if id >= 1u64 << MESSAGE_DOMAIN_BITS {
            return Err(HveError::MessageOutOfDomain { id });
        }
        assert_eq!(index.len(), self.width, "attribute width mismatch");
        let payload = GtElem::from_canonical_log(BigUint::from_u64(id + 1));
        Ok(self
            .group
            .encrypt_row(&ppk.pk.bases(), &ppk.ready, index.bits(), &payload, rng))
    }

    /// [`Self::encrypt`] through the engine's flat loop, its row rebuilt
    /// as a [`Ciphertext`] of canonical logs: equal to
    /// `encrypt`'s, with the same draws and counts. The served path
    /// stores the row itself ([`Self::encrypt_for_user`]); this remains
    /// because the repo benchmark's per-layer ledger times Encrypt
    /// through it.
    ///
    /// # Panics
    /// Panics if `index.len() != width`.
    pub fn encrypt_prepared<R: Rng>(
        &self,
        ppk: &PreparedPublicKey,
        index: &AttributeVector,
        message: &GtElem,
        rng: &mut R,
    ) -> Ciphertext {
        assert_eq!(index.len(), self.width, "attribute width mismatch");
        Ciphertext::from_row(&self.group.encrypt_row(
            &ppk.pk.bases(),
            &ppk.ready,
            index.bits(),
            message,
            rng,
        ))
    }

    /// Readies `pk`'s bases for the engine's flat Encrypt, once per key
    /// (see [`PreparedPublicKey`]).
    ///
    /// # Panics
    /// Panics if `pk.width() != width`.
    pub fn prepare_public_key(&self, pk: &PublicKey) -> PreparedPublicKey {
        assert_eq!(pk.width, self.width, "public key width mismatch");
        PreparedPublicKey {
            pk: pk.clone(),
            ready: self.group.prepare_encrypt_bases(&pk.bases()),
        }
    }

    /// Readies `sk`'s bases for the engine's flat GenToken, once per key
    /// (see [`PreparedSecretKey`]).
    ///
    /// # Panics
    /// Panics if `sk.width() != width`.
    pub fn prepare_secret_key(&self, sk: &SecretKey) -> PreparedSecretKey {
        assert_eq!(sk.width, self.width, "secret key width mismatch");
        PreparedSecretKey {
            sk: sk.clone(),
            ready: self.group.prepare_token_bases(&sk.bases()),
        }
    }

    /// **GenToken** — derives the search token for pattern `I*`:
    /// `K_0 = g^a · Π_{i∈J} (u_i^{I*_i}·h_i)^{r_{i,1}} · w_i^{r_{i,2}}`,
    /// `K_{i,1} = v^{r_{i,1}}`, `K_{i,2} = v^{r_{i,2}}` for `i ∈ J`.
    ///
    /// This is the element reference ([`gen_token_reference`]) that the
    /// served GenToken ([`Self::gen_query`]) is pinned to.
    ///
    /// # Panics
    /// Panics if `pattern.len() != width`.
    pub fn gen_token<R: Rng>(&self, sk: &SecretKey, pattern: &SearchPattern, rng: &mut R) -> Token {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        let (k0, k) = gen_token_reference(self.group, &sk.bases(), pattern.symbols(), rng);
        Token {
            pattern: pattern.clone(),
            k0,
            k,
        }
    }

    /// **GenToken** straight into the query the Service Provider sweeps:
    /// `prepare_token(&gen_token(sk, pattern))`, key for key and with
    /// the same draws from `rng` and the same counts, written by the
    /// engine's flat loop ([`BilinearGroup::gen_token_query`]) without
    /// building a group element.
    ///
    /// # Panics
    /// Panics if `pattern.len() != width`.
    pub fn gen_query<R: Rng>(
        &self,
        psk: &PreparedSecretKey,
        pattern: &SearchPattern,
        rng: &mut R,
    ) -> PreparedQuery {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        self.group
            .gen_token_query(&psk.sk.bases(), &psk.ready, pattern.symbols(), rng)
    }

    /// [`Self::gen_query`] over a batch of patterns sharing one key and
    /// one RNG, each query's keys wrapped back into a [`Token`]
    /// ([`PreparedQuery::elements`]): token `j` equals the `j`-th of
    /// `patterns.len()` serial [`Self::gen_token`] calls against the same
    /// RNG, with the same counts. The served path sweeps the queries
    /// themselves; this remains because the repo benchmark's per-layer
    /// ledger times GenToken through it.
    ///
    /// # Panics
    /// Panics if any pattern's length differs from the scheme width.
    pub fn gen_token_prepared_batch<R: Rng>(
        &self,
        psk: &PreparedSecretKey,
        patterns: &[&SearchPattern],
        rng: &mut R,
    ) -> Vec<Token> {
        patterns
            .iter()
            .map(|pattern| {
                let (k0, k) = self.gen_query(psk, pattern, rng).elements();
                Token {
                    pattern: (*pattern).clone(),
                    k0,
                    k,
                }
            })
            .collect()
    }

    /// **Query** — evaluates a token against a ciphertext, returning the
    /// candidate message
    /// `M = C' / ( e(C_0, K_0) / Π_{i∈J} e(C_{i,1}, K_{i,1})·e(C_{i,2},
    /// K_{i,2}) )` (Eq. 2 of the paper).
    ///
    /// On a pattern match this is the encrypted message; on a non-match it
    /// is a uniformly random-looking `GT` element (⊥ in the paper's terms —
    /// use [`Self::decode_message`] or compare against a known sentinel).
    ///
    /// This is the reference evaluation the served sweep
    /// ([`Self::match_rows`]) is pinned to: the `1 + 2·|J|` pairings one
    /// [`BilinearGroup::pair`] call at a time, folded by
    /// [`query_candidate`].
    ///
    /// Cost: exactly `1 + 2·|J|` pairings, metered by the engine.
    ///
    /// # Panics
    /// Panics if token and ciphertext widths differ.
    pub fn query(&self, token: &Token, ct: &Ciphertext) -> GtElem {
        assert_eq!(
            token.pattern.len(),
            ct.width(),
            "token/ciphertext width mismatch"
        );
        let grp = self.group;
        let mut pairings = Vec::with_capacity(1 + 2 * token.k.len());
        pairings.push(grp.pair(&ct.c0, &token.k0));
        for (i, k1, k2) in &token.k {
            let (c1, c2) = &ct.c[*i];
            pairings.push(grp.pair(c1, k1));
            pairings.push(grp.pair(c2, k2));
        }
        query_candidate(grp, &ct.c_prime, &pairings)
    }

    /// Convenience: query and decode; `Some(id)` on match, `None` (⊥)
    /// otherwise (up to negligible false-positive probability).
    ///
    /// Meters one canonicalization per call, match or not (the decode
    /// reads the candidate's log through
    /// [`BilinearGroup::gt_canonical`]). When the expected payload is
    /// known in advance — the alert protocol's SP stores the submitting
    /// user's id next to each ciphertext — pack it with the ciphertext
    /// ([`Self::pack_for_user`]) and sweep the rows with
    /// [`Self::match_rows`], which decides with one comparison per row.
    pub fn query_decode(&self, token: &Token, ct: &Ciphertext) -> Option<u64> {
        self.decode_message(&self.query(token, ct))
    }

    /// Packs `ct` and the payload a matching query recovers as one row
    /// brought to this scheme's group: canonical logs, any log not below
    /// `N` reduced mod `N`, at `N`'s limb count. This is the row a
    /// Service Provider stores.
    ///
    /// # Panics
    /// Panics if the ciphertext's width differs from the scheme's.
    pub fn pack(&self, ct: &Ciphertext, expected: &GtElem) -> PackedRow {
        assert_eq!(ct.width(), self.width, "ciphertext/scheme width mismatch");
        PackedRow::pack(&ct.c_prime, &ct.c0, &ct.c, expected, self.group.order())
    }

    /// [`Self::pack`] with the payload `encode_message(id)`, the row a
    /// Service Provider stores for the user with routing id `id`. The
    /// payload `gt^{id+1}` is written as its canonical log `id + 1`, so
    /// no `GT` element is built for it.
    ///
    /// `Err(HveError::MessageOutOfDomain)` when `id >= 2^MESSAGE_DOMAIN_BITS`.
    ///
    /// # Panics
    /// Panics if the ciphertext's width differs from the scheme's.
    pub fn pack_for_user(&self, ct: &Ciphertext, id: u64) -> Result<PackedRow, HveError> {
        if id >= 1u64 << MESSAGE_DOMAIN_BITS {
            return Err(HveError::MessageOutOfDomain { id });
        }
        let expected = GtElem::from_canonical_log(BigUint::from_u64(id + 1));
        Ok(self.pack(ct, &expected))
    }

    /// Resolves `token`'s keys once for any number of
    /// [`Self::match_rows`] sweeps (see
    /// [`BilinearGroup::prepare_query`]). The served path sweeps the
    /// queries GenToken writes ([`Self::gen_query`]); this prepares
    /// reference tokens.
    ///
    /// # Panics
    /// Panics if the token's width differs from the scheme's.
    pub fn prepare_token(&self, token: &Token) -> PreparedQuery {
        assert_eq!(
            token.pattern.len(),
            self.width,
            "token/scheme width mismatch"
        );
        self.group.prepare_query(&token.k0, &token.k)
    }

    /// The served match: writes into `hits[r]` whether the prepared
    /// token recovers row `r`'s expected payload, and returns the
    /// operations the sweep recorded in the engine's counters. Decided by
    /// [`BilinearGroup::match_query_rows`], which equals
    /// `eq_gt(query(token, ct), expected)` per row in its decision and
    /// its counters: `1 + 2·|J|` pairings and no canonicalization. A
    /// matcher that sweeps many slabs under many tokens prepares each
    /// token once and sums the returned counts, which stay its own when
    /// other threads share the engine.
    ///
    /// # Panics
    /// Panics if `hits` and `rows` differ in length, or the rows' width
    /// differs from the scheme's.
    pub fn match_rows(
        &self,
        query: &PreparedQuery,
        rows: &QueryRows,
        hits: &mut [bool],
    ) -> CounterSnapshot {
        assert!(
            rows.is_empty() || rows.shape().width == self.width,
            "row/scheme width mismatch"
        );
        self.group.match_query_rows(query, rows, hits)
    }

    /// Embeds an identifier from the valid message domain
    /// (`id < 2^MESSAGE_DOMAIN_BITS`) into `GT` as `gt^{id+1}`.
    ///
    /// # Panics
    /// Panics if `id >= 2^MESSAGE_DOMAIN_BITS`; use
    /// [`Self::try_encode_message`] for a fallible version.
    pub fn encode_message(&self, id: u64) -> GtElem {
        self.try_encode_message(id)
            .expect("message id outside valid domain")
    }

    /// Fallible [`Self::encode_message`]:
    /// `Err(HveError::MessageOutOfDomain)` when
    /// `id >= 2^MESSAGE_DOMAIN_BITS`.
    pub fn try_encode_message(&self, id: u64) -> Result<GtElem, HveError> {
        if id >= 1u64 << MESSAGE_DOMAIN_BITS {
            return Err(HveError::MessageOutOfDomain { id });
        }
        // +1 keeps the identity element out of the valid domain.
        Ok(self
            .group
            .pow_gt(&self.gt_generator(), &BigUint::from_u64(id + 1)))
    }

    /// Inverse of [`Self::encode_message`]; `None` when the element lies
    /// outside the valid message domain (the ⊥ outcome).
    ///
    /// The element's canonical log is read through the engine
    /// ([`BilinearGroup::gt_canonical`]), which meters one
    /// canonicalization.
    pub fn decode_message(&self, m: &GtElem) -> Option<u64> {
        let log = self.group.gt_canonical(m);
        let id_plus_1 = log.to_u64()?;
        if id_plus_1 == 0 || id_plus_1 > 1u64 << MESSAGE_DOMAIN_BITS {
            return None;
        }
        Some(id_plus_1 - 1)
    }

    fn gt_generator(&self) -> GtElem {
        let g = self.group.g();
        // NOTE: this is e(g, g); the pairing here is setup-time only and is
        // excluded from matching-cost accounting by construction (callers
        // snapshot counters around query()).
        self.group.pair(&g, &g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sla_pairing::SimulatedGroup;

    fn fixture(width: usize) -> (SimulatedGroup, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x5eed + width as u64);
        let grp = SimulatedGroup::generate(48, &mut rng);
        (grp, rng)
    }

    #[test]
    fn fig2_match() {
        // Fig. 2a: token pattern agreeing with the index on all non-star
        // positions recovers the message.
        let (grp, mut rng) = fixture(5);
        let scheme = HveScheme::new(&grp, 5);
        let (pk, sk) = scheme.setup(&mut rng);

        let index: AttributeVector = "11010".parse().unwrap();
        let msg = scheme.encode_message(7);
        let ct = scheme.encrypt(&pk, &index, &msg, &mut rng);

        let tk = scheme.gen_token(&sk, &"1*01*".parse().unwrap(), &mut rng);
        assert_eq!(scheme.query(&tk, &ct), msg);
        assert_eq!(scheme.query_decode(&tk, &ct), Some(7));
    }

    #[test]
    fn fig2_nonmatch() {
        // Fig. 2b: one disagreeing non-star position yields ⊥.
        let (grp, mut rng) = fixture(5);
        let scheme = HveScheme::new(&grp, 5);
        let (pk, sk) = scheme.setup(&mut rng);

        let index: AttributeVector = "11010".parse().unwrap();
        let msg = scheme.encode_message(7);
        let ct = scheme.encrypt(&pk, &index, &msg, &mut rng);

        let tk = scheme.gen_token(&sk, &"0*01*".parse().unwrap(), &mut rng);
        assert_ne!(scheme.query(&tk, &ct), msg);
        assert_eq!(scheme.query_decode(&tk, &ct), None);
    }

    #[test]
    fn all_star_token_matches_everything() {
        let (grp, mut rng) = fixture(4);
        let scheme = HveScheme::new(&grp, 4);
        let (pk, sk) = scheme.setup(&mut rng);
        let tk = scheme.gen_token(&sk, &SearchPattern::all_stars(4), &mut rng);
        for bits in 0..16u32 {
            let index: AttributeVector = format!("{bits:04b}").parse().unwrap();
            let msg = scheme.encode_message(bits as u64);
            let ct = scheme.encrypt(&pk, &index, &msg, &mut rng);
            assert_eq!(scheme.query_decode(&tk, &ct), Some(bits as u64));
        }
    }

    #[test]
    fn exhaustive_width_3() {
        // Every (index, pattern) combination of width 3: HVE evaluation
        // must agree exactly with plaintext pattern semantics.
        let (grp, mut rng) = fixture(3);
        let scheme = HveScheme::new(&grp, 3);
        let (pk, sk) = scheme.setup(&mut rng);

        let symbols = ['0', '1', '*'];
        for bits in 0..8u32 {
            let index: AttributeVector = format!("{bits:03b}").parse().unwrap();
            let msg = scheme.encode_message(bits as u64);
            let ct = scheme.encrypt(&pk, &index, &msg, &mut rng);
            for s0 in symbols {
                for s1 in symbols {
                    for s2 in symbols {
                        let pat: SearchPattern = format!("{s0}{s1}{s2}").parse().unwrap();
                        let tk = scheme.gen_token(&sk, &pat, &mut rng);
                        let expected = pat.matches(&index);
                        let got = scheme.query_decode(&tk, &ct) == Some(bits as u64);
                        assert_eq!(got, expected, "index {index}, pattern {pat}");
                    }
                }
            }
        }
    }

    #[test]
    fn query_costs_exactly_one_plus_two_j_pairings() {
        let (grp, mut rng) = fixture(8);
        let scheme = HveScheme::new(&grp, 8);
        let (pk, sk) = scheme.setup(&mut rng);
        let index: AttributeVector = "10110100".parse().unwrap();
        let msg = scheme.encode_message(1);
        let ct = scheme.encrypt(&pk, &index, &msg, &mut rng);

        for pat_str in ["********", "1*******", "10110100", "**11****"] {
            let pat: SearchPattern = pat_str.parse().unwrap();
            let tk = scheme.gen_token(&sk, &pat, &mut rng);
            let before = grp.counters().snapshot();
            let _ = scheme.query(&tk, &ct);
            let delta = grp.counters().snapshot() - before;
            assert_eq!(
                delta.pairings,
                1 + 2 * pat.non_star_count() as u64,
                "pattern {pat_str}"
            );
            assert_eq!(delta.pairings, tk.pairing_cost());
        }
    }

    #[test]
    fn message_domain_roundtrip() {
        let (grp, _) = fixture(2);
        let scheme = HveScheme::new(&grp, 2);
        for id in [0u64, 1, 42, (1 << MESSAGE_DOMAIN_BITS) - 1] {
            let m = scheme.encode_message(id);
            assert_eq!(scheme.decode_message(&m), Some(id));
        }
        assert_eq!(scheme.decode_message(&GtElem::identity()), None);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn encrypt_rejects_wrong_width() {
        let (grp, mut rng) = fixture(4);
        let scheme = HveScheme::new(&grp, 4);
        let (pk, _) = scheme.setup(&mut rng);
        let index: AttributeVector = "101".parse().unwrap();
        let msg = scheme.encode_message(1);
        let _ = scheme.encrypt(&pk, &index, &msg, &mut rng);
    }

    #[test]
    fn benchmark_wrappers_equal_the_reference() {
        // encrypt_prepared and gen_token_prepared_batch wrap the flat
        // loops' output back into elements: the same RNG stream, the same
        // OpCounters deltas and the same logs as encrypt and serial
        // gen_token calls (elements hold canonical logs, so `==` compares
        // every one).
        let (grp, mut rng) = fixture(6);
        let scheme = HveScheme::new(&grp, 6);
        let (pk, sk) = scheme.setup(&mut rng);
        let ppk = scheme.prepare_public_key(&pk);
        let psk = scheme.prepare_secret_key(&sk);

        let index: AttributeVector = "101101".parse().unwrap();
        let msg = scheme.encode_message(99);
        let patterns: Vec<SearchPattern> = ["1*11*1", "******", "000000", "*1*0**", "1*****"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let pats: Vec<&SearchPattern> = patterns.iter().collect();

        let mut r1 = StdRng::seed_from_u64(0xfeed);
        let before = grp.counters().snapshot();
        let ct_ref = scheme.encrypt(&pk, &index, &msg, &mut r1);
        let tks_ref: Vec<Token> = pats
            .iter()
            .map(|pat| scheme.gen_token(&sk, pat, &mut r1))
            .collect();
        let delta_ref = grp.counters().snapshot() - before;

        let mut r2 = StdRng::seed_from_u64(0xfeed);
        let before = grp.counters().snapshot();
        let ct_flat = scheme.encrypt_prepared(&ppk, &index, &msg, &mut r2);
        let tks_flat = scheme.gen_token_prepared_batch(&psk, &pats, &mut r2);
        let delta_flat = grp.counters().snapshot() - before;

        assert_eq!(ct_flat, ct_ref);
        assert_eq!(tks_flat, tks_ref);
        assert_eq!(delta_flat, delta_ref, "op counts must be identical");
        assert_eq!(r1.next_u64(), r2.next_u64(), "RNG streams must agree");
        // and the wrapped material still decrypts
        assert_eq!(scheme.query_decode(&tks_flat[0], &ct_flat), Some(99));
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        let (grp, _) = fixture(1);
        assert_eq!(
            HveScheme::try_new(&grp, 0).unwrap_err(),
            HveError::ZeroWidth
        );
        let scheme = HveScheme::try_new(&grp, 3).unwrap();
        assert_eq!(scheme.width(), 3);
        let big = 1u64 << MESSAGE_DOMAIN_BITS;
        assert_eq!(
            scheme.try_encode_message(big).unwrap_err(),
            HveError::MessageOutOfDomain { id: big }
        );
        assert!(scheme.try_encode_message(big - 1).is_ok());
    }

    #[test]
    fn match_rows_is_conversion_free_and_agrees_with_query_decode() {
        let (grp, mut rng) = fixture(5);
        let scheme = HveScheme::new(&grp, 5);
        let (pk, sk) = scheme.setup(&mut rng);

        let index: AttributeVector = "11010".parse().unwrap();
        let ct = scheme.encrypt(&pk, &index, &scheme.encode_message(7), &mut rng);
        let hit = scheme.gen_token(&sk, &"1*01*".parse().unwrap(), &mut rng);
        let miss = scheme.gen_token(&sk, &"0*01*".parse().unwrap(), &mut rng);
        let mut rows = QueryRows::new();
        rows.push(&scheme.pack_for_user(&ct, 7).unwrap());

        let before = grp.counters().snapshot();
        for (token, want) in [(&hit, true), (&miss, false)] {
            let mut hits = [!want];
            scheme.match_rows(&scheme.prepare_token(token), &rows, &mut hits);
            assert_eq!(hits, [want]);
        }
        let delta = grp.counters().snapshot() - before;
        assert_eq!(
            delta.canonicalizations, 0,
            "match_rows must decide in the residue domain"
        );
        assert_eq!(delta.pairings, hit.pairing_cost() + miss.pairing_cost());

        for (token, want) in [(&hit, Some(7)), (&miss, None)] {
            let before = grp.counters().snapshot();
            assert_eq!(scheme.query_decode(token, &ct), want);
            let delta = grp.counters().snapshot() - before;
            assert_eq!(delta.canonicalizations, 1, "one conversion per decode");
        }
    }

    #[test]
    fn pack_for_user_packs_the_encoded_payload() {
        let (grp, mut rng) = fixture(3);
        let scheme = HveScheme::new(&grp, 3);
        let (pk, _) = scheme.setup(&mut rng);
        let index: AttributeVector = "101".parse().unwrap();
        for id in [0u64, 7, (1 << MESSAGE_DOMAIN_BITS) - 1] {
            let msg = scheme.encode_message(id);
            let ct = scheme.encrypt(&pk, &index, &msg, &mut rng);
            assert_eq!(
                scheme.pack_for_user(&ct, id).unwrap(),
                scheme.pack(&ct, &msg)
            );
        }
        let ct = scheme.encrypt(&pk, &index, &scheme.encode_message(1), &mut rng);
        let big = 1 << MESSAGE_DOMAIN_BITS;
        assert_eq!(
            scheme.pack_for_user(&ct, big).unwrap_err(),
            HveError::MessageOutOfDomain { id: big }
        );
    }
}
