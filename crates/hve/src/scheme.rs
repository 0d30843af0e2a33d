//! The four HVE phases: Setup, Encrypt, GenToken, Query (§2.1 of the
//! paper, following Boneh–Waters TCC 2007).

use crate::error::HveError;
use crate::keys::{Ciphertext, PublicKey, SecretKey, Token};
use crate::prepared::{PreparedPublicKey, PreparedSecretKey};
use crate::vector::{AttributeVector, SearchPattern};
use rand::Rng;
use sla_bigint::BigUint;
use sla_pairing::{BilinearGroup, GElem, GtElem};

/// Bit size of the valid message domain used by
/// [`HveScheme::encode_message`] / [`HveScheme::decode_message`].
///
/// A query that does not match returns a `GT` element uniformly distributed
/// in a subgroup of order ≈ `N`; the probability that it accidentally lands
/// inside the `2^MESSAGE_DOMAIN_BITS`-element valid domain is negligible
/// (≈ `2^{32}/N`). This realizes the paper's "special number ⊥ not in the
/// valid message domain".
pub const MESSAGE_DOMAIN_BITS: u32 = 32;

/// Ciphertexts per chunk in [`HveScheme::query_many`].
///
/// Each chunk flattens `BATCH_CHUNK · (1 + 2·|J|)` pairings into one
/// [`BilinearGroup::pair_batch`] call — many times the eight-wide
/// lockstep group of the batch multiplier below it, small enough that
/// the pair scratch list and the chunk's `GT` outputs stay cache-resident.
const BATCH_CHUNK: usize = 16;

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
    /// # Panics
    /// Panics if `index.len() != width`.
    pub fn encrypt<R: Rng>(
        &self,
        pk: &PublicKey,
        index: &AttributeVector,
        message: &GtElem,
        rng: &mut R,
    ) -> Ciphertext {
        self.encrypt_impl(EncKey::Plain(pk), index, message, rng)
    }

    /// [`Self::encrypt`] through a [`PreparedPublicKey`]: the same metered
    /// operations, randomness order and output bytes, with every
    /// exponentiation served from the key's fixed-base tables.
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
        self.encrypt_impl(EncKey::Prepared(ppk), index, message, rng)
    }

    /// Builds the per-base fixed-base tables for `pk` (once per key; every
    /// subsequent [`Self::encrypt_prepared`] reuses them).
    ///
    /// # Panics
    /// Panics if `pk.width() != width`.
    pub fn prepare_public_key(&self, pk: &PublicKey) -> PreparedPublicKey {
        assert_eq!(pk.width, self.width, "public key width mismatch");
        let grp = self.group;
        PreparedPublicKey {
            pk: pk.clone(),
            v: grp.prepare_g(&pk.v),
            a: grp.prepare_gt(&pk.a),
            h: pk.h.iter().map(|x| grp.prepare_g(x)).collect(),
            w: pk.w.iter().map(|x| grp.prepare_g(x)).collect(),
        }
    }

    /// Builds the per-base fixed-base tables for `sk` (once per key; every
    /// subsequent [`Self::gen_token_prepared`] reuses them).
    ///
    /// # Panics
    /// Panics if `sk.width() != width`.
    pub fn prepare_secret_key(&self, sk: &SecretKey) -> PreparedSecretKey {
        assert_eq!(sk.width, self.width, "secret key width mismatch");
        let grp = self.group;
        PreparedSecretKey {
            sk: sk.clone(),
            g: grp.prepare_g(&sk.g),
            v: grp.prepare_g(&sk.v),
            h: sk.h.iter().map(|x| grp.prepare_g(x)).collect(),
            w: sk.w.iter().map(|x| grp.prepare_g(x)).collect(),
        }
    }

    /// Shared Encrypt body: the plain and prepared entry points differ
    /// only in how the fixed bases are exponentiated, so their operation
    /// counts, RNG draws and outputs are identical by construction.
    fn encrypt_impl<R: Rng>(
        &self,
        key: EncKey<'_>,
        index: &AttributeVector,
        message: &GtElem,
        rng: &mut R,
    ) -> Ciphertext {
        assert_eq!(index.len(), self.width, "attribute width mismatch");
        let grp = self.group;
        let pk = key.pk();
        let s = grp.random_zn(rng);

        let a_s = key.pow_a(grp, &s);
        let c_prime = grp.mul_gt(message, &a_s);

        let z = grp.random_gq(rng);
        let c0 = grp.mul_g(&key.pow_v(grp, &s), &z);

        let mut c = Vec::with_capacity(self.width);
        for i in 0..self.width {
            // U_i^{I_i}·H_i: multiply by U_i only when the bit is set (a
            // metered mul_g either way, so prepared runs count the same).
            let c1_pow = if index.bit(i) {
                let base = grp.mul_g(&pk.u[i], &pk.h[i]);
                grp.pow_g(&base, &s)
            } else {
                key.pow_h(grp, i, &s)
            };
            let z1 = grp.random_gq(rng);
            let z2 = grp.random_gq(rng);
            let ci1 = grp.mul_g(&c1_pow, &z1);
            let ci2 = grp.mul_g(&key.pow_w(grp, i, &s), &z2);
            c.push((ci1, ci2));
        }

        Ciphertext { c_prime, c0, c }
    }

    /// **GenToken** — derives the search token for pattern `I*`:
    /// `K_0 = g^a · Π_{i∈J} (u_i^{I*_i}·h_i)^{r_{i,1}} · w_i^{r_{i,2}}`,
    /// `K_{i,1} = v^{r_{i,1}}`, `K_{i,2} = v^{r_{i,2}}` for `i ∈ J`.
    ///
    /// # Panics
    /// Panics if `pattern.len() != width`.
    pub fn gen_token<R: Rng>(&self, sk: &SecretKey, pattern: &SearchPattern, rng: &mut R) -> Token {
        self.gen_token_impl(TokKey::Plain(sk), pattern, rng)
    }

    /// [`Self::gen_token`] through a [`PreparedSecretKey`]: the same
    /// metered operations, randomness order and output bytes, with every
    /// exponentiation served from the key's fixed-base tables.
    ///
    /// # Panics
    /// Panics if `pattern.len() != width`.
    pub fn gen_token_prepared<R: Rng>(
        &self,
        psk: &PreparedSecretKey,
        pattern: &SearchPattern,
        rng: &mut R,
    ) -> Token {
        self.gen_token_impl(TokKey::Prepared(psk), pattern, rng)
    }

    /// [`Self::gen_token_prepared`] over a batch of patterns sharing one
    /// key and one RNG: token `j` is the `j`-th of `patterns.len()`
    /// serial `gen_token_prepared` calls against the same RNG, with the
    /// same counter totals.
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
            .map(|pat| self.gen_token_prepared(psk, pat, rng))
            .collect()
    }

    /// Shared GenToken body (see [`Self::encrypt_impl`]).
    fn gen_token_impl<R: Rng>(
        &self,
        key: TokKey<'_>,
        pattern: &SearchPattern,
        rng: &mut R,
    ) -> Token {
        assert_eq!(pattern.len(), self.width, "pattern width mismatch");
        let grp = self.group;
        let sk = key.sk();

        let mut k0 = key.pow_gen(grp, &sk.a);
        let mut k = Vec::with_capacity(pattern.non_star_count());

        for i in pattern.non_star_positions() {
            let bit = pattern.symbol(i).expect("non-star position");
            let r1 = grp.random_zp(rng);
            let r2 = grp.random_zp(rng);

            let base_pow = if bit {
                let base = grp.mul_g(&sk.u[i], &sk.h[i]);
                grp.pow_g(&base, &r1)
            } else {
                key.pow_h(grp, i, &r1)
            };
            k0 = grp.mul_g(&k0, &base_pow);
            k0 = grp.mul_g(&k0, &key.pow_w(grp, i, &r2));

            k.push((i, key.pow_v(grp, &r1), key.pow_v(grp, &r2)));
        }

        Token {
            pattern: pattern.clone(),
            k0,
            k,
        }
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
    /// Cost: exactly `1 + 2·|J|` pairings, metered by the engine.
    ///
    /// # Panics
    /// Panics if token and ciphertext widths differ.
    pub fn query(&self, token: &Token, ct: &Ciphertext) -> GtElem {
        self.query_many(token, &[ct])
            .pop()
            .expect("one ciphertext in, one candidate out")
    }

    /// [`Self::query`] over many ciphertexts under **one token**, the
    /// shape of the alert protocol's hot loop (one subscription token
    /// swept over every reported ciphertext).
    ///
    /// Ciphertexts are evaluated in chunks: each contributes its
    /// `1 + 2·|J|` pairings to a flat, ciphertext-major pair list that is
    /// handed to [`BilinearGroup::pair_batch`] in one call per chunk, so
    /// the engine can run the independent pairings in lockstep (the
    /// simulated engine's batch multiplier interleaves eight, then four,
    /// carry chains). The pair order within each ciphertext is
    /// exactly the serial [`Self::query`] order, and the `GT` folds
    /// replay per ciphertext afterwards — candidate `i` is
    /// **byte-identical** to `self.query(token, cts[i])` and every
    /// counter total (`pairings`, `gt_mults`, …) advances exactly as the
    /// serial loop would. The pair scratch buffer is reused across
    /// chunks, so a sweep performs O(1) list allocations regardless of
    /// batch size.
    ///
    /// # Panics
    /// Panics if any ciphertext's width differs from the token's.
    pub fn query_many(&self, token: &Token, cts: &[&Ciphertext]) -> Vec<GtElem> {
        let grp = self.group;
        let per_ct = 1 + 2 * token.k.len();
        let mut results = Vec::with_capacity(cts.len());
        let mut pairs: Vec<(&GElem, &GElem)> =
            Vec::with_capacity(per_ct * BATCH_CHUNK.min(cts.len().max(1)));

        for chunk in cts.chunks(BATCH_CHUNK.max(1)) {
            pairs.clear();
            for ct in chunk {
                assert_eq!(
                    token.pattern.len(),
                    ct.width(),
                    "token/ciphertext width mismatch"
                );
                pairs.push((&ct.c0, &token.k0));
                for (i, k1, k2) in &token.k {
                    let (c1, c2) = &ct.c[*i];
                    pairs.push((c1, k1));
                    pairs.push((c2, k2));
                }
            }
            let gts = grp.pair_batch(&pairs);

            for (j, ct) in chunk.iter().enumerate() {
                let mut slots = gts[j * per_ct..(j + 1) * per_ct].iter();
                let numer = slots.next().expect("numerator pairing present");
                let mut denom = GtElem::identity();
                for gt in slots {
                    denom = grp.mul_gt(&denom, gt);
                }
                let blinding = grp.div_gt(numer, &denom);
                results.push(grp.div_gt(&ct.c_prime, &blinding));
            }
        }
        results
    }

    /// Convenience: query and decode; `Some(id)` on match, `None` (⊥)
    /// otherwise (up to negligible false-positive probability).
    ///
    /// Pays one residue → canonical conversion per call, match or not
    /// (the decode must inspect the canonical log). When the expected
    /// payload is known in advance — the alert protocol's SP stores the
    /// submitting user's id next to each ciphertext — prefer
    /// [`Self::match_token`] / [`Self::query_decode_batch`], which decide
    /// in the residue domain and convert only on match.
    pub fn query_decode(&self, token: &Token, ct: &Ciphertext) -> Option<u64> {
        self.decode_message(&self.query(token, ct))
    }

    /// **Residue-domain match decision**: evaluates the token and compares
    /// the candidate against the `expected` message element entirely
    /// inside the engine's Montgomery residue domain — zero canonical
    /// conversions, matching or not.
    ///
    /// `expected` is the known payload (`encode_message(id)` for the
    /// stored routing id); on a pattern match the query output *is* that
    /// element, so residue equality is exact — this is not a probabilistic
    /// shortcut, it decides the same predicate as
    /// `query_decode(token, ct) == Some(id)` (up to the same negligible
    /// false-positive probability ⊥ already carries).
    ///
    /// Cost: exactly `1 + 2·|J|` pairings, like [`Self::query`].
    ///
    /// # Panics
    /// Panics if token and ciphertext widths differ.
    pub fn match_token(&self, token: &Token, ct: &Ciphertext, expected: &GtElem) -> bool {
        self.group.eq_gt(&self.query(token, ct), expected)
    }

    /// Lockstep [`Self::match_token`] over `(ciphertext, expected)` pairs
    /// sharing one token: candidates come from [`Self::query_many`] (one
    /// `pair_batch` call per chunk), decisions stay in the residue domain
    /// (zero canonicalizations). Decision `i` equals
    /// `match_token(token, cts[i], expected_i)` exactly.
    ///
    /// # Panics
    /// Panics if any ciphertext's width differs from the token's.
    pub fn match_token_batch(&self, token: &Token, pairs: &[(&Ciphertext, &GtElem)]) -> Vec<bool> {
        let cts: Vec<&Ciphertext> = pairs.iter().map(|(ct, _)| *ct).collect();
        self.query_many(token, &cts)
            .iter()
            .zip(pairs)
            .map(|(candidate, (_, expected))| self.group.eq_gt(candidate, expected))
            .collect()
    }

    /// Batch [`Self::query_decode`] against `(ciphertext, expected)`
    /// pairs: each candidate is compared in the residue domain and the
    /// canonical conversion is paid **only on match** — non-matching
    /// pairs perform zero `from_residue` passes, which the op-counter
    /// tests pin (`CounterSnapshot::canonicalizations`).
    ///
    /// Returns exactly what per-pair [`Self::query_decode`] returns for
    /// every pair in which `expected` is the encrypted payload (the alert
    /// protocol's invariant: the SP derives it from the stored routing
    /// id).
    ///
    /// # Panics
    /// Panics if any ciphertext's width differs from the token's.
    pub fn query_decode_batch<'a, I>(&self, token: &Token, pairs: I) -> Vec<Option<u64>>
    where
        I: IntoIterator<Item = (&'a Ciphertext, &'a GtElem)>,
    {
        let pairs: Vec<(&Ciphertext, &GtElem)> = pairs.into_iter().collect();
        let cts: Vec<&Ciphertext> = pairs.iter().map(|(ct, _)| *ct).collect();
        self.query_many(token, &cts)
            .iter()
            .zip(&pairs)
            .map(|(candidate, (_, expected))| {
                if self.group.eq_gt(candidate, expected) {
                    self.decode_message(candidate)
                } else {
                    None
                }
            })
            .collect()
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
    /// This is a **conversion boundary**: the element's canonical log is
    /// requested through the engine, which meters one canonicalization.
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

/// Encrypt-side key view: plain keys exponentiate through `pow_g`/`pow_gt`,
/// prepared keys through their fixed-base tables. Both are metered
/// identically by the engine.
enum EncKey<'k> {
    Plain(&'k PublicKey),
    Prepared(&'k PreparedPublicKey),
}

impl EncKey<'_> {
    fn pk(&self) -> &PublicKey {
        match self {
            EncKey::Plain(pk) => pk,
            EncKey::Prepared(p) => &p.pk,
        }
    }
    fn pow_a<G: BilinearGroup>(&self, grp: &G, e: &BigUint) -> GtElem {
        match self {
            EncKey::Plain(pk) => grp.pow_gt(&pk.a, e),
            EncKey::Prepared(p) => grp.pow_prepared_gt(&p.a, e),
        }
    }
    fn pow_v<G: BilinearGroup>(&self, grp: &G, e: &BigUint) -> GElem {
        match self {
            EncKey::Plain(pk) => grp.pow_g(&pk.v, e),
            EncKey::Prepared(p) => grp.pow_prepared_g(&p.v, e),
        }
    }
    fn pow_h<G: BilinearGroup>(&self, grp: &G, i: usize, e: &BigUint) -> GElem {
        match self {
            EncKey::Plain(pk) => grp.pow_g(&pk.h[i], e),
            EncKey::Prepared(p) => grp.pow_prepared_g(&p.h[i], e),
        }
    }
    fn pow_w<G: BilinearGroup>(&self, grp: &G, i: usize, e: &BigUint) -> GElem {
        match self {
            EncKey::Plain(pk) => grp.pow_g(&pk.w[i], e),
            EncKey::Prepared(p) => grp.pow_prepared_g(&p.w[i], e),
        }
    }
}

/// GenToken-side key view (see [`EncKey`]).
enum TokKey<'k> {
    Plain(&'k SecretKey),
    Prepared(&'k PreparedSecretKey),
}

impl TokKey<'_> {
    fn sk(&self) -> &SecretKey {
        match self {
            TokKey::Plain(sk) => sk,
            TokKey::Prepared(p) => &p.sk,
        }
    }
    /// `g^e` (the `K_0` seed factor).
    fn pow_gen<G: BilinearGroup>(&self, grp: &G, e: &BigUint) -> GElem {
        match self {
            TokKey::Plain(sk) => grp.pow_g(&sk.g, e),
            TokKey::Prepared(p) => grp.pow_prepared_g(&p.g, e),
        }
    }
    fn pow_v<G: BilinearGroup>(&self, grp: &G, e: &BigUint) -> GElem {
        match self {
            TokKey::Plain(sk) => grp.pow_g(&sk.v, e),
            TokKey::Prepared(p) => grp.pow_prepared_g(&p.v, e),
        }
    }
    fn pow_h<G: BilinearGroup>(&self, grp: &G, i: usize, e: &BigUint) -> GElem {
        match self {
            TokKey::Plain(sk) => grp.pow_g(&sk.h[i], e),
            TokKey::Prepared(p) => grp.pow_prepared_g(&p.h[i], e),
        }
    }
    fn pow_w<G: BilinearGroup>(&self, grp: &G, i: usize, e: &BigUint) -> GElem {
        match self {
            TokKey::Plain(sk) => grp.pow_g(&sk.w[i], e),
            TokKey::Prepared(p) => grp.pow_prepared_g(&p.w[i], e),
        }
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
    fn prepared_paths_are_bit_and_count_identical() {
        // encrypt_prepared/gen_token_prepared must consume the same RNG
        // stream, record the same OpCounters deltas, and emit the same
        // bytes as the plain paths — the tables change wall-clock only.
        let (grp, mut rng) = fixture(6);
        let scheme = HveScheme::new(&grp, 6);
        let (pk, sk) = scheme.setup(&mut rng);
        let ppk = scheme.prepare_public_key(&pk);
        let psk = scheme.prepare_secret_key(&sk);

        let index: AttributeVector = "101101".parse().unwrap();
        let msg = scheme.encode_message(99);
        let pat: SearchPattern = "1*11*1".parse().unwrap();

        let mut r1 = StdRng::seed_from_u64(0xfeed);
        let before_plain = grp.counters().snapshot();
        let ct_plain = scheme.encrypt(&pk, &index, &msg, &mut r1);
        let tk_plain = scheme.gen_token(&sk, &pat, &mut r1);
        let delta_plain = grp.counters().snapshot() - before_plain;

        let mut r2 = StdRng::seed_from_u64(0xfeed);
        let before_prep = grp.counters().snapshot();
        let ct_prep = scheme.encrypt_prepared(&ppk, &index, &msg, &mut r2);
        let tk_prep = scheme.gen_token_prepared(&psk, &pat, &mut r2);
        let delta_prep = grp.counters().snapshot() - before_prep;

        assert_eq!(ct_plain, ct_prep);
        assert_eq!(tk_plain, tk_prep);
        assert_eq!(delta_plain, delta_prep, "op counts must be identical");
        assert_eq!(
            serde_json::to_string(&ct_plain).unwrap(),
            serde_json::to_string(&ct_prep).unwrap(),
            "wire bytes must be identical"
        );
        // and the prepared material still decrypts
        assert_eq!(scheme.query_decode(&tk_prep, &ct_prep), Some(99));
    }

    #[test]
    fn batch_prepared_paths_are_bit_and_count_identical() {
        // gen_token_prepared_batch must consume the same RNG stream,
        // record the same OpCounters deltas, and emit the same bytes as
        // N serial prepared calls.
        let (grp, mut rng) = fixture(6);
        let scheme = HveScheme::new(&grp, 6);
        let (_, sk) = scheme.setup(&mut rng);
        let psk = scheme.prepare_secret_key(&sk);

        let patterns: Vec<SearchPattern> = ["1*11*1", "******", "000000", "*1*0**", "1*****"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();

        for n in [0usize, 1, 3, 5] {
            let pats: Vec<&SearchPattern> = patterns[..n].iter().collect();

            let mut r1 = StdRng::seed_from_u64(0xfeed);
            let before = grp.counters().snapshot();
            let tks_serial: Vec<Token> = pats
                .iter()
                .map(|pat| scheme.gen_token_prepared(&psk, pat, &mut r1))
                .collect();
            let delta_serial = grp.counters().snapshot() - before;

            let mut r2 = StdRng::seed_from_u64(0xfeed);
            let before = grp.counters().snapshot();
            let tks_batch = scheme.gen_token_prepared_batch(&psk, &pats, &mut r2);
            let delta_batch = grp.counters().snapshot() - before;

            assert_eq!(tks_batch, tks_serial, "n = {n}");
            assert_eq!(delta_batch, delta_serial, "op counts must match (n = {n})");
            assert_eq!(
                serde_json::to_string(&tks_batch).unwrap(),
                serde_json::to_string(&tks_serial).unwrap(),
                "wire bytes must be identical (n = {n})"
            );
        }
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
    fn match_token_is_conversion_free_and_agrees_with_query_decode() {
        let (grp, mut rng) = fixture(5);
        let scheme = HveScheme::new(&grp, 5);
        let (pk, sk) = scheme.setup(&mut rng);

        let index: AttributeVector = "11010".parse().unwrap();
        let msg = scheme.encode_message(7);
        let ct = scheme.encrypt(&pk, &index, &msg, &mut rng);
        let hit = scheme.gen_token(&sk, &"1*01*".parse().unwrap(), &mut rng);
        let miss = scheme.gen_token(&sk, &"0*01*".parse().unwrap(), &mut rng);

        let before = grp.counters().snapshot();
        assert!(scheme.match_token(&hit, &ct, &msg));
        assert!(!scheme.match_token(&miss, &ct, &msg));
        let delta = grp.counters().snapshot() - before;
        assert_eq!(
            delta.canonicalizations, 0,
            "match_token must decide in the residue domain"
        );
        assert_eq!(scheme.query_decode(&hit, &ct), Some(7));
        assert_eq!(scheme.query_decode(&miss, &ct), None);
    }

    #[test]
    fn query_decode_batch_converts_only_on_match() {
        // The ROADMAP's batch-query conversion hoisting: per-pair
        // query_decode pays one canonicalization per (token, ciphertext)
        // pair; the batch API pays one per *match* and zero on non-match,
        // with identical results.
        let (grp, mut rng) = fixture(4);
        let scheme = HveScheme::new(&grp, 4);
        let (pk, sk) = scheme.setup(&mut rng);

        let population: Vec<(Ciphertext, GtElem, u64)> = (0..16u64)
            .map(|bits| {
                let index: AttributeVector = format!("{bits:04b}").parse().unwrap();
                let msg = scheme.encode_message(bits);
                let ct = scheme.encrypt(&pk, &index, &msg, &mut rng);
                (ct, msg, bits)
            })
            .collect();
        // Pattern 1*0* matches indexes {1000, 1001, 1100, 1101}.
        let tk = scheme.gen_token(&sk, &"1*0*".parse().unwrap(), &mut rng);

        let serial: Vec<Option<u64>> = population
            .iter()
            .map(|(ct, _, _)| scheme.query_decode(&tk, ct))
            .collect();
        let n_matches = serial.iter().flatten().count() as u64;
        assert_eq!(n_matches, 4);

        let before = grp.counters().snapshot();
        let batch = scheme.query_decode_batch(&tk, population.iter().map(|(ct, msg, _)| (ct, msg)));
        let delta = grp.counters().snapshot() - before;

        assert_eq!(batch, serial, "batch must equal per-pair query_decode");
        assert_eq!(
            delta.canonicalizations, n_matches,
            "batch decode must convert on matches only (0 for non-matches)"
        );
        // And the per-pair path really pays one conversion per pair.
        let before = grp.counters().snapshot();
        let _: Vec<Option<u64>> = population
            .iter()
            .map(|(ct, _, _)| scheme.query_decode(&tk, ct))
            .collect();
        let delta = grp.counters().snapshot() - before;
        assert_eq!(delta.canonicalizations, population.len() as u64);
    }

    #[test]
    fn query_many_is_byte_identical_to_serial_query_with_equal_counters() {
        // The lockstep sweep: candidates, counter totals and residue
        // limbs must all equal the one-at-a-time loop, across batch
        // sizes that cover the empty batch, a partial chunk, an exact
        // chunk boundary and a ragged multi-chunk sweep.
        let (grp, mut rng) = fixture(4);
        let scheme = HveScheme::new(&grp, 4);
        let (pk, sk) = scheme.setup(&mut rng);

        let population: Vec<Ciphertext> = (0..37u64)
            .map(|i| {
                let bits = i % 16;
                let index: AttributeVector = format!("{bits:04b}").parse().unwrap();
                let msg = scheme.encode_message(bits);
                scheme.encrypt(&pk, &index, &msg, &mut rng)
            })
            .collect();
        let tk = scheme.gen_token(&sk, &"1*0*".parse().unwrap(), &mut rng);

        for n in [0usize, 1, 5, 16, 17, 37] {
            let cts: Vec<&Ciphertext> = population[..n].iter().collect();
            let before = grp.counters().snapshot();
            let serial: Vec<GtElem> = cts.iter().map(|ct| scheme.query(&tk, ct)).collect();
            let mid = grp.counters().snapshot();
            let batched = scheme.query_many(&tk, &cts);
            let after = grp.counters().snapshot();

            assert_eq!(batched, serial, "n = {n}");
            for (x, y) in batched.iter().zip(&serial) {
                assert_eq!(x.discrete_log(), y.discrete_log(), "n = {n}");
            }
            assert_eq!(
                after - mid,
                mid - before,
                "lockstep sweep must meter exactly like the serial loop (n = {n})"
            );
        }
    }

    #[test]
    fn match_token_batch_agrees_with_serial_and_stays_in_domain() {
        let (grp, mut rng) = fixture(4);
        let scheme = HveScheme::new(&grp, 4);
        let (pk, sk) = scheme.setup(&mut rng);

        let population: Vec<(Ciphertext, GtElem)> = (0..16u64)
            .map(|bits| {
                let index: AttributeVector = format!("{bits:04b}").parse().unwrap();
                let msg = scheme.encode_message(bits);
                (scheme.encrypt(&pk, &index, &msg, &mut rng), msg)
            })
            .collect();
        let tk = scheme.gen_token(&sk, &"1*0*".parse().unwrap(), &mut rng);
        let pairs: Vec<(&Ciphertext, &GtElem)> =
            population.iter().map(|(ct, msg)| (ct, msg)).collect();

        let serial: Vec<bool> = pairs
            .iter()
            .map(|(ct, msg)| scheme.match_token(&tk, ct, msg))
            .collect();
        assert_eq!(serial.iter().filter(|&&b| b).count(), 4);

        let before = grp.counters().snapshot();
        let batched = scheme.match_token_batch(&tk, &pairs);
        let delta = grp.counters().snapshot() - before;
        assert_eq!(batched, serial);
        assert_eq!(
            delta.canonicalizations, 0,
            "batch matching must decide in the residue domain"
        );
        assert_eq!(
            delta.pairings,
            pairs.len() as u64 * tk.pairing_cost(),
            "batching must not change the pairing count"
        );
    }

    #[test]
    fn serde_roundtrip_of_all_material() {
        let (grp, mut rng) = fixture(3);
        let scheme = HveScheme::new(&grp, 3);
        let (pk, sk) = scheme.setup(&mut rng);
        let index: AttributeVector = "101".parse().unwrap();
        let ct = scheme.encrypt(&pk, &index, &scheme.encode_message(3), &mut rng);
        let tk = scheme.gen_token(&sk, &"1*1".parse().unwrap(), &mut rng);

        let pk2: PublicKey = serde_json::from_str(&serde_json::to_string(&pk).unwrap()).unwrap();
        let sk2: SecretKey = serde_json::from_str(&serde_json::to_string(&sk).unwrap()).unwrap();
        let ct2: Ciphertext = serde_json::from_str(&serde_json::to_string(&ct).unwrap()).unwrap();
        let tk2: Token = serde_json::from_str(&serde_json::to_string(&tk).unwrap()).unwrap();
        assert_eq!(pk, pk2);
        assert_eq!(sk, sk2);
        assert_eq!(ct, ct2);
        assert_eq!(tk, tk2);
        // deserialized material still decrypts
        assert_eq!(scheme.query_decode(&tk2, &ct2), Some(3));
    }
}
