//! Key, ciphertext and token material.

use crate::vector::SearchPattern;
use sla_bigint::BigUint;
use sla_pairing::{EncryptBases, GElem, GtElem, PackedRow, RowShape, TokenBases};

/// HVE secret key (held by the Trusted Authority in the alert protocol).
///
/// Matches §2.1 of the paper:
/// `SK = (g_q ∈ G_q, a ∈ Z_p, ∀i: u_i, h_i, w_i, g, v ∈ G_p)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecretKey {
    pub(crate) width: usize,
    pub(crate) a: BigUint,
    pub(crate) g: GElem,
    pub(crate) v: GElem,
    pub(crate) gq: GElem,
    pub(crate) u: Vec<GElem>,
    pub(crate) h: Vec<GElem>,
    pub(crate) w: Vec<GElem>,
}

impl SecretKey {
    /// HVE width `l` (bit length of attribute vectors).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The bases GenToken exponentiates.
    pub(crate) fn bases(&self) -> TokenBases<'_> {
        TokenBases {
            g: &self.g,
            a: &self.a,
            v: &self.v,
            u: &self.u,
            h: &self.h,
            w: &self.w,
        }
    }
}

/// HVE public key (distributed to mobile users).
///
/// `PK = (g_q, V = v·R_v, A = e(g,v)^a, ∀i: U_i, H_i, W_i)` with each
/// `G_p` base blinded by a random `G_q` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey {
    pub(crate) width: usize,
    pub(crate) gq: GElem,
    pub(crate) v: GElem,
    pub(crate) a: GtElem,
    pub(crate) u: Vec<GElem>,
    pub(crate) h: Vec<GElem>,
    pub(crate) w: Vec<GElem>,
}

impl PublicKey {
    /// HVE width `l`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The bases Encrypt exponentiates.
    pub(crate) fn bases(&self) -> EncryptBases<'_> {
        EncryptBases {
            a: &self.a,
            v: &self.v,
            u: &self.u,
            h: &self.h,
            w: &self.w,
        }
    }
}

/// An HVE ciphertext:
/// `C = (C' = M·A^s, C_0 = V^s·Z, ∀i: C_{i,1}, C_{i,2})`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    pub(crate) c_prime: GtElem,
    pub(crate) c0: GElem,
    /// One `(C_{i,1}, C_{i,2})` pair per attribute position.
    pub(crate) c: Vec<(GElem, GElem)>,
}

impl Ciphertext {
    /// Width `l` of the attribute the ciphertext was produced under.
    pub fn width(&self) -> usize {
        self.c.len()
    }

    /// The ciphertext's components `(C', C_0, [(C_{i,1}, C_{i,2})])` —
    /// the wire view binary codecs (`sla-persist`) encode. Group elements
    /// expose their canonical log through
    /// [`GElem::discrete_log`]/[`GtElem::discrete_log`], so the encoded
    /// bytes are representation-independent.
    pub fn parts(&self) -> (&GtElem, &GElem, &[(GElem, GElem)]) {
        (&self.c_prime, &self.c0, &self.c)
    }

    /// Reassembles a ciphertext from its components — the inverse of
    /// [`Self::parts`]. No validity check is possible (ciphertexts are
    /// opaque group-element tuples); width checks happen where the
    /// ciphertext is used.
    pub fn from_parts(c_prime: GtElem, c0: GElem, c: Vec<(GElem, GElem)>) -> Self {
        Ciphertext { c_prime, c0, c }
    }

    /// The ciphertext and the payload a matching query recovers, packed
    /// as one row of canonical limbs at the width of the widest log, with
    /// no reduction ([`crate::HveScheme::pack`] packs for a group).
    pub fn to_row(&self, expected: &GtElem) -> PackedRow {
        PackedRow::from_elements(&self.c_prime, &self.c0, &self.c, expected)
    }

    /// The ciphertext a packed row holds, its operands as canonical logs
    /// (the row's expected payload is dropped): the inverse of
    /// [`Self::to_row`] and of [`crate::HveScheme::pack`].
    pub(crate) fn from_row(row: &PackedRow) -> Self {
        let log = |idx: usize| BigUint::from_limbs(row.operand(idx).to_vec());
        let g = |idx: usize| GElem::from_canonical_log(log(idx));
        Ciphertext {
            c_prime: GtElem::from_canonical_log(log(RowShape::C_PRIME)),
            c0: g(RowShape::C0),
            c: (0..row.shape().width)
                .map(|i| (g(RowShape::component(i, 0)), g(RowShape::component(i, 1))))
                .collect(),
        }
    }
}

/// An HVE search token:
/// `TK = (I*, K_0, ∀i∈J: K_{i,1}, K_{i,2})` where `J` is the set of
/// non-star positions of the pattern.
///
/// The pattern itself is carried in the clear — this is inherent to HVE
/// tokens (the paper's §6 security discussion: the SP learns the predicate,
/// not the data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub(crate) pattern: SearchPattern,
    pub(crate) k0: GElem,
    /// `(position, K_{i,1}, K_{i,2})`, one triple per non-star position.
    pub(crate) k: Vec<(usize, GElem, GElem)>,
}

impl Token {
    /// The pattern the token searches for.
    pub fn pattern(&self) -> &SearchPattern {
        &self.pattern
    }

    /// Number of non-star positions `|J|`.
    pub fn non_star_count(&self) -> usize {
        self.k.len()
    }

    /// Pairings required to evaluate this token against one ciphertext:
    /// `1 + 2·|J|` (§2.1: one for `e(C_0, K_0)` plus two per position in
    /// `J`).
    pub fn pairing_cost(&self) -> u64 {
        1 + 2 * self.k.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_pairing_cost_formula() {
        let tk = Token {
            pattern: "1*0".parse().unwrap(),
            k0: GElem::identity(),
            k: vec![
                (0, GElem::identity(), GElem::identity()),
                (2, GElem::identity(), GElem::identity()),
            ],
        };
        assert_eq!(tk.non_star_count(), 2);
        assert_eq!(tk.pairing_cost(), 5);
    }
}
