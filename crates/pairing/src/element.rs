//! Group element wrappers.
//!
//! Elements carry their discrete logarithm with respect to the engine's
//! abstract generators (`g` for `G`, `gt = e(g,g)` for `GT`). The newtypes
//! prevent accidentally mixing `G` and `GT` values or treating exponents as
//! scalars; all arithmetic goes through the engine so operations are
//! counted.
//!
//! ## Representation: Montgomery-domain logs, canonical boundary
//!
//! Engine-produced elements keep their log in the **Montgomery domain**
//! (`x·R mod N`) of the group's shared [`MontgomeryCtx`], so chained
//! group operations never pay the two per-op domain-conversion passes the
//! previous canonical representation required — a pairing is now a
//! *single* CIOS pass. Conversion back to the canonical residue happens
//! only at the three boundaries:
//!
//! * [`GElem::discrete_log`] / [`GtElem::discrete_log`] (introspection),
//! * equality/hashing against elements in a different representation, and
//! * serde — the wire encoding is the canonical log's hex string, **byte
//!   identical** to the pre-refactor derived encoding, and deserialized
//!   elements start out canonical (the engine re-enters the domain on
//!   first use).
//!
//! Within one representation (same modulus ⇒ same `R`) the domain map is
//! a bijection, so residues compare directly without converting.
//!
//! Elements are the currency of key generation, encryption, token
//! issuance and the reference query check. They are **not** how stored
//! ciphertexts are held: an element carries its own heap integer and a
//! shared context, so a Service Provider keeps each ciphertext and its
//! expected payload as one packed row of canonical limbs instead
//! ([`crate::PackedRow`], swept in place from a [`crate::QueryRows`]
//! slab). A row is built from elements through their canonical logs
//! ([`GElem::discrete_log`]), and the reference check rebuilds elements
//! from a row through [`GElem::from_canonical_log`].

use crate::rows::below;
use serde::{Deserialize, Serialize};
use sla_bigint::{BigUint, MontgomeryCtx};
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A discrete logarithm in one of two representations.
#[derive(Debug, Clone)]
pub(crate) enum Log {
    /// Canonical residue in `[0, N)` (identity elements, deserialized
    /// material, and engine-less construction).
    Canonical(BigUint),
    /// Montgomery-domain value `x·R mod N` plus the shared context that
    /// defines the domain.
    Residue {
        /// The domain image of the log.
        value: BigUint,
        /// The context whose modulus (and `R`) the value lives under.
        ctx: Arc<MontgomeryCtx>,
    },
}

impl Log {
    /// The canonical (standard-form) log, converting if necessary.
    pub(crate) fn canonical(&self) -> Cow<'_, BigUint> {
        match self {
            Log::Canonical(v) => Cow::Borrowed(v),
            Log::Residue { value, ctx } => Cow::Owned(ctx.from_mont(value)),
        }
    }

    /// Writes the canonical log reduced mod `n` into `out`, which is
    /// `n`'s limb count wide. A residue of `n`'s Montgomery domain takes
    /// one CIOS pass and a canonical log below `n` one copy, neither
    /// allocating; anything else (residues of another order, canonical
    /// logs not below `n`) converts through `BigUint`. `domain` carries a
    /// context already found to reduce by `n` from one call to the next,
    /// so the logs of one engine compare their moduli once.
    pub(crate) fn write_canonical<'a>(
        &'a self,
        n: &BigUint,
        domain: &mut Option<&'a Arc<MontgomeryCtx>>,
        out: &mut [u64],
    ) {
        match self {
            Log::Residue { value, ctx }
                if domain.is_some_and(|d| Arc::ptr_eq(d, ctx)) || ctx.modulus() == n =>
            {
                *domain = Some(ctx);
                match out.len() {
                    1 => from_mont::<1>(ctx, value, out),
                    2 => from_mont::<2>(ctx, value, out),
                    3 => from_mont::<3>(ctx, value, out),
                    4 => from_mont::<4>(ctx, value, out),
                    _ => ctx.from_mont_limbs(value.limbs(), out),
                }
            }
            Log::Canonical(v) if below(v.limbs(), n.limbs()) => {
                out.fill(0);
                out[..v.limbs().len()].copy_from_slice(v.limbs());
            }
            _ => {
                let reduced = &*self.canonical() % n;
                out.fill(0);
                out[..reduced.limbs().len()].copy_from_slice(reduced.limbs());
            }
        }
    }

    /// Zero is zero in every domain (`0·R = 0`), so the identity test
    /// needs no conversion.
    fn is_zero(&self) -> bool {
        match self {
            Log::Canonical(v) => v.is_zero(),
            Log::Residue { value, .. } => value.is_zero(),
        }
    }

    fn eq_log(&self, other: &Log) -> bool {
        match (self, other) {
            (Log::Canonical(a), Log::Canonical(b)) => a == b,
            // Same modulus ⇒ same `R`, and the domain map is a bijection.
            (Log::Residue { value: a, ctx: ca }, Log::Residue { value: b, ctx: cb })
                if Arc::ptr_eq(ca, cb) || ca.modulus() == cb.modulus() =>
            {
                a == b
            }
            _ => self.canonical() == other.canonical(),
        }
    }
}

/// [`MontgomeryCtx::from_mont_limbs`] at a fixed width of `K` limbs, so
/// the CIOS pass runs unrolled (orders of up to four limbs, which covers
/// the benchmark's and the builder's default groups).
#[inline(always)]
fn from_mont<const K: usize>(m: &MontgomeryCtx, value: &BigUint, out: &mut [u64]) {
    let mut a = [0u64; K];
    for (to, from) in a.iter_mut().zip(value.limbs()) {
        *to = *from;
    }
    let out: &mut [u64; K] = out.try_into().expect("an operand of K limbs");
    m.from_mont_limbs(&a, out);
}

macro_rules! element_impls {
    ($ty:ident, $gen:literal) => {
        impl $ty {
            /// The identity element (generator to the zeroth power).
            pub fn identity() -> Self {
                $ty(Log::Canonical(BigUint::zero()))
            }

            /// Wraps a canonical (standard-form) log.
            pub(crate) fn canonical(log: BigUint) -> Self {
                $ty(Log::Canonical(log))
            }

            /// Reconstructs an element from its canonical discrete log —
            /// the inverse of [`Self::discrete_log`], and the entry point
            /// deserializers (serde, the `sla-persist` binary codec) use.
            /// Like serde-deserialized material, the element starts out in
            /// canonical form; the engine re-enters its residue domain on
            /// first use.
            pub fn from_canonical_log(log: BigUint) -> Self {
                Self::canonical(log)
            }

            /// Wraps a Montgomery-domain log under `ctx`.
            pub(crate) fn residue(value: BigUint, ctx: Arc<MontgomeryCtx>) -> Self {
                $ty(Log::Residue { value, ctx })
            }

            /// `true` iff this is the identity.
            pub fn is_identity(&self) -> bool {
                self.0.is_zero()
            }

            /// The canonical discrete logarithm with respect to
            #[doc = concat!("`", $gen, "`.")]
            ///
            /// This is the **conversion boundary** out of the Montgomery
            /// domain: residue-form elements pay one reduction pass here
            /// and nowhere else. Only meaningful for the simulated
            /// backend; used by tests to verify algebraic identities and
            /// by message decoding.
            pub fn discrete_log(&self) -> BigUint {
                self.0.canonical().into_owned()
            }
        }

        impl PartialEq for $ty {
            fn eq(&self, other: &Self) -> bool {
                self.0.eq_log(&other.0)
            }
        }

        impl Eq for $ty {}

        impl Hash for $ty {
            fn hash<H: Hasher>(&self, state: &mut H) {
                // Hash the canonical log so mixed representations of the
                // same element collide, as Eq requires.
                self.0.canonical().hash(state);
            }
        }

        impl Serialize for $ty {
            fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                // Canonical hex string — byte-identical to the derived
                // transparent-newtype encoding of the canonical-log era.
                self.0.canonical().serialize(serializer)
            }
        }

        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                BigUint::deserialize(deserializer).map(Self::canonical)
            }
        }
    };
}

/// Element of the source group `G` (stored as `log_g`).
#[derive(Debug, Clone)]
pub struct GElem(pub(crate) Log);

/// Element of the target group `GT` (stored as `log_gt`).
#[derive(Debug, Clone)]
pub struct GtElem(pub(crate) Log);

element_impls!(GElem, "g");
element_impls!(GtElem, "gt = e(g, g)");

#[cfg(test)]
mod tests {
    use super::*;

    fn context(n: u64) -> Arc<MontgomeryCtx> {
        Arc::new(MontgomeryCtx::new(&BigUint::from_u64(n)).expect("odd modulus"))
    }

    #[test]
    fn identities() {
        assert!(GElem::identity().is_identity());
        assert!(GtElem::identity().is_identity());
        assert_eq!(GElem::identity().discrete_log(), BigUint::zero());
    }

    #[test]
    fn serde_roundtrip() {
        let e = GElem::canonical(BigUint::from_u64(123456));
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(serde_json::from_str::<GElem>(&json).unwrap(), e);
    }

    #[test]
    fn residue_serializes_canonically() {
        let ctx = context(1_000_003);
        let v = BigUint::from_u64(424242);
        let res = GElem::residue(ctx.to_mont(&v), ctx);
        let can = GElem::canonical(v);
        assert_eq!(
            serde_json::to_string(&res).unwrap(),
            serde_json::to_string(&can).unwrap(),
            "wire bytes must not depend on the in-memory representation"
        );
    }

    #[test]
    fn mixed_representation_equality_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        let ctx = context(1_000_003);
        let v = BigUint::from_u64(987654);
        let res = GtElem::residue(ctx.to_mont(&v), ctx);
        let can = GtElem::canonical(v.clone());
        assert_eq!(res, can);
        assert_ne!(res, GtElem::canonical(&v + &BigUint::one()));

        let hash = |e: &GtElem| {
            let mut h = DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&res), hash(&can));
    }

    #[test]
    fn residue_zero_is_identity() {
        let ctx = context(97);
        assert!(GElem::residue(BigUint::zero(), ctx).is_identity());
    }
}
