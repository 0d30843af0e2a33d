//! Group element wrappers.
//!
//! Elements carry their discrete logarithm with respect to the engine's
//! abstract generators (`g` for `G`, `gt = e(g,g)` for `GT`). The newtypes
//! prevent accidentally mixing `G` and `GT` values or treating exponents as
//! scalars; all arithmetic goes through the engine so operations are
//! counted.
//!
//! ## Representation: canonical logs
//!
//! An element holds its **canonical** log, the integer `x` of `g^x`, as a
//! plain [`BigUint`]; the engine keeps the logs it produces in `[0, N)`.
//! Equality and hashing compare logs as they are, and serde writes the
//! log's hex string. Material built from outside the engine (serde, the
//! `sla-persist` codec, [`GElem::from_canonical_log`]) may carry a log
//! not below `N`; every engine operation reduces such a log, and
//! [`crate::BilinearGroup::eq_gt`] compares logs reduced mod `N`.
//!
//! Elements are the currency of key generation and of the reference
//! phases the served flat loops are pinned to. They are **not** how
//! stored ciphertexts are held: an element carries its own heap integer,
//! so a Service Provider keeps each ciphertext and its expected payload
//! as one packed row of canonical limbs instead ([`crate::PackedRow`],
//! swept in place from a [`crate::QueryRows`] slab). A row is built from
//! elements through their logs ([`GElem::discrete_log`]), and the
//! reference check rebuilds elements from a row through
//! [`GElem::from_canonical_log`]. Montgomery residues exist only in the
//! flat loops' limbs ([`crate::ReadyBases`], [`crate::PreparedQuery`]).

use serde::{Deserialize, Serialize};
use sla_bigint::BigUint;

macro_rules! element_impls {
    ($ty:ident, $gen:literal) => {
        impl $ty {
            /// The identity element (generator to the zeroth power).
            pub fn identity() -> Self {
                $ty(BigUint::zero())
            }

            /// Reconstructs an element from its canonical discrete log —
            /// the inverse of [`Self::discrete_log`], and the entry point
            /// deserializers (serde, the `sla-persist` binary codec) use.
            pub fn from_canonical_log(log: BigUint) -> Self {
                $ty(log)
            }

            /// `true` iff this is the identity.
            pub fn is_identity(&self) -> bool {
                self.0.is_zero()
            }

            /// The canonical discrete logarithm with respect to
            #[doc = concat!("`", $gen, "`.")]
            ///
            /// Only meaningful for the simulated backend; used by tests
            /// to verify algebraic identities and by row packing and
            /// message decoding.
            pub fn discrete_log(&self) -> BigUint {
                self.0.clone()
            }
        }
    };
}

/// Element of the source group `G` (stored as `log_g`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GElem(pub(crate) BigUint);

/// Element of the target group `GT` (stored as `log_gt`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GtElem(pub(crate) BigUint);

element_impls!(GElem, "g");
element_impls!(GtElem, "gt = e(g, g)");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert!(GElem::identity().is_identity());
        assert!(GtElem::identity().is_identity());
        assert_eq!(GElem::identity().discrete_log(), BigUint::zero());
    }

    #[test]
    fn serde_roundtrip() {
        // An element's JSON is its log's: the hex string of the
        // canonical `BigUint`.
        for log in [
            BigUint::zero(),
            BigUint::from_u64(123456),
            BigUint::from_limbs(vec![u64::MAX, 3, 1 << 40]),
        ] {
            let e = GElem::from_canonical_log(log.clone());
            let json = serde_json::to_string(&e).unwrap();
            assert_eq!(json, serde_json::to_string(&log).unwrap());
            assert_eq!(serde_json::from_str::<GElem>(&json).unwrap(), e);
            let gt = GtElem::from_canonical_log(log.clone());
            let json = serde_json::to_string(&gt).unwrap();
            assert_eq!(json, serde_json::to_string(&log).unwrap());
            assert_eq!(serde_json::from_str::<GtElem>(&json).unwrap(), gt);
        }
    }
}
