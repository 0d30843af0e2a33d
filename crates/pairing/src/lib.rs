//! # sla-pairing
//!
//! A **composite-order symmetric bilinear group** `e : G × G → GT` with
//! `|G| = |GT| = N = P · Q` (`P`, `Q` prime), as required by the
//! Boneh–Waters Hidden Vector Encryption scheme used in the EDBT 2021
//! secure-alert paper.
//!
//! ## Instantiation strategy
//!
//! Production composite-order pairing curves are impractical to build from
//! scratch, so this crate implements the group in the **exponent
//! representation** (a generic-group-model simulation): an element of `G` is
//! stored as its discrete logarithm `x` with respect to a fixed abstract
//! generator `g`, so the element *is* `g^x`. Then:
//!
//! * group law: `g^x · g^y = g^{x+y mod N}`
//! * exponentiation: `(g^x)^k = g^{xk mod N}`
//! * pairing: `e(g^x, g^y) = gt^{xy mod N}` where `gt = e(g, g)`
//! * subgroups: `G_p = ⟨g^Q⟩` (order `P`) and `G_q = ⟨g^P⟩` (order `Q`);
//!   cross-subgroup pairings annihilate because `e(g^{Qa}, g^{Pb}) =
//!   gt^{N·ab} = 1`, exactly the property HVE's blinding relies on.
//!
//! Every algebraic identity of a real composite-order pairing holds, so the
//! HVE scheme built on top is *functionally* exact and its
//! **pairing-operation counts — the metric the paper reports — are
//! faithful**. The representation is of course not hiding (discrete logs are
//! stored in the clear), so this is a simulation backend, not a secure
//! cryptographic instantiation; the [`BilinearGroup`] trait is the seam
//! where a curve-based engine would slot in.
//!
//! ## Representation: canonical logs, residues in the flat limbs
//!
//! An element holds its canonical discrete log ([`GElem`], [`GtElem`]);
//! the group law is a division-free `mod_add`/`mod_sub`, and a pairing
//! or an exponentiation is one product mod `N` through the engine's
//! [`sla_bigint::MontgomeryCtx`] for the odd order `N = P·Q`. Elements
//! serve setup and the reference phases. Montgomery residues
//! (`x·R mod N`) live only in the limbs the served flat loops read: the
//! key bases readied once per key ([`ReadyBases`]) and a query's keys
//! ([`PreparedQuery`]). Stored rows hold canonical logs.
//! [`SimulatedGroup::new`] refuses an even order.
//!
//! ## Cost accounting
//!
//! The engine counts pairings / exponentiations / multiplications in
//! [`OpCounters`]. A simulated pairing is one modular product, far
//! cheaper than a curve pairing, so the counts, not the timings, are the
//! portable cost.
//!
//! ## HVE phases as engine operations
//!
//! The three phases the alert service runs per request are
//! [`BilinearGroup`] methods held to an element reference, which
//! [`SimulatedGroup`] runs as flat limb loops with identical output, RNG
//! draws and counters (the reference itself for orders above eight
//! limbs):
//!
//! * [`BilinearGroup::encrypt_row`] writes a user's ciphertext straight
//!   into the [`PackedRow`] a Service Provider stores (reference:
//!   [`encrypt_reference`], then [`PackedRow::pack`]);
//! * [`BilinearGroup::gen_token_query`] writes a token's keys straight
//!   into the [`PreparedQuery`] the sweep reads (reference:
//!   [`gen_token_reference`], then [`BilinearGroup::prepare_query`]);
//! * [`BilinearGroup::match_query_rows`] decides HVE's query check for a
//!   slab of such rows ([`QueryRows`]) under one query (reference:
//!   [`match_query_reference`], the fold over `GT` elements).
//!
//! The first two read key bases the engine readied once per key
//! ([`ReadyBases`], from [`BilinearGroup::prepare_encrypt_bases`] and
//! [`BilinearGroup::prepare_token_bases`]); the sweep makes one CIOS
//! pass per pairing of a canonical operand against a residue key. No
//! served phase builds a group element.
//!
//! ## Example
//!
//! ```
//! use sla_pairing::{BilinearGroup, SimulatedGroup};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let grp = SimulatedGroup::generate(64, &mut rng);
//! let a = grp.random_gp(&mut rng);
//! let b = grp.random_gp(&mut rng);
//! // bilinearity: e(a, b)^2 == e(a^2, b)
//! let two = sla_bigint::BigUint::from_u64(2);
//! assert_eq!(
//!     grp.pow_gt(&grp.pair(&a, &b), &two),
//!     grp.pair(&grp.pow_g(&a, &two), &b)
//! );
//! assert_eq!(grp.counters().pairings(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod element;
mod group;
mod issue;
mod params;
mod query;
mod rows;

pub use counters::{CounterSnapshot, OpCounters};
pub use element::{GElem, GtElem};
pub use group::{BilinearGroup, SimulatedGroup};
pub use issue::{encrypt_reference, gen_token_reference, EncryptBases, ReadyBases, TokenBases};
pub use params::GroupParams;
pub use query::{match_query_reference, query_candidate, PreparedQuery};
pub use rows::{PackedRow, QueryRows, RowShape};
/// The integer type of group orders, exponents and discrete logs.
pub use sla_bigint::BigUint;
