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
//! ## Montgomery-domain representation
//!
//! The group order `N = P·Q` is odd, and the engine's one reduction
//! context is a shared [`sla_bigint::MontgomeryCtx`]. Engine-produced
//! elements keep their discrete log in its **Montgomery domain**
//! (`x·R mod N`), so every pairing is a single CIOS pass and the group
//! law is a division-free addition — no per-operation domain round
//! trips. Canonical conversion happens only at `discrete_log()`,
//! cross-representation equality, and serde (whose wire bytes are
//! unchanged from the canonical-representation era). The engine
//! precomputes a one-pass scalar product for `g`, `g_p`, `g_q` and `gt`,
//! and [`BilinearGroup::prepare_g`]/[`BilinearGroup::prepare_gt`] extend
//! the same speedup to arbitrary repeated bases such as HVE key material.
//! [`SimulatedGroup::new`] refuses an even order.
//!
//! ## Cost accounting
//!
//! The engine counts pairings / exponentiations / multiplications in
//! [`OpCounters`]. A simulated pairing is one modular product, far
//! cheaper than a curve pairing, so the counts, not the timings, are the
//! portable cost.
//!
//! ## Query checks
//!
//! [`BilinearGroup::match_query_rows`] decides HVE's query check for a
//! slab of ciphertexts packed as rows of canonical limbs ([`QueryRows`],
//! one [`PackedRow`] per ciphertext and its expected payload) under one
//! token whose keys [`BilinearGroup::prepare_query`] resolved once. Its
//! default body is the reference fold over `GT` elements
//! ([`match_query_reference`]); [`SimulatedGroup`] sweeps the rows in
//! place, one CIOS pass per pairing of a canonical operand against a
//! residue key, with identical decisions and counters.
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
mod params;
mod query;
mod rows;
mod table;

pub use counters::{CounterSnapshot, OpCounters};
pub use element::{GElem, GtElem};
pub use group::{BilinearGroup, SimulatedGroup};
pub use params::GroupParams;
pub use query::{match_query_reference, query_candidate, PreparedQuery};
pub use rows::{PackedRow, QueryRows, RowShape};
/// The integer type of group orders, exponents and discrete logs.
pub use sla_bigint::BigUint;
pub use table::{PreparedG, PreparedGt};
