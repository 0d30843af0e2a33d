//! # sla-hve
//!
//! **Hidden Vector Encryption** (HVE) as specified by Boneh & Waters
//! ("Conjunctive, subset, and range queries on encrypted data", TCC 2007)
//! and restated in §2.1 of the EDBT 2021 secure location-alert paper.
//!
//! HVE encrypts a message `M ∈ GT` under a binary *attribute vector*
//! `I ∈ {0,1}^l`. A *search token* is derived from a *pattern vector*
//! `I* ∈ {0,1,*}^l`; evaluating a token against a ciphertext recovers `M`
//! iff the attribute agrees with the pattern on every non-star position.
//! Nothing else about `I` leaks — in particular the evaluator cannot tell
//! *which* position mismatched.
//!
//! The matching cost at the evaluator is `1 + 2·|J|` bilinear pairings,
//! where `J` is the set of non-star positions — this is the quantity the
//! paper's Huffman encoding minimizes, and the engine's
//! [`OpCounters`](sla_pairing::OpCounters) meter it.
//!
//! ## Phases
//!
//! * [`HveScheme::setup`] — key generation over a composite-order group.
//! * [`HveScheme::encrypt`] — users encrypt `(I, M)` with the public key.
//! * [`HveScheme::gen_token`] — the secret-key holder derives a token for a
//!   pattern.
//! * [`HveScheme::query`] — the evaluator applies a token to a ciphertext.
//!
//! These are the element reference. The alert service runs each phase
//! through the group engine's flat loops instead, over keys readied once
//! ([`PreparedPublicKey`], [`PreparedSecretKey`]), and builds no group
//! element: [`HveScheme::encrypt_for_user`] writes the row a Service
//! Provider stores, [`HveScheme::gen_query`] the keys its sweep reads,
//! and [`HveScheme::match_rows`] sweeps the one under the other. Each is
//! pinned to the reference for output, RNG draws and operation counts.
//!
//! ## Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use sla_pairing::SimulatedGroup;
//! use sla_hve::{AttributeVector, HveScheme, SearchPattern};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let group = SimulatedGroup::generate(48, &mut rng);
//! let scheme = HveScheme::new(&group, 4);
//! let (pk, sk) = scheme.setup(&mut rng);
//!
//! let index = AttributeVector::from_bits(&[true, false, true, true]);
//! let msg = scheme.encode_message(42);
//! let ct = scheme.encrypt(&pk, &index, &msg, &mut rng);
//!
//! // pattern 1*1* matches 1011
//! let pat: SearchPattern = "1*1*".parse().unwrap();
//! let tk = scheme.gen_token(&sk, &pat, &mut rng);
//! assert_eq!(scheme.query_decode(&tk, &ct), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod keys;
mod prepared;
mod regen;
mod scheme;
mod vector;

pub use error::HveError;
pub use keys::{Ciphertext, PublicKey, SecretKey, Token};
pub use prepared::{PreparedPublicKey, PreparedSecretKey};
pub use regen::{RegenStats, TokenCache};
pub use scheme::{HveScheme, MESSAGE_DOMAIN_BITS};
pub use vector::{AttributeVector, ParseVectorError, SearchPattern};
