//! # secure-location-alerts
//!
//! A production-quality Rust reproduction of **"An Efficient and Secure
//! Location-based Alert Protocol using Searchable Encryption and Huffman
//! Codes"** (Shaham, Ghinita, Shahabi — EDBT 2021).
//!
//! Mobile users submit HVE-encrypted grid-cell indexes to an untrusted
//! Service Provider; a Trusted Authority issues search tokens for alert
//! zones; the SP evaluates tokens on ciphertexts and learns only who is
//! inside the zone. The paper's contribution — reproduced in full here —
//! is **variable-length (Huffman) encoding of cells** so that likely-
//! alerted cells carry short codes, plus a deterministic token-
//! minimization algorithm on the resulting coding tree, cutting the
//! number of bilinear pairings the SP must evaluate.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`bigint`] — arbitrary-precision arithmetic and prime generation.
//! * [`pairing`] — composite-order symmetric bilinear group (simulated,
//!   with exact pairing-operation accounting).
//! * [`hve`] — Boneh–Waters Hidden Vector Encryption.
//! * [`encoding`] — Huffman/B-ary/balanced/fixed encoders, coding trees,
//!   Algorithm 3 minimization, Quine–McCluskey, analytic results.
//! * [`grid`] — spatial grid, probability maps, alert zones.
//! * [`datasets`] — synthetic Chicago crime data, logistic regression,
//!   workloads.
//! * [`core`] — the three-party protocol ([`core::AlertSystem`]).
//!
//! ## Quickstart
//!
//! The service is assembled through the fallible [`core::SystemBuilder`]
//! and exposes a full subscription lifecycle: `subscribe_cell` upserts
//! (re-subscribing replaces the stored ciphertext), `unsubscribe`
//! removes, and `advance_epoch` drives TTL eviction. Every lifecycle
//! call takes `&self`, so churn and alerts can run on many threads at
//! once. Every entry point taking user input returns a typed
//! [`core::SlaError`] instead of panicking.
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use secure_location_alerts::core::{StoreBackend, SystemBuilder};
//! use secure_location_alerts::encoding::EncoderKind;
//! use secure_location_alerts::grid::{BoundingBox, Grid, ProbabilityMap};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 4, 4);
//! let probs = ProbabilityMap::uniform(16);
//! let system = SystemBuilder::new(grid)
//!     .encoder(EncoderKind::Huffman)
//!     .group_bits(48)
//!     .store(StoreBackend::ConcurrentSharded { shards: 4 })
//!     .build(&probs, &mut rng)
//!     .expect("valid configuration");
//!
//! system.subscribe_cell(1, 5, &mut rng).unwrap();
//! system.subscribe_cell(2, 5, &mut rng).unwrap();
//! system.subscribe_cell(2, 12, &mut rng).unwrap(); // user 2 moved away
//!
//! let outcome = system.issue_alert(&[5, 6], &mut rng).unwrap();
//! assert_eq!(outcome.notified, vec![1]);
//!
//! system.unsubscribe(1).unwrap();
//! assert_eq!(system.n_subscriptions(), 1);
//! ```

pub use sla_bigint as bigint;
pub use sla_core as core;
pub use sla_datasets as datasets;
pub use sla_encoding as encoding;
pub use sla_grid as grid;
pub use sla_hve as hve;
pub use sla_pairing as pairing;
pub use sla_scenarios as scenarios;
