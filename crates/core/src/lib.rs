//! # sla-core
//!
//! The end-to-end **secure location-based alert protocol** of the paper
//! (Fig. 1/Fig. 3), assembled from the substrate crates:
//!
//! * Mobile users map their position to a grid cell, look up the cell's
//!   index in the public codebook, and HVE-encrypt it for the Service
//!   Provider ([`MobileUser`]).
//! * The Trusted Authority holds the HVE secret key and the coding tree;
//!   on an alert it runs deterministic minimization and issues search
//!   tokens ([`TrustedAuthority`]).
//! * The Service Provider stores ciphertexts and evaluates every token
//!   against every ciphertext, learning only the match outcome
//!   ([`ServiceProvider`]).
//!
//! [`AlertSystem`] wires the three parties together over a shared bilinear
//! group engine — built through the fallible [`SystemBuilder`], with a
//! pluggable [`ConcurrentSubscriptionStore`] (volatile or durable, see
//! [`StoreBackend`]) and an upsert/unsubscribe/TTL subscription lifecycle
//! whose every call takes `&self` — and [`metrics`] provides the *analytic*
//! pairing-cost evaluation used by the figure experiments (the paper
//! reports pairing counts; the test-suite proves the analytic counts
//! equal the live engine's counters).
//!
//! No `panic!`/`assert!` is reachable through the public service API on
//! user-supplied input: every such path returns a typed [`SlaError`].
//!
//! ## Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use sla_core::{StoreBackend, SystemBuilder};
//! use sla_encoding::EncoderKind;
//! use sla_grid::{Grid, ProbabilityMap};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let grid = Grid::new(sla_grid::BoundingBox::new(0.0, 0.0, 0.1, 0.1), 2, 2);
//! let probs = ProbabilityMap::new(vec![0.4, 0.1, 0.3, 0.2]);
//! let system = SystemBuilder::new(grid)
//!     .encoder(EncoderKind::Huffman)
//!     .group_bits(48)
//!     .store(StoreBackend::ConcurrentSharded { shards: 2 })
//!     .build(&probs, &mut rng)
//!     .expect("valid configuration");
//!
//! system.subscribe_cell(7, 0, &mut rng).unwrap(); // user 7 in cell 0
//! system.subscribe_cell(9, 3, &mut rng).unwrap(); // user 9 in cell 3
//! system.subscribe_cell(9, 1, &mut rng).unwrap(); // user 9 moved
//!
//! let outcome = system.issue_alert(&[0, 1], &mut rng).unwrap();
//! assert_eq!(outcome.notified, vec![7, 9]); // both now inside
//! assert_eq!(outcome.pairings_used, outcome.analytic_pairings);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod durable;
mod entities;
mod error;
pub mod metrics;
mod store;
mod system;

pub use convert::{codeword_to_pattern, index_to_attribute};
pub use durable::PersistentStore;
pub use entities::{
    AlertMatch, MobileUser, ServiceProvider, ServiceStats, Subscription, TrustedAuthority,
};
pub use error::{SlaError, SlaResult, MAX_GROUP_BITS, MIN_GROUP_BITS};
pub use store::{
    ConcurrentShardedStore, ConcurrentSubscriptionStore, DurabilityLaneStats, ShardRecords,
    StoreBackend, StoreStats, UpsertOutcome,
};
pub use system::{AlertOutcome, AlertSystem, SystemBuilder};

// The flush policy is part of `StoreBackend::Persistent`'s surface, and
// the record is what the store seam stores.
pub use sla_persist::{FlushPolicy, Record};
