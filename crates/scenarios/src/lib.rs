//! # sla-scenarios
//!
//! Moving alert zones: [`ZoneTrajectory`], a storm-track / contamination
//! plume that translates, grows and shrinks per epoch (*Supporting
//! Secure Dynamic Alert Zones*, arXiv 2301.06238). It is a closed form in
//! the epoch index, so an encrypted alert and its plaintext oracle see
//! the same cells. Every epoch's zone is an ordinary alert and draws
//! fresh tokens. `tests/scenarios.rs` checks those alerts against the
//! oracle on every store backend, and the benchmark's `zones` workload
//! (`perfbench/`) cycles alerts over storm tracks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod trajectory;

pub use trajectory::ZoneTrajectory;
