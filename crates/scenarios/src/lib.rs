//! # sla-scenarios
//!
//! The scenario engine: epoch-by-epoch replayable workloads with
//! plaintext ground-truth oracles, covering the dynamic regimes the
//! static radius sweeps never touch:
//!
//! * **Moving zones** ([`ZoneTrajectory`]) — storm-track / contamination
//!   plume trajectories that translate, grow and shrink per epoch
//!   (*Supporting Secure Dynamic Alert Zones*, arXiv 2301.06238). Every
//!   epoch's zone is issued fresh tokens, as every alert is.
//! * **Contact-tracing bursts** ([`BurstPattern`]) — long quiet stretches
//!   of near-point zones punctuated by sudden many-cell activations
//!   against a large subscriber base.
//! * **Mixed privacy levels** ([`GranularityLevel`]) — the graded
//!   granularity hierarchy of the *Tunable Privacy-Performance
//!   Trade-off* system (arXiv 2004.09005): each user subscribes at a
//!   chosen level `k` (their cell coarsened to its `2^k × 2^k` block)
//!   and the service provider matches tokens at mixed granularities;
//!   coarser levels buy privacy with spurious notifications.
//! * **Zipf-skewed city density** ([`zipf_probabilities`]) — subscriber
//!   placement following a rank-skewed popularity surface, the regime
//!   Huffman cell codes are designed for.
//!
//! Every scenario materializes as a [`ScenarioWorkload`]: a
//! [`ChurnWorkload`](sla_datasets::ChurnWorkload) of lifecycle events
//! plus per-epoch alert zones, with oracles
//! ([`ScenarioWorkload::expected_notified_at`],
//! [`ScenarioWorkload::expected_notified_mixed`]) that let any consumer
//! check encrypted matching — at any granularity — against plaintext
//! reality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod burst;
mod privacy;
mod scenario;
mod trajectory;
mod zipf;

pub use burst::BurstPattern;
pub use privacy::GranularityLevel;
pub use scenario::{ParseScenarioError, ScenarioConfig, ScenarioKind, ScenarioWorkload};
pub use trajectory::ZoneTrajectory;
pub use zipf::{top_share, zipf_probabilities};
