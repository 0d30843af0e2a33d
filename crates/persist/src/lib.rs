//! # sla-persist
//!
//! Durable subscription storage for the secure location-alert service:
//! the on-disk half of the Service Provider's store.
//!
//! The paper's system model assumes a **long-lived** SP holding every
//! subscriber's HVE ciphertext; follow-up work (dynamic alert zones,
//! tunable privacy) assumes the encrypted index survives across epochs.
//! This crate makes that real with four layers:
//!
//! * [`codec`] — a canonical little-endian binary codec for stored
//!   subscriptions and WAL operations, CRC-framed
//!   (`[len][payload][crc32]`, the CRC covering the length too), and the
//!   workspace's only serialization (`sla-server` frames its wire
//!   messages with it). Group elements are encoded by their
//!   **canonical** discrete logs, the values they hold. A [`Record`]
//!   holds them as one packed row of canonical limbs, which the codec
//!   encodes from and decodes into directly.
//! * [`wal`] — an append-only write-ahead log with group-commit fsync
//!   batching ([`FlushPolicy`]); recovery tolerates a torn final record
//!   by truncating to the last complete CRC-valid frame.
//! * [`pages`] + [`log`] — per-lane background snapshot compaction: a
//!   lane's live record set is rewritten as a **paged, per-page
//!   checksummed** snapshot to `snapshot.tmp`, fsync'd, atomically
//!   renamed over `snapshot.bin`, the directory fsync'd, and stale WAL
//!   generations deleted; lane recovery replays snapshot + WAL suffix.
//! * [`sharded`] — the [`ShardedWal`] front: one independent durability
//!   lane per store shard (`shard.NNN/` directories plus a `store.meta`
//!   layout descriptor), parallel O(shards) recovery, and per-lane
//!   deferred errors aggregated so no lane's failure can be masked. A
//!   directory in the pre-sharding single-log layout is refused as
//!   corrupt, untouched.
//!
//! The service-layer integration (`sla-core`'s
//! `StoreBackend::Persistent`) layers [`ShardedWal`] under its in-memory
//! hash-sharded index, lane-aligned with the memory shards: matching
//! reads memory only, mutations append one WAL frame to the owning
//! lane. This crate knows nothing about matching or the service API —
//! it stores and recovers records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
mod error;
pub mod log;
pub mod pages;
pub mod sharded;
pub mod wal;

pub use codec::{Record, WalOp};
pub use error::{PersistError, PersistResult};
pub use log::LogOptions;
pub use sharded::{LaneStatus, ShardRouter, ShardedRecovery, ShardedWal};
pub use wal::FlushPolicy;
