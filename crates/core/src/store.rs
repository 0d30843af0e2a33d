//! Pluggable subscription storage for the Service Provider.
//!
//! The paper's system model (§2.2) is a *long-lived* service: users keep
//! re-submitting encrypted location updates as they move, so the SP's
//! store needs upsert/remove semantics that can run while an alert is
//! being matched. One seam exists,
//! [`ConcurrentSubscriptionStore`]: interior-mutability (`&self`)
//! upsert/remove/evict behind per-shard `RwLock`s, so subscription churn
//! can proceed *while* an alert is being matched.
//!
//! Two backends implement it ([`StoreBackend`]).
//! [`ConcurrentShardedStore`] is the volatile one; matching reads one
//! shard at a time through [`ConcurrentSubscriptionStore::read_shard`],
//! which holds that shard's read lock for the duration of the callback
//! (a per-shard snapshot), while writers to other shards proceed
//! untouched. [`crate::PersistentStore`] layers an `sla-persist`
//! write-ahead log underneath the same in-memory layout, so the
//! subscription base survives restarts (see
//! [`StoreBackend::Persistent`]).

use crate::durable::PersistentStore;
use crate::error::{SlaError, SlaResult};
use sla_hve::Ciphertext;
use sla_pairing::GtElem;
use sla_persist::FlushPolicy;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One stored location update, as the SP keeps it.
#[derive(Debug, Clone)]
pub struct StoredSubscription {
    /// Routing identifier (who to push the notification to).
    pub user_id: u64,
    /// The encrypted location update.
    pub ciphertext: Ciphertext,
    /// The expected payload `gt^{user_id + 1}`, precomputed at upsert
    /// time so alert matching can compare candidates **inside the
    /// Montgomery residue domain** (zero canonical conversions per pair;
    /// see `HveScheme::match_token`). Derived from the public generator
    /// and the routing id the user already disclosed — no extra leakage.
    pub expected: GtElem,
    /// Epoch of the most recent upsert (drives TTL eviction).
    pub epoch: u64,
}

/// What an upsert did to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpsertOutcome {
    /// The user had no stored update; one was added.
    Inserted,
    /// The user's previous ciphertext was replaced — the old location no
    /// longer matches any alert.
    Replaced,
}

/// Which storage backend [`crate::SystemBuilder`] assembles.
///
/// (Not `Copy` since the persistent variant carries its directory; both
/// variants stay cheap to `Clone`.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreBackend {
    /// `shards` hash-buckets, each behind its own `RwLock`: upserts and
    /// removals take only the target shard's write lock, so churn
    /// proceeds *while* a match holds read locks on other shards.
    /// The default (with 8 shards) of [`crate::SystemBuilder`] and
    /// [`crate::ServiceProvider`].
    ConcurrentSharded {
        /// Number of lock shards (must be positive).
        shards: usize,
    },
    /// The durable backend: an in-memory [`ConcurrentShardedStore`] (so
    /// matching speed is unchanged) layered over an `sla-persist`
    /// sharded log — one durability lane (WAL generations + paged
    /// snapshot) per memory shard. Mutations append one WAL frame to
    /// the owning lane under that shard's gate only; reopening the same
    /// directory recovers every lane in parallel (snapshot + WAL
    /// replay, torn final record tolerated per lane). A directory in the
    /// pre-sharding layout (root-level WAL or snapshot) is refused with
    /// `SlaError::Corrupt`. Right for long-lived services that must
    /// survive restarts without every user re-running Subscribe.
    Persistent {
        /// Directory holding `store.meta` and the `shard.NNN/` lane
        /// directories (created if absent).
        dir: PathBuf,
        /// When WAL appends are fsync'd (per-op, group commit, or
        /// manual — see [`FlushPolicy`]).
        flush: FlushPolicy,
    },
}

impl Default for StoreBackend {
    /// `ConcurrentSharded { shards: 8 }`.
    fn default() -> Self {
        StoreBackend::ConcurrentSharded { shards: 8 }
    }
}

impl StoreBackend {
    /// Builds the backend: `Err(SlaError::ZeroShardCount)` for a
    /// zero-shard layout, `Err(SlaError::Storage)` /
    /// `Err(SlaError::Corrupt)` when the persistent backend cannot open
    /// or recover its directory.
    pub(crate) fn build(self) -> SlaResult<Box<dyn ConcurrentSubscriptionStore>> {
        match self {
            StoreBackend::ConcurrentSharded { shards: 0 } => Err(SlaError::ZeroShardCount),
            StoreBackend::ConcurrentSharded { shards } => {
                Ok(Box::new(ConcurrentShardedStore::new(shards)))
            }
            StoreBackend::Persistent { dir, flush } => {
                Ok(Box::new(PersistentStore::open(&dir, flush)?))
            }
        }
    }
}

/// Deterministic shard of a user id: Fibonacci multiplicative hash —
/// stable across runs and platforms, unlike `RandomState`. Shared by
/// [`ConcurrentShardedStore`] and the persistent backend's
/// durability-lane router, so a record's memory shard and its on-disk
/// lane always agree (lane recovery and the cross-backend equivalence
/// tests rely on this).
pub(crate) fn shard_index(user_id: u64, n_shards: usize) -> usize {
    (user_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % n_shards
}

/// Storage seam for backends that support **concurrent** mutation: every
/// mutating method takes `&self`, so writer threads can upsert/remove
/// while a matcher iterates [`ConcurrentSubscriptionStore::read_shard`].
///
/// ## Locking contract
///
/// Implementations must key every record's location by `user_id` alone
/// (one record per user, always in the same shard), take at most **one**
/// internal lock per call, and never hold a lock across calls — which
/// makes the whole trait deadlock-free by construction: there is no
/// second lock to wait for while holding a first.
///
/// ## Consistency model
///
/// [`ConcurrentSubscriptionStore::read_shard`] holds the shard's read
/// lock for the whole callback, so each shard is observed as an atomic
/// snapshot and no half-written record is ever visible. A multi-shard
/// read (a match) observes different shards at different instants;
/// because a user's operations only ever touch that user's home shard,
/// the combined result still corresponds to a serializable interleaving
/// of the concurrent operations — per user, exactly the record state at
/// that shard's snapshot instant.
pub trait ConcurrentSubscriptionStore: fmt::Debug + Send + Sync {
    /// Short backend name for stats/diagnostics.
    fn backend_name(&self) -> &'static str;

    /// Number of lock shards.
    fn shard_count(&self) -> usize;

    /// Number of stored subscriptions. Exact when quiescent; while
    /// writers are active the value may transiently lag individual shard
    /// contents (it is maintained outside the shard locks).
    fn len(&self) -> usize;

    /// `true` iff no subscriptions are stored (same caveat as
    /// [`ConcurrentSubscriptionStore::len`]).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts or replaces the record for `record.user_id`, taking only
    /// the target shard's write lock.
    fn upsert(&self, record: StoredSubscription) -> UpsertOutcome;

    /// Removes the record for `user_id` (target shard's write lock);
    /// `false` if absent.
    fn remove(&self, user_id: u64) -> bool;

    /// Evicts every record with `epoch < min_epoch`, locking one shard at
    /// a time; returns how many were dropped.
    fn evict_before(&self, min_epoch: u64) -> usize;

    /// Runs `f` over shard `shard`'s records under that shard's read
    /// lock — a snapshot-consistent view of the shard. Record order is
    /// deterministic (insertion order with `swap_remove` backfill), so
    /// matchers that walk shards in index order see identical sequences
    /// on a quiescent store.
    fn read_shard(&self, shard: usize, f: &mut dyn FnMut(&[StoredSubscription]));

    // -- Durability hooks (no-ops for volatile backends) ---------------

    /// Records that the service epoch advanced to `epoch`, so a durable
    /// backend can restore it on reopen. Volatile backends ignore it.
    fn note_epoch(&self, _epoch: u64) {}

    /// The service epoch this backend recovered from stable storage, or
    /// `None` for volatile backends (and fresh directories).
    fn recovered_epoch(&self) -> Option<u64> {
        None
    }

    /// Flushes outstanding mutations to stable storage and surfaces any
    /// deferred write error. Volatile backends trivially succeed.
    fn sync(&self) -> SlaResult<()> {
        Ok(())
    }

    /// Per-lane durability stats (WAL generation and depth for every
    /// durability lane), wait-free. Empty for volatile backends.
    fn durability_lanes(&self) -> Vec<DurabilityLaneStats> {
        Vec::new()
    }
}

/// One durability lane's stats, as exposed through
/// [`crate::ServiceStats`] and the stats RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityLaneStats {
    /// The lane's shard index (aligned with the memory shard map).
    pub shard: usize,
    /// The lane's current WAL generation (bumped on each compaction
    /// rotation).
    pub wal_generation: u64,
    /// Ops appended to the lane since its last snapshot.
    pub depth: usize,
}

/// One lock shard of [`ConcurrentShardedStore`]: the records plus the
/// per-user position index, guarded together so they can never disagree.
#[derive(Debug, Default)]
struct LockShard {
    items: Vec<StoredSubscription>,
    /// `user_id` → position within `items`.
    index: HashMap<u64, usize>,
}

/// The concurrent backend: `shards` hash-buckets, each behind its own
/// `RwLock`, plus an atomic length counter. Upsert/remove/evict take one
/// shard write lock; matching takes one shard read lock at a time (see
/// the [`ConcurrentSubscriptionStore`] consistency model).
#[derive(Debug)]
pub struct ConcurrentShardedStore {
    shards: Vec<RwLock<LockShard>>,
    /// Live record count, maintained outside the shard locks (exact when
    /// quiescent).
    len: AtomicUsize,
}

impl ConcurrentShardedStore {
    /// An empty store with `shards` lock shards.
    ///
    /// # Panics
    /// Panics if `shards == 0` (the builder rejects that earlier with
    /// `SlaError::ZeroShardCount`).
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        ConcurrentShardedStore {
            shards: (0..shards)
                .map(|_| RwLock::new(LockShard::default()))
                .collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Deterministic shard of a user id (see [`shard_index`]).
    fn shard_of(&self, user_id: u64) -> usize {
        shard_index(user_id, self.shards.len())
    }

    /// Write-locks a shard, recovering from poisoning: the guarded data
    /// is only ever mutated by the panic-free operations below, so a
    /// poisoned lock (a reader panicked in a callback) still guards a
    /// consistent shard.
    fn write_shard(&self, shard: usize) -> RwLockWriteGuard<'_, LockShard> {
        self.shards[shard]
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Read-locks a shard (poison-recovering, see
    /// [`Self::write_shard`]).
    fn read_shard_guard(&self, shard: usize) -> RwLockReadGuard<'_, LockShard> {
        self.shards[shard]
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Evicts every record with `epoch < min_epoch` from **one** shard
    /// (that shard's write lock only); returns how many were dropped.
    /// The persistent backend sweeps shard-by-shard under its per-shard
    /// gates, so a full-store eviction never holds more than one lane's
    /// serialization at a time.
    pub fn evict_shard_before(&self, shard: usize, min_epoch: u64) -> usize {
        let mut guard = self.write_shard(shard);
        let before = guard.items.len();
        let LockShard { items, index } = &mut *guard;
        items.retain(|r| {
            let keep = r.epoch >= min_epoch;
            if !keep {
                index.remove(&r.user_id);
            }
            keep
        });
        let dropped = before - items.len();
        if dropped > 0 {
            // retain preserves order but shifts positions; re-index the
            // survivors of this shard.
            for (pos, r) in items.iter().enumerate() {
                index.insert(r.user_id, pos);
            }
            self.len.fetch_sub(dropped, Ordering::Relaxed);
        }
        dropped
    }
}

impl ConcurrentSubscriptionStore for ConcurrentShardedStore {
    fn backend_name(&self) -> &'static str {
        "concurrent-sharded"
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn upsert(&self, record: StoredSubscription) -> UpsertOutcome {
        let shard = self.shard_of(record.user_id);
        let mut guard = self.write_shard(shard);
        match guard.index.get(&record.user_id) {
            Some(&pos) => {
                guard.items[pos] = record;
                UpsertOutcome::Replaced
            }
            None => {
                let pos = guard.items.len();
                guard.index.insert(record.user_id, pos);
                guard.items.push(record);
                self.len.fetch_add(1, Ordering::Relaxed);
                UpsertOutcome::Inserted
            }
        }
    }

    fn remove(&self, user_id: u64) -> bool {
        let shard = self.shard_of(user_id);
        let mut guard = self.write_shard(shard);
        let Some(pos) = guard.index.remove(&user_id) else {
            return false;
        };
        guard.items.swap_remove(pos);
        if let Some(moved_id) = guard.items.get(pos).map(|r| r.user_id) {
            guard.index.insert(moved_id, pos);
        }
        self.len.fetch_sub(1, Ordering::Relaxed);
        true
    }

    fn evict_before(&self, min_epoch: u64) -> usize {
        (0..self.shards.len())
            .map(|shard| self.evict_shard_before(shard, min_epoch))
            .sum()
    }

    fn read_shard(&self, shard: usize, f: &mut dyn FnMut(&[StoredSubscription])) {
        let guard = self.read_shard_guard(shard);
        f(&guard.items);
    }
}

/// Point-in-time snapshot of a Service Provider's store and lifecycle
/// counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Backend name (`"concurrent-sharded"` or `"persistent"`).
    pub backend: &'static str,
    /// Number of shards.
    pub shards: usize,
    /// Live subscriptions.
    pub subscriptions: usize,
    /// Current epoch.
    pub epoch: u64,
    /// TTL in epochs, if eviction is enabled.
    pub ttl_epochs: Option<u64>,
    /// Lifetime count of first-time inserts.
    pub inserted: u64,
    /// Lifetime count of upserts that replaced an existing ciphertext.
    pub replaced: u64,
    /// Lifetime count of explicit unsubscribes.
    pub unsubscribed: u64,
    /// Lifetime count of TTL evictions.
    pub evicted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sla_hve::{AttributeVector, HveScheme};
    use sla_pairing::SimulatedGroup;

    /// One real (tiny) ciphertext, cloned into every test record — the
    /// store treats it as opaque bytes.
    fn fixture_ciphertext() -> Ciphertext {
        let mut rng = StdRng::seed_from_u64(1);
        let grp = SimulatedGroup::generate(24, &mut rng);
        let scheme = HveScheme::new(&grp, 2);
        let (pk, _) = scheme.setup(&mut rng);
        let attr = AttributeVector::from_bits(&[true, false]);
        scheme.encrypt(&pk, &attr, &scheme.encode_message(1), &mut rng)
    }

    fn record(ct: &Ciphertext, user_id: u64, epoch: u64) -> StoredSubscription {
        StoredSubscription {
            user_id,
            ciphertext: ct.clone(),
            expected: GtElem::identity(),
            epoch,
        }
    }

    /// All ids in the concurrent store, in deterministic shard-walk
    /// order.
    fn concurrent_ids_in_order(store: &ConcurrentShardedStore) -> Vec<u64> {
        let mut ids = Vec::new();
        for shard in 0..store.shard_count() {
            store.read_shard(shard, &mut |records| {
                ids.extend(records.iter().map(|r| r.user_id));
            });
        }
        ids
    }

    #[test]
    fn concurrent_store_lifecycle_matches_exclusive_semantics() {
        let ct = fixture_ciphertext();
        let store = ConcurrentShardedStore::new(4);
        // upsert replaces, via &self only
        assert_eq!(store.upsert(record(&ct, 7, 0)), UpsertOutcome::Inserted);
        assert_eq!(store.upsert(record(&ct, 8, 0)), UpsertOutcome::Inserted);
        assert_eq!(store.upsert(record(&ct, 7, 3)), UpsertOutcome::Replaced);
        assert_eq!(store.len(), 2);
        // remove backfills and stays addressable
        for id in 0..10 {
            store.upsert(record(&ct, id, id % 3));
        }
        assert!(store.remove(4));
        assert!(!store.remove(4));
        // evict epoch-0 records (ids 0,3,6,9; id 7 was re-upserted at 3)
        let evicted = store.evict_before(1);
        assert_eq!(evicted, 4);
        let mut left = concurrent_ids_in_order(&store);
        left.sort_unstable();
        assert_eq!(left, vec![1, 2, 5, 7, 8]);
        assert_eq!(store.len(), 5);
        for id in [1, 2, 5, 7, 8] {
            assert!(store.remove(id), "{id}");
        }
        assert!(store.is_empty());
    }

    #[test]
    fn concurrent_store_parallel_churn_converges() {
        // 4 writer threads over disjoint user ranges; the final state is
        // each user's last op regardless of interleaving.
        let ct = fixture_ciphertext();
        let store = ConcurrentShardedStore::new(8);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let store = &store;
                let ct = &ct;
                scope.spawn(move || {
                    for round in 0..20u64 {
                        for id in (w * 25)..(w * 25 + 25) {
                            store.upsert(record(ct, id, round));
                            if id % 3 == 0 {
                                store.remove(id);
                            }
                        }
                    }
                });
            }
        });
        let mut ids = concurrent_ids_in_order(&store);
        ids.sort_unstable();
        let expected: Vec<u64> = (0..100).filter(|id| id % 3 != 0).collect();
        assert_eq!(ids, expected);
        assert_eq!(store.len(), expected.len());
    }

    #[test]
    fn sharded_distribution_is_deterministic_and_total() {
        let a = ConcurrentShardedStore::new(8);
        let b = ConcurrentShardedStore::new(8);
        let ct = fixture_ciphertext();
        for id in 0..100 {
            a.upsert(record(&ct, id, 0));
            b.upsert(record(&ct, id, 0));
        }
        assert_eq!(concurrent_ids_in_order(&a), concurrent_ids_in_order(&b));
        let mut occupied = 0;
        for shard in 0..a.shard_count() {
            a.read_shard(shard, &mut |records| {
                occupied += usize::from(!records.is_empty())
            });
        }
        assert!(occupied > 1);
    }
}
