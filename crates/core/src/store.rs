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
//! ## Layout
//!
//! A shard keeps its records in columns ([`ShardRecords`]): `user_id`
//! and `epoch` side by side with one flat slab of packed rows
//! ([`QueryRows`]), record `i` in position `i` of all three. A row holds
//! the ciphertext's `2l + 3` canonical logs — `C'`, `C_0`, the `2l`
//! components and the expected payload — zero-extended to the group
//! order's `K` limbs, so a record costs `(2l + 3)·K` limbs plus two
//! words, with no heap allocation per operand, and the matcher sweeps
//! the slab in place. Rows recovered from a durable directory arrive at
//! the width of their widest log, before any group is known;
//! [`ConcurrentSubscriptionStore::fit_rows`] brings every shard to the
//! group once the Service Provider sees one.
//!
//! Two backends implement the seam ([`StoreBackend`]).
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
use sla_pairing::{BigUint, QueryRows};
use sla_persist::{FlushPolicy, Record};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

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
    /// `Err(SlaError::WidthMismatch)` when the shard holds rows of
    /// another HVE width.
    fn upsert(&self, record: Record) -> SlaResult<UpsertOutcome>;

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
    fn read_shard(&self, shard: usize, f: &mut dyn FnMut(&ShardRecords));

    /// Brings every shard's rows to the group of order `n`, one shard
    /// write lock at a time: each operand not below `n` is reduced mod
    /// `n`, and the slab is re-strided to `n`'s limb count. The Service
    /// Provider calls this once, the first time it sees a scheme, before
    /// it stores or matches a row.
    fn fit_rows(&self, n: &BigUint);

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

/// One shard's records in columns: record `i` is `user_ids()[i]`,
/// `epochs()[i]` and row `i` of `rows()`. The per-user position index
/// lives beside them under the same lock, so the four never disagree.
#[derive(Debug, Default)]
pub struct ShardRecords {
    user_ids: Vec<u64>,
    epochs: Vec<u64>,
    rows: QueryRows,
    /// `user_id` → position.
    index: HashMap<u64, usize>,
}

impl ShardRecords {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.user_ids.len()
    }

    /// `true` iff the shard holds no record.
    pub fn is_empty(&self) -> bool {
        self.user_ids.is_empty()
    }

    /// Each record's routing id, in record order.
    pub fn user_ids(&self) -> &[u64] {
        &self.user_ids
    }

    /// Each record's epoch of its most recent upsert, in record order.
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// Each record's packed row, in record order.
    pub fn rows(&self) -> &QueryRows {
        &self.rows
    }

    /// Record `i` as an owned [`Record`] (its row at the slab's width).
    pub fn record(&self, i: usize) -> Record {
        Record {
            user_id: self.user_ids[i],
            epoch: self.epochs[i],
            row: self.rows.packed(i),
        }
    }

    fn upsert(&mut self, record: &Record) -> SlaResult<UpsertOutcome> {
        let width = record.row.shape().width;
        if !self.is_empty() && self.rows.shape().width != width {
            return Err(SlaError::WidthMismatch {
                expected: self.rows.shape().width,
                actual: width,
            });
        }
        match self.index.entry(record.user_id) {
            Entry::Occupied(slot) => {
                let pos = *slot.get();
                self.rows.replace(pos, &record.row);
                self.epochs[pos] = record.epoch;
                Ok(UpsertOutcome::Replaced)
            }
            Entry::Vacant(slot) => {
                slot.insert(self.user_ids.len());
                self.rows.push(&record.row);
                self.user_ids.push(record.user_id);
                self.epochs.push(record.epoch);
                Ok(UpsertOutcome::Inserted)
            }
        }
    }

    fn remove(&mut self, user_id: u64) -> bool {
        let Some(pos) = self.index.remove(&user_id) else {
            return false;
        };
        self.user_ids.swap_remove(pos);
        self.epochs.swap_remove(pos);
        self.rows.swap_remove(pos);
        if let Some(&moved_id) = self.user_ids.get(pos) {
            self.index.insert(moved_id, pos);
        }
        true
    }

    /// Drops every record with `epoch < min_epoch`, keeping the order of
    /// the rest; returns how many were dropped.
    fn evict_before(&mut self, min_epoch: u64) -> usize {
        let before = self.len();
        let keep: Vec<bool> = self.epochs.iter().map(|&e| e >= min_epoch).collect();
        let dropped = keep.iter().filter(|k| !**k).count();
        if dropped == 0 {
            return 0;
        }
        let mut i = 0;
        self.user_ids.retain(|_| {
            i += 1;
            keep[i - 1]
        });
        self.epochs.retain(|e| *e >= min_epoch);
        self.rows.retain(|i| keep[i]);
        // retain shifts positions; re-index this shard's survivors.
        self.index.clear();
        for (pos, user_id) in self.user_ids.iter().enumerate() {
            self.index.insert(*user_id, pos);
        }
        debug_assert_eq!(before - self.len(), dropped);
        dropped
    }
}

/// The concurrent backend: `shards` hash-buckets, each behind its own
/// `RwLock`, plus an atomic length counter. Upsert/remove/evict take one
/// shard write lock; matching takes one shard read lock at a time (see
/// the [`ConcurrentSubscriptionStore`] consistency model).
#[derive(Debug)]
pub struct ConcurrentShardedStore {
    shards: Vec<RwLock<ShardRecords>>,
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
                .map(|_| RwLock::new(ShardRecords::default()))
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
    fn write_shard(&self, shard: usize) -> RwLockWriteGuard<'_, ShardRecords> {
        self.shards[shard]
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Read-locks a shard (poison-recovering, see
    /// [`Self::write_shard`]).
    fn read_shard_guard(&self, shard: usize) -> RwLockReadGuard<'_, ShardRecords> {
        self.shards[shard]
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// [`ConcurrentSubscriptionStore::upsert`] from a borrowed record,
    /// whose row is copied into the shard's slab.
    pub(crate) fn upsert_record(&self, record: &Record) -> SlaResult<UpsertOutcome> {
        let outcome = self
            .write_shard(self.shard_of(record.user_id))
            .upsert(record)?;
        if outcome == UpsertOutcome::Inserted {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        Ok(outcome)
    }

    /// Evicts every record with `epoch < min_epoch` from **one** shard
    /// (that shard's write lock only); returns how many were dropped.
    /// The persistent backend sweeps shard-by-shard under its per-shard
    /// gates, so a full-store eviction never holds more than one lane's
    /// serialization at a time.
    pub fn evict_shard_before(&self, shard: usize, min_epoch: u64) -> usize {
        let dropped = self.write_shard(shard).evict_before(min_epoch);
        self.len.fetch_sub(dropped, Ordering::Relaxed);
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

    fn upsert(&self, record: Record) -> SlaResult<UpsertOutcome> {
        self.upsert_record(&record)
    }

    fn remove(&self, user_id: u64) -> bool {
        let removed = self.write_shard(self.shard_of(user_id)).remove(user_id);
        if removed {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    fn evict_before(&self, min_epoch: u64) -> usize {
        (0..self.shards.len())
            .map(|shard| self.evict_shard_before(shard, min_epoch))
            .sum()
    }

    fn read_shard(&self, shard: usize, f: &mut dyn FnMut(&ShardRecords)) {
        f(&self.read_shard_guard(shard));
    }

    fn fit_rows(&self, n: &BigUint) {
        for shard in 0..self.shards.len() {
            self.write_shard(shard).rows.fit(n);
        }
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
    use sla_hve::{AttributeVector, Ciphertext, HveScheme};
    use sla_pairing::{GtElem, PackedRow, RowShape, SimulatedGroup};

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

    fn record(ct: &Ciphertext, user_id: u64, epoch: u64) -> Record {
        Record {
            user_id,
            epoch,
            row: ct.to_row(&GtElem::identity()),
        }
    }

    /// All ids in the concurrent store, in deterministic shard-walk
    /// order.
    fn concurrent_ids_in_order(store: &ConcurrentShardedStore) -> Vec<u64> {
        let mut ids = Vec::new();
        for shard in 0..store.shard_count() {
            store.read_shard(shard, &mut |records| {
                ids.extend_from_slice(records.user_ids());
            });
        }
        ids
    }

    #[test]
    fn concurrent_store_lifecycle_matches_exclusive_semantics() {
        let ct = fixture_ciphertext();
        let store = ConcurrentShardedStore::new(4);
        // upsert replaces, via &self only
        assert_eq!(
            store.upsert(record(&ct, 7, 0)).unwrap(),
            UpsertOutcome::Inserted
        );
        assert_eq!(
            store.upsert(record(&ct, 8, 0)).unwrap(),
            UpsertOutcome::Inserted
        );
        assert_eq!(
            store.upsert(record(&ct, 7, 3)).unwrap(),
            UpsertOutcome::Replaced
        );
        assert_eq!(store.len(), 2);
        // remove backfills and stays addressable
        for id in 0..10 {
            store.upsert(record(&ct, id, id % 3)).unwrap();
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
                            store.upsert(record(ct, id, round)).unwrap();
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
            a.upsert(record(&ct, id, 0)).unwrap();
            b.upsert(record(&ct, id, 0)).unwrap();
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

    /// A row of width 1 whose operands name its record: `C'` the user,
    /// `C_0` the epoch, the rest their sum, at `limbs` limbs per operand
    /// (the top limb of `C'` set when wider than one).
    fn named_row(user_id: u64, epoch: u64, limbs: usize) -> PackedRow {
        let mut row = PackedRow::zeroed(RowShape { width: 1, limbs });
        row.operand_mut(RowShape::C_PRIME)[0] = user_id;
        row.operand_mut(RowShape::C_PRIME)[limbs - 1] |= u64::from(limbs > 1) << 63;
        row.operand_mut(RowShape::C0)[0] = epoch;
        for idx in 2..row.shape().operands() {
            row.operand_mut(idx)[0] = user_id + epoch;
        }
        row
    }

    #[test]
    fn slab_stays_aligned_with_its_columns_through_churn() {
        let store = ConcurrentShardedStore::new(3);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x5eed_u64;
        for step in 0..600u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let user = (state >> 33) % 40;
            match (state >> 20) % 5 {
                0 => {
                    assert_eq!(store.remove(user), model.remove(&user).is_some());
                }
                1 if step % 50 == 0 => {
                    let min_epoch = step / 10;
                    let before = model.len();
                    model.retain(|_, e| *e >= min_epoch);
                    assert_eq!(store.evict_before(min_epoch), before - model.len());
                }
                _ => {
                    // Mostly one limb, sometimes two: the slab widens.
                    let limbs = 1 + usize::from(step % 97 == 0);
                    let epoch = step / 10;
                    let record = Record {
                        user_id: user,
                        epoch,
                        row: named_row(user, epoch, limbs),
                    };
                    let outcome = store.upsert(record).unwrap();
                    let was = model.insert(user, epoch);
                    assert_eq!(outcome == UpsertOutcome::Replaced, was.is_some());
                }
            }
        }
        let mut seen = 0;
        for shard in 0..store.shard_count() {
            store.read_shard(shard, &mut |records| {
                let (n, shape) = (records.len(), records.rows().shape());
                assert_eq!(records.rows().as_limbs().len(), n * shape.stride());
                assert_eq!(records.rows().len(), n);
                assert_eq!(records.epochs().len(), n);
                for i in 0..n {
                    let (user, epoch) = (records.user_ids()[i], records.epochs()[i]);
                    assert_eq!(model.get(&user), Some(&epoch), "shard {shard} slot {i}");
                    let row = records.rows().row(i);
                    assert_eq!(
                        row[RowShape::C_PRIME * shape.limbs],
                        user,
                        "row {i} is user {user}'s"
                    );
                    assert_eq!(
                        row[RowShape::C0 * shape.limbs],
                        epoch,
                        "row {i} is the latest"
                    );
                    assert_eq!(records.index[&user], i);
                }
                assert_eq!(records.index.len(), n);
                seen += n;
            });
        }
        assert_eq!(seen, model.len());
        assert_eq!(store.len(), model.len());
    }

    #[test]
    fn fit_rows_narrows_to_the_order_and_reduces() {
        let store = ConcurrentShardedStore::new(2);
        let n = BigUint::from_u64(1_000_003);
        store
            .upsert(Record {
                user_id: 1,
                epoch: 0,
                row: named_row(1, 0, 2),
            })
            .unwrap();
        store
            .upsert(Record {
                user_id: 2,
                epoch: 0,
                row: named_row(2_000_010, 0, 1),
            })
            .unwrap();
        store.fit_rows(&n);
        let mut c_primes = Vec::new();
        for shard in 0..store.shard_count() {
            store.read_shard(shard, &mut |records| {
                assert!(records.is_empty() || records.rows().shape().limbs == 1);
                for i in 0..records.len() {
                    c_primes.push(records.rows().row(i)[RowShape::C_PRIME]);
                }
            });
        }
        c_primes.sort_unstable();
        // 1 + 2^127 and 2,000,010 reduced mod 1,000,003.
        let wide = &(&BigUint::one().shl_bits(127) + &BigUint::one()) % &n;
        let mut want = vec![wide.low_u64(), 2_000_010 % 1_000_003];
        want.sort_unstable();
        assert_eq!(c_primes, want);
    }

    #[test]
    fn a_shard_refuses_rows_of_another_width() {
        let store = ConcurrentShardedStore::new(1);
        let ct = fixture_ciphertext();
        store.upsert(record(&ct, 1, 0)).unwrap();
        let other = Record {
            user_id: 2,
            epoch: 0,
            row: named_row(2, 0, 1),
        };
        assert_eq!(
            store.upsert(other).unwrap_err(),
            SlaError::WidthMismatch {
                expected: 2,
                actual: 1
            }
        );
        assert_eq!(store.len(), 1);
    }
}
