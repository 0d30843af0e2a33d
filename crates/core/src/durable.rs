//! [`PersistentStore`]: the durable subscription-store backend.
//!
//! Layered design: the authoritative *matching* state is an in-memory
//! [`ConcurrentShardedStore`] (identical layout and shard hash to the
//! volatile concurrent backend, so match outcomes are byte-identical),
//! and every mutation is additionally appended to an `sla-persist`
//! [`ShardedWal`] — one durability lane per memory shard, lane-aligned
//! with the shard map — right after it is applied. Matching therefore
//! runs at exactly in-memory speed — reads never touch the log — and
//! **only mutations pay the durability cost** (one codec pass + one
//! buffered write to the owning lane, plus an fsync per the
//! [`FlushPolicy`]). The WAL and the memory shards share one record
//! vocabulary, [`Record`]: a packed row of canonical limbs, which the
//! codec writes and reads without converting a log.
//!
//! ## Recovery
//!
//! Opening a directory replays every lane (snapshot + WAL) in parallel;
//! the codec decodes each record straight into its packed row, at the
//! width of the record's widest log, and the rows are copied into the
//! shards' slabs. No group exists yet at open, so the rows keep that
//! width until the Service Provider brings the store to its group
//! ([`ConcurrentSubscriptionStore::fit_rows`]).
//!
//! ## Ordering
//!
//! One gate mutex **per shard** serializes that shard's mutations, so
//! each lane's WAL append order equals its shard's in-memory apply
//! order — replaying the lanes is guaranteed to rebuild the exact live
//! set. There is no global serialization anywhere: a user's upsert
//! contends only with writers of the same shard, so writers of different
//! shards proceed in parallel, as on the volatile concurrent backend.
//! Cross-shard order is deliberately unconstrained — every user lives
//! in exactly one shard, so ops on different shards commute (the
//! cross-backend equivalence suite pins this). Ops that span shards
//! (`note_epoch`, `evict_before`) are logged lane-by-lane under each
//! lane's gate; both replay idempotently and order-free across lanes.
//!
//! Reads take only the inner store's shard read locks and never a gate,
//! preserving the churn-while-matching property; lock order is always
//! one gate → that shard's lock, and readers take a single shard lock,
//! so no interleaving can deadlock.
//!
//! ## Compaction
//!
//! Budgets are per lane: when the ops appended to a lane since its last
//! snapshot exceed `compact_after_ops / shards`, that lane's WAL is
//! rotated (under its gate, so the cut is exact) and the shard's live
//! records are handed to a background thread that writes, fsyncs and
//! atomically promotes a new **paged** snapshot for that lane only,
//! then deletes its stale WAL generations. Other lanes keep appending
//! throughout. See `sla_persist::sharded` for the directory layout and
//! the crash matrix.

use crate::error::{SlaError, SlaResult};
use crate::store::{
    shard_index, ConcurrentShardedStore, ConcurrentSubscriptionStore, DurabilityLaneStats,
    ShardRecords, UpsertOutcome,
};
use sla_pairing::BigUint;
use sla_persist::{FlushPolicy, LogOptions, Record, ShardedWal, WalOp};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Lock shards of the in-memory index backing the durable store, and the
/// number of durability lanes: lanes are aligned 1:1 with the memory
/// shards. Twice the volatile backend's default of 8, and fixed: it is
/// recorded in a directory's `store.meta`, which refuses another count.
const MEMORY_SHARDS: usize = 16;

/// Ops appended across all lanes since their last snapshots before
/// compaction triggers (divided evenly into per-lane budgets).
const COMPACT_AFTER_OPS: usize = 4096;

/// The durable backend behind [`crate::StoreBackend::Persistent`] (see
/// the module docs for the design).
#[derive(Debug)]
pub struct PersistentStore {
    /// The in-memory matching index (authoritative for reads).
    inner: ConcurrentShardedStore,
    /// The durable lanes (authoritative across restarts), one per
    /// memory shard.
    wal: ShardedWal,
    /// Per-shard gates: gate `s` serializes shard `s`'s mutations so
    /// lane `s`'s WAL order equals shard `s`'s apply order. No global
    /// gate exists.
    gates: Vec<Mutex<()>>,
    /// The epoch recovered at open (what the Service Provider resumes
    /// from), or 0 for a fresh directory.
    recovered_epoch: Option<u64>,
    /// The latest epoch noted, snapshotted alongside the records.
    epoch: AtomicU64,
}

impl PersistentStore {
    /// Opens (creating if necessary) the durable store at `dir`,
    /// recovering the subscription base from every lane's snapshot + WAL
    /// replay in parallel. A torn final WAL record in any lane is
    /// truncated away; corruption anywhere else — and a directory in the
    /// pre-sharding layout — surfaces as [`SlaError::Corrupt`].
    pub fn open(dir: &Path, flush: FlushPolicy) -> SlaResult<Self> {
        Self::open_with(dir, flush, COMPACT_AFTER_OPS)
    }

    /// [`Self::open`] with an explicit total compaction budget, divided
    /// evenly into per-lane budgets (tests drive compaction with small
    /// budgets).
    pub fn open_with(dir: &Path, flush: FlushPolicy, compact_after_ops: usize) -> SlaResult<Self> {
        let (wal, recovered) = ShardedWal::open(
            dir,
            MEMORY_SHARDS,
            shard_index,
            LogOptions {
                flush,
                compact_after_ops: (compact_after_ops / MEMORY_SHARDS).max(1),
            },
        )?;
        let inner = ConcurrentShardedStore::new(MEMORY_SHARDS);
        let fresh = recovered.records.is_empty() && recovered.epoch == 0;
        for record in recovered.records {
            inner.upsert(record).map_err(|e| SlaError::Corrupt {
                detail: format!("recovered records disagree on the HVE width: {e}"),
            })?;
        }
        Ok(PersistentStore {
            inner,
            wal,
            gates: (0..MEMORY_SHARDS).map(|_| Mutex::new(())).collect(),
            recovered_epoch: (!fresh).then_some(recovered.epoch),
            epoch: AtomicU64::new(recovered.epoch),
        })
    }

    fn gate(&self, shard: usize) -> MutexGuard<'_, ()> {
        self.gates[shard]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Appends `op` to `shard`'s lane under that shard's (held) gate;
    /// when the lane's compaction budget is exhausted, rotates its WAL
    /// and hands the shard's live records to the background snapshot
    /// writer. Only this shard is touched — other lanes compact on
    /// their own schedules.
    ///
    /// Callers must apply the op to the in-memory index **before**
    /// calling this: the compaction snapshot is collected from the inner
    /// store here, so an op logged before it was applied would be
    /// missing from a snapshot whose covered WAL generation (holding the
    /// op) compaction then deletes — losing the op across a restart.
    fn append_gated(&self, shard: usize, op: &WalOp) {
        if self.wal.append(shard, op) && !self.wal.compaction_in_flight(shard) {
            let mut live = Vec::new();
            self.inner.read_shard(shard, &mut |records| {
                live.extend((0..records.len()).map(|i| records.record(i)));
            });
            if let Err(e) = self
                .wal
                .compact(shard, live, self.epoch.load(Ordering::Relaxed))
            {
                self.wal.defer_error(shard, e);
            }
        }
    }
}

impl ConcurrentSubscriptionStore for PersistentStore {
    fn backend_name(&self) -> &'static str {
        "persistent"
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn upsert(&self, record: Record) -> SlaResult<UpsertOutcome> {
        let shard = shard_index(record.user_id, MEMORY_SHARDS);
        let _gate = self.gate(shard);
        // Apply-then-log (see `append_gated`): the in-memory index takes
        // a copy of the row first, and only then is the op logged, so a
        // compaction triggered by this very append snapshots a live set
        // that already contains the record. A refused record is not
        // logged.
        let outcome = self.inner.upsert_record(&record)?;
        self.append_gated(shard, &WalOp::Upsert(record));
        Ok(outcome)
    }

    fn remove(&self, user_id: u64) -> bool {
        let shard = shard_index(user_id, MEMORY_SHARDS);
        let _gate = self.gate(shard);
        // Logging an absent removal would be harmless on replay (it is
        // idempotent) but would bloat the WAL under repeated misses, so
        // check membership first — the gate makes the check-then-log
        // window race-free.
        if !self.inner.remove(user_id) {
            return false;
        }
        self.append_gated(shard, &WalOp::Remove { user_id });
        true
    }

    fn evict_before(&self, min_epoch: u64) -> usize {
        // Shard-by-shard under each shard's gate: eviction of shard s
        // and a racing upsert into shard t interleave freely (they
        // commute), while within one shard the gate keeps lane order
        // equal to apply order. The op is logged only in lanes that
        // actually evicted something (replay is a per-record predicate,
        // so lanes that skipped it recover identically).
        let mut evicted = 0;
        for shard in 0..self.inner.shard_count() {
            let _gate = self.gate(shard);
            let dropped = self.inner.evict_shard_before(shard, min_epoch);
            if dropped > 0 {
                self.append_gated(shard, &WalOp::EvictBefore { min_epoch });
            }
            evicted += dropped;
        }
        evicted
    }

    fn read_shard(&self, shard: usize, f: &mut dyn FnMut(&ShardRecords)) {
        self.inner.read_shard(shard, f);
    }

    fn fit_rows(&self, n: &BigUint) {
        // Memory only: the log keeps the canonical logs it was given,
        // and a log the fit reduced is the same group element.
        self.inner.fit_rows(n);
    }

    fn note_epoch(&self, epoch: u64) {
        // fetch_max, not store: the Service Provider's epoch counter is
        // bumped *outside* the gates, so two racing advances can arrive
        // here out of order — the snapshot epoch must never regress
        // (WAL replay already takes the max of the Epoch ops).
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
        // Broadcast to every lane, each under its own gate, so every
        // lane independently recovers the full service epoch no matter
        // which subset of lanes survives to replay (lane recovery takes
        // the max across lanes).
        for shard in 0..self.inner.shard_count() {
            let _gate = self.gate(shard);
            self.append_gated(shard, &WalOp::Epoch { epoch });
        }
    }

    fn recovered_epoch(&self) -> Option<u64> {
        self.recovered_epoch
    }

    fn sync(&self) -> SlaResult<()> {
        // Aggregated across lanes: every failed lane's deferred error is
        // surfaced (one healthy lane can never mask a broken one).
        self.wal.sync().map_err(SlaError::from)
    }

    fn durability_lanes(&self) -> Vec<DurabilityLaneStats> {
        self.wal
            .lane_status()
            .into_iter()
            .map(|lane| DurabilityLaneStats {
                shard: lane.shard,
                wal_generation: lane.generation,
                depth: lane.depth,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sla_hve::{AttributeVector, Ciphertext, HveScheme};
    use sla_pairing::{GtElem, SimulatedGroup};
    use sla_persist::PersistError;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64 as TestSeq, Ordering as TestOrdering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: TestSeq = TestSeq::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sla-core-durable-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, TestOrdering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

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

    fn all_ids(store: &PersistentStore) -> Vec<u64> {
        let mut ids = Vec::new();
        for shard in 0..store.shard_count() {
            store.read_shard(shard, &mut |records| {
                ids.extend_from_slice(records.user_ids());
            });
        }
        ids.sort_unstable();
        ids
    }

    #[test]
    fn lifecycle_survives_reopen() {
        let dir = temp_dir("lifecycle");
        let ct = fixture_ciphertext();
        {
            let store = PersistentStore::open(&dir, FlushPolicy::EveryOp).unwrap();
            assert_eq!(store.recovered_epoch(), None, "fresh directory");
            for id in 0..10 {
                assert_eq!(
                    store.upsert(record(&ct, id, 0)).unwrap(),
                    UpsertOutcome::Inserted
                );
            }
            assert_eq!(
                store.upsert(record(&ct, 3, 2)).unwrap(),
                UpsertOutcome::Replaced
            );
            assert!(store.remove(4));
            assert!(!store.remove(4));
            store.note_epoch(1);
            assert_eq!(store.evict_before(1), 8, "epoch-0 records evicted");
            store.sync().unwrap();
        }
        let store = PersistentStore::open(&dir, FlushPolicy::EveryOp).unwrap();
        assert_eq!(all_ids(&store), vec![3]);
        assert_eq!(store.recovered_epoch(), Some(1));
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_layout_matches_volatile_concurrent_store() {
        // Same shard hash + count => identical shard-walk order, which
        // is what keeps match outcomes byte-identical across a restart.
        let dir = temp_dir("layout");
        let ct = fixture_ciphertext();
        let volatile = ConcurrentShardedStore::new(MEMORY_SHARDS);
        {
            let store = PersistentStore::open(&dir, FlushPolicy::Manual).unwrap();
            for id in [9, 2, 77, 41, 5, 63, 18] {
                store.upsert(record(&ct, id, 0)).unwrap();
                volatile.upsert(record(&ct, id, 0)).unwrap();
            }
            store.sync().unwrap();
        }
        let store = PersistentStore::open(&dir, FlushPolicy::Manual).unwrap();
        let mut volatile_ids = Vec::new();
        for shard in 0..volatile.shard_count() {
            volatile.read_shard(shard, &mut |records| {
                volatile_ids.extend_from_slice(records.user_ids());
            });
        }
        let mut persistent_ids = Vec::new();
        for shard in 0..store.shard_count() {
            store.read_shard(shard, &mut |records| {
                persistent_ids.extend_from_slice(records.user_ids());
            });
        }
        assert_eq!(persistent_ids, volatile_ids, "shard-walk order");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_triggering_upsert_survives_restart() {
        // Regression: the append that trips the op budget used to be
        // logged *before* it was applied to the in-memory index, so the
        // compaction snapshot (collected from that index) missed it
        // while its WAL op sat in the covered generation compaction
        // deletes — silently losing exactly that record on reopen. With
        // per-lane budgets (total 16 → 1 per lane) every upsert here
        // trips its own lane's budget, so the window is exercised on
        // every shard the ids land in.
        let dir = temp_dir("trigger");
        let ct = fixture_ciphertext();
        {
            let store = PersistentStore::open_with(&dir, FlushPolicy::EveryOp, 16).unwrap();
            for id in 0..8 {
                store.upsert(record(&ct, id, 0)).unwrap();
            }
            store.sync().unwrap();
        }
        let store = PersistentStore::open_with(&dir, FlushPolicy::EveryOp, 16).unwrap();
        assert_eq!(
            all_ids(&store),
            (0..8).collect::<Vec<_>>(),
            "the compaction-triggering record must survive the restart"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_epoch_notes_never_regress_the_snapshot_epoch() {
        // Regression: two racing `advance_epoch` calls can reach
        // `note_epoch` out of order (the SP bumps its counter outside
        // the gates). The snapshot epoch must keep the maximum, or a
        // compaction that deletes the covered WAL generation (and the
        // higher Epoch op with it) would recover a regressed epoch.
        let dir = temp_dir("epoch-race");
        let ct = fixture_ciphertext();
        {
            let store = PersistentStore::open_with(&dir, FlushPolicy::EveryOp, 16).unwrap();
            store.note_epoch(6);
            store.note_epoch(5); // out-of-order arrival
            store.upsert(record(&ct, 1, 6)).unwrap();
            store.upsert(record(&ct, 2, 6)).unwrap();
            store.sync().unwrap();
            store.wal.join_compactors().unwrap();
        }
        let store = PersistentStore::open_with(&dir, FlushPolicy::EveryOp, 16).unwrap();
        assert_eq!(store.recovered_epoch(), Some(6), "epoch must not regress");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_truncates_wal_and_preserves_state() {
        let dir = temp_dir("compact");
        let ct = fixture_ciphertext();
        {
            let store = PersistentStore::open_with(&dir, FlushPolicy::EveryOp, 16).unwrap();
            for round in 0..4u64 {
                for id in 0..10 {
                    store.upsert(record(&ct, id, round)).unwrap();
                }
            }
            store.sync().unwrap();
            store.wal.join_compactors().unwrap();
        }
        // At least one lane compacted and promoted its paged snapshot.
        let promoted = (0..MEMORY_SHARDS).any(|s| {
            dir.join(sla_persist::sharded::shard_dir_name(s))
                .join("snapshot.bin")
                .exists()
        });
        assert!(promoted, "compaction promoted in at least one lane");
        let store = PersistentStore::open_with(&dir, FlushPolicy::EveryOp, 16).unwrap();
        assert_eq!(all_ids(&store), (0..10).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_gates_are_strictly_per_shard() {
        // Structural pin for the sharding refactor: durability gates are
        // strictly per shard. A global gate would re-serialize every
        // writer the moment the persistent backend is selected.
        let source = include_str!("durable.rs");
        assert!(
            !source.contains(concat!("write", "_gate")),
            "durable.rs must not reintroduce a global write gate"
        );
        let dir = temp_dir("gates");
        let store = PersistentStore::open(&dir, FlushPolicy::Manual).unwrap();
        assert_eq!(store.gates.len(), store.shard_count(), "one gate per shard");
        assert_eq!(store.durability_lanes().len(), store.shard_count());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writers_on_different_shards_do_not_serialize() {
        // Hold shard A's gate hostage from one thread; a writer to a
        // different shard must complete anyway. (With a global gate this
        // deadlocks the 2-second window and fails.)
        let dir = temp_dir("parallel");
        let ct = fixture_ciphertext();
        let store = PersistentStore::open(&dir, FlushPolicy::Manual).unwrap();
        // Find two users on different shards.
        let (a, b) = {
            let a = 1u64;
            let sa = shard_index(a, MEMORY_SHARDS);
            let b = (2..)
                .find(|&b| shard_index(b, MEMORY_SHARDS) != sa)
                .unwrap();
            (a, b)
        };
        let gate_a = store.gate(shard_index(a, MEMORY_SHARDS));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| store.upsert(record(&ct, b, 0)).unwrap());
            // The cross-shard upsert finishes while gate A is held.
            let mut waited = 0;
            while !handle.is_finished() && waited < 2000 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                waited += 1;
            }
            assert!(
                handle.is_finished(),
                "upsert to shard {} blocked behind shard {}'s gate",
                shard_index(b, MEMORY_SHARDS),
                shard_index(a, MEMORY_SHARDS)
            );
            assert_eq!(handle.join().unwrap(), UpsertOutcome::Inserted);
        });
        drop(gate_a);
        store.sync().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_surfaces_every_failed_lane() {
        // Satellite-6 pin at the store level: deferred errors in two
        // lanes surface as one aggregated error naming both shards —
        // sync on a store with one broken lane must never report clean
        // because another lane succeeded.
        let dir = temp_dir("aggregate");
        let store = PersistentStore::open(&dir, FlushPolicy::Manual).unwrap();
        store.wal.defer_error(
            2,
            PersistError::io(
                "fsync wal",
                dir.join("shard.002/wal.000001"),
                std::io::Error::other("disk gone"),
            ),
        );
        store.wal.defer_error(
            11,
            PersistError::io(
                "fsync wal",
                dir.join("shard.011/wal.000001"),
                std::io::Error::other("disk gone too"),
            ),
        );
        match store.sync() {
            Err(SlaError::Storage { detail }) => {
                assert!(
                    detail.contains("[shard 2]") && detail.contains("[shard 11]"),
                    "both failed lanes must be reported: {detail}"
                );
            }
            other => panic!("expected aggregated storage error, got {other:?}"),
        }
        // Slots drained; next sync is clean.
        store.sync().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
