//! `Lane`: one durability lane — recovery, appending, and background
//! snapshot compaction over one lane directory.
//!
//! A lane is the single-log engine the sharded store runs one-per-shard
//! (see [`crate::sharded`] for the layout and routing). Each lane owns
//! its own directory:
//!
//! ```text
//! <lane dir>/snapshot.bin   # promoted paged snapshot (atomic rename)
//! <lane dir>/snapshot.tmp   # in-flight snapshot (stray = crashed; deleted)
//! <lane dir>/wal.NNNNNN     # one WAL file per lane generation
//! ```
//!
//! ## Recovery
//!
//! 1. Delete a stray `snapshot.tmp` (a compaction that never promoted).
//! 2. Load `snapshot.bin` → the lane's base record set and its
//!    `covered_generation` `G` (0 when no snapshot exists); the paged
//!    header pins the snapshot to this lane's shard identity.
//! 3. Replay every `wal.g` with `g > G` in ascending generation order,
//!    tolerating a torn tail in each (unsynced suffixes die with the
//!    crash; everything replayed was a complete CRC-valid frame).
//! 4. Delete `wal.g` with `g <= G` (their contents are in the
//!    snapshot; they linger only if a crash interrupted compaction
//!    between promotion and deletion).
//! 5. Resume appending to the newest WAL (truncated to its last valid
//!    frame), or create generation `G + 1` if none survives.
//!
//! ## Compaction
//!
//! `Lane::append` reports when the configured op budget since the
//! last snapshot is exhausted; the owner then calls `Lane::compact`
//! with the lane's authoritative live record set. The WAL is rotated to
//! a fresh generation immediately (under the caller's per-lane
//! serialization), and the snapshot write + promotion + old-WAL
//! deletion run on a **background thread** so mutations and matching
//! continue unimpeded. A crash at any point leaves either the old
//! snapshot plus all WALs, or the new snapshot plus the new WAL — both
//! recover to the same state.

use crate::codec::{Record, WalOp};
use crate::error::{PersistError, PersistResult};
use crate::pages::{self, ShardSnapshot, SNAPSHOT_FILE, SNAPSHOT_TMP};
use crate::wal::{self, FlushPolicy, WalWriter};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Tuning knobs for [`crate::ShardedWal::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogOptions {
    /// When WAL appends reach stable storage.
    pub flush: FlushPolicy,
    /// Ops appended to one lane since its last snapshot before
    /// `Lane::append` requests compaction of that lane.
    pub compact_after_ops: usize,
}

impl Default for LogOptions {
    fn default() -> Self {
        LogOptions {
            flush: FlushPolicy::EveryOp,
            compact_after_ops: 4096,
        }
    }
}

/// What one lane's recovery reconstructed from its directory.
#[derive(Debug)]
pub(crate) struct LaneRecovered {
    /// The lane's live records (snapshot base + WAL replay), one per
    /// user, in ascending `user_id` order.
    pub records: Vec<Record>,
    /// The lane's view of the service epoch (maximum `Epoch` op seen,
    /// or the snapshot's).
    pub epoch: u64,
    /// WAL ops replayed on top of the snapshot.
    pub replayed_ops: usize,
    /// Whether any WAL had a torn tail truncated away.
    pub torn_tail: bool,
}

/// Replay state folded over snapshot records and WAL ops.
#[derive(Debug, Default)]
struct Fold {
    by_user: BTreeMap<u64, Record>,
    epoch: u64,
}

impl Fold {
    fn seed(&mut self, records: Vec<Record>) {
        for r in records {
            self.by_user.insert(r.user_id, r);
        }
    }

    fn apply(&mut self, op: WalOp) {
        match op {
            WalOp::Upsert(record) => {
                self.by_user.insert(record.user_id, record);
            }
            WalOp::Remove { user_id } => {
                self.by_user.remove(&user_id);
            }
            WalOp::EvictBefore { min_epoch } => {
                self.by_user.retain(|_, r| r.epoch >= min_epoch);
            }
            WalOp::Epoch { epoch } => {
                self.epoch = self.epoch.max(epoch);
            }
        }
    }
}

/// Collects the WAL generations present in `dir`, ascending.
fn wal_generations(dir: &Path) -> PersistResult<Vec<u64>> {
    let mut generations: Vec<u64> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| PersistError::io("list dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::io("list dir", dir, e))?;
        if let Some(gen) = entry.file_name().to_str().and_then(wal::parse_wal_name) {
            generations.push(gen);
        }
    }
    generations.sort_unstable();
    Ok(generations)
}

/// Refuses a directory that holds any artifact of the pre-sharding
/// single-log layout (a root-level snapshot, in-flight snapshot, or WAL)
/// with a `Corrupt` error naming the file. Such directories are not
/// migrated, and opening one as an empty sharded store would silently
/// drop its subscriptions. Reads only; writes nothing.
pub(crate) fn refuse_legacy_layout(dir: &Path) -> PersistResult<()> {
    let wals = wal_generations(dir)?
        .into_iter()
        .map(|g| dir.join(wal::wal_file_name(g)));
    let legacy = [SNAPSHOT_FILE, SNAPSHOT_TMP]
        .into_iter()
        .map(|name| dir.join(name))
        .filter(|path| path.exists())
        .chain(wals)
        .next();
    match legacy {
        Some(path) => Err(PersistError::corrupt(
            path,
            0,
            "pre-sharding single-log layout file; such directories are refused, not migrated",
        )),
        None => Ok(()),
    }
}

/// Serialized appender state.
#[derive(Debug)]
struct Inner {
    wal: WalWriter,
    ops_since_snapshot: usize,
}

/// One durability lane over one directory (see the module docs).
///
/// Appends are internally locked but callers that require a strict
/// correspondence between apply order and log order (the service layer's
/// store does) must serialize externally per lane — the lane cannot know
/// in which order two racing upserts hit the in-memory shard.
#[derive(Debug)]
pub(crate) struct Lane {
    dir: PathBuf,
    shard: usize,
    shard_count: usize,
    options: LogOptions,
    inner: Mutex<Inner>,
    /// Wait-free mirrors of the appender state for stats: the current
    /// WAL generation and the ops-since-snapshot depth. Updated under
    /// the `inner` lock, read without it, so a stats RPC never blocks
    /// on an in-flight fsync.
    generation: AtomicU64,
    depth: AtomicUsize,
    /// The in-flight background compaction, if any.
    compactor: Mutex<Option<JoinHandle<PersistResult<()>>>>,
    /// First deferred I/O error of this lane (append is infallible at
    /// the call site; the error surfaces on the next `sync`). Lanes keep
    /// one slot each — the sharded front aggregates across lanes, so a
    /// failure in one lane can never mask another lane's.
    deferred: Mutex<Option<PersistError>>,
}

impl Lane {
    /// Opens (creating if necessary) the lane at `dir` — shard `shard`
    /// of `shard_count` — and recovers its state.
    pub fn open(
        dir: &Path,
        shard: usize,
        shard_count: usize,
        options: LogOptions,
    ) -> PersistResult<(Self, LaneRecovered)> {
        fs::create_dir_all(dir).map_err(|e| PersistError::io("create lane dir", dir, e))?;
        let tmp = dir.join(SNAPSHOT_TMP);
        if tmp.exists() {
            fs::remove_file(&tmp).map_err(|e| PersistError::io("remove snapshot.tmp", &tmp, e))?;
        }

        let mut fold = Fold::default();
        let covered = match pages::load_shard_snapshot(dir, shard, shard_count)? {
            Some(snap) => {
                fold.epoch = snap.epoch;
                fold.seed(snap.records);
                snap.covered_generation
            }
            None => 0,
        };

        let mut generations = wal_generations(dir)?;

        // Stale generations are already folded into the snapshot.
        for &gen in generations.iter().filter(|&&g| g <= covered) {
            let path = dir.join(wal::wal_file_name(gen));
            fs::remove_file(&path).map_err(|e| PersistError::io("remove stale wal", &path, e))?;
        }
        generations.retain(|&g| g > covered);

        let mut replayed_ops = 0;
        let mut torn_tail = false;
        let mut resume: Option<(PathBuf, u64, u64)> = None;
        for (i, &gen) in generations.iter().enumerate() {
            let path = dir.join(wal::wal_file_name(gen));
            let replay = wal::replay_wal(&path, gen)?;
            replayed_ops += replay.ops.len();
            torn_tail |= replay.torn.is_some();
            for op in replay.ops {
                fold.apply(op);
            }
            if i + 1 == generations.len() {
                resume = Some((path, gen, replay.valid_len));
            }
        }

        let wal = match resume {
            Some((path, gen, valid_len)) if valid_len > 0 => {
                WalWriter::reopen(&path, gen, valid_len, options.flush)?
            }
            // No WAL yet, or the newest one never got a durable header:
            // start it fresh.
            Some((_, gen, _)) => WalWriter::create(dir, gen, options.flush)?,
            None => WalWriter::create(dir, covered + 1, options.flush)?,
        };

        let state = LaneRecovered {
            records: fold.by_user.into_values().collect(),
            epoch: fold.epoch,
            replayed_ops,
            torn_tail,
        };
        Ok((
            Lane {
                dir: dir.to_path_buf(),
                shard,
                shard_count,
                options,
                generation: AtomicU64::new(wal.generation()),
                depth: AtomicUsize::new(replayed_ops),
                inner: Mutex::new(Inner {
                    wal,
                    ops_since_snapshot: replayed_ops,
                }),
                compactor: Mutex::new(None),
                deferred: Mutex::new(None),
            },
            state,
        ))
    }

    /// The lane's current WAL generation (wait-free).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Ops appended since the lane's last snapshot (wait-free).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Stashes `err` to be surfaced by the next [`Lane::sync`] (only
    /// the first deferred error of this lane is kept). Owners use this
    /// for failures on paths they keep infallible, mirroring what
    /// `append` does internally.
    pub fn defer_error(&self, err: PersistError) {
        let mut slot = self
            .deferred
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        slot.get_or_insert(err);
    }

    /// Appends one op. I/O failures are deferred (stashed and surfaced
    /// by the next [`Lane::sync`]) so the hot mutation path stays
    /// infallible. Returns `true` when the lane's op budget since its
    /// last snapshot is exhausted and the owner should call
    /// [`Lane::compact`].
    pub fn append(&self, op: &WalOp) -> bool {
        let mut inner = self.lock_inner();
        if let Err(e) = inner.wal.append(op) {
            self.defer_error(e);
        }
        inner.ops_since_snapshot += 1;
        self.depth
            .store(inner.ops_since_snapshot, Ordering::Relaxed);
        inner.ops_since_snapshot >= self.options.compact_after_ops
    }

    /// fsyncs outstanding appends and surfaces the lane's first
    /// deferred error (append failures, background-compaction
    /// failures).
    pub fn sync(&self) -> PersistResult<()> {
        let sync_result = self.lock_inner().wal.sync();
        // Harvest a finished (not in-flight) compactor without blocking.
        {
            let mut worker = self
                .compactor
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if worker.as_ref().is_some_and(JoinHandle::is_finished) {
                if let Some(handle) = worker.take() {
                    match handle.join() {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => self.defer_error(e),
                        Err(_) => self.defer_error(PersistError::io(
                            "compaction thread",
                            &self.dir,
                            std::io::Error::other("panicked"),
                        )),
                    }
                }
            }
        }
        if let Some(err) = self
            .deferred
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
        {
            return Err(err);
        }
        sync_result
    }

    /// Rotates the lane's WAL and snapshots `records` (the owner's
    /// authoritative live set **for this shard**, which must reflect
    /// exactly the ops appended so far — callers serialize this lane's
    /// mutations around this call) on a background thread. Returns
    /// immediately after the rotation; the heavy snapshot write +
    /// promotion + stale-WAL deletion happen off-thread.
    ///
    /// If a previous compaction of this lane is **still running**, this
    /// call is a no-op: callers typically hold their per-lane write
    /// serialization while calling, and blocking here would stall the
    /// lane's mutations for the prior snapshot's full write time. The
    /// op budget is not reset on the skip, so the next append
    /// re-requests compaction — it happens as soon as the worker is
    /// free. A *finished* worker is harvested (its error surfaced)
    /// before the new one starts.
    pub fn compact(&self, records: Vec<Record>, epoch: u64) -> PersistResult<()> {
        {
            let mut worker = self
                .compactor
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            match worker.as_ref() {
                Some(handle) if !handle.is_finished() => return Ok(()),
                Some(_) => {
                    // Finished: the join is immediate; surface its result.
                    match worker.take().expect("checked Some").join() {
                        Ok(result) => result?,
                        Err(_) => {
                            return Err(PersistError::io(
                                "compaction thread",
                                &self.dir,
                                std::io::Error::other("panicked"),
                            ))
                        }
                    }
                }
                None => {}
            }
        }

        let old_generation = {
            let mut inner = self.lock_inner();
            // Everything the snapshot will cover must be on disk before
            // the covering snapshot can claim it.
            inner.wal.sync()?;
            let old = inner.wal.generation();
            inner.wal = WalWriter::create(&self.dir, old + 1, self.options.flush)?;
            inner.ops_since_snapshot = 0;
            self.generation.store(old + 1, Ordering::Relaxed);
            self.depth.store(0, Ordering::Relaxed);
            old
        };

        let dir = self.dir.clone();
        let (shard, shard_count) = (self.shard, self.shard_count);
        let handle = std::thread::spawn(move || {
            pages::write_shard_snapshot(
                &dir,
                &ShardSnapshot {
                    shard,
                    shard_count,
                    covered_generation: old_generation,
                    epoch,
                    records,
                },
            )?;
            // The old generations are now redundant.
            for gen_path in stale_wals(&dir, old_generation)? {
                fs::remove_file(&gen_path)
                    .map_err(|e| PersistError::io("remove stale wal", &gen_path, e))?;
            }
            Ok(())
        });
        *self
            .compactor
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(handle);
        Ok(())
    }

    /// Ops appended since the lane's last snapshot (diagnostics).
    pub fn ops_since_snapshot(&self) -> usize {
        self.lock_inner().ops_since_snapshot
    }

    /// `true` while a background compaction of this lane is running.
    /// Owners check this before assembling the shard's live record set
    /// for [`Lane::compact`], which would be discarded by the in-flight
    /// skip anyway.
    pub fn compaction_in_flight(&self) -> bool {
        self.compactor
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .as_ref()
            .is_some_and(|handle| !handle.is_finished())
    }

    /// Blocks until any in-flight compaction of this lane finishes,
    /// surfacing its result.
    pub fn join_compactor(&self) -> PersistResult<()> {
        let handle = self
            .compactor
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
        match handle.map(JoinHandle::join) {
            None => Ok(()),
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(PersistError::io(
                "compaction thread",
                &self.dir,
                std::io::Error::other("panicked"),
            )),
        }
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        // Best-effort: flush the group-commit tail and let the
        // compactor finish so the directory is quiescent when we return.
        let _ = self.join_compactor();
        let _ = self.lock_inner().wal.sync();
    }
}

/// The WAL paths of every generation `<= up_to` still present in `dir`.
fn stale_wals(dir: &Path, up_to: u64) -> PersistResult<Vec<PathBuf>> {
    Ok(wal_generations(dir)?
        .into_iter()
        .filter(|&g| g <= up_to)
        .map(|g| dir.join(wal::wal_file_name(g)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_bigint::BigUint;
    use sla_hve::Ciphertext;
    use sla_pairing::{GElem, GtElem};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sla-persist-log-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(user_id: u64, epoch: u64) -> Record {
        Record {
            user_id,
            epoch,
            row: Ciphertext::from_parts(
                GtElem::from_canonical_log(BigUint::from_u64(user_id * 3 + 1)),
                GElem::from_canonical_log(BigUint::from_u64(user_id * 5 + 2)),
                vec![(
                    GElem::from_canonical_log(BigUint::from_u64(user_id)),
                    GElem::from_canonical_log(BigUint::from_u64(user_id + 9)),
                )],
            )
            .to_row(&GtElem::from_canonical_log(BigUint::from_u64(user_id + 1))),
        }
    }

    fn ids(state: &LaneRecovered) -> Vec<u64> {
        state.records.iter().map(|r| r.user_id).collect()
    }

    fn open_lane(dir: &Path, options: LogOptions) -> (Lane, LaneRecovered) {
        Lane::open(dir, 0, 1, options).unwrap()
    }

    #[test]
    fn open_append_reopen() {
        let dir = temp_dir("reopen");
        {
            let (lane, state) = open_lane(&dir, LogOptions::default());
            assert!(state.records.is_empty());
            for id in 0..5 {
                lane.append(&WalOp::Upsert(record(id, 0)));
            }
            lane.append(&WalOp::Remove { user_id: 3 });
            lane.append(&WalOp::Epoch { epoch: 2 });
            lane.sync().unwrap();
        }
        let (_lane, state) = open_lane(&dir, LogOptions::default());
        assert_eq!(ids(&state), vec![0, 1, 2, 4]);
        assert_eq!(state.epoch, 2);
        assert_eq!(state.replayed_ops, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_rotates_and_recovery_prefers_snapshot() {
        let dir = temp_dir("compact");
        {
            let (lane, _) = open_lane(
                &dir,
                LogOptions {
                    compact_after_ops: 4,
                    ..LogOptions::default()
                },
            );
            assert_eq!((lane.generation(), lane.depth()), (1, 0));
            let mut live: BTreeMap<u64, Record> = BTreeMap::new();
            let mut due = false;
            for id in 0..6 {
                let r = record(id, 1);
                live.insert(id, r.clone());
                due = lane.append(&WalOp::Upsert(r));
            }
            assert!(due, "op budget of 4 exhausted");
            assert_eq!(lane.depth(), 6);
            lane.compact(live.values().cloned().collect(), 1).unwrap();
            lane.join_compactor().unwrap();
            assert_eq!((lane.generation(), lane.depth()), (2, 0));
            // Post-compaction ops land in the new generation.
            lane.append(&WalOp::Upsert(record(100, 2)));
            lane.sync().unwrap();
            assert_eq!(lane.ops_since_snapshot(), 1);
        }
        assert!(dir.join(SNAPSHOT_FILE).exists());
        // Exactly one wal file (the rotated generation) remains.
        let wals: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                e.unwrap()
                    .file_name()
                    .to_str()
                    .and_then(wal::parse_wal_name)
            })
            .collect();
        assert_eq!(wals.len(), 1);
        let (_lane, state) = open_lane(&dir, LogOptions::default());
        assert_eq!(ids(&state), vec![0, 1, 2, 3, 4, 5, 100]);
        assert_eq!(state.replayed_ops, 1, "only the suffix replays");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lane_snapshot_carries_shard_identity() {
        // A lane compacted as shard 2-of-4 must refuse to reopen as any
        // other identity (the paged header pins it).
        let dir = temp_dir("identity");
        {
            let (lane, _) = Lane::open(&dir, 2, 4, LogOptions::default()).unwrap();
            lane.append(&WalOp::Upsert(record(1, 0)));
            lane.compact(vec![record(1, 0)], 0).unwrap();
            lane.join_compactor().unwrap();
        }
        assert!(Lane::open(&dir, 2, 4, LogOptions::default()).is_ok());
        assert!(matches!(
            Lane::open(&dir, 3, 4, LogOptions::default()),
            Err(PersistError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_rotation_and_promotion_recovers_everything() {
        // Simulate the crash window by hand-rolling the layout: ops in
        // wal.1, a rotation to wal.2 with more ops, and NO snapshot.
        let dir = temp_dir("crashwindow");
        {
            let mut w1 = WalWriter::create(&dir, 1, FlushPolicy::EveryOp).unwrap();
            for id in 0..3 {
                w1.append(&WalOp::Upsert(record(id, 0))).unwrap();
            }
        }
        {
            let mut w2 = WalWriter::create(&dir, 2, FlushPolicy::EveryOp).unwrap();
            w2.append(&WalOp::Remove { user_id: 1 }).unwrap();
            w2.append(&WalOp::Upsert(record(7, 1))).unwrap();
        }
        let (_lane, state) = open_lane(&dir, LogOptions::default());
        assert_eq!(ids(&state), vec![0, 2, 7]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evict_before_replays() {
        let dir = temp_dir("evict");
        {
            let (lane, _) = open_lane(&dir, LogOptions::default());
            for id in 0..4 {
                lane.append(&WalOp::Upsert(record(id, id)));
            }
            lane.append(&WalOp::EvictBefore { min_epoch: 2 });
            lane.sync().unwrap();
        }
        let (_lane, state) = open_lane(&dir, LogOptions::default());
        assert_eq!(ids(&state), vec![2, 3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_snapshot_tmp_is_cleaned() {
        let dir = temp_dir("straytmp");
        fs::write(dir.join(SNAPSHOT_TMP), b"half a snapshot").unwrap();
        let (_lane, state) = open_lane(&dir, LogOptions::default());
        assert!(state.records.is_empty());
        assert!(!dir.join(SNAPSHOT_TMP).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
