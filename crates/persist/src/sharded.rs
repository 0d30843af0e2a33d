//! [`ShardedWal`]: N independent durability lanes, one per store shard.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/store.meta       # layout descriptor (commit marker; atomic rename)
//! <dir>/shard.000/       # lane 0: wal.NNNNNN + snapshot.bin (paged)
//! <dir>/shard.001/       # lane 1
//! ...
//! ```
//!
//! Each lane is a complete single-log engine ([`crate::log`]): its own
//! WAL generations, rotation, torn-tail recovery, and paged snapshot.
//! Cross-lane ordering is deliberately absent — the store routes every
//! user to exactly one shard, so ops on different lanes commute and
//! recovery can replay lanes **in parallel** instead of one serial full
//! scan. Ops that span shards (`Epoch`, `EvictBefore`) are logged per
//! lane by the owner; both are idempotent and order-free across lanes
//! (`Epoch` replay takes the max, eviction is a per-record predicate).
//!
//! ## The meta file
//!
//! `store.meta` pins the layout (magic, format version, shard count)
//! and is the layout's commit marker: it is written with the same tmp +
//! fsync + rename + dir-fsync dance as snapshots, so a directory either
//! has a committed sharded layout (meta present) or it does not — there
//! is no in-between for recovery to misread. Opening with a different
//! shard count than the meta records is corruption, not resharding:
//! lane placement is baked into every record's lane at write time.
//!
//! ## Pre-sharding directories
//!
//! A root-level `snapshot.bin`, `snapshot.tmp` or `wal.N` belongs to the
//! single-log layout that predates the lanes. Such a directory is
//! refused with [`PersistError::Corrupt`] naming the file, whether or
//! not `store.meta` is present, and nothing in it is touched.

use crate::codec::{self, FrameRead, Record, WalOp};
use crate::error::{PersistError, PersistResult};
use crate::log::{self, Lane, LogOptions};
use crate::wal::sync_dir;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening the `store.meta` frame.
pub const META_MAGIC: &[u8; 8] = b"SLASHRD1";

/// The layout descriptor's filename.
pub const META_FILE: &str = "store.meta";

/// The in-flight layout descriptor's filename.
pub const META_TMP: &str = "store.meta.tmp";

/// On-disk format version recorded in `store.meta` (v2 = sharded lanes
/// with paged snapshots; v1, the implicit single-log layout, has no
/// meta file).
pub const LAYOUT_VERSION: u32 = 2;

/// Routes a user id to its lane: `router(user_id, shard_count)`.
///
/// The store layer owns placement (its in-memory shard map and the
/// durability lanes must agree), so the function is injected rather
/// than defined here.
pub type ShardRouter = fn(u64, usize) -> usize;

/// The lane directory name for `shard` (`shard.000`, `shard.001`, ...).
pub fn shard_dir_name(shard: usize) -> String {
    format!("shard.{shard:03}")
}

/// Parses a lane directory name back to its shard index.
fn parse_shard_dir(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("shard.")?;
    if digits.len() != 3 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// What recovery reconstructed from the directory, across all lanes.
#[derive(Debug)]
pub struct ShardedRecovery {
    /// The live records of every lane, one per user, in ascending
    /// `user_id` order.
    pub records: Vec<Record>,
    /// The service epoch (maximum over the lanes' views).
    pub epoch: u64,
    /// WAL ops replayed on top of the lanes' snapshots, summed.
    pub replayed_ops: usize,
    /// Whether any lane's WAL had a torn tail truncated away.
    pub torn_tail: bool,
}

/// One lane's wait-free stats snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStatus {
    /// The lane's shard index.
    pub shard: usize,
    /// The lane's current WAL generation.
    pub generation: u64,
    /// Ops appended to the lane since its last snapshot.
    pub depth: usize,
}

/// The sharded durability front (see the module docs).
///
/// Appends are internally locked per lane, but callers that require a
/// strict correspondence between apply order and log order (the service
/// layer's store does) must serialize externally **per shard** — the
/// whole point of the lanes is that no cross-shard serialization
/// exists.
#[derive(Debug)]
pub struct ShardedWal {
    dir: PathBuf,
    lanes: Vec<Lane>,
}

impl ShardedWal {
    /// Opens (creating if necessary) the sharded log at `dir` with
    /// `shards` lanes and recovers every lane in parallel. A directory
    /// holding pre-sharding root files is refused with
    /// [`PersistError::Corrupt`] before anything is written.
    ///
    /// `router` must be the same placement function the owner's
    /// in-memory shard map uses; recovery validates that every
    /// recovered record lives in its home lane and reports corruption
    /// otherwise (replaying a record from the wrong lane could resurrect
    /// a user the right lane has removed).
    pub fn open(
        dir: &Path,
        shards: usize,
        router: ShardRouter,
        options: LogOptions,
    ) -> PersistResult<(Self, ShardedRecovery)> {
        assert!(shards >= 1, "a sharded log needs at least one lane");
        fs::create_dir_all(dir).map_err(|e| PersistError::io("create dir", dir, e))?;
        log::refuse_legacy_layout(dir)?;
        let meta_tmp = dir.join(META_TMP);
        if meta_tmp.exists() {
            fs::remove_file(&meta_tmp)
                .map_err(|e| PersistError::io("remove store.meta.tmp", &meta_tmp, e))?;
        }

        if dir.join(META_FILE).exists() {
            read_meta(dir, shards)?;
        } else if existing_shard_dirs(dir)?.is_empty() {
            write_meta(dir, shards)?;
        } else {
            return Err(PersistError::corrupt(
                dir.join(META_FILE),
                0,
                "lane directories present but store.meta is missing",
            ));
        }

        // Recover every lane in parallel — O(largest lane), not
        // O(total history).
        let mut slots: Vec<Option<PersistResult<(Lane, log::LaneRecovered)>>> =
            (0..shards).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|shard| {
                    let lane_dir = dir.join(shard_dir_name(shard));
                    scope.spawn(move || Lane::open(&lane_dir, shard, shards, options))
                })
                .collect();
            for (slot, handle) in slots.iter_mut().zip(handles) {
                *slot = Some(handle.join().unwrap_or_else(|_| {
                    Err(PersistError::io(
                        "lane recovery thread",
                        dir,
                        std::io::Error::other("panicked"),
                    ))
                }));
            }
        });

        let mut lanes = Vec::with_capacity(shards);
        let mut recovered = Vec::with_capacity(shards);
        let mut failures = Vec::new();
        for (shard, slot) in slots.into_iter().enumerate() {
            match slot.expect("every lane joined") {
                Ok((lane, state)) => {
                    lanes.push(lane);
                    recovered.push(state);
                }
                Err(e) => failures.push((shard, e)),
            }
        }
        if let Some(err) = PersistError::from_lanes(failures) {
            return Err(err);
        }

        let mut records = Vec::new();
        let mut epoch = 0;
        let mut replayed_ops = 0;
        let mut torn_tail = false;
        for (shard, state) in recovered.into_iter().enumerate() {
            for r in &state.records {
                let home = router(r.user_id, shards);
                if home != shard {
                    return Err(PersistError::corrupt(
                        dir.join(shard_dir_name(shard)),
                        0,
                        format!(
                            "record for user {} routes to shard {home} but was \
                             recovered from lane {shard}",
                            r.user_id
                        ),
                    ));
                }
            }
            epoch = epoch.max(state.epoch);
            replayed_ops += state.replayed_ops;
            torn_tail |= state.torn_tail;
            records.extend(state.records);
        }
        records.sort_unstable_by_key(|r| r.user_id);

        Ok((
            ShardedWal {
                dir: dir.to_path_buf(),
                lanes,
            },
            ShardedRecovery {
                records,
                epoch,
                replayed_ops,
                torn_tail,
            },
        ))
    }

    /// The root directory this sharded log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The number of lanes.
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// Appends one op to `shard`'s lane. I/O failures are deferred to
    /// that lane's slot (surfaced by the next [`ShardedWal::sync`]) so
    /// the hot mutation path stays infallible. Returns `true` when the
    /// lane's op budget is exhausted and the owner should call
    /// [`ShardedWal::compact`] for that shard.
    pub fn append(&self, shard: usize, op: &WalOp) -> bool {
        self.lanes[shard].append(op)
    }

    /// Stashes `err` in `shard`'s deferred slot, mirroring what
    /// `append` does internally for its own I/O failures.
    pub fn defer_error(&self, shard: usize, err: PersistError) {
        self.lanes[shard].defer_error(err);
    }

    /// fsyncs every lane's outstanding appends and surfaces deferred
    /// errors from **every** failed lane, aggregated — one healthy lane
    /// can never mask a broken one (a single failed lane's error is
    /// returned as-is; two or more become [`PersistError::Lanes`]).
    pub fn sync(&self) -> PersistResult<()> {
        let mut failures = Vec::new();
        for (shard, lane) in self.lanes.iter().enumerate() {
            if let Err(e) = lane.sync() {
                failures.push((shard, e));
            }
        }
        match PersistError::from_lanes(failures) {
            None => Ok(()),
            Some(err) => Err(err),
        }
    }

    /// Rotates `shard`'s WAL and snapshots `records` (the owner's
    /// authoritative live set **for that shard only**) on a background
    /// thread; see [`crate::log`] for the rotation/skip semantics.
    pub fn compact(&self, shard: usize, records: Vec<Record>, epoch: u64) -> PersistResult<()> {
        self.lanes[shard].compact(records, epoch)
    }

    /// `true` while a background compaction of `shard`'s lane is
    /// running.
    pub fn compaction_in_flight(&self, shard: usize) -> bool {
        self.lanes[shard].compaction_in_flight()
    }

    /// Blocks until every lane's in-flight compaction finishes,
    /// surfacing every failure (aggregated like [`ShardedWal::sync`]).
    pub fn join_compactors(&self) -> PersistResult<()> {
        let mut failures = Vec::new();
        for (shard, lane) in self.lanes.iter().enumerate() {
            if let Err(e) = lane.join_compactor() {
                failures.push((shard, e));
            }
        }
        match PersistError::from_lanes(failures) {
            None => Ok(()),
            Some(err) => Err(err),
        }
    }

    /// Every lane's current WAL generation and depth, wait-free (reads
    /// atomics mirrored outside the lane locks, so a stats call never
    /// blocks behind an in-flight fsync).
    pub fn lane_status(&self) -> Vec<LaneStatus> {
        self.lanes
            .iter()
            .enumerate()
            .map(|(shard, lane)| LaneStatus {
                shard,
                generation: lane.generation(),
                depth: lane.depth(),
            })
            .collect()
    }

    /// Ops appended to `shard`'s lane since its last snapshot
    /// (diagnostics).
    pub fn ops_since_snapshot(&self, shard: usize) -> usize {
        self.lanes[shard].ops_since_snapshot()
    }
}

/// The shard indices of every `shard.NNN` directory present in `dir`.
fn existing_shard_dirs(dir: &Path) -> PersistResult<Vec<usize>> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| PersistError::io("list dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::io("list dir", dir, e))?;
        if let Some(shard) = entry.file_name().to_str().and_then(parse_shard_dir) {
            out.push(shard);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Validates `dir/store.meta` against the expected shard count.
fn read_meta(dir: &Path, shards: usize) -> PersistResult<()> {
    let path = dir.join(META_FILE);
    let mut bytes = Vec::new();
    File::open(&path)
        .and_then(|mut f| f.read_to_end(&mut bytes).map(|_| ()))
        .map_err(|e| PersistError::io("read store.meta", &path, e))?;
    let payload = match codec::read_frame(&bytes) {
        FrameRead::Frame { payload, rest: [] } => payload,
        FrameRead::Frame { .. } => {
            return Err(PersistError::corrupt(&path, 0, "trailing bytes after meta"))
        }
        FrameRead::End => return Err(PersistError::corrupt(&path, 0, "empty meta file")),
        FrameRead::Torn { detail } => return Err(PersistError::corrupt(&path, 0, detail)),
    };
    if payload.len() != 16 || &payload[..8] != META_MAGIC {
        return Err(PersistError::corrupt(&path, 0, "bad store.meta magic"));
    }
    let version = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
    let recorded = u32::from_le_bytes(payload[12..16].try_into().expect("4 bytes")) as usize;
    if version != LAYOUT_VERSION {
        return Err(PersistError::corrupt(
            &path,
            0,
            format!("unsupported layout version {version} (expected {LAYOUT_VERSION})"),
        ));
    }
    if recorded != shards {
        return Err(PersistError::corrupt(
            &path,
            0,
            format!(
                "directory holds {recorded} lanes but was opened with {shards}; \
                 lane placement is fixed at write time"
            ),
        ));
    }
    Ok(())
}

/// Commits `dir/store.meta` atomically (tmp + fsync + rename + dir
/// fsync).
fn write_meta(dir: &Path, shards: usize) -> PersistResult<()> {
    let tmp = dir.join(META_TMP);
    let dst = dir.join(META_FILE);
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(META_MAGIC);
    payload.extend_from_slice(&LAYOUT_VERSION.to_le_bytes());
    payload.extend_from_slice(&(shards as u32).to_le_bytes());

    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&tmp)
        .map_err(|e| PersistError::io("create store.meta.tmp", &tmp, e))?;
    file.write_all(&codec::frame(&payload))
        .map_err(|e| PersistError::io("write store.meta", &tmp, e))?;
    file.sync_all()
        .map_err(|e| PersistError::io("fsync store.meta.tmp", &tmp, e))?;
    drop(file);
    fs::rename(&tmp, &dst).map_err(|e| PersistError::io("promote store.meta", &dst, e))?;
    sync_dir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::{SNAPSHOT_FILE, SNAPSHOT_TMP};
    use crate::wal::{self, FlushPolicy, WalWriter};
    use sla_bigint::BigUint;
    use sla_hve::Ciphertext;
    use sla_pairing::{GElem, GtElem};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sla-persist-sharded-{tag}-{}-{}",
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

    fn route(user_id: u64, shards: usize) -> usize {
        (user_id % shards as u64) as usize
    }

    fn ids(state: &ShardedRecovery) -> Vec<u64> {
        state.records.iter().map(|r| r.user_id).collect()
    }

    /// Every path under `dir` (lane directories included) with its
    /// length: what an open must leave untouched when it refuses.
    fn listing(dir: &Path) -> Vec<(PathBuf, u64)> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(listing(&path));
            }
            let len = fs::metadata(&path).unwrap().len();
            out.push((path, len));
        }
        out.sort();
        out
    }

    #[test]
    fn per_lane_append_reopen_and_status() {
        let dir = temp_dir("reopen");
        {
            let (wal, state) = ShardedWal::open(&dir, 4, route, LogOptions::default()).unwrap();
            assert!(state.records.is_empty());
            for id in 0..10 {
                wal.append(route(id, 4), &WalOp::Upsert(record(id, 0)));
            }
            wal.append(route(3, 4), &WalOp::Remove { user_id: 3 });
            for shard in 0..4 {
                wal.append(shard, &WalOp::Epoch { epoch: 7 });
            }
            wal.sync().unwrap();
            let status = wal.lane_status();
            assert_eq!(status.len(), 4);
            // Lane 3 took users 3, 7 plus the remove and the epoch.
            assert_eq!(
                status[3],
                LaneStatus {
                    shard: 3,
                    generation: 1,
                    depth: 4
                }
            );
        }
        let (wal, state) = ShardedWal::open(&dir, 4, route, LogOptions::default()).unwrap();
        assert_eq!(ids(&state), vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
        assert_eq!(state.epoch, 7);
        assert_eq!(state.replayed_ops, 15);
        assert_eq!(wal.shards(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lanes_compact_independently() {
        let dir = temp_dir("compact");
        let options = LogOptions {
            compact_after_ops: 2,
            ..LogOptions::default()
        };
        {
            let (wal, _) = ShardedWal::open(&dir, 2, route, options).unwrap();
            // Drive only lane 0 over its budget.
            let mut due = false;
            for id in [0, 2, 4] {
                due = wal.append(0, &WalOp::Upsert(record(id, 1)));
            }
            assert!(due, "lane 0 budget of 2 exhausted");
            assert!(
                !wal.append(1, &WalOp::Upsert(record(1, 1))),
                "lane 1 under budget"
            );
            wal.compact(0, vec![record(0, 1), record(2, 1), record(4, 1)], 1)
                .unwrap();
            wal.join_compactors().unwrap();
            let status = wal.lane_status();
            assert_eq!(
                status[0],
                LaneStatus {
                    shard: 0,
                    generation: 2,
                    depth: 0
                }
            );
            assert_eq!(
                status[1],
                LaneStatus {
                    shard: 1,
                    generation: 1,
                    depth: 1
                }
            );
            assert!(dir.join(shard_dir_name(0)).join(SNAPSHOT_FILE).exists());
            assert!(!dir.join(shard_dir_name(1)).join(SNAPSHOT_FILE).exists());
        }
        let (_, state) = ShardedWal::open(&dir, 2, route, options).unwrap();
        assert_eq!(ids(&state), vec![0, 1, 2, 4]);
        assert_eq!(state.replayed_ops, 1, "lane 0 recovers from its snapshot");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_sharding_root_files_are_refused_untouched() {
        // Every pre-sharding root file is refused by name, with or
        // without a committed meta, and the open writes nothing.
        for name in [SNAPSHOT_FILE, SNAPSHOT_TMP, "wal.000003"] {
            for with_meta in [false, true] {
                let dir = temp_dir("legacy");
                if with_meta {
                    let (wal, _) = ShardedWal::open(&dir, 2, route, LogOptions::default()).unwrap();
                    wal.sync().unwrap();
                }
                fs::write(dir.join(name), b"pre-sharding bytes").unwrap();
                let before = listing(&dir);
                match ShardedWal::open(&dir, 2, route, LogOptions::default()) {
                    Err(PersistError::Corrupt { path, .. }) => assert_eq!(path, dir.join(name)),
                    other => panic!("{name} (meta: {with_meta}): {:?}", other.map(|_| ())),
                }
                assert_eq!(listing(&dir), before, "{name} (meta: {with_meta})");
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn meta_mismatches_are_corrupt() {
        let dir = temp_dir("meta");
        {
            let (wal, _) = ShardedWal::open(&dir, 4, route, LogOptions::default()).unwrap();
            wal.sync().unwrap();
        }
        // Wrong shard count.
        match ShardedWal::open(&dir, 8, route, LogOptions::default()) {
            Err(PersistError::Corrupt { detail, .. }) => {
                assert!(detail.contains("4 lanes"), "{detail}")
            }
            other => panic!("{:?}", other.map(|_| ())),
        }
        // Garbage meta.
        fs::write(dir.join(META_FILE), b"definitely not a meta frame").unwrap();
        assert!(matches!(
            ShardedWal::open(&dir, 4, route, LogOptions::default()),
            Err(PersistError::Corrupt { .. })
        ));
        // Missing meta with lanes present.
        fs::remove_file(dir.join(META_FILE)).unwrap();
        match ShardedWal::open(&dir, 4, route, LogOptions::default()) {
            Err(PersistError::Corrupt { detail, .. }) => {
                assert!(detail.contains("store.meta is missing"), "{detail}")
            }
            other => panic!("{:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misplaced_records_are_corrupt() {
        let dir = temp_dir("misplaced");
        {
            let (wal, _) = ShardedWal::open(&dir, 2, route, LogOptions::default()).unwrap();
            wal.append(0, &WalOp::Upsert(record(0, 0)));
            wal.sync().unwrap();
        }
        // Append user 5 (home lane 1) into lane 0 behind the router's
        // back.
        {
            let lane0 = dir.join(shard_dir_name(0));
            let replay = wal::replay_wal(&lane0.join(wal::wal_file_name(1)), 1).unwrap();
            let mut w = WalWriter::reopen(
                &lane0.join(wal::wal_file_name(1)),
                1,
                replay.valid_len,
                FlushPolicy::EveryOp,
            )
            .unwrap();
            w.append(&WalOp::Upsert(record(5, 0))).unwrap();
        }
        match ShardedWal::open(&dir, 2, route, LogOptions::default()) {
            Err(PersistError::Corrupt { detail, .. }) => {
                assert!(detail.contains("routes to shard 1"), "{detail}")
            }
            other => panic!("{:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_aggregates_failures_across_lanes() {
        // Satellite-6 pin: two lanes with deferred errors surface BOTH,
        // not just the first.
        let dir = temp_dir("aggregate");
        let (wal, _) = ShardedWal::open(&dir, 4, route, LogOptions::default()).unwrap();
        wal.defer_error(
            1,
            PersistError::io(
                "fsync wal",
                "/x/shard.001/wal.000001",
                std::io::Error::other("a"),
            ),
        );
        wal.defer_error(
            3,
            PersistError::corrupt("/x/shard.003/snapshot.bin", 7, "page crc"),
        );
        match wal.sync() {
            Err(PersistError::Lanes { errors }) => {
                let shards: Vec<_> = errors.iter().map(|(s, _)| *s).collect();
                assert_eq!(shards, vec![1, 3]);
            }
            other => panic!("{:?}", other.map(|_| ())),
        }
        // The slots drained; the next sync is clean.
        wal.sync().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
