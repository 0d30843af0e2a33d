//! Crash-recovery fault injection, per lane: a shard's WAL truncated at
//! **every byte boundary** must recover exactly the state at the last
//! complete frame — never garbage, never an error, never a record from
//! the torn suffix — while every *other* lane recovers in full. A
//! corrupted snapshot page in any lane must surface as a typed
//! corruption error, never as silently shorter state. The `#[ignore]`d
//! heavy variant sweeps every byte of every lane's WAL (CI runs it via
//! `--include-ignored`); the default variants sweep every byte of each
//! lane's final record plus every frame boundary, which is the window a
//! real torn write lands in.

use sla_bigint::BigUint;
use sla_hve::Ciphertext;
use sla_pairing::{GElem, GtElem};
use sla_persist::codec::{encode_op, frame};
use sla_persist::sharded::shard_dir_name;
use sla_persist::wal::{replay_wal, wal_file_name, WalWriter};
use sla_persist::{FlushPolicy, LogOptions, Record, ShardedWal, WalOp};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const SHARDS: usize = 3;

fn route(user_id: u64, shards: usize) -> usize {
    (user_id % shards as u64) as usize
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sla-persist-recovery-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn record(user_id: u64, epoch: u64) -> Record {
    Record {
        user_id,
        epoch,
        row: Ciphertext::from_parts(
            GtElem::from_canonical_log(BigUint::from_limbs(vec![user_id, 3, user_id])),
            GElem::from_canonical_log(BigUint::from_u64(user_id * 13 + 5)),
            vec![
                (
                    GElem::from_canonical_log(BigUint::from_u64(user_id ^ 0xF0)),
                    GElem::from_canonical_log(BigUint::from_u128(u128::from(user_id) << 70)),
                ),
                (
                    GElem::from_canonical_log(BigUint::zero()),
                    GElem::from_canonical_log(BigUint::from_u64(user_id + 42)),
                ),
            ],
        )
        .to_row(&GtElem::from_canonical_log(BigUint::from_u64(user_id + 1))),
    }
}

/// Reference fold with the lane's replay semantics, for computing the
/// expected surviving records of an op prefix.
fn fold(ops: &[WalOp]) -> Vec<Record> {
    let mut by_user: BTreeMap<u64, Record> = BTreeMap::new();
    for op in ops {
        match op {
            WalOp::Upsert(r) => {
                by_user.insert(r.user_id, r.clone());
            }
            WalOp::Remove { user_id } => {
                by_user.remove(user_id);
            }
            WalOp::EvictBefore { min_epoch } => {
                by_user.retain(|_, r| r.epoch >= *min_epoch);
            }
            WalOp::Epoch { .. } => {}
        }
    }
    by_user.into_values().collect()
}

/// A short mixed op sequence for lane `shard` (all user ids route
/// there under `route` with [`SHARDS`] lanes).
fn lane_ops(shard: usize) -> Vec<WalOp> {
    let s = shard as u64;
    let n = SHARDS as u64;
    vec![
        WalOp::Upsert(record(s, 0)),
        WalOp::Upsert(record(s + n, 0)),
        WalOp::Remove { user_id: s },
        WalOp::Upsert(record(s + 2 * n, 1)),
        WalOp::EvictBefore { min_epoch: 1 },
        WalOp::Upsert(record(s + 3 * n, 1)),
    ]
}

fn wide_options() -> LogOptions {
    LogOptions {
        flush: FlushPolicy::EveryOp,
        // Never trigger compaction mid-test: these tests inject faults
        // into hand-positioned WAL bytes.
        compact_after_ops: 1 << 20,
    }
}

/// Opens a fresh 3-lane sharded log at `dir`, appends each lane's
/// [`lane_ops`], and returns each lane's WAL frame boundaries — byte
/// offsets at which each frame (header first) ends.
fn build_sharded(dir: &Path) -> Vec<Vec<u64>> {
    let (wal, recovered) = ShardedWal::open(dir, SHARDS, route, wide_options()).unwrap();
    assert!(recovered.records.is_empty());
    for shard in 0..SHARDS {
        for op in lane_ops(shard) {
            wal.append(shard, &op);
        }
    }
    wal.sync().unwrap();
    drop(wal);

    (0..SHARDS)
        .map(|shard| {
            // Recompute the framing to find each boundary: header
            // (16-byte payload => 24-byte frame) then one frame per op.
            let mut boundaries = vec![24u64];
            let mut offset = 24u64;
            for op in &lane_ops(shard) {
                let mut payload = Vec::new();
                encode_op(op, &mut payload);
                offset += frame(&payload).len() as u64;
                boundaries.push(offset);
            }
            let path = dir.join(shard_dir_name(shard)).join(wal_file_name(1));
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                offset,
                "lane {shard}: boundary bookkeeping disagrees with the file"
            );
            boundaries
        })
        .collect()
}

/// Truncates lane `shard`'s WAL to `cut` bytes (restoring it from
/// `original` first), reopens the whole sharded log, and asserts it
/// recovers exactly the other lanes in full plus this lane's longest
/// complete op prefix.
fn assert_sharded_recovery_at(
    dir: &Path,
    shard: usize,
    original: &[u8],
    boundaries: &[u64],
    cut: u64,
) {
    let path = dir.join(shard_dir_name(shard)).join(wal_file_name(1));
    std::fs::write(&path, &original[..cut as usize]).unwrap();

    let (wal, recovered) = ShardedWal::open(dir, SHARDS, route, wide_options()).unwrap();
    drop(wal);

    // Number of op frames fully contained in the prefix (boundaries[0]
    // is the header; boundaries[i] the end of op i-1).
    let complete = boundaries[1..].iter().filter(|&&b| b <= cut).count();
    let mut expected: Vec<Record> = (0..SHARDS)
        .flat_map(|s| {
            let ops = lane_ops(s);
            if s == shard {
                fold(&ops[..complete])
            } else {
                fold(&ops)
            }
        })
        .collect();
    expected.sort_unstable_by_key(|r| r.user_id);
    assert_eq!(
        recovered.records, expected,
        "lane {shard} cut at byte {cut}: expected exactly the first {complete} ops"
    );
    let expected_replayed = (SHARDS - 1) * lane_ops(shard).len() + complete;
    assert_eq!(
        recovered.replayed_ops, expected_replayed,
        "lane {shard} cut at byte {cut}"
    );
    // An empty file is a clean (if early) crash point: there is no
    // partial frame to truncate, so nothing reads as torn.
    let clean = cut == 0 || boundaries.contains(&cut);
    assert_eq!(
        recovered.torn_tail, !clean,
        "lane {shard} cut at byte {cut}: torn flag"
    );
    // Recovery truncated the torn suffix away; the file now ends at the
    // last complete frame (or is recreated at the header when even the
    // header frame was torn).
    let expected_valid = boundaries
        .iter()
        .copied()
        .rfind(|&b| b <= cut)
        .unwrap_or(24);
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        expected_valid,
        "lane {shard} cut at byte {cut}: tail not truncated"
    );
}

#[test]
fn truncating_each_lane_at_every_final_record_byte_recovers_prefix() {
    let dir = temp_dir("lane-final-record");
    let all_boundaries = build_sharded(&dir);

    for (shard, boundaries) in all_boundaries.iter().enumerate() {
        let path = dir.join(shard_dir_name(shard)).join(wal_file_name(1));
        let original = std::fs::read(&path).unwrap();

        // Every byte boundary inside this lane's final record frame...
        let last_start = boundaries[boundaries.len() - 2];
        let last_end = *boundaries.last().unwrap();
        for cut in last_start..=last_end {
            assert_sharded_recovery_at(&dir, shard, &original, boundaries, cut);
        }
        // ...plus every frame boundary of the lane's whole log.
        for &cut in boundaries {
            assert_sharded_recovery_at(&dir, shard, &original, boundaries, cut);
        }
        // Restore the lane before injecting faults into the next one.
        std::fs::write(&path, &original).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_resumes_appending_after_a_torn_lane_tail() {
    let dir = temp_dir("lane-resume");
    let all_boundaries = build_sharded(&dir);

    let shard = 1;
    let boundaries = &all_boundaries[shard];
    let path = dir.join(shard_dir_name(shard)).join(wal_file_name(1));
    let original = std::fs::read(&path).unwrap();

    let last_start = boundaries[boundaries.len() - 2];
    let last_end = *boundaries.last().unwrap();
    // A representative spread of torn positions (every 5th byte).
    for cut in (last_start..last_end).step_by(5) {
        std::fs::write(&path, &original[..cut as usize]).unwrap();
        let complete = boundaries[1..].iter().filter(|&&b| b <= cut).count();

        let (wal, recovered) = ShardedWal::open(&dir, SHARDS, route, wide_options()).unwrap();
        assert_eq!(
            recovered.replayed_ops,
            (SHARDS - 1) * lane_ops(shard).len() + complete,
            "cut {cut}"
        );
        // Every cut in this range lands mid-frame except the exact
        // frame boundary at `last_start`.
        assert_eq!(recovered.torn_tail, cut != last_start, "cut {cut}");

        // Appends continue on a frame boundary after the truncated tail.
        let resumed = record(shard as u64 + 12 * SHARDS as u64, 9);
        wal.append(shard, &WalOp::Upsert(resumed.clone()));
        wal.sync().unwrap();
        drop(wal);
        let replay = replay_wal(&path, 1).unwrap();
        assert_eq!(replay.ops.len(), complete + 1, "cut {cut}");
        assert_eq!(replay.ops[complete], WalOp::Upsert(resumed));
        assert!(replay.torn.is_none());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupting_any_lanes_snapshot_surfaces_a_typed_error() {
    let dir = temp_dir("lane-snapshot-corruption");
    build_sharded(&dir);

    // Compact every lane so each holds a paged snapshot.
    let (wal, _) = ShardedWal::open(&dir, SHARDS, route, wide_options()).unwrap();
    for shard in 0..SHARDS {
        wal.compact(shard, fold(&lane_ops(shard)), 1).unwrap();
    }
    wal.join_compactors().unwrap();
    drop(wal);

    for shard in 0..SHARDS {
        let snapshot = dir.join(shard_dir_name(shard)).join("snapshot.bin");
        let original = std::fs::read(&snapshot).unwrap();
        // A flipped byte inside the first page's body and inside the
        // final page's checksum trailer must both be caught.
        for &offset in &[64usize, original.len() - 1] {
            let mut corrupted = original.clone();
            corrupted[offset] ^= 0x40;
            std::fs::write(&snapshot, &corrupted).unwrap();
            let err = ShardedWal::open(&dir, SHARDS, route, wide_options()).unwrap_err();
            assert!(
                err.is_corrupt(),
                "lane {shard} offset {offset}: expected corruption, got {err}"
            );
        }
        // Restoring the page bytes restores the lane.
        std::fs::write(&snapshot, &original).unwrap();
        let (_, recovered) = ShardedWal::open(&dir, SHARDS, route, wide_options()).unwrap();
        assert_eq!(recovered.records.len(), 2 * SHARDS, "lane {shard}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The heavy sweep: every byte boundary of **every lane's** WAL. Minutes
/// of work in debug builds, so `#[ignore]`d locally; CI runs it in
/// release via `--include-ignored`.
#[test]
#[ignore = "exhaustive per-lane byte sweep; CI runs it via --include-ignored"]
fn truncation_at_every_byte_of_every_lane_recovers_prefix() {
    let dir = temp_dir("whole-lanes");
    let all_boundaries = build_sharded(&dir);
    for (shard, boundaries) in all_boundaries.iter().enumerate() {
        let path = dir.join(shard_dir_name(shard)).join(wal_file_name(1));
        let original = std::fs::read(&path).unwrap();
        for cut in 0..=original.len() as u64 {
            assert_sharded_recovery_at(&dir, shard, &original, boundaries, cut);
        }
        std::fs::write(&path, &original).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Raw single-WAL sweeps (the lane engine's substrate): replay_wal's
// byte-exact prefix semantics, independent of the lane/shard layers.
// ---------------------------------------------------------------------

fn sample_ops() -> Vec<WalOp> {
    vec![
        WalOp::Upsert(record(1, 0)),
        WalOp::Upsert(record(2, 0)),
        WalOp::Epoch { epoch: 1 },
        WalOp::Upsert(record(1, 1)),
        WalOp::Remove { user_id: 2 },
        WalOp::EvictBefore { min_epoch: 1 },
        WalOp::Upsert(record(9, 1)),
    ]
}

/// Writes `ops` as a generation-1 WAL and returns
/// `(path, frame_boundaries)` — byte offsets at which each frame
/// (header first) ends.
fn write_wal(dir: &Path, ops: &[WalOp]) -> (PathBuf, Vec<u64>) {
    let mut wal = WalWriter::create(dir, 1, FlushPolicy::Manual).unwrap();
    for op in ops {
        wal.append(op).unwrap();
    }
    wal.sync().unwrap();
    let path = wal.path().to_path_buf();
    drop(wal);

    let mut boundaries = vec![24u64];
    let mut offset = 24u64;
    for op in ops {
        let mut payload = Vec::new();
        encode_op(op, &mut payload);
        offset += frame(&payload).len() as u64;
        boundaries.push(offset);
    }
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        offset,
        "boundary bookkeeping disagrees with the file"
    );
    (path, boundaries)
}

/// Asserts that truncating the WAL to `cut` bytes replays exactly the
/// ops whose frames are fully contained in the prefix.
fn assert_replay_at(original: &[u8], boundaries: &[u64], ops: &[WalOp], dir: &Path, cut: u64) {
    let path = dir.join(wal_file_name(1));
    std::fs::write(&path, &original[..cut as usize]).unwrap();
    let replay = replay_wal(&path, 1).unwrap();
    let complete = boundaries[1..].iter().filter(|&&b| b <= cut).count();
    assert_eq!(
        replay.ops,
        ops[..complete].to_vec(),
        "cut at byte {cut}: expected exactly the first {complete} ops"
    );
    let expected_valid = boundaries.iter().copied().rfind(|&b| b <= cut).unwrap_or(0);
    assert_eq!(replay.valid_len, expected_valid, "cut at byte {cut}");
    assert_eq!(
        replay.torn.is_some(),
        cut != expected_valid,
        "cut at byte {cut}: torn flag"
    );
}

#[test]
fn truncation_at_every_byte_of_the_final_record_replays_prefix() {
    let dir = temp_dir("final-record");
    let ops = sample_ops();
    let (path, boundaries) = write_wal(&dir, &ops);
    let original = std::fs::read(&path).unwrap();

    let last_start = boundaries[boundaries.len() - 2];
    let last_end = *boundaries.last().unwrap();
    for cut in last_start..=last_end {
        assert_replay_at(&original, &boundaries, &ops, &dir, cut);
    }
    for &cut in &boundaries {
        assert_replay_at(&original, &boundaries, &ops, &dir, cut);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The heavy raw-WAL sweep: every byte boundary of the whole file, on a
/// longer log. `#[ignore]`d locally; CI runs it via `--include-ignored`.
#[test]
#[ignore = "exhaustive byte sweep; CI runs it via --include-ignored"]
fn truncation_at_every_byte_of_the_whole_wal_replays_prefix() {
    let dir = temp_dir("whole-wal");
    let mut ops = Vec::new();
    for round in 0..6u64 {
        for id in 0..4 {
            ops.push(WalOp::Upsert(record(id, round)));
        }
        ops.push(WalOp::Epoch { epoch: round + 1 });
        if round % 2 == 1 {
            ops.push(WalOp::EvictBefore { min_epoch: round });
            ops.push(WalOp::Remove { user_id: round % 4 });
        }
    }
    let (path, boundaries) = write_wal(&dir, &ops);
    let original = std::fs::read(&path).unwrap();
    for cut in 0..=original.len() as u64 {
        assert_replay_at(&original, &boundaries, &ops, &dir, cut);
    }
    let _ = path;
    std::fs::remove_dir_all(&dir).unwrap();
}
