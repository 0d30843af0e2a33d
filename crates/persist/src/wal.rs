//! The append-only write-ahead log: one file per generation, a header
//! frame followed by op frames, with group-commit fsync batching.
//!
//! ## Durability contract
//!
//! `append` writes the frame into the OS page cache immediately;
//! **when** it reaches stable storage is the [`FlushPolicy`]:
//!
//! * [`FlushPolicy::EveryOp`] — fsync after every append (each op is
//!   durable once `append` returns; slowest).
//! * [`FlushPolicy::Every`]`(d)` — group commit: an append fsyncs only
//!   when at least `d` has elapsed since the last fsync, so all ops of a
//!   burst share one fsync. Ops appended inside the window are durable
//!   no later than the next append after the window closes, the next
//!   rotation, the next explicit [`WalWriter::sync`], or drop — with no
//!   time bound, since no timer flushes (see [`FlushPolicy::Every`]).
//! * [`FlushPolicy::Manual`] — only explicit `sync` (and drop) fsync.
//!
//! A crash can therefore lose the unsynced suffix, and a crash *during*
//! a write can leave a torn final frame; recovery ([`replay_wal`])
//! truncates to the last complete, CRC-valid frame.

use crate::codec::{self, FrameRead, WalOp};
use crate::error::{PersistError, PersistResult};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// When WAL appends are fsync'd (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// fsync after every append.
    EveryOp,
    /// Group commit: an append fsyncs when at least the interval has
    /// elapsed since the writer's last fsync, so the appends that share
    /// the window share one fsync.
    ///
    /// No timer flushes a writer. It fsyncs in only four cases: an
    /// append finds the interval elapsed; the WAL rotates to a new
    /// generation; [`WalWriter::sync`] runs (a server calls it only when
    /// it drains); or the writer drops. So the last appends to a WAL that
    /// then goes quiet stay un-fsynced until one of those happens,
    /// however long that takes. A power failure can lose them. A killed
    /// process cannot: `append` writes through an unbuffered `File`, so
    /// the frame is in the OS page cache when it returns.
    Every(Duration),
    /// fsync only on explicit `sync` (and on drop).
    Manual,
}

/// Magic bytes opening every WAL file's header frame.
pub const WAL_MAGIC: &[u8; 8] = b"SLAWAL01";

/// The WAL filename for a generation (zero-padded so lexicographic and
/// numeric order agree for the first million generations; parsing is
/// numeric regardless).
pub fn wal_file_name(generation: u64) -> String {
    format!("wal.{generation:06}")
}

/// Parses a generation out of a `wal.NNN` filename.
pub fn parse_wal_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal.")?.parse().ok()
}

fn header_payload(generation: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(WAL_MAGIC);
    payload.extend_from_slice(&generation.to_le_bytes());
    payload
}

/// fsyncs a directory so a file creation or rename inside it is durable.
pub fn sync_dir(dir: &Path) -> PersistResult<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| PersistError::io("fsync dir", dir, e))
}

/// An open WAL file positioned for appending.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    generation: u64,
    policy: FlushPolicy,
    last_sync: Instant,
    /// Bytes written since the last successful fsync.
    dirty: bool,
}

impl WalWriter {
    /// Creates a fresh WAL file for `generation`: the header frame is
    /// written and fsync'd, **and the directory entry is fsync'd too** —
    /// without the latter, ops appended and fsync'd into a freshly
    /// rotated generation could vanish wholesale on power loss (the file
    /// contents are durable, its dirent is not).
    pub fn create(dir: &Path, generation: u64, policy: FlushPolicy) -> PersistResult<Self> {
        let path = dir.join(wal_file_name(generation));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| PersistError::io("create wal", &path, e))?;
        let header = codec::frame(&header_payload(generation));
        file.write_all(&header)
            .and_then(|()| file.sync_data())
            .map_err(|e| PersistError::io("write wal header", &path, e))?;
        sync_dir(dir)?;
        Ok(WalWriter {
            file,
            path,
            generation,
            policy,
            last_sync: Instant::now(),
            dirty: false,
        })
    }

    /// Reopens an existing WAL at `valid_len` (the end of its last valid
    /// frame, per [`replay_wal`]); any torn tail beyond it is truncated
    /// away so new appends start on a frame boundary.
    pub fn reopen(
        path: &Path,
        generation: u64,
        valid_len: u64,
        policy: FlushPolicy,
    ) -> PersistResult<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| PersistError::io("reopen wal", path, e))?;
        file.set_len(valid_len)
            .and_then(|()| file.seek(SeekFrom::End(0)))
            .and_then(|_| file.sync_data())
            .map_err(|e| PersistError::io("truncate wal tail", path, e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            generation,
            policy,
            last_sync: Instant::now(),
            dirty: false,
        })
    }

    /// This writer's generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// This writer's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one op frame, fsyncing per the flush policy.
    pub fn append(&mut self, op: &WalOp) -> PersistResult<()> {
        let mut payload = Vec::new();
        codec::encode_op(op, &mut payload);
        let framed = codec::frame(&payload);
        self.file
            .write_all(&framed)
            .map_err(|e| PersistError::io("append wal frame", &self.path, e))?;
        self.dirty = true;
        match self.policy {
            FlushPolicy::EveryOp => self.sync(),
            FlushPolicy::Every(interval) if self.last_sync.elapsed() >= interval => self.sync(),
            _ => Ok(()),
        }
    }

    /// fsyncs outstanding appends (no-op when clean).
    pub fn sync(&mut self) -> PersistResult<()> {
        if self.dirty {
            self.file
                .sync_data()
                .map_err(|e| PersistError::io("fsync wal", &self.path, e))?;
            self.dirty = false;
        }
        self.last_sync = Instant::now();
        Ok(())
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best-effort group-commit tail flush; errors surface on the
        // next recovery as a (tolerated) missing suffix.
        let _ = self.sync();
    }
}

/// Result of replaying one WAL file.
#[derive(Debug)]
pub struct WalReplay {
    /// The decoded ops, in append order, up to the last valid frame.
    pub ops: Vec<WalOp>,
    /// Byte offset of the end of the last valid frame — where an
    /// appender must resume (and truncate to).
    pub valid_len: u64,
    /// `Some(detail)` when a torn tail was dropped.
    pub torn: Option<String>,
}

/// Replays a WAL file, tolerating a torn tail: frames are read until the
/// first incomplete or CRC-invalid frame, which (with everything after
/// it) is treated as never written. A payload that passes its CRC but
/// does not decode is **corruption**, not tearing, and fails loud.
///
/// A file whose *header* frame is torn (a crash between `create` and the
/// header fsync reaching disk) replays as zero ops with `valid_len = 0`;
/// a readable header with wrong magic or generation is corruption.
pub fn replay_wal(path: &Path, expect_generation: u64) -> PersistResult<WalReplay> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| PersistError::io("read wal", path, e))?;

    // Header frame.
    let (mut rest, mut valid_len) = match codec::read_frame(&bytes) {
        FrameRead::Frame { payload, rest } => {
            if payload.len() != 16 || &payload[..8] != WAL_MAGIC {
                return Err(PersistError::corrupt(path, 0, "bad wal magic"));
            }
            let gen = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
            if gen != expect_generation {
                return Err(PersistError::corrupt(
                    path,
                    0,
                    format!("wal header generation {gen}, filename says {expect_generation}"),
                ));
            }
            (rest, (bytes.len() - rest.len()) as u64)
        }
        FrameRead::End | FrameRead::Torn { .. } => {
            return Ok(WalReplay {
                ops: Vec::new(),
                valid_len: 0,
                torn: (!bytes.is_empty()).then(|| "torn header frame".to_string()),
            });
        }
    };

    let mut ops = Vec::new();
    let torn = loop {
        match codec::read_frame(rest) {
            FrameRead::End => break None,
            FrameRead::Torn { detail } => break Some(detail),
            FrameRead::Frame { payload, rest: r } => {
                let op = codec::decode_op(payload)
                    .map_err(|e| PersistError::corrupt(path, valid_len, e.to_string()))?;
                ops.push(op);
                valid_len = (bytes.len() - r.len()) as u64;
                rest = r;
            }
        }
    };
    Ok(WalReplay {
        ops,
        valid_len,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sla-persist-wal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Remove { user_id: 1 },
            WalOp::Epoch { epoch: 2 },
            WalOp::EvictBefore { min_epoch: 1 },
            WalOp::Remove { user_id: 9 },
        ]
    }

    #[test]
    fn append_and_replay() {
        let dir = temp_dir("roundtrip");
        let mut wal = WalWriter::create(&dir, 3, FlushPolicy::EveryOp).unwrap();
        for op in ops() {
            wal.append(&op).unwrap();
        }
        drop(wal);
        let replay = replay_wal(&dir.join(wal_file_name(3)), 3).unwrap();
        assert_eq!(replay.ops, ops());
        assert!(replay.torn.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_frame() {
        let dir = temp_dir("torn");
        let path = dir.join(wal_file_name(1));
        let mut wal = WalWriter::create(&dir, 1, FlushPolicy::Manual).unwrap();
        for op in ops() {
            wal.append(&op).unwrap();
        }
        drop(wal);
        let full = std::fs::metadata(&path).unwrap().len();
        // Chop 3 bytes off the final frame: the last op must vanish.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..(full - 3) as usize]).unwrap();
        let replay = replay_wal(&path, 1).unwrap();
        assert_eq!(replay.ops, ops()[..3].to_vec());
        assert!(replay.torn.is_some());
        // Reopening truncates; appending resumes on a frame boundary.
        let mut wal = WalWriter::reopen(&path, 1, replay.valid_len, FlushPolicy::EveryOp).unwrap();
        wal.append(&WalOp::Epoch { epoch: 7 }).unwrap();
        drop(wal);
        let replay = replay_wal(&path, 1).unwrap();
        assert!(replay.torn.is_none());
        assert_eq!(replay.ops.len(), 4);
        assert_eq!(replay.ops[3], WalOp::Epoch { epoch: 7 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_generation_is_corrupt() {
        let dir = temp_dir("gen");
        let wal = WalWriter::create(&dir, 2, FlushPolicy::Manual).unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        assert!(matches!(
            replay_wal(&path, 5),
            Err(PersistError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_interval_batches_syncs() {
        // Every(1h) must not fsync per-append (we can't observe fsync
        // directly; assert the data still lands via explicit sync).
        let dir = temp_dir("group");
        let mut wal =
            WalWriter::create(&dir, 1, FlushPolicy::Every(Duration::from_secs(3600))).unwrap();
        for op in ops() {
            wal.append(&op).unwrap();
        }
        wal.sync().unwrap();
        let replay = replay_wal(&dir.join(wal_file_name(1)), 1).unwrap();
        assert_eq!(replay.ops.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_names_roundtrip() {
        assert_eq!(wal_file_name(7), "wal.000007");
        assert_eq!(parse_wal_name("wal.000007"), Some(7));
        assert_eq!(parse_wal_name("wal.1234567"), Some(1_234_567));
        assert_eq!(parse_wal_name("snapshot.bin"), None);
        assert_eq!(parse_wal_name("wal.x"), None);
    }
}
