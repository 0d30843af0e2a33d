//! The shard-partitioned snapshot format: one paged, per-page-checksummed
//! snapshot file per durability lane.
//!
//! Each lane directory (`shard.SSS/`) holds its own `snapshot.bin`, so
//! lanes load independently and recovery parallelizes over shards. The
//! body — the lane's record frames, concatenated — is cut into
//! **fixed-width pages** ([`PAGE_SIZE`] bytes, final page short), each
//! followed by a crc32 over `page_index ‖ page bytes`; the index in the
//! checksum means a page cannot validate at the wrong position, so a
//! copy that drops, duplicates, or swaps pages is caught as corruption.
//!
//! A paged snapshot is written to `snapshot.tmp`, fsync'd, atomically
//! renamed over `snapshot.bin` (rename within one directory is atomic on
//! POSIX), and the directory fsync'd — it can never legitimately be
//! torn, so any checksum failure is real corruption and fails loud.
//!
//! ## Layout
//!
//! ```text
//! header frame: [len][payload][crc32]      (same framing as the WAL)
//!   payload = SLASNAP2 ‖ shard u32 ‖ shard_count u32
//!           ‖ covered_generation u64 ‖ epoch u64 ‖ record_count u64
//!           ‖ page_size u32 ‖ body_len u64      (52 bytes)
//! page 0:  min(page_size, body_len) body bytes ‖ crc32(0u64 ‖ bytes)
//! page 1:  ...                                 ‖ crc32(1u64 ‖ bytes)
//! ...
//! ```

use crate::codec::{self, FrameRead, Record};
use crate::crc::crc32;
use crate::error::{PersistError, PersistResult};
use crate::wal::sync_dir;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// The promoted snapshot's filename.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// The in-flight snapshot's filename (deleted on recovery if present).
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Magic bytes opening every paged (v2) snapshot's header frame.
pub const SNAPSHOT2_MAGIC: &[u8; 8] = b"SLASNAP2";

/// Fixed page width of the snapshot body (the final page is short).
pub const PAGE_SIZE: usize = 4096;

/// One lane's complete snapshot: the shard's live records as of the
/// moment every lane WAL generation `<= covered_generation` had been
/// applied, plus the shard identity the file must match.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Which durability lane this snapshot belongs to.
    pub shard: usize,
    /// Total lane count of the layout (placement sanity check).
    pub shard_count: usize,
    /// Lane WAL generations up to and including this one are folded in.
    pub covered_generation: u64,
    /// This lane's view of the service epoch at the snapshot point.
    pub epoch: u64,
    /// The lane's live records.
    pub records: Vec<Record>,
}

fn page_crc(index: u64, bytes: &[u8]) -> u32 {
    let mut buf = Vec::with_capacity(8 + bytes.len());
    buf.extend_from_slice(&index.to_le_bytes());
    buf.extend_from_slice(bytes);
    crc32(&buf)
}

/// Writes `snapshot` to `dir/snapshot.tmp`, fsyncs it, atomically
/// renames it over `dir/snapshot.bin`, and fsyncs the directory.
pub fn write_shard_snapshot(dir: &Path, snapshot: &ShardSnapshot) -> PersistResult<()> {
    let tmp = dir.join(SNAPSHOT_TMP);
    let dst = dir.join(SNAPSHOT_FILE);

    let mut body = Vec::new();
    let mut payload = Vec::new();
    for record in &snapshot.records {
        payload.clear();
        codec::encode_record(record, &mut payload);
        body.extend_from_slice(&codec::frame(&payload));
    }

    let mut header = Vec::with_capacity(52);
    header.extend_from_slice(SNAPSHOT2_MAGIC);
    header.extend_from_slice(&(snapshot.shard as u32).to_le_bytes());
    header.extend_from_slice(&(snapshot.shard_count as u32).to_le_bytes());
    header.extend_from_slice(&snapshot.covered_generation.to_le_bytes());
    header.extend_from_slice(&snapshot.epoch.to_le_bytes());
    header.extend_from_slice(&(snapshot.records.len() as u64).to_le_bytes());
    header.extend_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    header.extend_from_slice(&(body.len() as u64).to_le_bytes());

    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&tmp)
        .map_err(|e| PersistError::io("create snapshot.tmp", &tmp, e))?;
    let mut write = |bytes: &[u8]| {
        file.write_all(bytes)
            .map_err(|e| PersistError::io("write snapshot", &tmp, e))
    };
    write(&codec::frame(&header))?;
    for (index, page) in body.chunks(PAGE_SIZE).enumerate() {
        write(page)?;
        write(&page_crc(index as u64, page).to_le_bytes())?;
    }
    file.sync_all()
        .map_err(|e| PersistError::io("fsync snapshot.tmp", &tmp, e))?;
    drop(file);

    fs::rename(&tmp, &dst).map_err(|e| PersistError::io("promote snapshot", &dst, e))?;
    sync_dir(dir)
}

/// Loads `dir/snapshot.bin` and validates it belongs to lane
/// `expect_shard` of `expect_count`; `Ok(None)` when no snapshot has
/// ever been promoted. Any framing, page-checksum, or identity failure
/// is corruption (a paged snapshot cannot legitimately be torn).
pub fn load_shard_snapshot(
    dir: &Path,
    expect_shard: usize,
    expect_count: usize,
) -> PersistResult<Option<ShardSnapshot>> {
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f
            .read_to_end(&mut bytes)
            .map(|_| ())
            .map_err(|e| PersistError::io("read snapshot", &path, e))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PersistError::io("open snapshot", &path, e)),
    }

    let corrupt = |offset: u64, detail: String| PersistError::corrupt(&path, offset, detail);

    let (header, rest) = match codec::read_frame(&bytes) {
        FrameRead::Frame { payload, rest } => (payload, rest),
        FrameRead::End => return Err(corrupt(0, "empty snapshot file".into())),
        FrameRead::Torn { detail } => return Err(corrupt(0, detail)),
    };
    if header.len() != 52 || &header[..8] != SNAPSHOT2_MAGIC {
        return Err(corrupt(0, "bad paged-snapshot magic".into()));
    }
    let u32_at = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().expect("4 bytes"));
    let u64_at = |i: usize| u64::from_le_bytes(header[i..i + 8].try_into().expect("8 bytes"));
    let shard = u32_at(8) as usize;
    let shard_count = u32_at(12) as usize;
    let covered_generation = u64_at(16);
    let epoch = u64_at(24);
    let count = u64_at(32);
    let page_size = u32_at(40) as usize;
    let body_len = u64_at(44) as usize;

    if (shard, shard_count) != (expect_shard, expect_count) {
        return Err(corrupt(
            0,
            format!(
                "snapshot claims shard {shard} of {shard_count}, \
                 lane directory is shard {expect_shard} of {expect_count}"
            ),
        ));
    }
    if page_size == 0 {
        return Err(corrupt(0, "zero page size".into()));
    }
    let n_pages = body_len.div_ceil(page_size);
    if rest.len() != body_len + n_pages * 4 {
        return Err(corrupt(
            (bytes.len() - rest.len()) as u64,
            format!(
                "body claims {body_len} bytes in {n_pages} pages but {} bytes follow the header",
                rest.len()
            ),
        ));
    }

    // Verify every page checksum while reassembling the body stream.
    let mut body = Vec::with_capacity(body_len);
    let mut cursor = rest;
    for index in 0..n_pages {
        let offset = (bytes.len() - cursor.len()) as u64;
        let want = page_size.min(body_len - body.len());
        let (page, tail) = cursor.split_at(want);
        let (crc_bytes, tail) = tail.split_at(4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if stored != page_crc(index as u64, page) {
            return Err(corrupt(offset, format!("page {index} checksum mismatch")));
        }
        body.extend_from_slice(page);
        cursor = tail;
    }

    let mut records = Vec::with_capacity(count.min(1 << 20) as usize);
    let mut rest = body.as_slice();
    for _ in 0..count {
        let offset = (body.len() - rest.len()) as u64;
        match codec::read_frame(rest) {
            FrameRead::Frame { payload, rest: r } => {
                let record =
                    codec::decode_record(payload).map_err(|e| corrupt(offset, e.to_string()))?;
                records.push(record);
                rest = r;
            }
            FrameRead::End => {
                return Err(corrupt(
                    offset,
                    format!("body ends after {} of {count} records", records.len()),
                ))
            }
            FrameRead::Torn { detail } => return Err(corrupt(offset, detail)),
        }
    }
    if !rest.is_empty() {
        return Err(corrupt(
            (body.len() - rest.len()) as u64,
            format!("{} trailing body bytes after {count} records", rest.len()),
        ));
    }
    Ok(Some(ShardSnapshot {
        shard,
        shard_count,
        covered_generation,
        epoch,
        records,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_bigint::BigUint;
    use sla_hve::Ciphertext;
    use sla_pairing::{GElem, GtElem};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sla-persist-pages-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(user_id: u64) -> Record {
        Record {
            user_id,
            epoch: user_id % 5,
            row: Ciphertext::from_parts(
                GtElem::from_canonical_log(BigUint::from_u64(user_id * 7)),
                GElem::from_canonical_log(BigUint::from_u64(user_id * 11)),
                vec![(
                    GElem::from_canonical_log(BigUint::from_u64(user_id)),
                    GElem::from_canonical_log(BigUint::from_u64(user_id + 2)),
                )],
            )
            .to_row(&GtElem::from_canonical_log(BigUint::from_u64(user_id + 1))),
        }
    }

    fn snapshot(n: u64) -> ShardSnapshot {
        ShardSnapshot {
            shard: 3,
            shard_count: 8,
            covered_generation: 4,
            epoch: 9,
            records: (0..n).map(record).collect(),
        }
    }

    #[test]
    fn roundtrip_including_multi_page_bodies() {
        let dir = temp_dir("roundtrip");
        assert_eq!(load_shard_snapshot(&dir, 3, 8).unwrap(), None);
        // 80 records of this shape span multiple 4 KiB pages.
        for n in [0, 1, 80] {
            let snap = snapshot(n);
            write_shard_snapshot(&dir, &snap).unwrap();
            assert_eq!(load_shard_snapshot(&dir, 3, 8).unwrap(), Some(snap));
            assert!(!dir.join(SNAPSHOT_TMP).exists(), "tmp promoted away");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_page_is_independently_checksummed() {
        let dir = temp_dir("pagecrc");
        let snap = snapshot(80);
        write_shard_snapshot(&dir, &snap).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let original = fs::read(&path).unwrap();
        let header_len = {
            // Header frame = 4 (len) + 52 (payload) + 4 (crc).
            60
        };
        let body_len = snap
            .records
            .iter()
            .map(|r| {
                let mut p = Vec::new();
                codec::encode_record(r, &mut p);
                codec::frame(&p).len()
            })
            .sum::<usize>();
        let n_pages = body_len.div_ceil(PAGE_SIZE);
        assert!(n_pages >= 2, "fixture must span pages, got {n_pages}");
        // Flip one byte inside each page (and each page trailer): load
        // must fail with Corrupt naming that page.
        for page in 0..n_pages {
            let offset = header_len + page * (PAGE_SIZE + 4) + 17;
            let mut bytes = original.clone();
            bytes[offset] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
            match load_shard_snapshot(&dir, 3, 8) {
                Err(PersistError::Corrupt { detail, .. }) => {
                    assert!(detail.contains(&format!("page {page}")), "{detail}")
                }
                other => panic!("page {page}: {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_identity_mismatch_is_corrupt() {
        // A lane snapshot copied into the wrong lane directory must not
        // load: replayed ops from the wrong lane would resurrect records
        // the right lane's WAL has removed.
        let dir = temp_dir("identity");
        write_shard_snapshot(&dir, &snapshot(2)).unwrap();
        for (shard, count) in [(2, 8), (3, 16)] {
            match load_shard_snapshot(&dir, shard, count) {
                Err(PersistError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("claims shard"), "{detail}")
                }
                other => panic!("{other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_corrupt_not_torn() {
        let dir = temp_dir("trunc");
        write_shard_snapshot(&dir, &snapshot(5)).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            load_shard_snapshot(&dir, 3, 8),
            Err(PersistError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
