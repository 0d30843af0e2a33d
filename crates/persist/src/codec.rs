//! The canonical little-endian binary codec for stored subscriptions and
//! WAL operations.
//!
//! ## Why not serde?
//!
//! The serde shim renders group elements as canonical hex **JSON** —
//! fine for interchange, 2–3× larger than necessary and slow to scan for
//! recovery. The durable store instead uses a fixed binary layout:
//! every integer is little-endian, every big integer is its minimal
//! little-endian byte string behind a `u32` length prefix. Group-element
//! logs are encoded **canonically**, the values serde's hex strings
//! carry. A record's logs are the operands of its packed row
//! ([`PackedRow`], canonical limbs), so encoding reads them straight off
//! the row and decoding writes them straight into one, at the width of
//! the record's widest log.
//!
//! ## Framing
//!
//! Every record on disk is one frame:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes] [crc: u32 LE]
//! ```
//!
//! where `crc = crc32(len_bytes ‖ payload)` — covering the length field
//! too, so a corrupted length cannot silently re-frame the stream. A
//! frame that ends past the end of file (torn write) is distinguishable
//! from one whose bytes fail the CRC; recovery treats both as "the log
//! ends at the previous frame".

use crate::crc::crc32;
use sla_pairing::{PackedRow, RowShape};

/// One stored subscription: what the Service Provider's store holds per
/// user and what the WAL and snapshots persist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Routing identifier.
    pub user_id: u64,
    /// Epoch of the most recent upsert.
    pub epoch: u64,
    /// The encrypted location update and its expected payload
    /// `gt^{user_id + 1}`, as one row of canonical limbs. The payload
    /// derives from the public generator and the routing id the user
    /// already disclosed, so storing it leaks nothing extra.
    pub row: PackedRow,
}

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Insert-or-replace a subscription.
    Upsert(Record),
    /// Remove a user's subscription.
    Remove {
        /// The user whose record is dropped.
        user_id: u64,
    },
    /// TTL eviction: drop every record with `epoch < min_epoch`.
    EvictBefore {
        /// The retention bound (`epoch >= min_epoch` survives).
        min_epoch: u64,
    },
    /// The service epoch advanced (recovery restores the maximum seen).
    Epoch {
        /// The new epoch value.
        epoch: u64,
    },
}

/// Why a payload failed to decode. Reaching this through a valid CRC
/// means the file was produced by something else (or a version skew) —
/// recovery surfaces it as corruption rather than truncating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Defensive ceiling on one encoded big integer (a group-element log).
/// Far above any modulus this simulation supports (`MAX_GROUP_BITS`
/// yields 64-byte logs) while keeping a corrupted length from asking for
/// gigabytes.
const MAX_BIGUINT_BYTES: u32 = 1 << 16;

/// Defensive ceiling on the HVE width of one record.
const MAX_WIDTH: u32 = 1 << 16;

/// Defensive ceiling on the limbs of one decoded row. A row takes its
/// widest log's width for every operand, so a payload of many short logs
/// and one long one could otherwise ask for far more memory than it
/// holds. Far above any real row (`MAX_WIDTH` positions of 8-limb logs
/// need about a million limbs).
const MAX_ROW_LIMBS: usize = 1 << 21;

const TAG_UPSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_EVICT: u8 = 3;
const TAG_EPOCH: u8 = 4;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a canonical log held as little-endian limbs: its minimal
/// little-endian bytes (none for zero) behind their `u32` length.
fn put_log(out: &mut Vec<u8>, limbs: &[u64]) {
    let mut len = 0;
    for (i, limb) in limbs.iter().enumerate() {
        if *limb != 0 {
            len = 8 * i + 8 - limb.leading_zeros() as usize / 8;
        }
    }
    put_u32(out, len as u32);
    for (i, limb) in limbs.iter().enumerate().take(len.div_ceil(8)) {
        out.extend_from_slice(&limb.to_le_bytes()[..(len - 8 * i).min(8)]);
    }
}

/// Appends the payload encoding of `record` to `out` (no frame): user
/// id, epoch, the expected payload, the HVE width, then `C'`, `C_0` and
/// the components in row order.
pub fn encode_record(record: &Record, out: &mut Vec<u8>) {
    let shape = record.row.shape();
    put_u64(out, record.user_id);
    put_u64(out, record.epoch);
    put_log(out, record.row.operand(shape.expected()));
    put_u32(out, shape.width as u32);
    for idx in 0..shape.expected() {
        put_log(out, record.row.operand(idx));
    }
}

/// Appends the payload encoding of `op` to `out` (no frame).
pub fn encode_op(op: &WalOp, out: &mut Vec<u8>) {
    match op {
        WalOp::Upsert(record) => {
            out.push(TAG_UPSERT);
            encode_record(record, out);
        }
        WalOp::Remove { user_id } => {
            out.push(TAG_REMOVE);
            put_u64(out, *user_id);
        }
        WalOp::EvictBefore { min_epoch } => {
            out.push(TAG_EVICT);
            put_u64(out, *min_epoch);
        }
        WalOp::Epoch { epoch } => {
            out.push(TAG_EPOCH);
            put_u64(out, *epoch);
        }
    }
}

/// Wraps `payload` in a `[len][payload][crc]` frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, len);
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A little-endian read cursor over one payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                DecodeError(format!(
                    "payload underrun: need {n} bytes at offset {} of {}",
                    self.pos,
                    self.bytes.len()
                ))
            })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// One canonical log's little-endian bytes, trailing zero bytes
    /// dropped (the value they hold, minimally).
    fn log(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()?;
        if len > MAX_BIGUINT_BYTES {
            return Err(DecodeError(format!(
                "big-integer length {len} exceeds the {MAX_BIGUINT_BYTES}-byte ceiling"
            )));
        }
        let bytes = self.take(len as usize)?;
        let used = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        Ok(&bytes[..used])
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.pos
            )))
        }
    }
}

/// Writes little-endian `bytes` into a zeroed operand of enough limbs.
fn fill_operand(operand: &mut [u64], bytes: &[u8]) {
    for (limb, chunk) in operand.iter_mut().zip(bytes.chunks(8)) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        *limb = u64::from_le_bytes(buf);
    }
}

/// Decodes a record straight into its packed row: one pass over the
/// logs finds the widest (the row's limb width, at least one), a second
/// writes them into place.
fn decode_record_body(cur: &mut Cursor<'_>) -> Result<Record, DecodeError> {
    let user_id = cur.u64()?;
    let epoch = cur.u64()?;
    let expected = cur.log()?;
    let width = cur.u32()?;
    if width > MAX_WIDTH {
        return Err(DecodeError(format!(
            "width {width} exceeds the {MAX_WIDTH} ceiling"
        )));
    }
    let width = width as usize;
    let operands = 2 * width + 2;
    // A second cursor over the same logs, for the pass that writes them.
    let mut logs = Cursor {
        bytes: cur.bytes,
        pos: cur.pos,
    };
    let mut widest = expected.len();
    for _ in 0..operands {
        widest = widest.max(cur.log()?.len());
    }
    let shape = RowShape {
        width,
        limbs: widest.div_ceil(8).max(1),
    };
    if shape.stride() > MAX_ROW_LIMBS {
        return Err(DecodeError(format!(
            "a row of {} limbs exceeds the {MAX_ROW_LIMBS}-limb ceiling",
            shape.stride()
        )));
    }
    let mut row = PackedRow::zeroed(shape);
    fill_operand(row.operand_mut(shape.expected()), expected);
    for idx in 0..operands {
        fill_operand(row.operand_mut(idx), logs.log()?);
    }
    Ok(Record {
        user_id,
        epoch,
        row,
    })
}

/// Decodes one record payload (the exact inverse of [`encode_record`];
/// trailing bytes are an error).
pub fn decode_record(payload: &[u8]) -> Result<Record, DecodeError> {
    let mut cur = Cursor::new(payload);
    let record = decode_record_body(&mut cur)?;
    cur.finish()?;
    Ok(record)
}

/// Decodes one op payload (the exact inverse of [`encode_op`]).
pub fn decode_op(payload: &[u8]) -> Result<WalOp, DecodeError> {
    let mut cur = Cursor::new(payload);
    let op = match cur.u8()? {
        TAG_UPSERT => WalOp::Upsert(decode_record_body(&mut cur)?),
        TAG_REMOVE => WalOp::Remove {
            user_id: cur.u64()?,
        },
        TAG_EVICT => WalOp::EvictBefore {
            min_epoch: cur.u64()?,
        },
        TAG_EPOCH => WalOp::Epoch { epoch: cur.u64()? },
        tag => return Err(DecodeError(format!("unknown op tag {tag}"))),
    };
    cur.finish()?;
    Ok(op)
}

/// Outcome of pulling one frame off a byte stream.
#[derive(Debug)]
pub enum FrameRead<'a> {
    /// A complete, CRC-valid frame; `rest` continues after it.
    Frame {
        /// The frame's payload.
        payload: &'a [u8],
        /// The remaining bytes.
        rest: &'a [u8],
    },
    /// The stream ends cleanly here (zero bytes left).
    End,
    /// The remaining bytes are not a complete valid frame — a torn tail
    /// (short frame) or a CRC/structure failure. The bad frame starts at
    /// the front of the remaining bytes; callers track absolute offsets
    /// themselves.
    Torn {
        /// Human-readable cause (short read vs CRC mismatch).
        detail: String,
    },
}

/// Reads one frame from the front of `bytes`.
pub fn read_frame(bytes: &[u8]) -> FrameRead<'_> {
    if bytes.is_empty() {
        return FrameRead::End;
    }
    if bytes.len() < 8 {
        return FrameRead::Torn {
            detail: format!(
                "{} bytes left, frame header needs 4 + trailer 4",
                bytes.len()
            ),
        };
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let Some(total) = len.checked_add(8).filter(|&t| t <= bytes.len()) else {
        return FrameRead::Torn {
            detail: format!("frame claims {len} payload bytes, {} left", bytes.len() - 8),
        };
    };
    let stored = u32::from_le_bytes([
        bytes[total - 4],
        bytes[total - 3],
        bytes[total - 2],
        bytes[total - 1],
    ]);
    let actual = crc32(&bytes[..total - 4]);
    if stored != actual {
        return FrameRead::Torn {
            detail: format!("crc mismatch: stored {stored:#010x}, computed {actual:#010x}"),
        };
    }
    FrameRead::Frame {
        payload: &bytes[4..total - 4],
        rest: &bytes[total..],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use sla_bigint::BigUint;
    use sla_hve::Ciphertext;
    use sla_pairing::{GElem, GtElem};

    fn tiny_record(user_id: u64) -> Record {
        let ciphertext = Ciphertext::from_parts(
            GtElem::from_canonical_log(BigUint::from_u64(7)),
            GElem::from_canonical_log(BigUint::from_u128(u128::MAX - 5)),
            vec![
                (
                    GElem::from_canonical_log(BigUint::zero()),
                    GElem::from_canonical_log(BigUint::from_u64(1)),
                ),
                (
                    GElem::from_canonical_log(BigUint::from_u64(1 << 40)),
                    GElem::from_canonical_log(BigUint::from_u64(12345)),
                ),
            ],
        );
        Record {
            user_id,
            epoch: 3,
            row: ciphertext.to_row(&GtElem::from_canonical_log(BigUint::from_u64(99))),
        }
    }

    #[test]
    fn record_roundtrip() {
        let record = tiny_record(42);
        let mut buf = Vec::new();
        encode_record(&record, &mut buf);
        assert_eq!(decode_record(&buf).unwrap(), record);
    }

    #[test]
    fn record_bytes_are_the_minimal_logs_in_file_order() {
        let mut buf = Vec::new();
        encode_record(&tiny_record(42), &mut buf);
        let log = |want: &mut Vec<u8>, bytes: &[u8]| {
            want.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            want.extend_from_slice(bytes);
        };
        let mut want = Vec::new();
        want.extend_from_slice(&42u64.to_le_bytes());
        want.extend_from_slice(&3u64.to_le_bytes());
        log(&mut want, &[99]);
        want.extend_from_slice(&2u32.to_le_bytes());
        log(&mut want, &[7]);
        log(&mut want, &(u128::MAX - 5).to_le_bytes());
        log(&mut want, &[]);
        log(&mut want, &[1]);
        log(&mut want, &[0, 0, 0, 0, 0, 1]);
        log(&mut want, &[0x39, 0x30]);
        assert_eq!(buf, want);
    }

    #[test]
    fn a_row_wider_than_its_payload_is_refused() {
        // Many empty logs and one of 64 KiB: the row would take the wide
        // log's width for every operand.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 0);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, MAX_WIDTH);
        put_u32(&mut buf, MAX_BIGUINT_BYTES);
        buf.resize(buf.len() + MAX_BIGUINT_BYTES as usize, 0xff);
        for _ in 0..(2 * MAX_WIDTH + 1) {
            put_u32(&mut buf, 0);
        }
        let err = decode_record(&buf).unwrap_err();
        assert!(err.0.contains("ceiling"), "{err}");
    }

    #[test]
    fn op_roundtrips() {
        let ops = [
            WalOp::Upsert(tiny_record(1)),
            WalOp::Remove { user_id: u64::MAX },
            WalOp::EvictBefore { min_epoch: 17 },
            WalOp::Epoch { epoch: 1 << 50 },
        ];
        for op in &ops {
            let mut buf = Vec::new();
            encode_op(op, &mut buf);
            assert_eq!(&decode_op(&buf).unwrap(), op);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_op(&WalOp::Remove { user_id: 7 }, &mut buf);
        buf.push(0);
        assert!(decode_op(&buf).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(decode_op(&[200, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn frame_roundtrip_and_torn_detection() {
        let mut payload = Vec::new();
        encode_op(&WalOp::Epoch { epoch: 9 }, &mut payload);
        let framed = frame(&payload);
        match read_frame(&framed) {
            FrameRead::Frame { payload: p, rest } => {
                assert_eq!(p, &payload[..]);
                assert!(rest.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // Every strict prefix is torn (or End for the empty prefix).
        for cut in 1..framed.len() {
            match read_frame(&framed[..cut]) {
                FrameRead::Torn { .. } => {}
                other => panic!("prefix {cut}: {other:?}"),
            }
        }
        assert!(matches!(read_frame(&[]), FrameRead::End));
    }

    #[test]
    fn length_field_corruption_is_caught_by_crc() {
        let mut payload = Vec::new();
        encode_op(&WalOp::Remove { user_id: 3 }, &mut payload);
        let framed = frame(&payload);
        for byte in 0..4 {
            let mut bad = framed.clone();
            bad[byte] ^= 0x01;
            assert!(
                matches!(read_frame(&bad), FrameRead::Torn { .. }),
                "length byte {byte}"
            );
        }
    }
}
