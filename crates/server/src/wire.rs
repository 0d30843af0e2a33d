//! The wire protocol: request/response payloads and CRC-checked frame
//! I/O.
//!
//! ## Framing
//!
//! Every message on the wire is one frame, in the exact style of the
//! `sla-persist` on-disk codec:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes] [crc: u32 LE]
//! ```
//!
//! where `crc = crc32(len_bytes ‖ payload)` — the CRC covers the length
//! field, so a corrupted length cannot silently re-frame the stream.
//! Frames larger than [`MAX_FRAME_BYTES`] are rejected **before** the
//! payload is allocated. A frame that ends mid-stream (client
//! disconnect, torn write) is distinguishable from a clean close at a
//! frame boundary; see [`FrameIn`].
//!
//! ## Payloads
//!
//! Payloads are tag-dispatched little-endian structs ([`Request`] /
//! [`Response`]), every integer fixed-width LE, lists behind a `u32`
//! count, strings behind a `u32` byte length. Decoding is strict: an
//! unknown tag, an undersized list, or trailing bytes all fail with a
//! [`DecodeError`] — reaching one through a valid CRC means the peer
//! speaks a different protocol version, and the connection is dropped
//! rather than resynced.

use sla_core::{ServiceStats, SlaError};
use sla_persist::crc::crc32;
use std::io::{self, ErrorKind, Read, Write};

/// Hard ceiling on one frame (length field), applied on both sides
/// before any allocation. Generous for this protocol: the largest real
/// message is an `Alerted` response carrying one `u64` per notified
/// user, so 1 MiB covers ~130k notifications per alert.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Subscribe (or move) `user_id` at `cell` — the server encrypts the
    /// update and upserts it through the shared-store seam.
    Subscribe {
        /// The user subscribing.
        user_id: u64,
        /// The grid cell (validated server-side against the grid).
        cell: u64,
    },
    /// Drop `user_id`'s subscription.
    Unsubscribe {
        /// The user unsubscribing.
        user_id: u64,
    },
    /// Issue an alert over `cells`.
    Alert {
        /// The alert zone's cell indices.
        cells: Vec<u64>,
    },
    /// Snapshot the serving stats (never takes a write lock).
    Stats,
    /// Gracefully shut the server down: stop accepting, drain
    /// connections, flush the durable store's WAL, exit.
    Shutdown,
}

impl Request {
    /// Short label naming the request's kind (for logs and messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Subscribe { .. } => "subscribe",
            Request::Unsubscribe { .. } => "unsubscribe",
            Request::Alert { .. } => "alert",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The subscription was stored.
    Subscribed {
        /// `true` when a previous ciphertext was replaced (the user
        /// moved), `false` on first insert.
        replaced: bool,
    },
    /// The subscription was removed.
    Unsubscribed,
    /// The alert was evaluated.
    Alerted {
        /// Users inside the alert zone, sorted.
        notified: Vec<u64>,
        /// Tokens the TA issued after minimization.
        tokens_issued: u32,
        /// Pairings the SP's matcher spent on this alert, counted by the
        /// alert's own sweeps (exact under concurrent requests).
        pairings_used: u64,
    },
    /// The serving stats snapshot.
    Stats(WireStats),
    /// Shutdown acknowledged; the server drains and exits after this.
    ShuttingDown,
    /// **Backpressure**: every worker is occupied and the hand-off
    /// queue is full. The connection is closed after this frame and
    /// nothing on it was executed; reconnect after a backoff. Typed
    /// instead of queueing, so overload degrades into explicit
    /// rejections rather than unbounded latency.
    Busy {
        /// The limit that was reached: the server's worker count, and
        /// so the most requests it ever has in flight.
        in_flight_limit: u32,
    },
    /// The request failed with a typed error.
    Error {
        /// The service-level error family.
        code: ErrorCode,
        /// Rendered detail for operators.
        detail: String,
    },
}

/// The wire image of the serving-stats snapshot
/// (`sla_core::ServiceStats` plus the server's own RPC counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStats {
    /// Store backend name.
    pub backend: String,
    /// Number of store shards.
    pub shards: u64,
    /// Live subscriptions.
    pub subscriptions: u64,
    /// Current service epoch.
    pub epoch: u64,
    /// Lifetime first-time inserts.
    pub inserted: u64,
    /// Lifetime replacing upserts.
    pub replaced: u64,
    /// Lifetime unsubscribes.
    pub unsubscribed: u64,
    /// Lifetime TTL evictions.
    pub evicted: u64,
    /// The epoch a durable backend recovered at open.
    pub recovered_epoch: Option<u64>,
    /// Requests served, by kind: subscribe/unsubscribe upserts.
    pub ops_subscribe: u64,
    /// Unsubscribe requests served.
    pub ops_unsubscribe: u64,
    /// Alert requests served.
    pub ops_alert: u64,
    /// Stats requests served.
    pub ops_stats: u64,
    /// Connections rejected with [`Response::Busy`].
    pub busy_rejections: u64,
    /// Per-lane durability stats in shard order (lane index == shard
    /// index). Empty on volatile backends.
    pub lanes: Vec<WireLaneStats>,
}

/// One durability lane's wire stats (see
/// `sla_core::DurabilityLaneStats`; the shard index is the position in
/// [`WireStats::lanes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLaneStats {
    /// The lane's current WAL generation.
    pub wal_generation: u64,
    /// Ops appended to the lane since its last snapshot.
    pub depth: u64,
}

/// The wire error taxonomy — a stable numeric mirror of the
/// [`SlaError`] families a server can raise while serving (plus
/// [`ErrorCode::ShuttingDown`] for requests racing a drain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// A cell outside the server's grid.
    CellOutOfRange = 1,
    /// An unsubscribe for a user with no stored subscription.
    UnknownUser = 2,
    /// A user id outside the HVE message domain.
    MessageOutOfDomain = 3,
    // 4 is retired: it reported a store backend without `&self`
    // mutation, and no such backend is left. Never reuse 4, so a frame
    // carrying it keeps failing to decode instead of changing meaning.
    /// Durable-store I/O failure underneath the request.
    Storage = 5,
    /// Durable-store corruption underneath the request.
    Corrupt = 6,
    /// Transport-level I/O failure.
    Io = 7,
    /// The peer's bytes did not parse (torn frame, CRC mismatch,
    /// oversized frame, unknown tag, trailing bytes).
    Protocol = 8,
    /// The server is draining; no new requests are executed.
    ShuttingDown = 9,
    /// Any other `SlaError` (rendered in the detail).
    Internal = 10,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::CellOutOfRange,
            2 => ErrorCode::UnknownUser,
            3 => ErrorCode::MessageOutOfDomain,
            5 => ErrorCode::Storage,
            6 => ErrorCode::Corrupt,
            7 => ErrorCode::Io,
            8 => ErrorCode::Protocol,
            9 => ErrorCode::ShuttingDown,
            10 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Maps a service-layer error onto its wire family (the detail keeps
/// the full rendered form).
pub fn error_response(err: &SlaError) -> Response {
    let code = match err {
        SlaError::CellOutOfRange { .. } => ErrorCode::CellOutOfRange,
        SlaError::UnknownUser { .. } => ErrorCode::UnknownUser,
        SlaError::MessageOutOfDomain { .. } => ErrorCode::MessageOutOfDomain,
        SlaError::Storage { .. } => ErrorCode::Storage,
        SlaError::Corrupt { .. } => ErrorCode::Corrupt,
        SlaError::Io { .. } => ErrorCode::Io,
        SlaError::Protocol { .. } => ErrorCode::Protocol,
        _ => ErrorCode::Internal,
    };
    Response::Error {
        code,
        detail: err.to_string(),
    }
}

/// Why a CRC-valid payload failed to decode (version skew or a peer
/// speaking another protocol — the connection is dropped, not resynced).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for SlaError {
    fn from(e: DecodeError) -> Self {
        SlaError::Protocol { detail: e.0 }
    }
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

const REQ_SUBSCRIBE: u8 = 1;
const REQ_UNSUBSCRIBE: u8 = 2;
const REQ_ALERT: u8 = 3;
// 4 is retired: it was `BatchAlert`, an alert through a second,
// chunked matcher, and every alert now takes the one matcher tag 3
// reaches. Never reuse 4, so a frame carrying it keeps failing to
// decode instead of changing meaning.
const REQ_STATS: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;

const RESP_SUBSCRIBED: u8 = 1;
const RESP_UNSUBSCRIBED: u8 = 2;
const RESP_ALERTED: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_SHUTTING_DOWN: u8 = 5;
const RESP_BUSY: u8 = 6;
const RESP_ERROR: u8 = 7;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_vec_u64(out: &mut Vec<u8>, v: &[u64]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u64(out, x);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
        None => out.push(0),
    }
}

/// Encodes one request payload (no frame).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Subscribe { user_id, cell } => {
            out.push(REQ_SUBSCRIBE);
            put_u64(&mut out, *user_id);
            put_u64(&mut out, *cell);
        }
        Request::Unsubscribe { user_id } => {
            out.push(REQ_UNSUBSCRIBE);
            put_u64(&mut out, *user_id);
        }
        Request::Alert { cells } => {
            out.push(REQ_ALERT);
            put_vec_u64(&mut out, cells);
        }
        Request::Stats => out.push(REQ_STATS),
        Request::Shutdown => out.push(REQ_SHUTDOWN),
    }
    out
}

/// Encodes one response payload (no frame).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Subscribed { replaced } => {
            out.push(RESP_SUBSCRIBED);
            out.push(u8::from(*replaced));
        }
        Response::Unsubscribed => out.push(RESP_UNSUBSCRIBED),
        Response::Alerted {
            notified,
            tokens_issued,
            pairings_used,
        } => {
            out.push(RESP_ALERTED);
            put_vec_u64(&mut out, notified);
            put_u32(&mut out, *tokens_issued);
            put_u64(&mut out, *pairings_used);
        }
        Response::Stats(stats) => {
            out.push(RESP_STATS);
            put_str(&mut out, &stats.backend);
            put_u64(&mut out, stats.shards);
            put_u64(&mut out, stats.subscriptions);
            put_u64(&mut out, stats.epoch);
            put_u64(&mut out, stats.inserted);
            put_u64(&mut out, stats.replaced);
            put_u64(&mut out, stats.unsubscribed);
            put_u64(&mut out, stats.evicted);
            put_opt_u64(&mut out, stats.recovered_epoch);
            put_u64(&mut out, stats.ops_subscribe);
            put_u64(&mut out, stats.ops_unsubscribe);
            put_u64(&mut out, stats.ops_alert);
            put_u64(&mut out, stats.ops_stats);
            put_u64(&mut out, stats.busy_rejections);
            put_u32(&mut out, stats.lanes.len() as u32);
            for lane in &stats.lanes {
                put_u64(&mut out, lane.wal_generation);
                put_u64(&mut out, lane.depth);
            }
        }
        Response::ShuttingDown => out.push(RESP_SHUTTING_DOWN),
        Response::Busy { in_flight_limit } => {
            out.push(RESP_BUSY);
            put_u32(&mut out, *in_flight_limit);
        }
        Response::Error { code, detail } => {
            out.push(RESP_ERROR);
            out.push(*code as u8);
            put_str(&mut out, detail);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Payload decoding
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

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
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

    /// A `u32`-counted list of `u64`s; the count is validated against
    /// the remaining bytes **before** any allocation, so a corrupted
    /// count cannot ask for gigabytes.
    fn vec_u64(&mut self) -> Result<Vec<u64>, DecodeError> {
        let count = self.u32()? as usize;
        if count * 8 > self.remaining() {
            return Err(DecodeError(format!(
                "list claims {count} u64s but only {} payload bytes remain",
                self.remaining()
            )));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// A `u32`-length-prefixed UTF-8 string (length validated against
    /// the remaining bytes before allocation).
    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(DecodeError(format!(
                "string claims {len} bytes but only {} payload bytes remain",
                self.remaining()
            )));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|e| DecodeError(format!("invalid utf-8 in string: {e}")))
    }

    /// A `u32`-counted list of per-lane stats pairs; like
    /// [`Cursor::vec_u64`], the count is validated against the
    /// remaining bytes before any allocation.
    fn lanes(&mut self) -> Result<Vec<WireLaneStats>, DecodeError> {
        let count = self.u32()? as usize;
        if count * 16 > self.remaining() {
            return Err(DecodeError(format!(
                "lane list claims {count} lanes but only {} payload bytes remain",
                self.remaining()
            )));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(WireLaneStats {
                wal_generation: self.u64()?,
                depth: self.u64()?,
            });
        }
        Ok(out)
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            flag => Err(DecodeError(format!("invalid option flag {flag}"))),
        }
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

/// Decodes one request payload (the exact inverse of
/// [`encode_request`]; trailing bytes are an error).
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut cur = Cursor::new(payload);
    let req = match cur.u8()? {
        REQ_SUBSCRIBE => Request::Subscribe {
            user_id: cur.u64()?,
            cell: cur.u64()?,
        },
        REQ_UNSUBSCRIBE => Request::Unsubscribe {
            user_id: cur.u64()?,
        },
        REQ_ALERT => Request::Alert {
            cells: cur.vec_u64()?,
        },
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        tag => return Err(DecodeError(format!("unknown request tag {tag}"))),
    };
    cur.finish()?;
    Ok(req)
}

/// Decodes one response payload (the exact inverse of
/// [`encode_response`]).
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut cur = Cursor::new(payload);
    let resp = match cur.u8()? {
        RESP_SUBSCRIBED => Response::Subscribed {
            replaced: match cur.u8()? {
                0 => false,
                1 => true,
                v => return Err(DecodeError(format!("invalid bool {v}"))),
            },
        },
        RESP_UNSUBSCRIBED => Response::Unsubscribed,
        RESP_ALERTED => Response::Alerted {
            notified: cur.vec_u64()?,
            tokens_issued: cur.u32()?,
            pairings_used: cur.u64()?,
        },
        RESP_STATS => Response::Stats(WireStats {
            backend: cur.str()?,
            shards: cur.u64()?,
            subscriptions: cur.u64()?,
            epoch: cur.u64()?,
            inserted: cur.u64()?,
            replaced: cur.u64()?,
            unsubscribed: cur.u64()?,
            evicted: cur.u64()?,
            recovered_epoch: cur.opt_u64()?,
            ops_subscribe: cur.u64()?,
            ops_unsubscribe: cur.u64()?,
            ops_alert: cur.u64()?,
            ops_stats: cur.u64()?,
            busy_rejections: cur.u64()?,
            lanes: cur.lanes()?,
        }),
        RESP_SHUTTING_DOWN => Response::ShuttingDown,
        RESP_BUSY => Response::Busy {
            in_flight_limit: cur.u32()?,
        },
        RESP_ERROR => {
            let raw = cur.u8()?;
            let code = ErrorCode::from_u8(raw)
                .ok_or_else(|| DecodeError(format!("unknown error code {raw}")))?;
            Response::Error {
                code,
                detail: cur.str()?,
            }
        }
        tag => return Err(DecodeError(format!("unknown response tag {tag}"))),
    };
    cur.finish()?;
    Ok(resp)
}

/// Builds the serving-stats wire image from the core snapshot plus the
/// server's own RPC counters.
pub fn wire_stats(stats: &ServiceStats, ops: [u64; 4], busy_rejections: u64) -> WireStats {
    WireStats {
        backend: stats.store.backend.to_string(),
        shards: stats.store.shards as u64,
        subscriptions: stats.store.subscriptions as u64,
        epoch: stats.store.epoch,
        inserted: stats.store.inserted,
        replaced: stats.store.replaced,
        unsubscribed: stats.store.unsubscribed,
        evicted: stats.store.evicted,
        recovered_epoch: stats.recovered_epoch,
        ops_subscribe: ops[0],
        ops_unsubscribe: ops[1],
        ops_alert: ops[2],
        ops_stats: ops[3],
        busy_rejections,
        lanes: stats
            .durability_lanes
            .iter()
            .map(|lane| WireLaneStats {
                wal_generation: lane.wal_generation,
                depth: lane.depth as u64,
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// What pulling one frame off a stream produced.
#[derive(Debug)]
pub enum FrameIn {
    /// A complete CRC-valid frame's payload.
    Frame(Vec<u8>),
    /// The peer closed cleanly at a frame boundary (zero bytes read).
    Closed,
    /// The stream ended or failed **inside** a frame: a torn write
    /// followed by disconnect, a CRC mismatch, or an oversized length.
    /// The connection cannot be resynced.
    Torn(String),
    /// The abort predicate fired while waiting (server shutdown).
    Aborted,
}

/// Outcome of filling a fixed buffer from a stream.
enum ReadFull {
    /// The buffer is full.
    Complete,
    /// EOF after this many bytes (0 = clean close).
    Eof(usize),
    /// The abort predicate fired during a timeout window.
    Aborted,
}

/// Fills `buf` from `r`, treating read-timeout errors (`WouldBlock` /
/// `TimedOut`) as polls of `abort` rather than failures — the seam that
/// lets a blocking worker observe the shutdown flag. Real I/O errors
/// propagate.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    abort: &mut impl FnMut() -> bool,
) -> io::Result<ReadFull> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => return Ok(ReadFull::Eof(n)),
            Ok(m) => n += m,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if abort() {
                    return Ok(ReadFull::Aborted);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(ReadFull::Complete)
}

/// Reads one frame, polling `abort` whenever a read times out (the
/// stream's own read timeout sets the poll interval). Distinguishes a
/// clean close at a frame boundary ([`FrameIn::Closed`]) from a torn
/// frame ([`FrameIn::Torn`]); enforces [`MAX_FRAME_BYTES`] before
/// allocating the payload.
pub fn read_frame_abortable(
    r: &mut impl Read,
    abort: &mut impl FnMut() -> bool,
) -> io::Result<FrameIn> {
    let mut header = [0u8; 4];
    match read_full(r, &mut header, abort)? {
        ReadFull::Complete => {}
        ReadFull::Eof(0) => return Ok(FrameIn::Closed),
        ReadFull::Eof(n) => {
            return Ok(FrameIn::Torn(format!(
                "disconnect after {n} of 4 length-prefix bytes"
            )))
        }
        ReadFull::Aborted => return Ok(FrameIn::Aborted),
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Ok(FrameIn::Torn(format!(
            "frame claims {len} bytes, cap is {MAX_FRAME_BYTES}"
        )));
    }
    let mut body = vec![0u8; len as usize + 4]; // payload + crc trailer
    match read_full(r, &mut body, abort)? {
        ReadFull::Complete => {}
        ReadFull::Eof(n) => {
            return Ok(FrameIn::Torn(format!(
                "disconnect after {n} of {} frame body bytes",
                body.len()
            )))
        }
        ReadFull::Aborted => return Ok(FrameIn::Aborted),
    }
    let stored = u32::from_le_bytes([
        body[len as usize],
        body[len as usize + 1],
        body[len as usize + 2],
        body[len as usize + 3],
    ]);
    let mut checked = Vec::with_capacity(4 + len as usize);
    checked.extend_from_slice(&header);
    checked.extend_from_slice(&body[..len as usize]);
    let actual = crc32(&checked);
    if stored != actual {
        return Ok(FrameIn::Torn(format!(
            "crc mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    body.truncate(len as usize);
    Ok(FrameIn::Frame(body))
}

/// [`read_frame_abortable`] with no abort condition — the client side,
/// where reads block until the server answers.
pub fn read_frame(r: &mut impl Read) -> io::Result<FrameIn> {
    read_frame_abortable(r, &mut || false)
}

/// Writes one `[len][payload][crc]` frame and flushes. Blocking: a slow
/// reader applies backpressure through the kernel socket buffer (pair
/// with a socket write timeout to bound how long a dead peer can hold a
/// worker).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut frame, payload.len() as u32);
    frame.extend_from_slice(payload);
    let crc = crc32(&frame);
    put_u32(&mut frame, crc);
    w.write_all(&frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let requests = [
            Request::Subscribe {
                user_id: 7,
                cell: 12,
            },
            Request::Unsubscribe { user_id: u64::MAX },
            Request::Alert { cells: vec![] },
            Request::Alert {
                cells: vec![1, 2, 1 << 40],
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in &requests {
            assert_eq!(&decode_request(&encode_request(req)).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrips() {
        let responses = [
            Response::Subscribed { replaced: true },
            Response::Unsubscribed,
            Response::Alerted {
                notified: vec![3, 5, 900],
                tokens_issued: 4,
                pairings_used: 1234,
            },
            Response::Stats(WireStats {
                backend: "persistent".into(),
                shards: 16,
                subscriptions: 40,
                epoch: 3,
                inserted: 44,
                replaced: 11,
                unsubscribed: 4,
                evicted: 0,
                recovered_epoch: Some(2),
                ops_subscribe: 55,
                ops_unsubscribe: 4,
                ops_alert: 6,
                ops_stats: 1,
                busy_rejections: 9,
                lanes: vec![
                    WireLaneStats {
                        wal_generation: 3,
                        depth: 17,
                    },
                    WireLaneStats {
                        wal_generation: 1,
                        depth: 0,
                    },
                ],
            }),
            Response::ShuttingDown,
            Response::Busy {
                in_flight_limit: 64,
            },
            Response::Error {
                code: ErrorCode::CellOutOfRange,
                detail: "cell 99 out of range".into(),
            },
        ];
        for resp in &responses {
            assert_eq!(&decode_response(&encode_response(resp)).unwrap(), resp);
        }
    }

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let payload = encode_request(&Request::Stats);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        match read_frame(&mut &buf[..]).unwrap() {
            FrameIn::Frame(p) => assert_eq!(p, payload),
            other => panic!("{other:?}"),
        }
        // After the frame: clean close.
        let mut rest = &buf[buf.len()..];
        assert!(matches!(read_frame(&mut rest).unwrap(), FrameIn::Closed));
    }

    #[test]
    fn every_frame_prefix_is_torn() {
        let payload = encode_request(&Request::Subscribe {
            user_id: 1,
            cell: 2,
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        for cut in 1..buf.len() {
            match read_frame(&mut &buf[..cut]).unwrap() {
                FrameIn::Torn(_) => {}
                other => panic!("prefix {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_u32(&mut buf, MAX_FRAME_BYTES + 1);
        buf.extend_from_slice(&[0; 16]);
        match read_frame(&mut &buf[..]).unwrap() {
            FrameIn::Torn(detail) => assert!(detail.contains("cap"), "{detail}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupt_list_count_cannot_force_allocation() {
        // REQ_ALERT with a count far beyond the payload.
        let mut payload = vec![REQ_ALERT];
        put_u32(&mut payload, u32::MAX);
        let err = decode_request(&payload).unwrap_err();
        assert!(err.0.contains("remain"), "{err}");
    }

    #[test]
    fn retired_error_code_4_is_rejected() {
        let mut payload = encode_response(&Response::Error {
            code: ErrorCode::MessageOutOfDomain,
            detail: "retired".into(),
        });
        // The code byte follows the response tag.
        assert_eq!(payload[1], ErrorCode::MessageOutOfDomain as u8);
        payload[1] = 4;
        let err = decode_response(&payload).unwrap_err();
        assert!(err.0.contains("unknown error code 4"), "{err}");
    }

    #[test]
    fn retired_request_tag_4_is_rejected() {
        // Tag 4 followed by what the retired `BatchAlert` carried: a
        // chunk size and a cell list.
        let mut payload = vec![4];
        put_u32(&mut payload, 0);
        put_vec_u64(&mut payload, &[9]);
        let err = decode_request(&payload).unwrap_err();
        assert!(err.0.contains("unknown request tag 4"), "{err}");
    }

    #[test]
    fn error_code_mapping_covers_the_taxonomy() {
        let io_err = SlaError::Io {
            detail: "reset".into(),
        };
        match error_response(&io_err) {
            Response::Error { code, detail } => {
                assert_eq!(code, ErrorCode::Io);
                assert!(detail.contains("reset"));
            }
            other => panic!("{other:?}"),
        }
        match error_response(&SlaError::ZeroShardCount) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Internal),
            other => panic!("{other:?}"),
        }
    }
}
