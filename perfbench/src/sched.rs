//! The load generator's two loops, one connection each.
//!
//! * [`open_loop`] sends request `k` at `start + k · interval` whether or
//!   not earlier requests have been answered, pipelined on one
//!   connection (the server reads, handles and answers frames in order).
//!   Every request is timed from its *intended* send time, so a stall is
//!   charged to each request queued behind it rather than hidden by a
//!   generator that waited (coordinated omission).
//! * [`alert_loop`] sends one request at a time: back to back (closed
//!   loop) or one per period on a fixed schedule.
//!
//! Timestamps are nanoseconds since the run's common origin, so the
//! oracle can order the two connections' operations against each other.

use sla_server::Response;
use sla_server::{decode_response, encode_request, read_frame, write_frame, FrameIn, Request};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Position in the loop's request sequence.
    pub index: usize,
    /// When it was due to be sent.
    pub due_ns: u64,
    /// When the generator was free to send it: its due time or, if the
    /// open loop's in-flight cap held it back, when the cap let it go.
    pub ready_ns: u64,
    /// When its frame was written.
    pub sent_ns: u64,
    /// When its response was read.
    pub recv_ns: u64,
    /// The decoded response.
    pub response: Response,
    /// Client-side codec time (encode request + decode response), when
    /// the open loop records spans.
    pub codec_ns: Option<u64>,
}

impl Completion {
    /// Latency from the intended send time.
    pub fn latency_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it. Time held back by the in-flight
    /// cap is the server's (it answered nothing for a while) and counts in
    /// the latency, which runs from the due time, not here.
    pub fn send_lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.ready_ns)
    }
}

/// The clock both loops of a run share.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// The instant `ns` after the origin.
    pub fn at(&self, ns: u64) -> Instant {
        self.0 + Duration::from_nanos(ns)
    }
}

/// Incremental frame parser over a byte stream that may deliver partial
/// frames; each complete frame is checked through the wire crate's own
/// [`read_frame`] (length cap and CRC).
#[derive(Debug, Default)]
struct FrameBuf {
    bytes: Vec<u8>,
}

impl FrameBuf {
    fn next(&mut self) -> io::Result<Option<Response>> {
        if self.bytes.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.bytes[..4].try_into().expect("4 bytes")) as usize;
        let total = len
            .checked_add(8)
            .ok_or_else(|| bad("frame length overflows"))?;
        if self.bytes.len() < total {
            return Ok(None);
        }
        let frame = match read_frame(&mut &self.bytes[..total])? {
            FrameIn::Frame(payload) => payload,
            other => return Err(bad(&format!("unreadable frame: {other:?}"))),
        };
        self.bytes.drain(..total);
        decode_response(&frame)
            .map(Some)
            .map_err(|e| bad(&format!("undecodable response: {}", e.0)))
    }
}

/// Requests an open loop lets go unanswered before it stops sending, well
/// below what the two socket buffers hold (a few hundred small frames).
const MAX_PENDING: usize = 128;

/// How long before a due time a loop stops blocking and spins, at most.
const SPIN_MARGIN: Duration = Duration::from_micros(200);

/// The share of the send interval the open loop may spin: a generator
/// that spins most of each interval would take a whole CPU from the
/// server at high rates.
const SPIN_SHARE: u32 = 10;

/// Sleeps until `due_ns`, spinning the last [`SPIN_MARGIN`].
fn wait_until(clock: Clock, due_ns: u64) {
    let wait = clock.at(due_ns).saturating_duration_since(Instant::now());
    std::thread::sleep(wait.saturating_sub(SPIN_MARGIN));
    while clock.now_ns() < due_ns {
        std::hint::spin_loop();
    }
}

fn bad(detail: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.to_string())
}

/// Sends `requests[k]` due at `start_ns + k · interval` until the first
/// request due at or after `stop_ns`, pipelined on `stream`, and returns
/// every sent request's completion in order. With `spans`, each
/// completion also carries the client's codec time.
///
/// The loop waits for a response or the next due time, whichever comes
/// first, so a response is timestamped when it arrives and a request is
/// sent when it is due.
pub fn open_loop(
    stream: &UnixStream,
    clock: Clock,
    start_ns: u64,
    interval: Duration,
    stop_ns: u64,
    requests: &mut dyn FnMut(usize) -> Option<Request>,
    spans: bool,
) -> io::Result<Vec<Completion>> {
    crate::sys::set_timer_slack(1);
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let interval_ns = interval.as_nanos() as u64;
    let spin = SPIN_MARGIN.min(interval / SPIN_SHARE);
    let mut done: Vec<Completion> = Vec::new();
    let mut pending = VecDeque::new();
    let mut inbox = Inbox::default();
    let mut next = 0usize;
    let mut next_req = requests(0);
    let mut io = stream;
    // Whether the in-flight cap held a send back, and when it last let
    // one go.
    let (mut capped, mut released_ns) = (false, 0u64);
    loop {
        let due = start_ns + next as u64 * interval_ns;
        let sending = next_req.is_some() && due < stop_ns;
        if !sending && pending.is_empty() {
            return Ok(done);
        }
        let now = clock.now_ns();
        let can_send = sending && pending.len() < MAX_PENDING;
        capped |= sending && !can_send && now >= due;
        if can_send && now >= due {
            if std::mem::take(&mut capped) {
                released_ns = now;
            }
            // Collect what has arrived first: a client that only writes
            // while behind schedule fills both socket buffers and
            // deadlocks with the server.
            if !pending.is_empty() && crate::sys::wait_readable(stream, Duration::ZERO)? {
                inbox.receive(&mut io, clock, &mut pending, &mut done)?;
            }
            let req = next_req.take().expect("checked above");
            let t = spans.then(|| clock.now_ns());
            let payload = encode_request(&req);
            let encode_ns = t.map(|t| clock.now_ns() - t);
            let sent = clock.now_ns();
            write_frame(&mut io, &payload)?;
            pending.push_back((next, due, due.max(released_ns), sent, encode_ns));
            next += 1;
            next_req = requests(next);
            continue;
        }
        // Block until shortly before the next send is due, then spin the
        // rest: a thread that blocks to the due time itself wakes late
        // (on a virtual machine, an idle CPU has to be woken first), and
        // latency is charged from the due time.
        let block = if can_send {
            Duration::from_nanos(due - now).saturating_sub(spin)
        } else {
            Duration::from_secs(30)
        };
        if pending.is_empty() {
            if block.is_zero() {
                std::hint::spin_loop();
            } else {
                std::thread::sleep(block);
            }
            continue;
        }
        // Responses outstanding: wait for bytes, so a response is
        // timestamped when it arrives.
        if crate::sys::wait_readable(stream, block)? {
            inbox.receive(&mut io, clock, &mut pending, &mut done)?;
        } else if !can_send {
            return Err(bad("no response within 30 s"));
        }
    }
}

/// A request awaiting its response: `(index, due, ready, sent, encode
/// time)`.
type Pending = (usize, u64, u64, u64, Option<u64>);

/// The open loop's receive side.
#[derive(Debug)]
struct Inbox {
    frames: FrameBuf,
    chunk: Vec<u8>,
}

impl Default for Inbox {
    fn default() -> Self {
        Inbox {
            frames: FrameBuf::default(),
            chunk: vec![0u8; 64 * 1024],
        }
    }
}

impl Inbox {
    /// One read from a readable stream; every complete response it
    /// finishes is matched to the oldest pending request.
    fn receive(
        &mut self,
        io: &mut &UnixStream,
        clock: Clock,
        pending: &mut VecDeque<Pending>,
        done: &mut Vec<Completion>,
    ) -> io::Result<()> {
        let n = match io.read(&mut self.chunk) {
            Ok(0) => return Err(bad("server closed the connection")),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(e),
        };
        let recv = clock.now_ns();
        self.frames.bytes.extend_from_slice(&self.chunk[..n]);
        loop {
            let t = clock.now_ns();
            let Some(response) = self.frames.next()? else {
                return Ok(());
            };
            let decode_ns = clock.now_ns() - t;
            let (index, due_ns, ready_ns, sent_ns, encode_ns) = pending
                .pop_front()
                .ok_or_else(|| bad("response without a request"))?;
            done.push(Completion {
                index,
                due_ns,
                ready_ns,
                sent_ns,
                recv_ns: recv,
                response,
                codec_ns: encode_ns.map(|e| e + decode_ns),
            });
        }
    }
}

/// Sends `requests(k)` one at a time: on the schedule `dues` (alert `k`
/// due at `dues[k]` and timed from then), or back to back from `start_ns`
/// until `stop_ns` when `dues` is `None` (each due when sent).
pub fn alert_loop(
    stream: &mut UnixStream,
    clock: Clock,
    start_ns: u64,
    dues: Option<&[u64]>,
    stop_ns: u64,
    requests: &mut dyn FnMut(usize) -> Request,
) -> io::Result<Vec<Completion>> {
    crate::sys::set_timer_slack(1);
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut done = Vec::new();
    std::thread::sleep(clock.at(start_ns).saturating_duration_since(Instant::now()));
    for index in 0.. {
        let due = match dues {
            Some(dues) if index < dues.len() => dues[index],
            Some(_) => break,
            None => clock.now_ns(),
        };
        if due >= stop_ns {
            break;
        }
        wait_until(clock, due);
        let payload = encode_request(&requests(index));
        let sent = clock.now_ns();
        write_frame(stream, &payload)?;
        let frame = match read_frame(stream)? {
            FrameIn::Frame(payload) => payload,
            other => return Err(bad(&format!("unreadable frame: {other:?}"))),
        };
        let recv = clock.now_ns();
        done.push(Completion {
            index,
            due_ns: due,
            ready_ns: due,
            sent_ns: sent,
            recv_ns: recv,
            response: decode_response(&frame).map_err(|e| bad(&e.0))?,
            codec_ns: None,
        });
    }
    Ok(done)
}

/// Sends every request pipelined in windows of `window` and returns the
/// responses in order (set-up preloading; nothing here is timed).
pub fn pipelined(
    stream: &mut UnixStream,
    requests: &[Request],
    window: usize,
) -> io::Result<Vec<Response>> {
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut out = Vec::with_capacity(requests.len());
    for batch in requests.chunks(window.max(1)) {
        let mut bytes = Vec::new();
        for req in batch {
            write_frame(&mut bytes, &encode_request(req))?;
        }
        stream.write_all(&bytes)?;
        for _ in batch {
            let frame = match read_frame(stream)? {
                FrameIn::Frame(payload) => payload,
                other => return Err(bad(&format!("unreadable frame: {other:?}"))),
            };
            out.push(decode_response(&frame).map_err(|e| bad(&e.0))?);
        }
    }
    Ok(out)
}
