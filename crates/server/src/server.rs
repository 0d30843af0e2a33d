//! The blocking server: listeners, a hand-rolled worker pool, and
//! graceful drain.
//!
//! ## Shape
//!
//! One nonblocking accept loop feeds accepted streams to `workers`
//! pre-spawned threads over a bounded channel. Each worker owns one
//! connection at a time and runs [`serve_connection`] — a standalone
//! function over any `Read + Write` stream, which is the seam an epoll
//! reactor would replace: the poll loop would own the streams and call
//! the same per-frame logic, and everything above it (service, codec)
//! is already non-blocking-agnostic.
//!
//! ## Backpressure
//!
//! A worker serves one request at a time, so at most `workers`
//! requests are ever in flight. When every worker is occupied and the
//! hand-off queue is full, a new connection is answered with one
//! [`Response::Busy`] frame and closed — never queued invisibly.
//!
//! ## Shutdown
//!
//! A `shutdown` RPC flips the service's drain flag. The accept loop
//! stops, every worker's blocking read times out within 25 ms and
//! observes the flag, in-flight requests finish, the workers are
//! joined, the durable store's WAL is flushed via `AlertSystem::sync`,
//! the Unix socket file is removed, and `serve` returns.

use crate::service::AlertService;
use crate::wire::{
    decode_request, encode_response, error_response, read_frame_abortable, write_frame, FrameIn,
    Response,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sla_core::{SlaError, SlaResult};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Socket read timeout: the interval at which a blocked worker polls
/// the drain flag, and therefore the worst-case lag between a
/// `shutdown` RPC and idle connections noticing it.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// Tuning for one [`SlaServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads = maximum concurrently served connections.
    pub workers: usize,
    /// Base seed for the per-connection RNGs (each connection derives
    /// its own deterministic stream from this and its connection id).
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            seed: 0x51a_5e41e5,
        }
    }
}

/// Why [`serve_connection`] returned.
#[derive(Debug, PartialEq, Eq)]
pub enum ConnOutcome {
    /// The peer closed cleanly at a frame boundary.
    Closed,
    /// The server began draining while this connection was idle.
    Drained,
    /// This connection delivered the accepted `shutdown` RPC.
    ShutdownRequested,
    /// The stream tore mid-frame (disconnect, CRC mismatch, oversized
    /// or unparseable frame) and was dropped.
    Torn(String),
}

/// Serves one connection to completion: a loop of read frame → decode →
/// execute → write frame. Standalone and generic over the stream so it
/// works identically under the thread pool, in unit tests over
/// `UnixStream::pair`, or beneath a future epoll reactor.
///
/// Torn or undecodable input ends the connection (a best-effort typed
/// error frame is sent first when the framing itself was intact);
/// `io::Error` is returned only for transport failures writing a
/// response.
pub fn serve_connection<S: Read + Write, R: Rng>(
    io: &mut S,
    service: &AlertService,
    rng: &mut R,
) -> io::Result<ConnOutcome> {
    loop {
        let frame = read_frame_abortable(io, &mut || service.is_draining())?;
        let payload = match frame {
            FrameIn::Frame(p) => p,
            FrameIn::Closed => return Ok(ConnOutcome::Closed),
            FrameIn::Aborted => return Ok(ConnOutcome::Drained),
            FrameIn::Torn(detail) => {
                // Best-effort: the stream may already be gone.
                let resp = error_response(&SlaError::Protocol {
                    detail: detail.clone(),
                });
                let _ = write_frame(io, &encode_response(&resp));
                return Ok(ConnOutcome::Torn(detail));
            }
        };
        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                // The CRC was valid, so the peer speaks a different
                // protocol revision: answer typed, then drop — the
                // stream cannot be trusted frame-to-frame.
                let resp = error_response(&e.clone().into());
                let _ = write_frame(io, &encode_response(&resp));
                return Ok(ConnOutcome::Torn(e.0));
            }
        };
        let resp = service.handle(&req, rng);
        let shutdown = matches!(resp, Response::ShuttingDown);
        write_frame(io, &encode_response(&resp))?;
        if shutdown {
            return Ok(ConnOutcome::ShutdownRequested);
        }
    }
}

/// The two stream flavors the server accepts, unified behind
/// `Read + Write` for [`serve_connection`].
#[derive(Debug)]
enum StreamKind {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl StreamKind {
    fn set_timeouts(&self, read: Duration) -> io::Result<()> {
        // The write timeout bounds how long a dead peer with a full
        // socket buffer can hold a worker hostage.
        let write = Some(read.max(Duration::from_secs(5)));
        match self {
            StreamKind::Tcp(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(write)
            }
            StreamKind::Unix(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(write)
            }
        }
    }
}

impl Read for StreamKind {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            StreamKind::Tcp(s) => s.read(buf),
            StreamKind::Unix(s) => s.read(buf),
        }
    }
}

impl Write for StreamKind {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            StreamKind::Tcp(s) => s.write(buf),
            StreamKind::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            StreamKind::Tcp(s) => s.flush(),
            StreamKind::Unix(s) => s.flush(),
        }
    }
}

#[derive(Debug)]
enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl ListenerKind {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            ListenerKind::Tcp(l) => l.set_nonblocking(true),
            ListenerKind::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<StreamKind> {
        match self {
            ListenerKind::Tcp(l) => l.accept().map(|(s, _)| StreamKind::Tcp(s)),
            ListenerKind::Unix(l) => l.accept().map(|(s, _)| StreamKind::Unix(s)),
        }
    }
}

/// What a completed [`SlaServer::serve`] run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections handed to a worker.
    pub connections: u64,
    /// Connections rejected with a [`Response::Busy`] frame because the
    /// pool and its hand-off queue were full.
    pub rejected_connections: u64,
}

/// A bound, not-yet-serving server over one endpoint.
#[derive(Debug)]
pub struct SlaServer {
    service: Arc<AlertService>,
    config: ServerConfig,
    listener: ListenerKind,
    /// Set for Unix endpoints: removed on graceful shutdown.
    socket_path: Option<PathBuf>,
    local_addr: String,
}

impl SlaServer {
    /// Binds a Unix-domain endpoint at `path` (a stale socket file from
    /// a previous run is removed first).
    pub fn bind_unix(
        service: AlertService,
        path: impl Into<PathBuf>,
        config: ServerConfig,
    ) -> SlaResult<Self> {
        let path = path.into();
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        Ok(SlaServer {
            service: Arc::new(service),
            config,
            listener: ListenerKind::Unix(listener),
            local_addr: format!("unix://{}", path.display()),
            socket_path: Some(path),
        })
    }

    /// Binds a TCP endpoint at `addr` (e.g. `127.0.0.1:0` to let the
    /// kernel pick a port — read it back via [`Self::local_addr`]).
    pub fn bind_tcp(service: AlertService, addr: &str, config: ServerConfig) -> SlaResult<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(SlaServer {
            service: Arc::new(service),
            config,
            listener: ListenerKind::Tcp(listener),
            socket_path: None,
            local_addr: format!("tcp://{local}"),
        })
    }

    /// The bound endpoint (`unix://<path>` or `tcp://<ip>:<port>` with
    /// the actual port).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// A handle to the shared service (e.g. to drain from a signal
    /// handler instead of the `shutdown` RPC).
    pub fn service(&self) -> Arc<AlertService> {
        Arc::clone(&self.service)
    }

    /// Runs the accept loop until the service drains, then joins every
    /// worker, flushes the durable store, and removes the Unix socket
    /// file. Blocks the calling thread for the server's whole life.
    pub fn serve(self) -> SlaResult<ServeReport> {
        self.listener.set_nonblocking()?;
        // Bounded hand-off: room for one burst of `workers` connections
        // beyond the ones being served; anything past that is Busy.
        let (tx, rx) = sync_channel::<(StreamKind, u64)>(self.config.workers);
        let rx = Arc::new(Mutex::new(rx));

        let mut pool = Vec::with_capacity(self.config.workers);
        for _ in 0..self.config.workers {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&self.service);
            let seed = self.config.seed;
            pool.push(thread::spawn(move || {
                worker_loop(&rx, &service, seed);
            }));
        }

        let mut report = ServeReport {
            connections: 0,
            rejected_connections: 0,
        };
        let mut next_conn = 0u64;
        while !self.service.is_draining() {
            match self.listener.accept() {
                Ok(stream) => {
                    if stream.set_timeouts(READ_TIMEOUT).is_err() {
                        continue; // peer already gone
                    }
                    next_conn += 1;
                    match tx.try_send((stream, next_conn)) {
                        Ok(()) => report.connections += 1,
                        Err(TrySendError::Full((mut stream, _))) => {
                            report.rejected_connections += 1;
                            self.service.note_busy();
                            let busy = Response::Busy {
                                in_flight_limit: self.config.workers as u32,
                            };
                            let _ = write_frame(&mut stream, &encode_response(&busy));
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(READ_TIMEOUT),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) => {}
                Err(e) => return Err(e.into()),
            }
        }

        // Drain: stop handing out work, let every worker observe the
        // flag (their reads time out within `READ_TIMEOUT`), join them,
        // then flush the WAL so a restart recovers everything.
        drop(tx);
        for handle in pool {
            let _ = handle.join();
        }
        self.service.sync()?;
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(report)
    }
}

/// One pool worker: pull a connection, serve it to completion, repeat;
/// exit when the server drains or the accept loop hangs up.
fn worker_loop(rx: &Mutex<Receiver<(StreamKind, u64)>>, service: &AlertService, seed: u64) {
    loop {
        if service.is_draining() {
            return;
        }
        // Hold the lock only for the dequeue, not while serving.
        let next = rx
            .lock()
            .expect("receiver lock poisoned")
            .recv_timeout(READ_TIMEOUT);
        match next {
            Ok((mut stream, conn_id)) => {
                let mut rng = StdRng::seed_from_u64(
                    seed.wrapping_add(conn_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                // Transport errors end the connection; the next one is
                // independent.
                let _ = serve_connection(&mut stream, service, &mut rng);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{
        decode_response, encode_request, read_frame, ErrorCode, Request, MAX_FRAME_BYTES,
    };
    use sla_core::{StoreBackend, SystemBuilder};
    use sla_grid::{Grid, ProbabilityMap};

    fn service() -> AlertService {
        let mut rng = StdRng::seed_from_u64(0xc0ffee);
        let grid = Grid::chicago_downtown_32();
        let probs = ProbabilityMap::uniform(grid.n_cells());
        let system = SystemBuilder::new(grid)
            .group_bits(40)
            .store(StoreBackend::ConcurrentSharded { shards: 4 })
            .build(&probs, &mut rng)
            .expect("valid configuration");
        AlertService::new(system).expect("concurrent backend")
    }

    /// Runs one client script against `serve_connection` over a real
    /// socketpair and returns the decoded responses plus the outcome.
    fn roundtrip(service: &AlertService, requests: &[Request]) -> (Vec<Response>, ConnOutcome) {
        let (mut client, mut server) = UnixStream::pair().expect("socketpair");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let outcome = thread::scope(|s| {
            let handle = s.spawn(|| {
                let mut rng = StdRng::seed_from_u64(9);
                serve_connection(&mut server, service, &mut rng).expect("serve")
            });
            let mut responses = Vec::new();
            for req in requests {
                write_frame(&mut client, &encode_request(req)).unwrap();
                match read_frame(&mut client).unwrap() {
                    FrameIn::Frame(p) => responses.push(decode_response(&p).unwrap()),
                    other => panic!("{other:?}"),
                }
            }
            drop(client);
            (responses, handle.join().expect("worker panicked"))
        });
        outcome
    }

    #[test]
    fn serves_a_session_end_to_end() {
        let service = service();
        let (responses, outcome) = roundtrip(
            &service,
            &[
                Request::Subscribe {
                    user_id: 42,
                    cell: 3,
                },
                Request::Alert { cells: vec![3, 4] },
                Request::Unsubscribe { user_id: 42 },
            ],
        );
        assert_eq!(outcome, ConnOutcome::Closed);
        assert_eq!(responses[0], Response::Subscribed { replaced: false });
        match &responses[1] {
            Response::Alerted { notified, .. } => assert_eq!(notified, &vec![42]),
            other => panic!("{other:?}"),
        }
        assert_eq!(responses[2], Response::Unsubscribed);
    }

    #[test]
    fn torn_client_write_gets_protocol_error_and_drop() {
        let service = service();
        let (mut client, mut server) = UnixStream::pair().expect("socketpair");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        thread::scope(|s| {
            let handle = s.spawn(|| {
                let mut rng = StdRng::seed_from_u64(9);
                serve_connection(&mut server, &service, &mut rng).expect("serve")
            });
            // A frame claiming more than the cap.
            client
                .write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes())
                .unwrap();
            match read_frame(&mut client).unwrap() {
                FrameIn::Frame(p) => match decode_response(&p).unwrap() {
                    Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            }
            match handle.join().expect("worker panicked") {
                ConnOutcome::Torn(detail) => assert!(detail.contains("cap"), "{detail}"),
                other => panic!("{other:?}"),
            }
        });
    }

    #[test]
    fn shutdown_rpc_ends_the_connection_and_flags_drain() {
        let service = service();
        let (responses, outcome) = roundtrip(&service, &[Request::Shutdown]);
        assert_eq!(outcome, ConnOutcome::ShutdownRequested);
        assert_eq!(responses, vec![Response::ShuttingDown]);
        assert!(service.is_draining());
    }

    #[test]
    fn draining_service_aborts_idle_connections() {
        let service = service();
        service.begin_drain();
        let (_client, mut server) = UnixStream::pair().expect("socketpair");
        server
            .set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let outcome = serve_connection(&mut server, &service, &mut rng).expect("serve");
        assert_eq!(outcome, ConnOutcome::Drained);
    }

    /// One worker busy with connection A and B waiting in the one-slot
    /// hand-off queue: connection C is answered `busy` and closed, and
    /// `stats` counts the rejection.
    #[test]
    fn full_pool_answers_busy_and_counts_it() {
        let socket =
            std::env::temp_dir().join(format!("sla-full-pool-{}.sock", std::process::id()));
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = SlaServer::bind_unix(service(), &socket, config).expect("bind");
        let serving = thread::spawn(move || server.serve().expect("serve"));
        let call = |conn: &mut UnixStream, req: &Request| {
            write_frame(conn, &encode_request(req)).unwrap();
            match read_frame(conn).unwrap() {
                FrameIn::Frame(p) => decode_response(&p).unwrap(),
                other => panic!("{other:?}"),
            }
        };
        let connect = || {
            let conn = UnixStream::connect(&socket).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            conn
        };

        // An answer on A means the only worker has taken A off the queue.
        let mut a = connect();
        assert!(matches!(call(&mut a, &Request::Stats), Response::Stats(_)));
        let _b = connect();
        let mut c = connect();
        match read_frame(&mut c).unwrap() {
            FrameIn::Frame(p) => assert_eq!(
                decode_response(&p).unwrap(),
                Response::Busy { in_flight_limit: 1 }
            ),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut c).unwrap(), FrameIn::Closed));
        match call(&mut a, &Request::Stats) {
            Response::Stats(stats) => assert_eq!(stats.busy_rejections, 1),
            other => panic!("{other:?}"),
        }

        assert_eq!(call(&mut a, &Request::Shutdown), Response::ShuttingDown);
        let report = serving.join().expect("server thread panicked");
        assert_eq!(
            report,
            ServeReport {
                connections: 2,
                rejected_connections: 1,
            }
        );
        assert!(!socket.exists(), "the drain removes the socket file");
    }
}
