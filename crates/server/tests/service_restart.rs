//! End-to-end service-plane acceptance over a live Unix socket:
//!
//! * a real `SlaServer` on a `StoreBackend::Persistent` system serves
//!   subscribe/unsubscribe/alert RPCs whose notified sets are
//!   **byte-identical** to an in-process system replaying the same ops
//!   (different RNG draws on each side — notified sets depend only on
//!   who is where, not on ciphertext randomness),
//! * the `shutdown` RPC drains the server and flushes the WAL, so
//!   reopening the server's store directory recovers the exact
//!   subscription base (same `(user_id, epoch)` fingerprint, same
//!   alert outcomes) — restart equivalence *over the wire*,
//! * a client that tears a frame mid-write poisons only its own
//!   connection: the server answers a typed Protocol error, drops that
//!   connection, and keeps serving others.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_core::{AlertSystem, FlushPolicy, StoreBackend, SystemBuilder};
use sla_grid::{BoundingBox, Grid, ProbabilityMap};
use sla_server::{
    decode_response, encode_request, read_frame, write_frame, AlertService, ErrorCode, FrameIn,
    Request, Response, ServerConfig, SlaServer,
};
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const SEED: u64 = 0x5e7;
const N_CELLS: usize = 9;

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sla-server-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Same builder config on every side (server, in-process mirror, and
/// both reopens): a 3×3 grid, small group, persistent store in `dir`.
fn build_system(dir: &PathBuf) -> AlertSystem {
    std::fs::create_dir_all(dir).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 3, 3);
    let probs = ProbabilityMap::uniform(N_CELLS);
    SystemBuilder::new(grid)
        .group_bits(32)
        .store(StoreBackend::Persistent {
            dir: dir.clone(),
            flush: FlushPolicy::Manual, // the drain's sync() must cover it
        })
        .build(&probs, &mut rng)
        .expect("valid configuration")
}

fn connect(path: &PathBuf) -> UnixStream {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                return stream;
            }
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10))
            }
            Err(e) => panic!("connect {}: {e}", path.display()),
        }
    }
}

fn call(stream: &mut UnixStream, req: &Request) -> Response {
    write_frame(stream, &encode_request(req)).expect("write request");
    match read_frame(stream).expect("read response") {
        FrameIn::Frame(payload) => decode_response(&payload).expect("decode response"),
        other => panic!("expected a frame, got {other:?}"),
    }
}

/// The op history both sides replay: subscribes, moves, unsubscribes.
/// Returns the cells each op touches so the wire and in-process sides
/// stay in lockstep.
fn history() -> Vec<(u64, Option<usize>)> {
    let mut ops = Vec::new();
    for user in 0..12u64 {
        ops.push((user, Some((user as usize * 5 + 1) % N_CELLS)));
    }
    for user in [2u64, 5, 8] {
        ops.push((user, Some((user as usize + 4) % N_CELLS))); // moves
    }
    for user in [3u64, 7] {
        ops.push((user, None)); // unsubscribes
    }
    ops
}

#[test]
fn restart_equivalence_over_the_wire() {
    let server_dir = temp_path("wire-store");
    let mirror_dir = temp_path("mirror-store");
    let socket = temp_path("sock");

    // --- Live server on the Unix socket. ---
    let service = AlertService::new(build_system(&server_dir)).expect("persistent is concurrent");
    let server = SlaServer::bind_unix(service, &socket, ServerConfig::default()).expect("bind");
    let service = server.service();
    let server_thread = std::thread::spawn(move || server.serve().expect("serve"));

    // --- The same history over the wire and in-process. ---
    let mirror = build_system(&mirror_dir);
    let mut mirror_rng = StdRng::seed_from_u64(0xd1f); // different draws on purpose
    let mut stream = connect(&socket);
    for (user_id, op) in history() {
        match op {
            Some(cell) => {
                let resp = call(
                    &mut stream,
                    &Request::Subscribe {
                        user_id,
                        cell: cell as u64,
                    },
                );
                assert!(matches!(resp, Response::Subscribed { .. }), "{resp:?}");
                mirror
                    .subscribe_cell(user_id, cell, &mut mirror_rng)
                    .unwrap();
            }
            None => {
                assert_eq!(
                    call(&mut stream, &Request::Unsubscribe { user_id }),
                    Response::Unsubscribed
                );
                mirror.unsubscribe(user_id).unwrap();
            }
        }
    }

    // --- Alerts agree byte-for-byte while the server is live. ---
    let alert_cells: Vec<usize> = vec![0, 1, 4, 6];
    let wire_cells: Vec<u64> = alert_cells.iter().map(|&c| c as u64).collect();
    let wire_notified = match call(&mut stream, &Request::Alert { cells: wire_cells }) {
        Response::Alerted { notified, .. } => notified,
        other => panic!("{other:?}"),
    };
    let mirror_notified = mirror
        .issue_alert(&alert_cells, &mut mirror_rng)
        .unwrap()
        .notified;
    assert_eq!(wire_notified, mirror_notified, "live wire vs in-process");
    assert!(!wire_notified.is_empty(), "test must actually notify users");

    // --- A second connection tearing a frame does not disturb us. ---
    {
        let mut torn = connect(&socket);
        torn.write_all(&[7u8, 7, 7]).unwrap(); // 3 of 4 length bytes
        drop(torn); // disconnect mid-frame
    }
    assert!(matches!(
        call(&mut stream, &Request::Stats),
        Response::Stats(_)
    ));

    // --- Graceful shutdown: drain + WAL flush + socket removal. ---
    assert_eq!(
        call(&mut stream, &Request::Shutdown),
        Response::ShuttingDown
    );
    let report = server_thread.join().expect("server thread");
    // The torn connection may still sit unaccepted in the listen
    // backlog when the drain starts, so only our own is guaranteed.
    assert!(report.connections >= 1, "{report:?}");
    assert!(!socket.exists(), "socket file must be removed on drain");
    let served_fingerprint = service.system().subscription_epochs();

    // --- Restart both sides from disk. ---
    mirror.sync().unwrap();
    drop(mirror);
    let reopened_server_side = build_system(&server_dir);
    let reopened_mirror_side = build_system(&mirror_dir);
    assert_eq!(
        reopened_server_side.subscription_epochs(),
        served_fingerprint,
        "reopened server store differs from what was served"
    );
    assert_eq!(
        reopened_server_side.subscription_epochs(),
        reopened_mirror_side.subscription_epochs(),
        "server-side and in-process stores diverged across restart"
    );
    assert_eq!(
        reopened_server_side.service_stats().recovered_epoch,
        Some(0)
    );

    let mut rng = StdRng::seed_from_u64(1);
    let a = reopened_server_side
        .issue_alert(&alert_cells, &mut rng)
        .unwrap();
    let b = reopened_mirror_side
        .issue_alert(&alert_cells, &mut rng)
        .unwrap();
    assert_eq!(a.notified, wire_notified, "restart changed the outcome");
    assert_eq!(a.notified, b.notified);
    assert_eq!(a.pairings_used, b.pairings_used);

    for dir in [server_dir, mirror_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn torn_frame_gets_typed_protocol_error_before_disconnect() {
    let socket = temp_path("torn-sock");
    let dir = temp_path("torn-store");
    let service = AlertService::new(build_system(&dir)).expect("persistent is concurrent");
    let server = SlaServer::bind_unix(service, &socket, ServerConfig::default()).expect("bind");
    let service = server.service();
    let server_thread = std::thread::spawn(move || server.serve().expect("serve"));

    let mut stream = connect(&socket);
    // An intact-looking length prefix claiming an over-cap frame.
    stream
        .write_all(&(sla_server::MAX_FRAME_BYTES + 9).to_le_bytes())
        .unwrap();
    match read_frame(&mut stream).expect("read error frame") {
        FrameIn::Frame(payload) => match decode_response(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
    // The server dropped the torn connection; a fresh one still works.
    let mut fresh = connect(&socket);
    assert_eq!(
        call(&mut fresh, &Request::Unsubscribe { user_id: 99 }),
        Response::Error {
            code: ErrorCode::UnknownUser,
            detail: "user 99 has no stored subscription".into()
        }
    );
    assert_eq!(call(&mut fresh, &Request::Shutdown), Response::ShuttingDown);
    server_thread.join().expect("server thread");
    drop(service);
    let _ = std::fs::remove_dir_all(dir);
}
