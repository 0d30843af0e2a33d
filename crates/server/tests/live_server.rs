//! The shipped `sla-server` binary as a live process.
//!
//! * **First run**: a persistent-store server on a Unix socket serves a
//!   churn workload from two connections; every epoch's alert must equal
//!   the plaintext ground truth, `stats` must count exactly the requests
//!   sent with no busy rejection, and `shutdown` must end the process
//!   with status 0 and remove the socket file.
//! * **Restart over TCP**: a second run on the same store directory,
//!   listening on a kernel-assigned loopback port, must recover the
//!   subscriptions, answer the last epoch's alert as before, and shut
//!   down cleanly.
//!
//! A guard kills and reaps a server still running and removes the
//! scratch directory on every exit path, a failed assertion included.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_datasets::workload::{ChurnConfig, ChurnEvent, ChurnWorkload};
use sla_grid::{Grid, ProbabilityMap, ZoneSampler};
use sla_server::{
    decode_response, encode_request, read_frame, write_frame, FrameIn, Request, Response, WireStats,
};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long one call, or the exit after a `shutdown`, may take.
const PATIENCE: Duration = Duration::from_secs(60);

/// The scratch directory and the server running in it. Dropping it kills
/// and reaps a server still running, then removes the directory.
struct Scratch {
    dir: PathBuf,
    /// The child and its stdout, kept open so the drain report the
    /// server prints after a `shutdown` cannot hit a closed pipe.
    server: Option<(Child, BufReader<ChildStdout>)>,
}

impl Scratch {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("sla-live-server-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch { dir, server: None }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_str().expect("UTF-8 temp dir").into()
    }

    /// Starts the shipped binary and returns the endpoint of its
    /// `listening on <addr>` line.
    fn start(&mut self, args: &[&str]) -> String {
        assert!(self.server.is_none(), "one server at a time");
        let mut child = Command::new(env!("CARGO_BIN_EXE_sla-server"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn sla-server");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let (_, stdout) = self.server.insert((child, stdout));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read stdout");
        match line.trim_end().strip_prefix("listening on ") {
            Some(addr) => addr.to_string(),
            None => panic!("sla-server {args:?} printed {line:?} instead of its endpoint"),
        }
    }

    /// Waits for the server to exit by itself.
    fn wait_exit(&mut self) -> ExitStatus {
        let deadline = Instant::now() + PATIENCE;
        let (child, _) = self.server.as_mut().expect("a running server");
        loop {
            if let Some(status) = child.try_wait().expect("poll sla-server") {
                self.server = None;
                return status;
            }
            assert!(Instant::now() < deadline, "sla-server did not exit");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some((mut child, _)) = self.server.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One request/response round trip.
fn call(stream: &mut (impl Read + Write), req: &Request) -> Response {
    write_frame(stream, &encode_request(req)).expect("write request");
    match read_frame(stream).expect("read response") {
        FrameIn::Frame(payload) => decode_response(&payload).expect("decode response"),
        other => panic!("{} got {other:?}", req.kind()),
    }
}

/// Sends one lifecycle event; a first subscribe stores a new record, a
/// move replaces one.
fn send(stream: &mut (impl Read + Write), event: &ChurnEvent) {
    let (req, want) = match *event {
        ChurnEvent::Subscribe { user_id, cell } => (
            Request::Subscribe {
                user_id,
                cell: cell as u64,
            },
            Response::Subscribed { replaced: false },
        ),
        ChurnEvent::Move { user_id, cell } => (
            Request::Subscribe {
                user_id,
                cell: cell as u64,
            },
            Response::Subscribed { replaced: true },
        ),
        ChurnEvent::Unsubscribe { user_id } => {
            (Request::Unsubscribe { user_id }, Response::Unsubscribed)
        }
    };
    assert_eq!(call(stream, &req), want, "{event:?}");
}

fn alert(stream: &mut (impl Read + Write), cells: &[usize]) -> Vec<u64> {
    let cells = cells.iter().map(|&c| c as u64).collect();
    match call(stream, &Request::Alert { cells }) {
        Response::Alerted { notified, .. } => notified,
        other => panic!("alert got {other:?}"),
    }
}

fn stats(stream: &mut (impl Read + Write)) -> WireStats {
    match call(stream, &Request::Stats) {
        Response::Stats(stats) => stats,
        other => panic!("stats got {other:?}"),
    }
}

fn shutdown(stream: &mut (impl Read + Write)) {
    assert_eq!(call(stream, &Request::Shutdown), Response::ShuttingDown);
}

/// 24 users over two churn epochs on the grid the binary serves.
fn churn_workload() -> ChurnWorkload {
    let grid = Grid::chicago_downtown_32();
    let probs = ProbabilityMap::uniform(grid.n_cells());
    let config = ChurnConfig {
        users: 24,
        epochs: 2,
        ..ChurnConfig::default()
    };
    config.generate(
        &ZoneSampler::new(grid, &probs),
        &mut StdRng::seed_from_u64(20_210_323),
    )
}

/// The users inside epoch `epoch`'s alert zone once its events landed.
fn ground_truth(workload: &ChurnWorkload, epoch: usize) -> Vec<u64> {
    let zone: BTreeSet<usize> = workload.epochs[epoch].alert_cells.iter().copied().collect();
    workload
        .positions_after(epoch)
        .into_iter()
        .filter(|(_, cell)| zone.contains(cell))
        .map(|(user_id, _)| user_id)
        .collect()
}

#[test]
fn shipped_server_serves_churn_then_recovers_over_tcp() {
    let mut scratch = Scratch::new();
    let (socket, store) = (scratch.path("sla.sock"), scratch.path("store"));
    let workload = churn_workload();
    let last = workload.epochs.len() - 1;

    // --- First run: persistent store, Unix socket, two writers. ---
    let addr = scratch.start(&[
        "--socket",
        &socket,
        "--store",
        "persistent",
        "--dir",
        &store,
    ]);
    assert_eq!(addr, format!("unix://{socket}"));
    let connect = || {
        let stream = UnixStream::connect(&socket).expect("connect");
        stream.set_read_timeout(Some(PATIENCE)).expect("timeout");
        stream
    };
    let mut conns = [connect(), connect()];
    let mut notified = Vec::new();
    let mut notified_any = false;
    for (epoch_idx, epoch) in workload.epochs.iter().enumerate() {
        let streams = epoch.writer_streams(conns.len());
        std::thread::scope(|s| {
            for (conn, events) in conns.iter_mut().zip(&streams) {
                s.spawn(move || events.iter().for_each(|event| send(conn, event)));
            }
        });
        notified = alert(&mut conns[0], &epoch.alert_cells);
        assert_eq!(
            notified,
            ground_truth(&workload, epoch_idx),
            "epoch {epoch_idx}"
        );
        notified_any |= !notified.is_empty();
    }
    assert!(notified_any, "no alert notified anyone");

    let events = || workload.epochs.iter().flat_map(|e| &e.events);
    let unsubscribes = events()
        .filter(|e| matches!(e, ChurnEvent::Unsubscribe { .. }))
        .count() as u64;
    let subscribes = events().count() as u64 - unsubscribes;
    let live = workload.positions_after(last).len() as u64;
    let first = stats(&mut conns[1]);
    assert_eq!(first.backend, "persistent");
    assert_eq!(first.recovered_epoch, None, "a fresh directory");
    assert_eq!(first.subscriptions, live);
    assert_eq!(
        [
            first.ops_subscribe,
            first.ops_unsubscribe,
            first.ops_alert,
            first.ops_stats
        ],
        [subscribes, unsubscribes, workload.epochs.len() as u64, 1]
    );
    assert_eq!(first.busy_rejections, 0);

    shutdown(&mut conns[0]);
    drop(conns);
    let status = scratch.wait_exit();
    assert!(status.success(), "first run exited {status}");
    assert!(
        !std::path::Path::new(&socket).exists(),
        "the drain left the socket file"
    );

    // --- Restart on the same directory over TCP. ---
    let addr = scratch.start(&[
        "--tcp",
        "127.0.0.1:0",
        "--store",
        "persistent",
        "--dir",
        &store,
    ]);
    let addr = addr.strip_prefix("tcp://").expect("a TCP endpoint");
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(PATIENCE)).expect("timeout");
    let second = stats(&mut conn);
    assert_eq!(second.recovered_epoch, Some(0));
    assert_eq!(second.subscriptions, live);
    assert_eq!(
        alert(&mut conn, &workload.epochs[last].alert_cells),
        notified
    );
    shutdown(&mut conn);
    let status = scratch.wait_exit();
    assert!(status.success(), "restart exited {status}");
}
