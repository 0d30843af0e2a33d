//! The end-to-end run: a real server process, two client connections,
//! client-observed latencies, and the oracle over every response.

use crate::oracle::{self, AlertRecord, Verdict, WriteRecord};
use crate::sched::{self, Clock, Completion};
use crate::serve::write_probs;
use crate::stats::{mean, median, quantile};
use crate::workload::{AlertLoop, Store, Workload, PROBE_WRITE_RATE};
use sla_datasets::ChurnEvent;
use sla_server::{Request, Response};
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Sub-runs per run, each on a freshly set-up server.
pub const SUB_RUNS: usize = 10;

/// Set-ups per run, the sub-runs' included; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// The warm-up before the measured phase (its requests are checked by the
/// oracle but not timed).
pub const WARMUP: Duration = Duration::from_millis(500);

/// The highest p99 send lag, in µs, at which an open-loop run still counts
/// as offering its stated rate. A run above it is invalid. (With both
/// CPUs of a small machine busy, a punctual generator still sees
/// scheduling delays of a few milliseconds.)
pub const MAX_SEND_LAG_P99_US: f64 = 10_000.0;

/// A server child process; killed and reaped on drop unless it already
/// exited.
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Server {
    /// Starts `exe serve` and connects as soon as its socket listens.
    /// Polling `connect` every 50 µs queues the connection before the
    /// server's accept loop first looks, so a set-up does not pay that
    /// loop's 25 ms poll interval or not by chance. The readiness line is
    /// checked after.
    pub fn spawn(
        exe: &Path,
        socket: &Path,
        probs: &Path,
        store: Store,
        dir: &Path,
    ) -> Result<(Server, UnixStream), String> {
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--probs")
            .arg(probs)
            .arg("--store")
            .arg(store.name())
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child,
            stdout,
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let conn = loop {
            match UnixStream::connect(socket) {
                Ok(conn) => break conn,
                Err(e) => {
                    if let Ok(Some(status)) = server.child.try_wait() {
                        return Err(format!("server exited with {status} before listening"));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("server did not listen within 60 s: {e}"));
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        };
        let mut line = String::new();
        if server.stdout.read_line(&mut line).is_err() || !line.starts_with("listening on") {
            return Err(format!("server did not start (said {line:?})"));
        }
        Ok((server, conn))
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A new connection.
    pub fn connect(&self) -> Result<UnixStream, String> {
        UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Sends `shutdown` on `conn` and waits for a clean exit (the server
    /// flushes its WAL before exiting).
    pub fn shutdown(mut self, conn: &mut UnixStream) -> Result<(), String> {
        let resp = sched::pipelined(conn, &[Request::Shutdown], 1)
            .map_err(|e| format!("shutdown: {e}"))?;
        if resp != [Response::ShuttingDown] {
            return Err(format!("shutdown answered {resp:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not drain within 30 s".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Files and settings one run shares across its set-ups.
#[derive(Debug)]
pub struct Context<'a> {
    /// This benchmark's own executable (it is also the server).
    pub exe: PathBuf,
    /// Scratch directory for sockets, the surface file and stores.
    pub dir: PathBuf,
    /// The workload.
    pub workload: &'a Workload,
    /// The workload seed (the in-process ledger draws its randomness
    /// from it).
    pub seed: u64,
    probs: PathBuf,
    next_server: usize,
    next_store: usize,
}

impl<'a> Context<'a> {
    /// Prepares the scratch directory.
    pub fn new(
        exe: PathBuf,
        dir: PathBuf,
        workload: &'a Workload,
        seed: u64,
    ) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let probs = dir.join("probs.txt");
        write_probs(&probs, &workload.probs).map_err(|e| format!("write surface: {e}"))?;
        Ok(Context {
            exe,
            dir,
            workload,
            seed,
            probs,
            next_server: 0,
            next_store: 0,
        })
    }

    /// Spawns a server over `store_dir`, connected.
    fn spawn(&mut self, store_dir: &Path) -> Result<(Server, UnixStream), String> {
        self.next_server += 1;
        let socket = self.dir.join(format!("s{}.sock", self.next_server));
        Server::spawn(
            &self.exe,
            &socket,
            &self.probs,
            self.workload.spec.store,
            store_dir,
        )
    }

    /// One set-up, timed from spawning the server until the measured phase
    /// can start: keygen and fixed-base tables, preloading the population
    /// over the socket and, over a persistent store, the reopen that
    /// recovers it. (The graceful shutdown before the reopen is not
    /// timed.)
    pub fn set_up(&mut self) -> Result<(Server, PathBuf, f64), String> {
        let w = self.workload;
        self.next_store += 1;
        let store_dir = self.dir.join(format!("store{}", self.next_store));
        let t0 = Instant::now();
        let (mut server, mut conn) = self.spawn(&store_dir)?;
        let preload: Vec<Request> = w
            .population
            .iter()
            .map(|&(user_id, cell)| Request::Subscribe {
                user_id,
                cell: cell as u64,
            })
            .collect();
        let responses =
            sched::pipelined(&mut conn, &preload, 256).map_err(|e| format!("preload: {e}"))?;
        if let Some(bad) = responses
            .iter()
            .find(|r| **r != Response::Subscribed { replaced: false })
        {
            return Err(format!("preload answered {bad:?}"));
        }
        let mut setup_s = t0.elapsed().as_secs_f64();
        if w.spec.store == Store::Persistent {
            server.shutdown(&mut conn)?;
            let t1 = Instant::now();
            (server, conn) = self.spawn(&store_dir)?;
            setup_s += t1.elapsed().as_secs_f64();
        }
        // Outside the timed span: the (recovered) store holds everyone.
        match sched::pipelined(&mut conn, &[Request::Stats], 1).map_err(|e| e.to_string())?[..] {
            [Response::Stats(ref s)] if s.subscriptions == w.population.len() as u64 => {}
            ref other => return Err(format!("after set-up, stats answered {other:?}")),
        }
        Ok((server, store_dir, setup_s))
    }
}

/// One sub-run: a fresh server set up, measured for a while, drained
/// and checked.
#[derive(Debug, Clone)]
pub struct SubRun {
    /// Time from spawning the server until measuring could start.
    pub setup_s: f64,
    /// Writer-connection completions (warm-up included).
    pub writes: Vec<Completion>,
    /// Alert-connection completions (warm-up included).
    pub alerts: Vec<Completion>,
    /// Server `VmHWM` at the end, MiB.
    pub peak_rss_mib: f64,
    /// Store directory bytes per live user after the final sync
    /// (persistent store only).
    pub disk_bytes_per_sub: Option<f64>,
    /// The oracle's verdict.
    pub verdict: Verdict,
    /// Subscribe (moves included) latencies in the timed window, µs.
    pub subscribe_us: Vec<f64>,
    /// Alert latencies in the timed window, ms.
    pub alert_ms: Vec<f64>,
    /// The zone (index into the workload's zones) of each of `alert_ms`.
    pub alert_zone: Vec<usize>,
    /// Pairings reported for each alert in the timed window.
    pub pairings: Vec<f64>,
    /// Open-loop send lags in the timed window, µs.
    pub send_lag_us: Vec<f64>,
    /// Client codec time (encode request, decode response) per
    /// subscribe, ns (span-recording sub-runs only).
    pub subscribe_codec_ns: Vec<f64>,
    /// CPU time of the writer thread over its loop's wall time (0 when
    /// the workload sends no writes).
    pub writer_cpu_share: f64,
    /// CPU time of the alert thread over its loop's wall time.
    pub alerter_cpu_share: f64,
    /// The zone index after the last one this sub-run issued.
    pub next_zone: usize,
}

/// Runs `f` and returns its result with the share of its wall time the
/// calling thread spent on a CPU.
fn with_cpu_share<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (cpu, wall) = (crate::sys::thread_cpu_s(), Instant::now());
    let out = f();
    let share = (crate::sys::thread_cpu_s() - cpu) / wall.elapsed().as_secs_f64().max(1e-9);
    (out, share)
}

/// Sets up a fresh server, runs both connections for `measured` after
/// the warm-up, shuts the server down and checks every response. Alert
/// zones are taken from `alert_offset` on, so consecutive sub-runs
/// continue the zone sequence; [`SubRun::next_zone`] is where the next
/// one starts.
pub fn sub_run(
    ctx: &mut Context<'_>,
    measured: Duration,
    alert_offset: usize,
    spans: bool,
) -> Result<SubRun, String> {
    let (server, store_dir, setup_s) = ctx.set_up()?;
    let w = ctx.workload;
    let writer = server.connect()?;
    let mut alerter = server.connect()?;
    let clock = Clock::start();
    let start_ns = 20_000_000;
    let window_start_ns = start_ns + WARMUP.as_nanos() as u64;
    let window_end_ns = window_start_ns + measured.as_nanos() as u64;
    // Scheduled alerts: one in the warm-up, on the zone of the first
    // timed alert (a server's first alert runs cold and would otherwise
    // land in the timed window), then one per period from half a period
    // into the window. Closed-loop alerts run through the warm-up too.
    let dues: Option<Vec<u64>> = match w.spec.alerts {
        AlertLoop::Closed => None,
        AlertLoop::Every(p) => {
            let p = p.as_nanos() as u64;
            let timed = (window_start_ns + p / 2..window_end_ns).step_by(p as usize);
            Some(std::iter::once(start_ns).chain(timed).collect())
        }
    };
    let zone_of = |k: usize| match dues {
        Some(_) => alert_offset + k.saturating_sub(1),
        None => alert_offset + k,
    };

    let ((writes, writer_cpu_share), (alerts, alerter_cpu_share)) = std::thread::scope(|s| {
        let writer_thread = s.spawn(|| match w.write_rate {
            Some(rate) => with_cpu_share(|| {
                sched::open_loop(
                    &writer,
                    clock,
                    start_ns,
                    Duration::from_secs_f64(1.0 / rate),
                    window_end_ns,
                    &mut |k| (k < w.writes.len()).then(|| w.write_request(k)),
                    spans,
                )
            }),
            None => (Ok(Vec::new()), 0.0),
        });
        let alerts = with_cpu_share(|| {
            sched::alert_loop(
                &mut alerter,
                clock,
                start_ns,
                dues.as_deref(),
                window_end_ns,
                &mut |k| w.alert_request(zone_of(k)),
            )
        });
        let writes = writer_thread.join().expect("writer thread panicked");
        (writes, alerts)
    });
    let writes = writes.map_err(|e| format!("writer connection: {e}"))?;
    let alerts = alerts.map_err(|e| format!("alert connection: {e}"))?;
    let peak_rss_mib = server.peak_rss_mib()?;
    server.shutdown(&mut alerter)?;

    let write_records: Vec<WriteRecord> = writes
        .iter()
        .map(|c| WriteRecord {
            event: w.writes[c.index],
            sent_ns: c.sent_ns,
            recv_ns: c.recv_ns,
            response: c.response.clone(),
        })
        .collect();
    let alert_records: Vec<AlertRecord> = alerts
        .iter()
        .map(|c| {
            let z = zone_of(c.index) % w.zones.len();
            AlertRecord {
                cells: w.zones[z].clone(),
                cost_per_ct: w.zone_costs[z],
                sent_ns: c.sent_ns,
                recv_ns: c.recv_ns,
                response: c.response.clone(),
            }
        })
        .collect();
    let verdict = oracle::check(&w.population, &write_records, &alert_records);
    let disk_bytes_per_sub = match w.spec.store {
        Store::Persistent => {
            let mut live: HashSet<u64> = w.population.iter().map(|p| p.0).collect();
            for r in &write_records {
                match r.event {
                    ChurnEvent::Unsubscribe { user_id } => live.remove(&user_id),
                    e => live.insert(e.user_id()),
                };
            }
            Some(dir_bytes(&store_dir)? as f64 / live.len().max(1) as f64)
        }
        Store::Concurrent => None,
    };
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut run = SubRun {
        setup_s,
        writes: Vec::new(),
        alerts: Vec::new(),
        peak_rss_mib,
        disk_bytes_per_sub,
        verdict,
        subscribe_us: Vec::new(),
        alert_ms: Vec::new(),
        alert_zone: Vec::new(),
        pairings: Vec::new(),
        send_lag_us: Vec::new(),
        subscribe_codec_ns: Vec::new(),
        writer_cpu_share,
        alerter_cpu_share,
        next_zone: alerts.last().map_or(alert_offset, |c| zone_of(c.index) + 1),
    };
    for c in writes.iter().filter(|c| c.due_ns >= window_start_ns) {
        run.send_lag_us.push(c.send_lag_ns() as f64 / 1e3);
        if let Request::Subscribe { .. } = w.write_request(c.index) {
            run.subscribe_us.push(c.latency_ns() as f64 / 1e3);
            run.subscribe_codec_ns.extend(c.codec_ns.map(|n| n as f64));
        }
    }
    for c in alerts.iter().filter(|c| c.due_ns >= window_start_ns) {
        run.alert_ms.push(c.latency_ns() as f64 / 1e6);
        run.alert_zone.push(zone_of(c.index) % w.zones.len());
        if let Response::Alerted { pairings_used, .. } = c.response {
            run.pairings.push(pairings_used as f64);
        }
    }
    run.writes = writes;
    run.alerts = alerts;
    Ok(run)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Rungs above the workload's own write rate on the capacity ladder.
const LADDER_RUNGS: i32 = 100;

/// Rate ratio between neighbouring rungs.
const LADDER_STEP: f64 = 1.05;

/// The subscribe p99 a rung must stay under, µs.
pub const LADDER_P99_LIMIT_US: f64 = 50_000.0;

/// Measured time of one rung.
const LADDER_PROBE: Duration = Duration::from_secs(2);

/// One probed rung of the capacity ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered write rate, ops per second.
    pub rate: f64,
    /// Whether the server sustained it.
    pub passed: bool,
    /// Subscribe p99 at that rate, µs.
    pub subscribe_p99_us: f64,
    /// The writer thread's CPU share: near 1, the generator rather than
    /// the server may have limited the rung.
    pub writer_cpu_share: f64,
}

/// The highest write rate on the geometric ladder `rate · 1.05^k`,
/// `k = 0..=100`, from the workload's write rate (or
/// [`PROBE_WRITE_RATE`]), at which a fresh server answers every request
/// correctly with subscribe p99 under [`LADDER_P99_LIMIT_US`] and the
/// generator holds its schedule (a backlog that grows through the
/// two-second probe pushes p99 over the limit). Binary search over the
/// rungs, which assumes a rung passes whenever a higher one does; 0 when
/// even the lowest rung fails. Also returns every probed rung, in order.
pub fn max_write_rate(
    exe: &Path,
    dir: &Path,
    base: &Workload,
    seed: u64,
) -> Result<(f64, Vec<Rung>), String> {
    let base_rate = base.write_rate.unwrap_or(PROBE_WRITE_RATE);
    let rate = |k: i32| base_rate * LADDER_STEP.powi(k);
    // One stream long enough for the top rung, generated once (a
    // workload's stream is generated at `base_rate`).
    let span = (WARMUP + LADDER_PROBE).mul_f64(rate(LADDER_RUNGS) / base_rate);
    let long = Workload::generate_on(base.kind, seed, span, base.grid.clone(), base.probs.clone());
    let mut rungs = Vec::new();
    let mut passes = |k: i32| -> Result<bool, String> {
        let mut w = long.clone();
        w.write_rate = Some(rate(k));
        let mut ctx = Context::new(exe.to_path_buf(), dir.join(format!("ladder{k}")), &w, seed)?;
        let sub = sub_run(&mut ctx, LADDER_PROBE, 0, false)?;
        let p99 = quantile(&sub.subscribe_us, 0.99).unwrap_or(f64::INFINITY);
        let lag = quantile(&sub.send_lag_us, 0.99).unwrap_or(0.0);
        let passed =
            sub.verdict.clean() && p99 <= LADDER_P99_LIMIT_US && lag <= MAX_SEND_LAG_P99_US;
        rungs.push(Rung {
            rate: rate(k),
            passed,
            subscribe_p99_us: p99,
            writer_cpu_share: sub.writer_cpu_share,
        });
        Ok(passed)
    };
    // Invariant: rung `lo` passes (-1: none known), rung `hi` fails.
    let (mut lo, mut hi) = (-1, LADDER_RUNGS + 1);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if passes(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((if lo < 0 { 0.0 } else { rate(lo) }, rungs))
}

/// A run: independent sub-runs, each on its own freshly set-up server,
/// plus set-ups that only time themselves. Peak memory and the median
/// subscribe latency are medians of their per-sub-run values, so one
/// sub-run disturbed by the machine moves them little and every server
/// process (with its own thread placement and memory layout) counts
/// once; tail latencies and alert figures pool the sub-runs' samples
/// (the alert zones cycle across the whole run).
#[derive(Debug, Clone)]
pub struct Run {
    /// The sub-runs, in order.
    pub subs: Vec<SubRun>,
    /// Every set-up time, the sub-runs' first.
    pub setups: Vec<f64>,
}

impl Run {
    /// Runs `n` sub-runs of `measured` each (the alert zone sequence
    /// continues from one to the next) and, spread evenly after them so
    /// that a slow phase of the machine weighs on few, set-ups that only
    /// time themselves until `setups` are timed.
    pub fn execute(
        ctx: &mut Context<'_>,
        n: usize,
        setups: usize,
        measured: Duration,
        spans: bool,
    ) -> Result<Run, String> {
        let mut subs: Vec<SubRun> = Vec::with_capacity(n);
        let mut times = Vec::with_capacity(setups.max(n));
        let extra = setups.saturating_sub(n);
        let mut offset = 0;
        for i in 0..n {
            let sub = sub_run(ctx, measured, offset, spans)?;
            offset = sub.next_zone;
            times.push(sub.setup_s);
            subs.push(sub);
            while times.len() < i + 1 + extra * (i + 1) / n {
                let (server, store_dir, t) = ctx.set_up()?;
                times.push(t);
                // Killed, not drained: nothing of it is checked or kept.
                drop(server);
                let _ = std::fs::remove_dir_all(store_dir);
            }
        }
        Ok(Run {
            subs,
            setups: times,
        })
    }

    /// The per-sub-run values of `f` (sub-runs where it is undefined are
    /// skipped).
    pub fn per_sub(&self, f: impl Fn(&SubRun) -> Option<f64>) -> Vec<f64> {
        self.subs.iter().filter_map(f).collect()
    }

    /// The median across sub-runs of `f`.
    pub fn median_of(&self, f: impl Fn(&SubRun) -> Option<f64>) -> Option<f64> {
        median(&self.per_sub(f))
    }

    /// Every sub-run's samples of one kind, pooled.
    pub fn pooled(&self, f: impl Fn(&SubRun) -> &Vec<f64>) -> Vec<f64> {
        self.subs
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect()
    }

    /// Median subscribe latency, µs.
    pub fn subscribe_p50_us(&self) -> Option<f64> {
        self.median_of(|s| quantile(&s.subscribe_us, 0.5))
    }

    /// 99th-percentile subscribe latency over every sub-run's samples,
    /// µs (pooled: a sub-run alone has too few samples beyond its p99).
    pub fn subscribe_p99_us(&self) -> Option<f64> {
        quantile(&self.pooled(|s| &s.subscribe_us), 0.99)
    }

    /// Median alert latency, ms: the median over the run's zones of each
    /// zone's best latency across its repeats. The zones cycle through
    /// every sub-run, so each zone's repeats are seconds apart and on
    /// different server processes. The best of them is what the program
    /// takes on that zone when the shared host leaves its CPU alone: a
    /// neighbour's load slows every alert of a stretch of seconds alike
    /// (about ±20% on the 2-vCPU machine the benchmark was sized on),
    /// which a median over all alerts would carry into the result.
    pub fn alert_p50_ms(&self) -> Option<f64> {
        let mut best: Vec<Option<f64>> = Vec::new();
        for s in &self.subs {
            for (&ms, &z) in s.alert_ms.iter().zip(&s.alert_zone) {
                if best.len() <= z {
                    best.resize(z + 1, None);
                }
                best[z] = Some(best[z].map_or(ms, |b: f64| b.min(ms)));
            }
        }
        quantile(&best.into_iter().flatten().collect::<Vec<_>>(), 0.5)
    }

    /// Mean pairings per alert over every timed alert.
    pub fn pairings_per_alert(&self) -> Option<f64> {
        mean(&self.pooled(|s| &s.pairings))
    }

    /// Operations sent in the measured phases.
    pub fn attempted(&self) -> u64 {
        self.subs
            .iter()
            .map(|s| (s.writes.len() + s.alerts.len()) as u64)
            .sum()
    }

    /// Operations the oracle rejected.
    pub fn failed(&self) -> u64 {
        self.subs
            .iter()
            .map(|s| (s.verdict.failed_writes + s.verdict.failed_alerts) as u64)
            .sum()
    }

    /// The first violations found, across sub-runs.
    pub fn violations(&self) -> Vec<String> {
        self.subs
            .iter()
            .flat_map(|s| s.verdict.violations.iter().cloned())
            .take(8)
            .collect()
    }
}
