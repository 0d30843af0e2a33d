//! `sla-server` — serves the alert protocol over a Unix or TCP socket.
//!
//! ```text
//! cargo run -p sla-server --release -- --socket /tmp/sla.sock
//! cargo run -p sla-server --release -- --tcp 127.0.0.1:0
//! cargo run -p sla-server --release -- --socket /tmp/sla.sock \
//!     --store persistent --dir /var/lib/sla --flush-ms 2
//! ```
//!
//! The system is built over the paper's Chicago-downtown 32×32 grid
//! with a uniform probability map, so clients address cells of that
//! grid. On startup the resolved endpoint is printed as
//! `listening on <addr>` — with `--tcp 127.0.0.1:0` that line carries
//! the kernel-assigned port. The server runs until a
//! `shutdown` RPC arrives, then drains connections, flushes the durable
//! store's WAL, and exits 0.
//!
//! `--flush-ms <d>` is a group-commit window, not a durability deadline:
//! no timer flushes a WAL lane. A lane fsyncs only when an append finds
//! `d` elapsed since its last fsync, when its WAL rotates, at the drain's
//! `sync`, or when the store closes. The last writes to a lane that then
//! goes quiet stay un-fsynced until one of those happens, so a power
//! failure can lose them; a killed process cannot, since every write is
//! in the page cache before it is answered.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_core::{FlushPolicy, StoreBackend, SystemBuilder};
use sla_grid::{Grid, ProbabilityMap};
use sla_server::{AlertService, ServerConfig, SlaServer};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

struct Opts {
    /// Exactly one endpoint: `--socket <path>` or `--tcp <addr>`.
    endpoint: Endpoint,
    /// `concurrent` (volatile) or `persistent` (WAL + snapshot).
    store: String,
    /// Directory for the persistent store.
    dir: PathBuf,
    /// Group-commit window for the persistent WAL; `0` fsyncs every op.
    flush_ms: u64,
    group_bits: usize,
    /// Lock shards of the concurrent store; `None` when `--shards` was
    /// not given.
    shards: Option<usize>,
    workers: usize,
    inflight: usize,
    seed: u64,
    /// Permit TCP binds beyond loopback (the wire protocol carries no
    /// authentication, so off-host exposure must be explicit).
    allow_remote: bool,
}

enum Endpoint {
    Unix(PathBuf),
    Tcp(String),
}

/// Typed rejection of a malformed command line.
#[derive(Debug)]
enum ArgError {
    /// A flag that needs a value did not get one.
    MissingValue(&'static str),
    /// A value that did not parse as the expected type.
    Invalid(&'static str, String),
    /// Neither or both of `--socket` / `--tcp`.
    Endpoint,
    /// A well-formed value the server cannot honour, and why.
    Unusable(&'static str, &'static str),
    /// A flag this binary does not know.
    Unknown(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::Invalid(flag, v) => write!(f, "{flag}: invalid value '{v}'"),
            ArgError::Endpoint => write!(
                f,
                "exactly one endpoint is required: --socket <path> or --tcp <addr>"
            ),
            ArgError::Unusable(flag, why) => write!(f, "{flag}: {why}"),
            ArgError::Unknown(flag) => write!(f, "unknown flag '{flag}' (see --help)"),
        }
    }
}

impl std::error::Error for ArgError {}

const USAGE: &str = "\
sla-server — the alert protocol over a socket

USAGE:
    sla-server (--socket <path> | --tcp <addr>) [options]

OPTIONS:
    --socket <path>     Serve on a Unix-domain socket at <path>
    --tcp <addr>        Serve on TCP, e.g. 127.0.0.1:4240 (port 0 = kernel picks)
    --allow-remote      Permit a non-loopback --tcp bind (the protocol is
                        unauthenticated; refused by default)
    --store <backend>   concurrent (default) | persistent
    --dir <path>        Durable store directory (persistent only; default sla-server-store)
    --flush-ms <n>      WAL group-commit window in ms; 0 = fsync every op (default 2).
                        Not a deadline: no timer flushes, so the last writes to a
                        lane that goes quiet wait for its next append past the
                        window, a WAL rotation or the shutdown drain; a power
                        failure can lose them, a killed process cannot
    --group-bits <n>    Bilinear group size in bits (default 40)
    --shards <n>        Lock shards of the concurrent store (default 8; the
                        persistent store always runs 16)
    --workers <n>       Worker threads = max concurrent connections, at least 1
                        (default 8)
    --inflight <n>      Max data-plane requests in flight (default 64)
    --seed <n>          Base RNG seed (default 20210323)
    --help              This text";

fn parse_number<T: std::str::FromStr>(
    flag: &'static str,
    value: Option<String>,
) -> Result<T, ArgError> {
    let v = value.ok_or(ArgError::MissingValue(flag))?;
    v.parse().map_err(|_| ArgError::Invalid(flag, v))
}

fn parse_opts(args: impl Iterator<Item = String>) -> Result<Option<Opts>, ArgError> {
    let mut socket = None;
    let mut tcp = None;
    let mut opts = Opts {
        endpoint: Endpoint::Tcp(String::new()), // placeholder until validated
        store: "concurrent".into(),
        dir: PathBuf::from("sla-server-store"),
        flush_ms: 2,
        group_bits: 40,
        shards: None,
        workers: 8,
        inflight: 64,
        seed: 20_210_323,
        allow_remote: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--socket" => socket = Some(args.next().ok_or(ArgError::MissingValue("--socket"))?),
            "--tcp" => tcp = Some(args.next().ok_or(ArgError::MissingValue("--tcp"))?),
            "--store" => {
                let v = args.next().ok_or(ArgError::MissingValue("--store"))?;
                if v != "concurrent" && v != "persistent" {
                    return Err(ArgError::Invalid("--store", v));
                }
                opts.store = v;
            }
            "--dir" => {
                opts.dir = PathBuf::from(args.next().ok_or(ArgError::MissingValue("--dir"))?)
            }
            "--flush-ms" => opts.flush_ms = parse_number("--flush-ms", args.next())?,
            "--group-bits" => opts.group_bits = parse_number("--group-bits", args.next())?,
            "--shards" => opts.shards = Some(parse_number("--shards", args.next())?),
            "--workers" => {
                opts.workers = parse_number("--workers", args.next())?;
                if opts.workers == 0 {
                    // No worker would take a connection: every one,
                    // a `shutdown` RPC's included, is answered busy.
                    return Err(ArgError::Unusable(
                        "--workers",
                        "needs at least 1 worker to serve any connection",
                    ));
                }
            }
            "--inflight" => opts.inflight = parse_number("--inflight", args.next())?,
            "--seed" => opts.seed = parse_number("--seed", args.next())?,
            "--allow-remote" => opts.allow_remote = true,
            other => return Err(ArgError::Unknown(other.to_string())),
        }
    }
    opts.endpoint = match (socket, tcp) {
        (Some(path), None) => Endpoint::Unix(PathBuf::from(path)),
        (None, Some(addr)) => Endpoint::Tcp(addr),
        _ => return Err(ArgError::Endpoint),
    };
    if opts.shards.is_some() && opts.store == "persistent" {
        return Err(ArgError::Unusable(
            "--shards",
            "applies to --store concurrent only; the persistent store runs a fixed 16 shards",
        ));
    }
    Ok(Some(opts))
}

/// Refuse a TCP endpoint that is reachable from off-host unless the
/// operator passed `--allow-remote`. The wire protocol carries no
/// authentication, so exposing it beyond loopback must be a deliberate
/// decision. Every address the endpoint resolves to must be loopback —
/// a hostname with a mixed A-record set is refused, because the kernel
/// may bind any of them.
fn check_bind_scope(addr: &str, allow_remote: bool) -> Result<(), String> {
    if allow_remote {
        return Ok(());
    }
    use std::net::ToSocketAddrs;
    let resolved: Vec<_> = addr
        .to_socket_addrs()
        .map_err(|e| format!("--tcp {addr}: {e}"))?
        .collect();
    if resolved.is_empty() {
        return Err(format!("--tcp {addr}: resolved to no addresses"));
    }
    for sock in resolved {
        if !sock.ip().is_loopback() {
            return Err(format!(
                "--tcp {addr}: {} is not a loopback address; the wire protocol is \
                 unauthenticated — pass --allow-remote to expose it beyond this host",
                sock.ip()
            ));
        }
    }
    Ok(())
}

fn run(opts: Opts) -> Result<(), Box<dyn std::error::Error>> {
    let backend = match opts.store.as_str() {
        "persistent" => StoreBackend::Persistent {
            dir: opts.dir.clone(),
            flush: if opts.flush_ms == 0 {
                FlushPolicy::EveryOp
            } else {
                FlushPolicy::Every(Duration::from_millis(opts.flush_ms))
            },
        },
        _ => StoreBackend::ConcurrentSharded {
            shards: opts.shards.unwrap_or(8),
        },
    };
    let grid = Grid::chicago_downtown_32();
    let probs = ProbabilityMap::uniform(grid.n_cells());
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let system = SystemBuilder::new(grid)
        .group_bits(opts.group_bits)
        .store(backend)
        .build(&probs, &mut rng)?;
    let service = AlertService::new(system)?;

    let config = ServerConfig {
        workers: opts.workers,
        max_in_flight: opts.inflight,
        seed: opts.seed,
        ..ServerConfig::default()
    };
    let server = match &opts.endpoint {
        Endpoint::Unix(path) => SlaServer::bind_unix(service, path, config)?,
        Endpoint::Tcp(addr) => {
            check_bind_scope(addr, opts.allow_remote)?;
            SlaServer::bind_tcp(service, addr, config)?
        }
    };

    // The readiness line clients and CI wait for (flushed immediately:
    // with `--tcp ...:0` it carries the kernel-assigned port).
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush()?;

    let report = server.serve()?;
    println!(
        "drained: {} connections served, {} rejected busy",
        report.connections, report.rejected_connections
    );
    Ok(())
}

fn main() {
    let opts = match parse_opts(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("sla-server: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(opts) {
        eprintln!("sla-server: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Opts>, ArgError> {
        parse_opts(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn loopback_binds_are_allowed_by_default() {
        check_bind_scope("127.0.0.1:0", false).unwrap();
        check_bind_scope("127.0.0.1:4240", false).unwrap();
        check_bind_scope("[::1]:4240", false).unwrap();
    }

    #[test]
    fn non_loopback_binds_are_refused_by_default() {
        // The wildcard address exposes every interface; a documentation
        // (TEST-NET-1) address stands in for a routable one. Neither
        // needs DNS to resolve.
        for addr in ["0.0.0.0:4240", "[::]:4240", "192.0.2.7:4240"] {
            let err = check_bind_scope(addr, false).unwrap_err();
            assert!(err.contains("--allow-remote"), "{addr}: {err}");
            assert!(err.contains(addr.rsplit_once(':').unwrap().0.trim_matches(['[', ']'])));
        }
    }

    #[test]
    fn allow_remote_bypasses_the_guard() {
        check_bind_scope("0.0.0.0:4240", true).unwrap();
        check_bind_scope("192.0.2.7:4240", true).unwrap();
    }

    #[test]
    fn allow_remote_flag_parses() {
        let opts = parse(&["--tcp", "0.0.0.0:0", "--allow-remote"])
            .unwrap()
            .unwrap();
        assert!(opts.allow_remote);
        let opts = parse(&["--tcp", "127.0.0.1:0"]).unwrap().unwrap();
        assert!(!opts.allow_remote);
    }

    #[test]
    fn zero_workers_is_refused() {
        let err = parse(&["--socket", "s.sock", "--workers", "0"]).err();
        assert!(
            matches!(err, Some(ArgError::Unusable("--workers", _))),
            "{err:?}"
        );
        let opts = parse(&["--socket", "s.sock", "--workers", "1"])
            .unwrap()
            .unwrap();
        assert_eq!(opts.workers, 1);
    }

    #[test]
    fn shards_with_the_persistent_store_is_refused() {
        for args in [
            ["--store", "persistent", "--shards", "4"],
            ["--shards", "4", "--store", "persistent"],
        ] {
            let err = parse(&[&["--socket", "s.sock"], &args[..]].concat()).err();
            assert!(
                matches!(err, Some(ArgError::Unusable("--shards", _))),
                "{args:?}: {err:?}"
            );
        }
        let opts = parse(&["--socket", "s.sock", "--shards", "4"])
            .unwrap()
            .unwrap();
        assert_eq!(opts.shards, Some(4));
        let opts = parse(&["--socket", "s.sock", "--store", "persistent"])
            .unwrap()
            .unwrap();
        assert_eq!(opts.shards, None);
    }

    #[test]
    fn unresolvable_endpoints_are_refused() {
        // Not a valid socket address and not resolvable: the guard
        // surfaces the resolution error instead of binding blind.
        assert!(check_bind_scope("definitely-not-a-real-host.invalid:1", false).is_err());
    }
}
