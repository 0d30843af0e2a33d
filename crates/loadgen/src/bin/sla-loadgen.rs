//! `sla-loadgen` — replays a churn workload against a running
//! `sla-server` and writes `results/BENCH_service.json`.
//!
//! ```text
//! sla-loadgen --socket /tmp/sla.sock --threads 4 --users 200 --epochs 6
//! sla-loadgen --tcp 127.0.0.1:4240 --shutdown
//! sla-loadgen --socket /tmp/sla.sock --smoke     # small run; implies --shutdown
//! sla-loadgen --tcp 127.0.0.1:4240 --scenario moving   # storm-track replay
//! ```
//!
//! Exit codes: `0` clean (all alert notified-sets matched ground
//! truth), `1` on replay/transport failure or any mismatch, `2` on a
//! malformed command line.

use sla_loadgen::{render_json, replay, Endpoint, ReplayConfig};
use sla_scenarios::ScenarioKind;
use std::path::PathBuf;

struct Opts {
    config: ReplayConfig,
    out: PathBuf,
}

/// Typed rejection of a malformed command line.
#[derive(Debug)]
enum ArgError {
    MissingValue(&'static str),
    Invalid(&'static str, String),
    Endpoint,
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
            ArgError::Unknown(flag) => write!(f, "unknown flag '{flag}' (see --help)"),
        }
    }
}

impl std::error::Error for ArgError {}

const USAGE: &str = "\
sla-loadgen — churn-workload replay against sla-server

USAGE:
    sla-loadgen (--socket <path> | --tcp <addr>) [options]

OPTIONS:
    --socket <path>   Connect to a Unix-domain socket
    --tcp <addr>      Connect over TCP, e.g. 127.0.0.1:4240
    --threads <n>     Client threads / connections (default 4)
    --users <n>       Initial population (default 200)
    --epochs <n>      Churn epochs after the initial wave (default 6)
    --seed <n>        Workload seed (default 20210323)
    --scenario <kind> Replay a scenario workload: moving, burst, mixed, zipf
    --out <path>      Report path (default results/BENCH_service.json)
    --shutdown        Send a shutdown RPC when done
    --smoke           Small CI run: 24 users, 2 epochs, 2 threads; implies --shutdown
    --help            This text";

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
    let mut threads = None;
    let mut users = None;
    let mut epochs = None;
    let mut seed = 20_210_323u64;
    let mut scenario = None;
    let mut out = PathBuf::from("results/BENCH_service.json");
    let mut shutdown = false;
    let mut smoke = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--socket" => socket = Some(args.next().ok_or(ArgError::MissingValue("--socket"))?),
            "--tcp" => tcp = Some(args.next().ok_or(ArgError::MissingValue("--tcp"))?),
            "--threads" => threads = Some(parse_number("--threads", args.next())?),
            "--users" => users = Some(parse_number("--users", args.next())?),
            "--epochs" => epochs = Some(parse_number("--epochs", args.next())?),
            "--seed" => seed = parse_number("--seed", args.next())?,
            "--scenario" => {
                let v = args.next().ok_or(ArgError::MissingValue("--scenario"))?;
                scenario = Some(
                    v.parse::<ScenarioKind>()
                        .map_err(|_| ArgError::Invalid("--scenario", v))?,
                );
            }
            "--out" => out = PathBuf::from(args.next().ok_or(ArgError::MissingValue("--out"))?),
            "--shutdown" => shutdown = true,
            "--smoke" => smoke = true,
            other => return Err(ArgError::Unknown(other.to_string())),
        }
    }
    let endpoint = match (socket, tcp) {
        (Some(path), None) => Endpoint::Unix(PathBuf::from(path)),
        (None, Some(addr)) => Endpoint::Tcp(addr),
        _ => return Err(ArgError::Endpoint),
    };
    // Smoke shrinks every knob the user did not set explicitly, and
    // always drains the server so CI can assert a clean exit.
    let (d_threads, d_users, d_epochs) = if smoke { (2, 24, 2) } else { (4, 200, 6) };
    Ok(Some(Opts {
        config: ReplayConfig {
            endpoint,
            threads: threads.unwrap_or(d_threads),
            users: users.unwrap_or(d_users),
            epochs: epochs.unwrap_or(d_epochs),
            seed,
            scenario,
            send_shutdown: shutdown || smoke,
        },
        out,
    }))
}

fn run(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let report = replay(&opts.config)?;

    println!(
        "replayed {} ops in {:.3}s over {} ({:.0} op/s, {} busy retries)",
        report.ops.total(),
        report.elapsed.as_secs_f64(),
        opts.config.endpoint,
        report.throughput(),
        report.busy_retries,
    );
    for (name, hist) in [
        ("subscribe", &report.ops.subscribe),
        ("unsubscribe", &report.ops.unsubscribe),
        ("alert", &report.ops.alert),
        ("stats", &report.ops.stats),
    ] {
        if hist.count() == 0 {
            continue;
        }
        println!(
            "  {name:<12} n={:<6} p50={:>9}ns p99={:>9}ns p999={:>9}ns max={:>9}ns",
            hist.count(),
            hist.quantile(0.50),
            hist.quantile(0.99),
            hist.quantile(0.999),
            hist.max(),
        );
    }
    println!(
        "  alerts verified against ground truth: {}/{} matched",
        report.alerts_checked - report.mismatches,
        report.alerts_checked,
    );

    if let Some(parent) = opts.out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&opts.out, render_json(&opts.config, &report))?;
    println!("wrote {}", opts.out.display());

    if report.mismatches > 0 {
        return Err(format!(
            "{} of {} alert notified-sets disagreed with plaintext ground truth",
            report.mismatches, report.alerts_checked
        )
        .into());
    }
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
            eprintln!("sla-loadgen: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("sla-loadgen: {e}");
        std::process::exit(1);
    }
}
