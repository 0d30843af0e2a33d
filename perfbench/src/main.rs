//! `perfbench` — the benchmark's executable.
//!
//! ```text
//! perfbench run --workload <churn|alert|zones> --seed <n> --seconds <s> --trace <0|1>
//! perfbench serve --socket <path> --probs <file> --store <persistent|concurrent> --dir <dir>
//! ```
//!
//! `run` prints one `metric` line per measurement, a `report` line with
//! the run's details and spread, and finally the result object. It exits
//! 0 when every response was correct, 1 when the oracle found a violation
//! or the generator could not hold its schedule, and 2 on any other
//! failure (no result line is printed then). `serve` is the server
//! process `run` starts.

use perfbench::e2e::{self, Context, Run, SETUPS, SUB_RUNS, WARMUP};
use perfbench::report::{result_line, Json, Metric};
use perfbench::serve::{serve, ServeArgs};
use perfbench::stats::{median, quantile, quartiles};
use perfbench::trace;
use perfbench::workload::{Kind, Store, Workload, PROBE_WRITE_RATE};
use std::path::PathBuf;
use std::time::Duration;

struct RunArgs {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn flag_values(args: &[String]) -> Result<Vec<(String, String)>, String> {
    args.chunks(2)
        .map(|pair| match pair {
            [flag, value] if flag.starts_with("--") => Ok((flag.clone(), value.clone())),
            _ => Err(format!("expected '--flag value' pairs, got {pair:?}")),
        })
        .collect()
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for (flag, value) in flag_values(args)? {
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => kind = Some(value.parse::<Kind>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(RunArgs {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let (mut socket, mut probs, mut store, mut dir) = (None, None, None, None);
    for (flag, value) in flag_values(args)? {
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value)),
            "--probs" => probs = Some(PathBuf::from(value)),
            "--dir" => dir = Some(PathBuf::from(value)),
            "--store" => {
                store = Some(match value.as_str() {
                    "persistent" => Store::Persistent,
                    "concurrent" => Store::Concurrent,
                    _ => {
                        return Err(format!(
                            "--store {value}: expected persistent or concurrent"
                        ))
                    }
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(ServeArgs {
        socket: socket.ok_or("--socket is required")?,
        probs: probs.ok_or("--probs is required")?,
        store: store.ok_or("--store is required")?,
        dir: dir.ok_or("--dir is required")?,
    })
}

/// Prints `metric <name> <value> <unit>` lines, the human-readable form
/// of every measurement.
fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// `(q1, median, q3)` across sub-runs, for the report.
fn spread_json(samples: &[f64]) -> Json {
    match quartiles(samples) {
        Some((q1, q2, q3)) => Json::obj([
            ("runs", Json::Int(samples.len() as u64)),
            ("q1", Json::Num(q1)),
            ("median", Json::Num(q2)),
            ("q3", Json::Num(q3)),
        ]),
        None => Json::Null,
    }
}

/// Violations of a run, plus the generator's own: a p99 send lag above
/// the bound means the run did not offer its stated rate.
fn violations(run: &Run) -> Vec<String> {
    let mut out = run.violations();
    let lag_p99 = quantile(&run.pooled(|s| &s.send_lag_us), 0.99).unwrap_or(0.0);
    if lag_p99 > e2e::MAX_SEND_LAG_P99_US {
        out.push(format!(
            "generator fell behind: send lag p99 {lag_p99:.0} us > {} us",
            e2e::MAX_SEND_LAG_P99_US
        ));
    }
    out
}

/// The end-to-end metrics: the `BENCHMARK.json` set, which every
/// workload reports steadily enough to bound (the result line), then the
/// rest (printed only). Subscribe latencies are among the rest: `zones`
/// sends no subscribes, and on a two-CPU virtual machine next to a
/// saturating alert stream their median measures how fast an idle CPU is
/// woken and their tail how often a request lands behind the matcher's
/// time slice, both shifting between runs by more than any useful bound.
fn e2e_metrics(run: &Run) -> (Vec<Metric>, Vec<Metric>) {
    let nan = f64::NAN;
    let main = vec![
        Metric::new("setup_s", median(&run.setups).unwrap_or(nan), "s"),
        Metric::new("alert_p50_ms", run.alert_p50_ms().unwrap_or(nan), "ms"),
        Metric::new(
            "pairings_per_alert",
            run.pairings_per_alert().unwrap_or(nan),
            "count",
        ),
        Metric::new(
            "server_peak_rss_mb",
            run.median_of(|s| Some(s.peak_rss_mib)).unwrap_or(nan),
            "MiB",
        ),
    ];
    // Subscribe figures only where the writer connection sends.
    let mut extra = Vec::new();
    if let (Some(p50), Some(p99)) = (run.subscribe_p50_us(), run.subscribe_p99_us()) {
        extra.push(Metric::new("subscribe_p50_us", p50, "us"));
        extra.push(Metric::new("subscribe_p99_us", p99, "us"));
        extra.push(Metric::new(
            "gen.send_lag_p99_us",
            quantile(&run.pooled(|s| &s.send_lag_us), 0.99).unwrap_or(nan),
            "us",
        ));
    }
    let alerts = run.pooled(|s| &s.alert_ms);
    // A p95 needs at least ten samples beyond it.
    if alerts.len() >= 200 {
        extra.push(Metric::new(
            "alert_p95_ms",
            quantile(&alerts, 0.95).unwrap_or(nan),
            "ms",
        ));
    }
    extra.push(Metric::new(
        "error_rate",
        run.failed() as f64 / run.attempted().max(1) as f64,
        "fraction",
    ));
    if let Some(bytes) = run.median_of(|s| s.disk_bytes_per_sub) {
        extra.push(Metric::new("disk_bytes_per_sub", bytes, "bytes"));
    }
    (main, extra)
}

fn run(args: &RunArgs) -> Result<bool, String> {
    perfbench::sys::set_timer_slack(1);
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    // Relative to the checkout root: Unix socket paths must stay short.
    let dir = PathBuf::from(".bench_build/pb").join(std::process::id().to_string());
    let result = run_in(args, exe, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(args: &RunArgs, exe: PathBuf, dir: &std::path::Path) -> Result<bool, String> {
    let measured = Duration::from_secs(args.seconds);
    // An untraced run splits its time over `SUB_RUNS` sub-runs; a traced
    // run measures one untraced and one span-recording sub-run of half
    // the time each, then the in-process ledger.
    let (subs, each) = if args.trace {
        (1, measured / 2)
    } else {
        (SUB_RUNS, measured / SUB_RUNS as u32)
    };
    let each = each.max(Duration::from_secs(1));
    let mut workload = Workload::generate(args.kind, args.seed, WARMUP, each);
    if args.trace {
        // The subscribe-side layers and their ledger need subscribes on
        // the socket, also where the workload itself sends none.
        workload.write_rate.get_or_insert(PROBE_WRITE_RATE);
    }
    let mut ctx = Context::new(exe, dir.to_path_buf(), &workload, args.seed)?;

    let run = Run::execute(
        &mut ctx,
        subs,
        if args.trace { 1 } else { SETUPS },
        each,
        false,
    )?;
    let (main, extra) = e2e_metrics(&run);
    let mut violations = violations(&run);
    let sub_spread = |f: &dyn Fn(&e2e::SubRun) -> Option<f64>| spread_json(&run.per_sub(f));
    let mut report = vec![
        ("workload", Json::str(args.kind.name())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("sub_runs", Json::Int(run.subs.len() as u64)),
        (
            "subscribes_timed",
            Json::Int(run.pooled(|s| &s.subscribe_us).len() as u64),
        ),
        (
            "alerts_timed",
            Json::Int(run.pooled(|s| &s.alert_ms).len() as u64),
        ),
        (
            "spread_across_sub_runs",
            Json::obj([
                ("setup_s", spread_json(&run.setups)),
                (
                    "subscribe_p50_us",
                    sub_spread(&|s| quantile(&s.subscribe_us, 0.5)),
                ),
                (
                    "subscribe_p99_us",
                    sub_spread(&|s| quantile(&s.subscribe_us, 0.99)),
                ),
                ("alert_p50_ms", sub_spread(&|s| quantile(&s.alert_ms, 0.5))),
                ("server_peak_rss_mb", sub_spread(&|s| Some(s.peak_rss_mib))),
            ]),
        ),
        (
            "client_cpu_share",
            Json::obj([
                ("writer", sub_spread(&|s| Some(s.writer_cpu_share))),
                ("alerter", sub_spread(&|s| Some(s.alerter_cpu_share))),
            ]),
        ),
    ];

    let (attempted, failed, result_metrics) = if args.trace {
        let traced = Run::execute(&mut ctx, 1, 1, each, true)?;
        violations.extend(self::violations(&traced));
        let (layers, rungs) = trace::ledger(&ctx, &run, &traced, dir)?;
        report.push((
            "capacity_ladder",
            Json::Arr(
                rungs
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("rate", Json::Num(r.rate)),
                            ("passed", Json::Bool(r.passed)),
                            ("subscribe_p99_us", Json::Num(r.subscribe_p99_us)),
                            ("writer_cpu_share", Json::Num(r.writer_cpu_share)),
                        ])
                    })
                    .collect(),
            ),
        ));
        print_metrics(&main);
        print_metrics(&extra);
        print_metrics(&layers);
        (
            run.attempted() + traced.attempted(),
            run.failed() + traced.failed(),
            layers,
        )
    } else {
        print_metrics(&main);
        print_metrics(&extra);
        (run.attempted(), run.failed(), main)
    };
    let correct = violations.is_empty();
    report.push((
        "violations",
        Json::Arr(violations.iter().map(Json::str).collect()),
    ));
    println!("report {}", Json::obj(report));
    println!(
        "{}",
        result_line(correct, attempted, failed, &result_metrics)
    );
    Ok(correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]).and_then(|a| run(&a)) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("perfbench: {e}");
                2
            }
        },
        Some("serve") => match parse_serve(&args[1..]).and_then(|a| serve(&a)) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                2
            }
        },
        _ => {
            eprintln!("usage: perfbench run --workload <churn|alert|zones> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("       perfbench serve --socket <path> --probs <file> --store <persistent|concurrent> --dir <dir>");
            2
        }
    };
    std::process::exit(code);
}
