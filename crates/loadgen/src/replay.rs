//! Replays a dataset churn workload over the wire and records
//! client-observed latency per operation kind.
//!
//! The workload is `sla_datasets::ChurnWorkload` — the same generator
//! the in-process lifecycle tests and benches use — over the paper's
//! Chicago-downtown 32×32 grid, so the loadgen and the server agree on
//! cell indices by construction. Each epoch's events are partitioned
//! into per-user-ordered streams (`ChurnEpoch::writer_streams`), one
//! per client thread, each thread holding its own connection; after the
//! epoch's events land, one alert is issued over the epoch's zone and
//! the notified set is checked against the workload's plaintext ground
//! truth (`positions_after`) — the loadgen doubles as an end-to-end
//! checker.
//!
//! Latency is measured around [`Client::call_retrying`], so a `Busy`
//! rejection's backoff-and-retry is *included* in the recorded value:
//! the histograms report what a client experiences, not what the server
//! admits to.

use crate::client::{Client, Endpoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_bench::histogram::LatencyHistogram;
use sla_core::{SlaError, SlaResult};
use sla_datasets::workload::{ChurnConfig, ChurnEvent, ChurnWorkload};
use sla_grid::{Grid, ProbabilityMap, ZoneSampler};
use sla_scenarios::{ScenarioConfig, ScenarioKind, ScenarioWorkload};
use sla_server::{Request, Response, WireStats};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// What to replay and how hard.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// The server to talk to.
    pub endpoint: Endpoint,
    /// Client threads (each with its own connection).
    pub threads: usize,
    /// Initial population size.
    pub users: u64,
    /// Churn epochs after the initial subscription wave.
    pub epochs: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// Replay a named scenario (`moving`, `burst`, `mixed`, `zipf`)
    /// instead of the default static-zone churn workload. Mixed
    /// granularity is replayed at exact (L0) cells — the wire protocol
    /// carries plain cell indices, so coarsening is a client-side
    /// concern exercised by the in-process scenario matrix.
    pub scenario: Option<ScenarioKind>,
    /// Send a `shutdown` RPC once the replay finishes.
    pub send_shutdown: bool,
}

/// Per-kind latency histograms (nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct OpHistograms {
    /// `subscribe` (includes moves — the wire op is the same upsert).
    pub subscribe: LatencyHistogram,
    /// `unsubscribe`.
    pub unsubscribe: LatencyHistogram,
    /// `alert`.
    pub alert: LatencyHistogram,
    /// `stats` snapshots.
    pub stats: LatencyHistogram,
}

impl OpHistograms {
    fn merge(&mut self, other: &OpHistograms) {
        self.subscribe.merge(&other.subscribe);
        self.unsubscribe.merge(&other.unsubscribe);
        self.alert.merge(&other.alert);
        self.stats.merge(&other.stats);
    }

    /// Total recorded operations.
    pub fn total(&self) -> u64 {
        self.subscribe.count() + self.unsubscribe.count() + self.alert.count() + self.stats.count()
    }
}

/// The outcome of one replay run.
#[derive(Debug)]
pub struct ReplayReport {
    /// Latency histograms per operation kind.
    pub ops: OpHistograms,
    /// Wall-clock time of the measured section.
    pub elapsed: Duration,
    /// Busy rejections retried (across all threads).
    pub busy_retries: u64,
    /// Alert notified-sets that disagreed with the plaintext ground
    /// truth — must be zero; nonzero fails the run's exit code.
    pub mismatches: u64,
    /// Alerts whose notified set was verified against ground truth.
    pub alerts_checked: u64,
    /// The server's own counters, snapshotted after the replay.
    pub server_stats: WireStats,
}

impl ReplayReport {
    /// Recorded operations per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops.total() as f64 / secs
        }
    }
}

/// One timed call: records client-observed latency (busy retries
/// included) into `hist`.
fn timed_call(
    client: &mut Client,
    req: &Request,
    hist: &mut LatencyHistogram,
    busy_retries: &mut u64,
) -> SlaResult<Response> {
    let start = Instant::now();
    let resp = client.call_retrying(req, busy_retries)?;
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    hist.record(nanos);
    if let Response::Error { code, detail } = &resp {
        return Err(SlaError::Protocol {
            detail: format!("server rejected {}: {code:?}: {detail}", req.kind()),
        });
    }
    Ok(resp)
}

fn event_request(event: &ChurnEvent) -> Request {
    match *event {
        ChurnEvent::Subscribe { user_id, cell } | ChurnEvent::Move { user_id, cell } => {
            Request::Subscribe {
                user_id,
                cell: cell as u64,
            }
        }
        ChurnEvent::Unsubscribe { user_id } => Request::Unsubscribe { user_id },
    }
}

/// Generates the churn workload this replay drives (deterministic in
/// the config).
pub fn generate_workload(config: &ReplayConfig) -> ChurnWorkload {
    if let Some(kind) = config.scenario {
        // The scenario engine's workloads are churn workloads too, so
        // the whole replay/verification pipeline below runs unchanged —
        // including the per-epoch ground-truth check, which for a moving
        // zone verifies the server across the zone's cell deltas.
        let scenario_cfg = ScenarioConfig {
            users: config.users,
            epochs: config.epochs,
            seed: config.seed,
        };
        return ScenarioWorkload::generate(kind, &scenario_cfg).churn;
    }
    let grid = Grid::chicago_downtown_32();
    let probs = ProbabilityMap::uniform(grid.n_cells());
    let sampler = ZoneSampler::new(grid, &probs);
    let churn = ChurnConfig {
        users: config.users,
        epochs: config.epochs,
        ..ChurnConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    churn.generate(&sampler, &mut rng)
}

/// Runs the replay: connect `threads` clients, stream every epoch's
/// events concurrently, issue and verify every epoch's alert, snapshot
/// the server's stats, and (optionally) shut the server down.
pub fn replay(config: &ReplayConfig) -> SlaResult<ReplayReport> {
    if config.threads == 0 {
        return Err(SlaError::Protocol {
            detail: "replay needs at least one client thread".into(),
        });
    }
    let workload = generate_workload(config);

    let patience = Duration::from_secs(10);
    let mut clients = Vec::with_capacity(config.threads);
    for _ in 0..config.threads {
        clients.push(Client::connect(&config.endpoint, patience)?);
    }

    let mut ops = OpHistograms::default();
    let mut busy_retries = 0u64;
    let mut mismatches = 0u64;
    let mut alerts_checked = 0u64;
    let started = Instant::now();

    for (epoch_idx, epoch) in workload.epochs.iter().enumerate() {
        // Concurrent churn: one stream per client thread, per-user
        // order preserved inside each stream.
        let streams = epoch.writer_streams(config.threads);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(streams.iter())
                .map(|(client, stream)| {
                    scope.spawn(move || -> SlaResult<(OpHistograms, u64)> {
                        let mut hist = OpHistograms::default();
                        let mut busy = 0u64;
                        for event in stream {
                            let req = event_request(event);
                            let slot = match req {
                                Request::Subscribe { .. } => &mut hist.subscribe,
                                _ => &mut hist.unsubscribe,
                            };
                            timed_call(client, &req, slot, &mut busy)?;
                        }
                        Ok((hist, busy))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        for result in results {
            let (hist, busy) = result?;
            ops.merge(&hist);
            busy_retries += busy;
        }

        // The epoch's alert.
        let cells: Vec<u64> = epoch.alert_cells.iter().map(|&c| c as u64).collect();
        let resp = timed_call(
            &mut clients[0],
            &Request::Alert { cells },
            &mut ops.alert,
            &mut busy_retries,
        )?;
        if let Response::Alerted { notified, .. } = resp {
            let zone: BTreeSet<usize> = epoch.alert_cells.iter().copied().collect();
            let expected: Vec<u64> = workload
                .positions_after(epoch_idx)
                .into_iter()
                .filter(|(_, cell)| zone.contains(cell))
                .map(|(user_id, _)| user_id)
                .collect();
            alerts_checked += 1;
            if notified != expected {
                mismatches += 1;
            }
        }
    }

    let resp = timed_call(
        &mut clients[0],
        &Request::Stats,
        &mut ops.stats,
        &mut busy_retries,
    )?;
    let elapsed = started.elapsed();
    let server_stats = match resp {
        Response::Stats(stats) => stats,
        other => {
            return Err(SlaError::Protocol {
                detail: format!("stats RPC answered {other:?}"),
            })
        }
    };

    if config.send_shutdown {
        match clients[0].call(&Request::Shutdown)? {
            Response::ShuttingDown => {}
            other => {
                return Err(SlaError::Protocol {
                    detail: format!("shutdown RPC answered {other:?}"),
                })
            }
        }
    }

    Ok(ReplayReport {
        ops,
        elapsed,
        busy_retries,
        mismatches,
        alerts_checked,
        server_stats,
    })
}

// ---------------------------------------------------------------------------
// The BENCH_service.json rendering (schema v1)
// ---------------------------------------------------------------------------

fn op_json(name: &str, hist: &LatencyHistogram) -> String {
    format!(
        concat!(
            "    \"{}\": {{\"count\": {}, \"min_ns\": {}, \"mean_ns\": {:.0}, ",
            "\"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}"
        ),
        name,
        hist.count(),
        hist.min(),
        hist.mean(),
        hist.quantile(0.50),
        hist.quantile(0.99),
        hist.quantile(0.999),
        hist.max(),
    )
}

/// Renders the report as the `results/BENCH_service.json` document
/// (schema `sla-service-bench/v1`): run parameters, throughput,
/// per-op latency (fixed-bucket histogram quantiles, nanoseconds,
/// conservative upper bounds), and the server's own counters.
pub fn render_json(config: &ReplayConfig, report: &ReplayReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"sla-service-bench/v1\",\n");
    out.push_str(&format!(
        "  \"workload\": {{\"endpoint\": \"{}\", \"threads\": {}, \"users\": {}, \"epochs\": {}, \"seed\": {}, \"scenario\": {}}},\n",
        config.endpoint,
        config.threads,
        config.users,
        config.epochs,
        config.seed,
        config
            .scenario
            .map_or("null".to_string(), |k| format!("\"{k}\"")),
    ));
    out.push_str(&format!(
        "  \"elapsed_s\": {:.6},\n  \"total_ops\": {},\n  \"throughput_ops_per_s\": {:.1},\n",
        report.elapsed.as_secs_f64(),
        report.ops.total(),
        report.throughput()
    ));
    out.push_str(&format!(
        "  \"busy_retries\": {},\n  \"alerts_checked\": {},\n  \"mismatches\": {},\n",
        report.busy_retries, report.alerts_checked, report.mismatches
    ));
    out.push_str("  \"ops\": {\n");
    let rendered: Vec<String> = [
        ("subscribe", &report.ops.subscribe),
        ("unsubscribe", &report.ops.unsubscribe),
        ("alert", &report.ops.alert),
        ("stats", &report.ops.stats),
    ]
    .iter()
    .map(|(name, hist)| op_json(name, hist))
    .collect();
    out.push_str(&rendered.join(",\n"));
    out.push_str("\n  },\n");
    let s = &report.server_stats;
    out.push_str(&format!(
        concat!(
            "  \"server\": {{\"backend\": \"{}\", \"shards\": {}, \"subscriptions\": {}, ",
            "\"inserted\": {}, \"replaced\": {}, \"unsubscribed\": {}, \"evicted\": {}, ",
            "\"recovered_epoch\": {}, \"ops_subscribe\": {}, \"ops_unsubscribe\": {}, ",
            "\"ops_alert\": {}, \"ops_stats\": {}, \"busy_rejections\": {}, ",
            "\"tokens_regenerated\": {}, \"cells_entered\": {}, \"cells_exited\": {}, ",
            "\"durability_lanes\": [{}]}}\n"
        ),
        s.backend,
        s.shards,
        s.subscriptions,
        s.inserted,
        s.replaced,
        s.unsubscribed,
        s.evicted,
        s.recovered_epoch
            .map_or("null".to_string(), |e| e.to_string()),
        s.ops_subscribe,
        s.ops_unsubscribe,
        s.ops_alert,
        s.ops_stats,
        s.busy_rejections,
        s.tokens_regenerated,
        s.cells_entered,
        s.cells_exited,
        s.lanes
            .iter()
            .map(|l| format!(
                "{{\"wal_generation\": {}, \"depth\": {}}}",
                l.wal_generation, l.depth
            ))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_server::WireLaneStats;

    #[test]
    fn workload_generation_is_deterministic() {
        let config = ReplayConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            threads: 2,
            users: 24,
            epochs: 2,
            seed: 7,
            scenario: None,
            send_shutdown: false,
        };
        let a = generate_workload(&config);
        let b = generate_workload(&config);
        assert_eq!(a, b);
        assert_eq!(a.epochs.len(), 1 + config.epochs);
        assert!(a.n_events() >= config.users as usize);
    }

    #[test]
    fn scenario_workload_is_deterministic_and_moves_the_zone() {
        let config = ReplayConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            threads: 2,
            users: 24,
            epochs: 3,
            seed: 7,
            scenario: Some(ScenarioKind::Moving),
            send_shutdown: false,
        };
        let a = generate_workload(&config);
        let b = generate_workload(&config);
        assert_eq!(a, b);
        assert_eq!(a.epochs.len(), 1 + config.epochs);
        // The storm track drifts, so consecutive epochs alert over
        // different cell sets — the property the wire replay exists to
        // exercise end-to-end.
        assert!(a
            .epochs
            .windows(2)
            .any(|w| w[0].alert_cells != w[1].alert_cells));
        // And the scenario differs from the static-zone default.
        let static_config = ReplayConfig {
            scenario: None,
            ..config
        };
        assert_ne!(a, generate_workload(&static_config));
    }

    #[test]
    fn json_report_has_the_v1_shape() {
        let config = ReplayConfig {
            endpoint: Endpoint::Unix("/tmp/x.sock".into()),
            threads: 2,
            users: 24,
            epochs: 2,
            seed: 7,
            scenario: None,
            send_shutdown: true,
        };
        let mut ops = OpHistograms::default();
        ops.subscribe.record(1_000);
        ops.subscribe.record(2_000);
        ops.alert.record(5_000_000);
        let report = ReplayReport {
            ops,
            elapsed: Duration::from_millis(125),
            busy_retries: 3,
            mismatches: 0,
            alerts_checked: 3,
            server_stats: WireStats {
                backend: "persistent".into(),
                shards: 8,
                subscriptions: 20,
                epoch: 0,
                inserted: 24,
                replaced: 5,
                unsubscribed: 4,
                evicted: 0,
                recovered_epoch: None,
                ops_subscribe: 29,
                ops_unsubscribe: 4,
                ops_alert: 3,
                ops_stats: 1,
                busy_rejections: 3,
                tokens_regenerated: 0,
                cells_entered: 0,
                cells_exited: 0,
                lanes: vec![
                    WireLaneStats {
                        wal_generation: 2,
                        depth: 0,
                    },
                    WireLaneStats {
                        wal_generation: 1,
                        depth: 7,
                    },
                ],
            },
        };
        let json = render_json(&config, &report);
        for needle in [
            "\"schema\": \"sla-service-bench/v1\"",
            "\"subscribe\": {\"count\": 2",
            "\"p999_ns\":",
            "\"recovered_epoch\": null",
            "\"durability_lanes\": [{\"wal_generation\": 2, \"depth\": 0}, {\"wal_generation\": 1, \"depth\": 7}]",
            "\"mismatches\": 0",
            "unix:///tmp/x.sock",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces — cheap well-formedness check without a JSON
        // parser in the dependency set.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
    }
}
