//! The scenario bench matrix: scenario family × privacy/granularity
//! level × store backend, replayed end-to-end through one system per
//! serving level, with every epoch's notified set checked against the
//! scenario's plaintext oracle and every alert's pairings against the
//! analytic cost model.
//!
//! Reported per row: tokens issued, match cost in pairings, alert
//! wall-clock, and the privacy knob's notification cost (total vs exact
//! vs spurious). Written as `results/BENCH_scenarios.json`, schema
//! `sla-scenarios-bench/v2`.

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_core::{AlertSystem, StoreBackend, SystemBuilder};
use sla_datasets::{ChurnEvent, ChurnWorkload};
use sla_encoding::EncoderKind;
use sla_scenarios::{GranularityLevel, ScenarioConfig, ScenarioKind, ScenarioWorkload};

/// Group size for the matrix: small enough that the whole matrix runs in
/// CI, large enough that pairing counts dominate timing noise.
const GROUP_BITS: usize = 32;

/// One cell of the bench matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// Scenario family name (`moving`, `burst`, `mixed`, `zipf`).
    pub scenario: String,
    /// Privacy knob: `"L0"`, `"L2"`, … for a uniformly coarsened
    /// population, `"mixed"` for per-user levels served one store per
    /// level.
    pub level: String,
    /// Store backend name.
    pub store: String,
    /// Subscriber population.
    pub users: u64,
    /// Alerts issued (one per epoch).
    pub alerts: u64,
    /// Tokens issued across all epochs (every alert draws fresh ones).
    pub tokens_issued: u64,
    /// Pairings spent matching.
    pub pairings: u64,
    /// Users notified, summed over epochs (at this privacy level).
    pub notified: u64,
    /// Users exactly inside the zone, summed over epochs.
    pub exact_notified: u64,
    /// Spurious notifications (`notified - exact` per epoch, summed):
    /// the privacy knob's cost.
    pub spurious: u64,
    /// Total wall-clock of the alerts, ns.
    pub alert_ns: f64,
    /// Epochs whose notified set differed from the oracle, or whose
    /// pairings differed from the analytic count (must be 0).
    pub mismatches: u64,
}

/// Resolves a store-backend name, giving persistent stores a unique
/// scratch directory (returned for cleanup).
fn resolve_backend(name: &str, tag: &str) -> (StoreBackend, Option<PathBuf>) {
    match name {
        "concurrent" => (StoreBackend::ConcurrentSharded { shards: 4 }, None),
        "persistent" => {
            let dir = std::env::temp_dir()
                .join(format!("sla-scenario-store-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            (
                StoreBackend::Persistent {
                    dir: dir.clone(),
                    flush: sla_core::FlushPolicy::Manual,
                },
                Some(dir),
            )
        }
        other => panic!("unknown store '{other}' (concurrent|persistent)"),
    }
}

/// One serving level's replayable lane: its churn view and the system
/// serving it.
struct Lane {
    churn: ChurnWorkload,
    system: AlertSystem,
    rng: StdRng,
    scratch: Option<PathBuf>,
}

impl Lane {
    fn build(
        workload: &ScenarioWorkload,
        churn: ChurnWorkload,
        store: &str,
        tag: &str,
        seed: u64,
    ) -> Lane {
        let (backend, scratch) = resolve_backend(store, tag);
        let mut rng = StdRng::seed_from_u64(seed);
        let system = SystemBuilder::new(workload.grid.clone())
            .encoder(EncoderKind::Huffman)
            .group_bits(GROUP_BITS)
            .store(backend)
            .build(&workload.probs, &mut rng)
            .expect("scenario: valid configuration");
        Lane {
            churn,
            system,
            rng,
            scratch,
        }
    }

    fn cleanup(self) {
        let scratch = self.scratch.clone();
        drop(self);
        if let Some(dir) = scratch {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

fn empty_row(kind: ScenarioKind, level: &str, store: &str, users: u64) -> ScenarioRow {
    ScenarioRow {
        scenario: kind.name().to_string(),
        level: level.to_string(),
        store: store.to_string(),
        users,
        alerts: 0,
        tokens_issued: 0,
        pairings: 0,
        notified: 0,
        exact_notified: 0,
        spurious: 0,
        alert_ns: 0.0,
        mismatches: 0,
    }
}

/// Replays every epoch of `lanes` (one lane per serving level), checking
/// each alert's pairings against the analytic count and the union of
/// notified sets against `expected(epoch)`; accumulates into `row`.
fn replay(
    lanes: &mut [Lane],
    row: &mut ScenarioRow,
    workload: &ScenarioWorkload,
    expected: impl Fn(usize) -> Vec<u64>,
) {
    let n_epochs = lanes
        .first()
        .map(|l| l.churn.epochs.len())
        .unwrap_or_default();
    for e in 0..n_epochs {
        let mut union: Vec<u64> = Vec::new();
        let mut epoch_ok = true;
        for Lane {
            churn, system, rng, ..
        } in lanes.iter_mut()
        {
            let epoch = &churn.epochs[e];
            for event in &epoch.events {
                match *event {
                    ChurnEvent::Subscribe { user_id, cell }
                    | ChurnEvent::Move { user_id, cell } => {
                        system
                            .subscribe_cell(user_id, cell, rng)
                            .expect("scenario: in-range cell");
                    }
                    ChurnEvent::Unsubscribe { user_id } => {
                        system.unsubscribe(user_id).expect("scenario: known user");
                    }
                }
            }
            let t0 = Instant::now();
            let outcome = system
                .issue_alert(&epoch.alert_cells, rng)
                .expect("scenario: alert");
            row.alert_ns += t0.elapsed().as_nanos() as f64;
            epoch_ok &= outcome.pairings_used == outcome.analytic_pairings;
            row.tokens_issued += outcome.tokens_issued as u64;
            row.pairings += outcome.pairings_used;
            union.extend(outcome.notified);
        }
        union.sort_unstable();
        epoch_ok &= union == expected(e);
        let exact = workload.exact_notified(e).len() as u64;
        row.alerts += 1;
        row.notified += union.len() as u64;
        row.exact_notified += exact;
        row.spurious += (union.len() as u64).saturating_sub(exact);
        if !epoch_ok {
            row.mismatches += 1;
        }
    }
}

/// Runs one matrix cell with the whole population coarsened to `level`.
pub fn run_uniform(
    kind: ScenarioKind,
    level: GranularityLevel,
    store: &str,
    config: &ScenarioConfig,
) -> ScenarioRow {
    let workload = ScenarioWorkload::generate(kind, config);
    let tag = format!("{kind}-{level}-{store}");
    let mut lanes = vec![Lane::build(
        &workload,
        workload.at_level(level),
        store,
        &tag,
        config.seed,
    )];
    let mut row = empty_row(kind, &level.to_string(), store, config.users);
    replay(&mut lanes, &mut row, &workload, |e| {
        workload.expected_notified_at(e, level)
    });
    lanes.into_iter().for_each(Lane::cleanup);
    row
}

/// Runs the mixed-granularity serving cell: one store **per subscribed
/// level**, alerts issued per level over that level's coarsened zone,
/// notified sets unioned — checked against
/// [`ScenarioWorkload::expected_notified_mixed`].
pub fn run_mixed(store: &str, config: &ScenarioConfig) -> ScenarioRow {
    let workload = ScenarioWorkload::generate(ScenarioKind::Mixed, config);
    let mut lanes: Vec<Lane> = workload
        .distinct_levels()
        .into_iter()
        .map(|level| {
            let tag = format!("mixed-{level}-{store}");
            Lane::build(
                &workload,
                workload.level_slice(level),
                store,
                &tag,
                config.seed ^ u64::from(level.0),
            )
        })
        .collect();
    let mut row = empty_row(ScenarioKind::Mixed, "mixed", store, config.users);
    replay(&mut lanes, &mut row, &workload, |e| {
        workload.expected_notified_mixed(e)
    });
    lanes.into_iter().for_each(Lane::cleanup);
    row
}

/// Sweeps the full matrix: every scenario × every uniform level × every
/// store, plus one `mixed`-serving row per store for the mixed scenario.
pub fn run_matrix(
    kinds: &[ScenarioKind],
    levels: &[GranularityLevel],
    stores: &[&str],
    config: &ScenarioConfig,
) -> Vec<ScenarioRow> {
    let mut rows = Vec::new();
    for &kind in kinds {
        for store in stores {
            for &level in levels {
                rows.push(run_uniform(kind, level, store, config));
            }
            if kind == ScenarioKind::Mixed {
                rows.push(run_mixed(store, config));
            }
        }
    }
    rows
}

/// Renders the matrix as `sla-scenarios-bench/v2` JSON.
pub fn to_json(config: &ScenarioConfig, rows: &[ScenarioRow]) -> String {
    let mut out = String::from("{\n  \"schema\": \"sla-scenarios-bench/v2\",\n");
    out.push_str(&format!(
        "  \"seed\": {}, \"users\": {}, \"epochs\": {}, \"group_bits\": {},\n  \"rows\": [\n",
        config.seed, config.users, config.epochs, GROUP_BITS
    ));
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"scenario\": \"{}\", \"level\": \"{}\", \"store\": \"{}\", ",
                    "\"users\": {}, \"alerts\": {}, \"tokens_issued\": {}, \"pairings\": {}, ",
                    "\"notified\": {}, \"exact_notified\": {}, \"spurious\": {}, ",
                    "\"alert_ns\": {:.0}, \"mismatches\": {}}}"
                ),
                r.scenario,
                r.level,
                r.store,
                r.users,
                r.alerts,
                r.tokens_issued,
                r.pairings,
                r.notified,
                r.exact_notified,
                r.spurious,
                r.alert_ns,
                r.mismatches,
            )
        })
        .collect();
    out.push_str(&rendered.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioConfig {
        ScenarioConfig {
            users: 10,
            epochs: 2,
            seed: 77,
        }
    }

    #[test]
    fn uniform_row_matches_oracle() {
        let row = run_uniform(
            ScenarioKind::Moving,
            GranularityLevel::EXACT,
            "concurrent",
            &tiny(),
        );
        assert_eq!(row.mismatches, 0);
        assert_eq!(row.alerts, 3);
        assert!(row.tokens_issued > 0);
        assert_eq!(row.spurious, 0, "L0 has no privacy cost");
    }

    #[test]
    fn mixed_row_unions_per_level_stores() {
        let row = run_mixed("concurrent", &tiny());
        assert_eq!(row.mismatches, 0);
        assert_eq!(row.level, "mixed");
        assert!(row.notified >= row.exact_notified);
    }

    #[test]
    fn json_has_the_v2_shape() {
        let rows = vec![run_uniform(
            ScenarioKind::Burst,
            GranularityLevel(2),
            "concurrent",
            &tiny(),
        )];
        let json = to_json(&tiny(), &rows);
        for needle in [
            "\"schema\": \"sla-scenarios-bench/v2\"",
            "\"scenario\": \"burst\"",
            "\"level\": \"L2\"",
            "\"tokens_issued\":",
            "\"alert_ns\":",
            "\"mismatches\": 0",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
