//! The scenario bench matrix: scenario family × privacy/granularity
//! level × store backend, replayed end-to-end through **two**
//! identically-seeded systems — one alerting through the tracked
//! (incremental token regeneration) path, one through full
//! regeneration — with every epoch's outcome checked against the other
//! system *and* against the scenario's plaintext oracle.
//!
//! Reported per row: token-regeneration work (generated vs reused),
//! zone cell deltas, match cost in pairings, wall-clock for both alert
//! paths, and the privacy knob's notification cost (total vs exact vs
//! spurious). Written as `results/BENCH_scenarios.json`, schema
//! `sla-scenarios-bench/v1`.

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_core::{AlertSystem, StoreBackend, SystemBuilder, ZoneTracker};
use sla_datasets::{ChurnEvent, ChurnWorkload};
use sla_encoding::EncoderKind;
use sla_grid::ProbabilityMap;
use sla_scenarios::{GranularityLevel, ScenarioConfig, ScenarioKind, ScenarioWorkload};

/// Group size for the matrix: small enough that 18 rows × 2 systems run
/// in CI, large enough that pairing counts dominate timing noise.
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
    /// Tokens freshly generated by the tracked path across all epochs.
    pub tokens_generated: u64,
    /// Tokens served from the pattern cache.
    pub tokens_reused: u64,
    /// Zone cells entered across epochs (tracked path's delta).
    pub cells_entered: u64,
    /// Zone cells exited across epochs.
    pub cells_exited: u64,
    /// Pairings spent matching (tracked path; the full path is equal —
    /// any divergence counts as a mismatch).
    pub pairings: u64,
    /// Users notified, summed over epochs (at this privacy level).
    pub notified: u64,
    /// Users exactly inside the zone, summed over epochs.
    pub exact_notified: u64,
    /// Spurious notifications (`notified - exact` per epoch, summed):
    /// the privacy knob's cost.
    pub spurious: u64,
    /// Total wall-clock of the tracked (incremental) alerts, ns.
    pub tracked_ns: f64,
    /// Total wall-clock of the full-regeneration alerts, ns.
    pub full_ns: f64,
    /// Epochs where tracked vs full vs oracle disagreed (must be 0).
    pub mismatches: u64,
}

impl ScenarioRow {
    /// Full-regeneration time over tracked time (> 1 when the
    /// incremental path wins).
    pub fn speedup(&self) -> f64 {
        if self.tracked_ns > 0.0 {
            self.full_ns / self.tracked_ns
        } else {
            1.0
        }
    }
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

/// One replayable serving lane: a system plus its tracker and RNG (the
/// tracked and full systems are seeded identically, so their stores stay
/// byte-equal under the same event stream).
struct Lane {
    system: AlertSystem,
    tracker: ZoneTracker,
    rng: StdRng,
    scratch: Option<PathBuf>,
}

impl Lane {
    fn build(
        workload: &ScenarioWorkload,
        probs: &ProbabilityMap,
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
            .build(probs, &mut rng)
            .expect("scenario: valid configuration");
        Lane {
            system,
            tracker: ZoneTracker::new(),
            rng,
            scratch,
        }
    }

    fn apply_events(&mut self, events: &[ChurnEvent]) {
        for event in events {
            match *event {
                ChurnEvent::Subscribe { user_id, cell } | ChurnEvent::Move { user_id, cell } => {
                    self.system
                        .subscribe_cell(user_id, cell, &mut self.rng)
                        .expect("scenario: in-range cell");
                }
                ChurnEvent::Unsubscribe { user_id } => {
                    self.system
                        .unsubscribe(user_id)
                        .expect("scenario: known user");
                }
            }
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

/// One level's tracked+full system pair over one (coarsened or sliced)
/// churn view.
struct LanePair {
    churn: ChurnWorkload,
    tracked: Lane,
    full: Lane,
}

impl LanePair {
    fn build(
        workload: &ScenarioWorkload,
        churn: ChurnWorkload,
        store: &str,
        tag: &str,
        seed: u64,
    ) -> LanePair {
        LanePair {
            churn,
            tracked: Lane::build(workload, &workload.probs, store, &format!("{tag}-t"), seed),
            full: Lane::build(workload, &workload.probs, store, &format!("{tag}-f"), seed),
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
        tokens_generated: 0,
        tokens_reused: 0,
        cells_entered: 0,
        cells_exited: 0,
        pairings: 0,
        notified: 0,
        exact_notified: 0,
        spurious: 0,
        tracked_ns: 0.0,
        full_ns: 0.0,
        mismatches: 0,
    }
}

/// Replays every epoch of `pairs` (one pair per serving level), checking
/// the tracked outcome against the full-regeneration outcome and the
/// union of notified sets against `expected(epoch)`; accumulates into
/// `row`.
fn replay_pairs(
    pairs: &mut [LanePair],
    row: &mut ScenarioRow,
    workload: &ScenarioWorkload,
    expected: impl Fn(usize) -> Vec<u64>,
) {
    let n_epochs = pairs
        .first()
        .map(|p| p.churn.epochs.len())
        .unwrap_or_default();
    for e in 0..n_epochs {
        let mut union: Vec<u64> = Vec::new();
        let mut epoch_ok = true;
        for pair in pairs.iter_mut() {
            let epoch = pair.churn.epochs[e].clone();
            pair.tracked.apply_events(&epoch.events);
            pair.full.apply_events(&epoch.events);

            let t0 = Instant::now();
            let tracked = pair
                .tracked
                .system
                .issue_alert_tracked(
                    &mut pair.tracked.tracker,
                    &epoch.alert_cells,
                    &mut pair.tracked.rng,
                )
                .expect("scenario: tracked alert");
            row.tracked_ns += t0.elapsed().as_nanos() as f64;

            let t0 = Instant::now();
            let full = pair
                .full
                .system
                .issue_alert(&epoch.alert_cells, &mut pair.full.rng)
                .expect("scenario: full alert");
            row.full_ns += t0.elapsed().as_nanos() as f64;

            if tracked.alert != full {
                epoch_ok = false;
            }
            row.tokens_generated += tracked.regen.tokens_generated;
            row.tokens_reused += tracked.regen.tokens_reused;
            row.cells_entered += tracked.regen.cells_entered;
            row.cells_exited += tracked.regen.cells_exited;
            row.pairings += tracked.alert.pairings_used;
            union.extend(tracked.alert.notified);
        }
        union.sort_unstable();
        if union != expected(e) {
            epoch_ok = false;
        }
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
    let mut pairs = vec![LanePair::build(
        &workload,
        workload.at_level(level),
        store,
        &tag,
        config.seed,
    )];
    let mut row = empty_row(kind, &level.to_string(), store, config.users);
    replay_pairs(&mut pairs, &mut row, &workload, |e| {
        workload.expected_notified_at(e, level)
    });
    for pair in pairs {
        pair.tracked.cleanup();
        pair.full.cleanup();
    }
    row
}

/// Runs the mixed-granularity serving cell: one store (and one tracked /
/// full system pair) **per subscribed level**, alerts issued per level
/// over that level's coarsened zone, notified sets unioned — checked
/// against [`ScenarioWorkload::expected_notified_mixed`].
pub fn run_mixed(store: &str, config: &ScenarioConfig) -> ScenarioRow {
    let workload = ScenarioWorkload::generate(ScenarioKind::Mixed, config);
    let mut pairs: Vec<LanePair> = workload
        .distinct_levels()
        .into_iter()
        .map(|level| {
            let tag = format!("mixed-{level}-{store}");
            LanePair::build(
                &workload,
                workload.level_slice(level),
                store,
                &tag,
                config.seed ^ u64::from(level.0),
            )
        })
        .collect();
    let mut row = empty_row(ScenarioKind::Mixed, "mixed", store, config.users);
    replay_pairs(&mut pairs, &mut row, &workload, |e| {
        workload.expected_notified_mixed(e)
    });
    for pair in pairs {
        pair.tracked.cleanup();
        pair.full.cleanup();
    }
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

/// Renders the matrix as `sla-scenarios-bench/v1` JSON.
pub fn to_json(config: &ScenarioConfig, rows: &[ScenarioRow]) -> String {
    let mut out = String::from("{\n  \"schema\": \"sla-scenarios-bench/v1\",\n");
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
                    "\"users\": {}, \"alerts\": {}, ",
                    "\"tokens_generated\": {}, \"tokens_reused\": {}, ",
                    "\"cells_entered\": {}, \"cells_exited\": {}, \"pairings\": {}, ",
                    "\"notified\": {}, \"exact_notified\": {}, \"spurious\": {}, ",
                    "\"tracked_ns\": {:.0}, \"full_ns\": {:.0}, \"speedup\": {:.3}, ",
                    "\"mismatches\": {}}}"
                ),
                r.scenario,
                r.level,
                r.store,
                r.users,
                r.alerts,
                r.tokens_generated,
                r.tokens_reused,
                r.cells_entered,
                r.cells_exited,
                r.pairings,
                r.notified,
                r.exact_notified,
                r.spurious,
                r.tracked_ns,
                r.full_ns,
                r.speedup(),
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
    fn uniform_row_matches_oracle_and_full_path() {
        let row = run_uniform(
            ScenarioKind::Moving,
            GranularityLevel::EXACT,
            "concurrent",
            &tiny(),
        );
        assert_eq!(row.mismatches, 0);
        assert_eq!(row.alerts, 3);
        assert!(row.tokens_generated > 0);
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
    fn json_has_the_v1_shape() {
        let rows = vec![run_uniform(
            ScenarioKind::Burst,
            GranularityLevel(2),
            "concurrent",
            &tiny(),
        )];
        let json = to_json(&tiny(), &rows);
        for needle in [
            "\"schema\": \"sla-scenarios-bench/v1\"",
            "\"scenario\": \"burst\"",
            "\"level\": \"L2\"",
            "\"mismatches\": 0",
            "\"tokens_reused\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
