//! The scenario catalogue: named workload generators with ground-truth
//! oracles, all materializing as churn workloads so every existing
//! replay consumer (the `repro scenario` runner, equivalence tests) can
//! drive them unchanged.

use std::collections::BTreeSet;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_datasets::{ChurnConfig, ChurnEvent, ChurnWorkload};
use sla_grid::{Grid, ProbabilityMap, ZoneSampler};

use crate::burst::BurstPattern;
use crate::privacy::GranularityLevel;
use crate::trajectory::ZoneTrajectory;
use crate::zipf::zipf_probabilities;

/// The four scenario families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// A storm-track zone translating and growing across the grid.
    Moving,
    /// Near-point zones with periodic many-cell burst activations.
    Burst,
    /// Users subscribed at mixed granularity levels (L0/L1/L2).
    Mixed,
    /// Subscriber placement following a Zipf popularity surface.
    Zipf,
}

impl ScenarioKind {
    /// Every scenario, in canonical order.
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::Moving,
        ScenarioKind::Burst,
        ScenarioKind::Mixed,
        ScenarioKind::Zipf,
    ];

    /// The scenario's canonical (CLI) name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Moving => "moving",
            ScenarioKind::Burst => "burst",
            ScenarioKind::Mixed => "mixed",
            ScenarioKind::Zipf => "zipf",
        }
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A scenario name that is not one of `{moving, burst, mixed, zipf}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError(pub String);

impl std::fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scenario '{}' (expected moving, burst, mixed or zipf)",
            self.0
        )
    }
}

impl std::error::Error for ParseScenarioError {}

impl FromStr for ScenarioKind {
    type Err = ParseScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "moving" => Ok(ScenarioKind::Moving),
            "burst" => Ok(ScenarioKind::Burst),
            "mixed" => Ok(ScenarioKind::Mixed),
            "zipf" => Ok(ScenarioKind::Zipf),
            other => Err(ParseScenarioError(other.to_string())),
        }
    }
}

/// Size and seed knobs shared by every scenario generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Subscriber population (user ids `0..users`).
    pub users: u64,
    /// Epochs after the initial subscription wave.
    pub epochs: usize,
    /// Master seed: same seed, same workload, byte for byte.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            users: 64,
            epochs: 6,
            seed: 20_210_323,
        }
    }
}

/// One generated scenario: the grid, the placement surface the
/// population was drawn from (feed it to the codebook so Huffman sees
/// the same skew), the per-user privacy levels, and the exact-granularity
/// churn workload (lifecycle events + per-epoch alert cells).
///
/// Coarsened views are derived, never stored: [`Self::at_level`] snaps
/// the whole population to one level,
/// [`Self::level_slice`] extracts one level's users for
/// mixed-granularity serving (one store per level — coarse and exact
/// ciphertexts must not share a store, or a coarse token would falsely
/// match an exact cell that happens to equal a block representative).
#[derive(Debug, Clone)]
pub struct ScenarioWorkload {
    /// Which scenario family generated this workload.
    pub kind: ScenarioKind,
    /// The grid every cell index refers to.
    pub grid: Grid,
    /// The placement surface subscribers were drawn from.
    pub probs: ProbabilityMap,
    /// `levels[user_id]`: the granularity each user subscribed at
    /// (all-`L0` except in the mixed scenario).
    pub levels: Vec<GranularityLevel>,
    /// Exact-granularity lifecycle events and alert cells per epoch.
    pub churn: ChurnWorkload,
}

impl ScenarioWorkload {
    /// Generates the scenario over the paper's 32×32 downtown grid.
    /// Deterministic in `config.seed`.
    pub fn generate(kind: ScenarioKind, config: &ScenarioConfig) -> ScenarioWorkload {
        let grid = Grid::chicago_downtown_32();
        let (_, cell_w) = grid.cell_size_m();
        let mut rng = StdRng::seed_from_u64(config.seed);

        let probs = match kind {
            ScenarioKind::Zipf => zipf_probabilities(grid.n_cells(), 1.1, &mut rng),
            _ => ProbabilityMap::uniform(grid.n_cells()),
        };
        let levels: Vec<GranularityLevel> = match kind {
            // Round-robin over L0/L1/L2: every level is populated for
            // any population size ≥ 3.
            ScenarioKind::Mixed => (0..config.users)
                .map(|u| GranularityLevel((u % 3) as u8))
                .collect(),
            _ => vec![GranularityLevel::EXACT; config.users as usize],
        };

        let sampler = ZoneSampler::new(grid.clone(), &probs);
        let churn_cfg = ChurnConfig {
            users: config.users,
            epochs: config.epochs,
            move_fraction: 0.25,
            unsubscribe_fraction: 0.05,
            resubscribe_fraction: 0.40,
            alert_radius_m: 3.0 * cell_w,
        };
        let mut churn = churn_cfg.generate(&sampler, &mut rng);
        churn.label = format!("scenario-{kind}");

        // Replace the generator's static zones with the scenario's own.
        match kind {
            ScenarioKind::Moving => {
                let track = ZoneTrajectory::storm_track(&grid);
                for (e, epoch) in churn.epochs.iter_mut().enumerate() {
                    epoch.alert_cells = track.cells_at(&grid, e);
                }
            }
            ScenarioKind::Burst => {
                let pattern = BurstPattern {
                    quiet_radius_m: 0.4 * cell_w,
                    burst_radius_m: 6.0 * cell_w,
                    burst_every: 3,
                };
                let zones = pattern.zones(&sampler, churn.epochs.len(), &mut rng);
                for (epoch, zone) in churn.epochs.iter_mut().zip(zones) {
                    epoch.alert_cells = zone.cell_indices();
                    epoch.alert_cells.sort_unstable();
                    epoch.alert_cells.dedup();
                }
            }
            ScenarioKind::Mixed | ScenarioKind::Zipf => {
                for epoch in churn.epochs.iter_mut() {
                    epoch.alert_cells.sort_unstable();
                    epoch.alert_cells.dedup();
                }
            }
        }

        ScenarioWorkload {
            kind,
            grid,
            probs,
            levels,
            churn,
        }
    }

    /// Number of replayable epochs (initial wave included).
    pub fn n_epochs(&self) -> usize {
        self.churn.epochs.len()
    }

    /// The level `user_id` subscribed at (`L0` for unknown users).
    pub fn user_level(&self, user_id: u64) -> GranularityLevel {
        self.levels
            .get(user_id as usize)
            .copied()
            .unwrap_or(GranularityLevel::EXACT)
    }

    /// The distinct levels present in this workload, ascending.
    pub fn distinct_levels(&self) -> Vec<GranularityLevel> {
        let mut out: Vec<GranularityLevel> = self.levels.clone();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The whole workload coarsened to one level: every event cell and
    /// every alert cell snapped to its block representative — the
    /// uniform-privacy knob of the bench matrix. Level 0 is a copy.
    pub fn at_level(&self, level: GranularityLevel) -> ChurnWorkload {
        self.map_events(|_| Some(level))
    }

    /// The sub-workload of one level's users under mixed-granularity
    /// serving: only their events (snapped to `level`), with every
    /// epoch's alert cells snapped too. Replay each slice against its
    /// own store; the union of notified sets across slices is the mixed
    /// outcome ([`Self::expected_notified_mixed`]).
    pub fn level_slice(&self, level: GranularityLevel) -> ChurnWorkload {
        self.map_events(|user_level| (user_level == level).then_some(level))
    }

    /// Shared body of [`Self::at_level`] / [`Self::level_slice`]:
    /// `assign` maps a user's subscribed level to the level their events
    /// are snapped at, or `None` to drop the user.
    fn map_events(
        &self,
        assign: impl Fn(GranularityLevel) -> Option<GranularityLevel>,
    ) -> ChurnWorkload {
        let mut out = self.churn.clone();
        for epoch in out.epochs.iter_mut() {
            epoch.events.retain_mut(|event| {
                let Some(level) = assign(self.user_level(event.user_id())) else {
                    return false;
                };
                match event {
                    ChurnEvent::Subscribe { cell, .. } | ChurnEvent::Move { cell, .. } => {
                        *cell = level.snap_cell(&self.grid, *cell);
                    }
                    ChurnEvent::Unsubscribe { .. } => {}
                }
                true
            });
            // The alert cover is the union of every present level's
            // snapped zone — computed per slice, so each slice snaps to
            // its own single level.
            let levels: BTreeSet<GranularityLevel> = self
                .levels
                .iter()
                .filter_map(|&l| assign(l))
                .chain(assign(GranularityLevel::EXACT))
                .collect();
            let mut cells: Vec<usize> = levels
                .iter()
                .flat_map(|l| l.snap_cells(&self.grid, &epoch.alert_cells))
                .collect();
            cells.sort_unstable();
            cells.dedup();
            epoch.alert_cells = cells;
        }
        out
    }

    /// Ground truth with the **whole population** served at `level`:
    /// user ids notified at `epoch_index`, sorted — a user is notified
    /// iff their block intersects the zone's block cover.
    pub fn expected_notified_at(&self, epoch_index: usize, level: GranularityLevel) -> Vec<u64> {
        let zone: BTreeSet<usize> = level
            .snap_cells(&self.grid, &self.churn.epochs[epoch_index].alert_cells)
            .into_iter()
            .collect();
        self.churn
            .positions_after(epoch_index)
            .into_iter()
            .filter(|&(_, cell)| zone.contains(&level.snap_cell(&self.grid, cell)))
            .map(|(user, _)| user)
            .collect()
    }

    /// Ground truth under mixed-granularity serving: each user matched
    /// at **their own** subscribed level. Sorted user ids.
    pub fn expected_notified_mixed(&self, epoch_index: usize) -> Vec<u64> {
        let alert = &self.churn.epochs[epoch_index].alert_cells;
        self.churn
            .positions_after(epoch_index)
            .into_iter()
            .filter(|&(user, cell)| {
                let level = self.user_level(user);
                let zone: BTreeSet<usize> =
                    level.snap_cells(&self.grid, alert).into_iter().collect();
                zone.contains(&level.snap_cell(&self.grid, cell))
            })
            .map(|(user, _)| user)
            .collect()
    }

    /// Exact-granularity ground truth (everyone at L0): who is *really*
    /// inside the zone. The difference against a coarser oracle is the
    /// privacy knob's spurious-notification cost.
    pub fn exact_notified(&self, epoch_index: usize) -> Vec<u64> {
        self.expected_notified_at(epoch_index, GranularityLevel::EXACT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioConfig {
        ScenarioConfig {
            users: 30,
            epochs: 4,
            seed: 11,
        }
    }

    #[test]
    fn generation_is_deterministic_per_kind() {
        for kind in ScenarioKind::ALL {
            let a = ScenarioWorkload::generate(kind, &small());
            let b = ScenarioWorkload::generate(kind, &small());
            assert_eq!(a.churn, b.churn, "{kind}");
            assert_eq!(a.levels, b.levels, "{kind}");
            assert_eq!(a.n_epochs(), small().epochs + 1, "{kind}");
            assert!(
                a.churn.epochs.iter().any(|e| !e.alert_cells.is_empty()),
                "{kind}: at least one epoch must alert"
            );
        }
    }

    #[test]
    fn parse_roundtrip_and_rejection() {
        for kind in ScenarioKind::ALL {
            assert_eq!(kind.name().parse::<ScenarioKind>().unwrap(), kind);
        }
        let err = "tornado".parse::<ScenarioKind>().unwrap_err();
        assert_eq!(err, ParseScenarioError("tornado".into()));
    }

    #[test]
    fn moving_zone_changes_across_epochs() {
        let w = ScenarioWorkload::generate(ScenarioKind::Moving, &small());
        let zones: Vec<_> = w.churn.epochs.iter().map(|e| &e.alert_cells).collect();
        assert!(zones.windows(2).any(|p| p[0] != p[1]));
    }

    #[test]
    fn coarser_levels_notify_supersets() {
        for kind in [ScenarioKind::Moving, ScenarioKind::Zipf] {
            let w = ScenarioWorkload::generate(kind, &small());
            for e in 0..w.n_epochs() {
                let exact = w.exact_notified(e);
                let coarse = w.expected_notified_at(e, GranularityLevel(2));
                for user in &exact {
                    assert!(
                        coarse.contains(user),
                        "{kind} epoch {e}: L2 must notify a superset of L0"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_oracle_equals_union_of_level_slices() {
        let w = ScenarioWorkload::generate(ScenarioKind::Mixed, &small());
        assert_eq!(w.distinct_levels().len(), 3);
        for e in 0..w.n_epochs() {
            let mut union: Vec<u64> = Vec::new();
            for level in w.distinct_levels() {
                let slice = w.level_slice(level);
                let zone: BTreeSet<usize> = slice.epochs[e].alert_cells.iter().copied().collect();
                union.extend(
                    slice
                        .positions_after(e)
                        .into_iter()
                        .filter(|&(_, cell)| zone.contains(&cell))
                        .map(|(user, _)| user),
                );
            }
            union.sort_unstable();
            assert_eq!(union, w.expected_notified_mixed(e), "epoch {e}");
        }
    }

    #[test]
    fn at_level_zero_is_the_exact_workload() {
        let w = ScenarioWorkload::generate(ScenarioKind::Burst, &small());
        assert_eq!(w.at_level(GranularityLevel::EXACT), w.churn);
    }
}
