//! Alert-zone workloads of §7: radius sweeps (Fig. 9, 10, 12) and the
//! mixed short/long workloads W1–W4 (Fig. 11).

use rand::Rng;
use sla_grid::{AlertZone, ZoneSampler};

/// A batch of alert zones to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Label used in result tables (e.g. `"r=300m"` or `"W1"`).
    pub label: String,
    /// The zones.
    pub zones: Vec<AlertZone>,
}

impl Workload {
    /// Mean zone size in cells.
    pub fn mean_zone_cells(&self) -> f64 {
        if self.zones.is_empty() {
            return 0.0;
        }
        self.zones.iter().map(|z| z.len()).sum::<usize>() as f64 / self.zones.len() as f64
    }
}

/// Radius sweep: `zones_per_radius` disk zones at each radius.
#[derive(Debug, Clone, PartialEq)]
pub struct RadiusSweep {
    /// Radii in meters (the paper's x-axis).
    pub radii_m: Vec<f64>,
    /// Zones sampled per radius.
    pub zones_per_radius: usize,
}

impl Default for RadiusSweep {
    fn default() -> Self {
        RadiusSweep {
            // 20 m contact tracing up to ~2 km public-safety events; with
            // ~300 m cells this spans 1-cell to ~150-cell zones.
            radii_m: vec![
                20.0, 50.0, 100.0, 200.0, 300.0, 500.0, 750.0, 1_000.0, 1_500.0, 2_000.0,
            ],
            zones_per_radius: 50,
        }
    }
}

impl RadiusSweep {
    /// Generates one workload per radius.
    pub fn generate<R: Rng>(&self, sampler: &ZoneSampler, rng: &mut R) -> Vec<Workload> {
        self.radii_m
            .iter()
            .map(|&r| Workload {
                label: format!("r={r:.0}m"),
                zones: sampler.sample_zones(r, self.zones_per_radius, rng),
            })
            .collect()
    }
}

/// Mixed workload: a fraction of short-radius (compact, contact-tracing
/// style) zones and the rest long-radius (§7.2: "W1 (90% short-10% long);
/// W2 (75%-25%); W3 (25%-75%); W4 (10%-90%)").
#[derive(Debug, Clone, PartialEq)]
pub struct MixedWorkload {
    /// Workload label (`"W1"`…).
    pub label: String,
    /// Fraction of short zones in [0, 1].
    pub short_fraction: f64,
    /// Short radius in meters (paper: 20 m).
    pub short_radius_m: f64,
    /// Long radius in meters (paper: 300 m).
    pub long_radius_m: f64,
    /// Total zones.
    pub count: usize,
}

impl MixedWorkload {
    /// The paper's four mixes with 20 m / 300 m radii.
    pub fn paper_mixes(count: usize) -> Vec<MixedWorkload> {
        [("W1", 0.90), ("W2", 0.75), ("W3", 0.25), ("W4", 0.10)]
            .iter()
            .map(|(label, frac)| MixedWorkload {
                label: label.to_string(),
                short_fraction: *frac,
                short_radius_m: 20.0,
                long_radius_m: 300.0,
                count,
            })
            .collect()
    }

    /// Generates the workload (short zones first is avoided by sampling
    /// the mix per zone, matching a random arrival order).
    pub fn generate<R: Rng>(&self, sampler: &ZoneSampler, rng: &mut R) -> Workload {
        let zones = (0..self.count)
            .map(|_| {
                let radius = if rng.gen::<f64>() < self.short_fraction {
                    self.short_radius_m
                } else {
                    self.long_radius_m
                };
                sampler.sample_zone(radius, rng)
            })
            .collect();
        Workload {
            label: self.label.clone(),
            zones,
        }
    }
}

/// One subscription-lifecycle event in a churn epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new (or returning) user subscribes at `cell`.
    Subscribe {
        /// The user.
        user_id: u64,
        /// The cell they subscribe at.
        cell: usize,
    },
    /// An active user moves: re-subscribes at a different cell (the SP
    /// must replace the old ciphertext).
    Move {
        /// The user.
        user_id: u64,
        /// The cell they move to.
        cell: usize,
    },
    /// An active user leaves the service.
    Unsubscribe {
        /// The user.
        user_id: u64,
    },
}

/// One epoch of a churn workload: the lifecycle events to apply, then one
/// alert to issue.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEpoch {
    /// Lifecycle events, in application order.
    pub events: Vec<ChurnEvent>,
    /// The epoch's alert zone (cell indices).
    pub alert_cells: Vec<usize>,
}

impl ChurnEvent {
    /// The user the event concerns.
    pub fn user_id(&self) -> u64 {
        match *self {
            ChurnEvent::Subscribe { user_id, .. }
            | ChurnEvent::Move { user_id, .. }
            | ChurnEvent::Unsubscribe { user_id } => user_id,
        }
    }
}

impl ChurnEpoch {
    /// Partitions the epoch's events into `writers` disjoint streams
    /// keyed by user id — the **churn-while-matching** workload shape:
    /// each stream is replayed by one writer thread while the epoch's
    /// alert is being matched concurrently.
    ///
    /// All of a user's events land in the same stream, in their original
    /// order, so any interleaving of the streams is a valid lifecycle
    /// history (no subscribe/unsubscribe reordering across threads) and
    /// the final store state is interleaving-independent. Deterministic;
    /// streams may be empty when the epoch has fewer active users than
    /// writers.
    ///
    /// # Panics
    /// Panics if `writers == 0`.
    pub fn writer_streams(&self, writers: usize) -> Vec<Vec<ChurnEvent>> {
        assert!(writers > 0, "at least one writer stream required");
        let mut streams = vec![Vec::new(); writers];
        for event in &self.events {
            streams[(event.user_id() % writers as u64) as usize].push(*event);
        }
        streams
    }
}

/// A multi-epoch subscription-churn workload: users move, leave and
/// return across epochs while alerts keep firing — the long-lived regime
/// of the paper's system model (§2.2) that the one-shot radius sweeps
/// above do not exercise. Drives the lifecycle integration tests and the
/// `churn` bench group.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnWorkload {
    /// Label used in result tables.
    pub label: String,
    /// The epochs, in order.
    pub epochs: Vec<ChurnEpoch>,
}

impl ChurnWorkload {
    /// Plaintext ground truth: each live user's cell after applying every
    /// event of epochs `0..=epoch_index`, sorted by user id. Lets a
    /// consumer check encrypted matching against reality without keeping
    /// its own mirror.
    pub fn positions_after(&self, epoch_index: usize) -> Vec<(u64, usize)> {
        let mut positions = std::collections::BTreeMap::new();
        for epoch in &self.epochs[..=epoch_index] {
            for event in &epoch.events {
                match *event {
                    ChurnEvent::Subscribe { user_id, cell }
                    | ChurnEvent::Move { user_id, cell } => {
                        positions.insert(user_id, cell);
                    }
                    ChurnEvent::Unsubscribe { user_id } => {
                        positions.remove(&user_id);
                    }
                }
            }
        }
        positions.into_iter().collect()
    }

    /// Total number of lifecycle events across all epochs.
    pub fn n_events(&self) -> usize {
        self.epochs.iter().map(|e| e.events.len()).sum()
    }
}

/// Generator parameters for [`ChurnWorkload`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Size of the initial population (user ids `0..users`).
    pub users: u64,
    /// Number of epochs after the initial subscription wave.
    pub epochs: usize,
    /// Per-epoch probability that an active user moves to a new cell.
    pub move_fraction: f64,
    /// Per-epoch probability that an active user unsubscribes.
    pub unsubscribe_fraction: f64,
    /// Per-epoch probability that a departed user re-subscribes.
    pub resubscribe_fraction: f64,
    /// Radius of each epoch's alert zone, in meters.
    pub alert_radius_m: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            users: 40,
            epochs: 5,
            move_fraction: 0.30,
            unsubscribe_fraction: 0.10,
            resubscribe_fraction: 0.50,
            alert_radius_m: 600.0,
        }
    }
}

impl ChurnConfig {
    /// Generates the workload: epoch 0 subscribes the whole population,
    /// every later epoch mixes moves / unsubscribes / re-subscriptions
    /// (cells drawn from the sampler's popularity surface) and carries
    /// one alert zone. Deterministic for a seeded `rng`.
    pub fn generate<R: Rng>(&self, sampler: &ZoneSampler, rng: &mut R) -> ChurnWorkload {
        let mut active = vec![true; self.users as usize];
        let mut epochs = Vec::with_capacity(self.epochs + 1);

        let initial: Vec<ChurnEvent> = (0..self.users)
            .map(|user_id| ChurnEvent::Subscribe {
                user_id,
                cell: sampler.sample_epicenter_cell(rng).0,
            })
            .collect();
        epochs.push(ChurnEpoch {
            events: initial,
            alert_cells: sampler.sample_zone(self.alert_radius_m, rng).cell_indices(),
        });

        for _ in 0..self.epochs {
            let mut events = Vec::new();
            for user_id in 0..self.users {
                let idx = user_id as usize;
                if active[idx] {
                    let draw: f64 = rng.gen();
                    if draw < self.unsubscribe_fraction {
                        active[idx] = false;
                        events.push(ChurnEvent::Unsubscribe { user_id });
                    } else if draw < self.unsubscribe_fraction + self.move_fraction {
                        events.push(ChurnEvent::Move {
                            user_id,
                            cell: sampler.sample_epicenter_cell(rng).0,
                        });
                    }
                } else if rng.gen::<f64>() < self.resubscribe_fraction {
                    active[idx] = true;
                    events.push(ChurnEvent::Subscribe {
                        user_id,
                        cell: sampler.sample_epicenter_cell(rng).0,
                    });
                }
            }
            epochs.push(ChurnEpoch {
                events,
                alert_cells: sampler.sample_zone(self.alert_radius_m, rng).cell_indices(),
            });
        }

        ChurnWorkload {
            label: format!("churn-u{}-e{}", self.users, self.epochs),
            epochs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sla_grid::{Grid, ProbabilityMap};

    fn sampler() -> ZoneSampler {
        let grid = Grid::chicago_downtown_32();
        let pm = ProbabilityMap::uniform(grid.n_cells());
        ZoneSampler::new(grid, &pm)
    }

    #[test]
    fn sweep_zone_sizes_grow_with_radius() {
        let s = sampler();
        let mut rng = StdRng::seed_from_u64(3);
        let workloads = RadiusSweep::default().generate(&s, &mut rng);
        assert_eq!(workloads.len(), 10);
        let sizes: Vec<f64> = workloads.iter().map(|w| w.mean_zone_cells()).collect();
        // 20 m zones are single-cell; 2 km zones span dozens of cells.
        assert!(sizes[0] >= 1.0 && sizes[0] < 1.5, "20m mean {}", sizes[0]);
        assert!(sizes[9] > 20.0, "2km mean {}", sizes[9]);
        // monotone (with slack for sampling noise)
        for w in sizes.windows(2) {
            assert!(w[1] >= w[0] * 0.9, "sizes should grow: {sizes:?}");
        }
    }

    #[test]
    fn mixed_workload_fractions() {
        let s = sampler();
        let mixes = MixedWorkload::paper_mixes(400);
        assert_eq!(mixes.len(), 4);
        let mut rng = StdRng::seed_from_u64(4);
        let w1 = mixes[0].generate(&s, &mut rng);
        let w4 = mixes[3].generate(&s, &mut rng);
        // W1 is mostly small zones; W4 mostly large.
        assert!(w1.mean_zone_cells() < w4.mean_zone_cells());
        assert_eq!(w1.zones.len(), 400);
    }

    #[test]
    fn churn_workload_is_seeded_and_consistent() {
        let s = sampler();
        let config = ChurnConfig::default();
        let a = config.generate(&s, &mut StdRng::seed_from_u64(11));
        let b = config.generate(&s, &mut StdRng::seed_from_u64(11));
        assert_eq!(a, b, "seeded generation must be deterministic");

        assert_eq!(a.epochs.len(), config.epochs + 1);
        assert_eq!(a.epochs[0].events.len(), config.users as usize);
        assert!(a.n_events() >= config.users as usize);
        for epoch in &a.epochs {
            assert!(
                !epoch.alert_cells.is_empty(),
                "every epoch carries an alert"
            );
        }

        // Ground truth stays within the population and the grid, and
        // churn actually changes it.
        let first = a.positions_after(0);
        assert_eq!(first.len(), config.users as usize);
        let last = a.positions_after(a.epochs.len() - 1);
        assert!(!last.is_empty());
        assert_ne!(first, last, "churn should move the population");
        for &(user, cell) in &last {
            assert!(user < config.users);
            assert!(cell < Grid::chicago_downtown_32().n_cells());
        }
    }

    #[test]
    fn churn_events_respect_lifecycle_state() {
        // No Move/Unsubscribe for inactive users, no Subscribe for active
        // ones — replay and check.
        let s = sampler();
        let w = ChurnConfig {
            users: 25,
            epochs: 8,
            ..ChurnConfig::default()
        }
        .generate(&s, &mut StdRng::seed_from_u64(5));
        let mut active = std::collections::HashSet::new();
        for epoch in &w.epochs {
            for event in &epoch.events {
                match *event {
                    ChurnEvent::Subscribe { user_id, .. } => {
                        assert!(active.insert(user_id), "subscribe of active user {user_id}");
                    }
                    ChurnEvent::Move { user_id, .. } => {
                        assert!(active.contains(&user_id), "move of inactive user {user_id}");
                    }
                    ChurnEvent::Unsubscribe { user_id } => {
                        assert!(active.remove(&user_id), "unsubscribe of inactive {user_id}");
                    }
                }
            }
        }
    }

    #[test]
    fn writer_streams_partition_events_and_preserve_per_user_order() {
        let s = sampler();
        let w = ChurnConfig {
            users: 30,
            epochs: 6,
            ..ChurnConfig::default()
        }
        .generate(&s, &mut StdRng::seed_from_u64(21));
        for epoch in &w.epochs {
            for writers in [1, 3, 4, 7] {
                let streams = epoch.writer_streams(writers);
                assert_eq!(streams.len(), writers);
                // Partition: every event lands in exactly one stream, and
                // concatenating streams loses nothing.
                let total: usize = streams.iter().map(Vec::len).sum();
                assert_eq!(total, epoch.events.len());
                for (i, stream) in streams.iter().enumerate() {
                    for event in stream {
                        assert_eq!(
                            (event.user_id() % writers as u64) as usize,
                            i,
                            "event routed to the wrong stream"
                        );
                    }
                }
                // Per-user order within a stream matches the epoch order.
                for stream in &streams {
                    for user in stream.iter().map(ChurnEvent::user_id) {
                        let original: Vec<ChurnEvent> = epoch
                            .events
                            .iter()
                            .filter(|e| e.user_id() == user)
                            .copied()
                            .collect();
                        let streamed: Vec<ChurnEvent> = stream
                            .iter()
                            .filter(|e| e.user_id() == user)
                            .copied()
                            .collect();
                        assert_eq!(original, streamed);
                    }
                }
                // Determinism.
                assert_eq!(streams, epoch.writer_streams(writers));
            }
        }
    }

    #[test]
    fn workloads_are_seeded_deterministic() {
        let s = sampler();
        let sweep = RadiusSweep {
            radii_m: vec![100.0, 500.0],
            zones_per_radius: 5,
        };
        let a = sweep.generate(&s, &mut StdRng::seed_from_u64(9));
        let b = sweep.generate(&s, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
