//! The three workloads, generated from the seed alone.
//!
//! Every workload runs over the paper's 32×32 Chicago-downtown grid with
//! the crime-likelihood surface of Fig. 9 (`CrimeDataset::generate` +
//! `CrimeRiskModel::train`). The surface is the paper's one map, so it
//! comes from a fixed dataset seed; the workload seed draws everything a
//! user of the service would vary: where subscribers live, how they move,
//! and where alerts strike. The server builds its Huffman codebook from
//! the same surface, so the encoding sees the skew over the socket.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sla_datasets::{
    ChurnConfig, ChurnEvent, CrimeDataset, CrimeGeneratorConfig, CrimeRiskModel, TrainConfig,
};
use sla_encoding::{CellCodebook, EncoderKind};
use sla_grid::{Grid, ProbabilityMap, ZoneSampler};
use sla_scenarios::ZoneTrajectory;
use sla_server::{encode_request, Request};
use std::str::FromStr;
use std::time::Duration;

/// Seed of the crime dataset behind the likelihood surface (the same map
/// for every workload seed, as the paper evaluates on one city).
pub const SURFACE_SEED: u64 = 20_210_323;

/// Bilinear-group prime size, the `sla-server` default.
pub const GROUP_BITS: usize = 40;

/// Lock shards of the volatile store, the `sla-server` default.
pub const STORE_SHARDS: usize = 8;

/// The persistent store's WAL group-commit window, the `sla-server`
/// default.
pub const FLUSH_WINDOW: Duration = Duration::from_millis(2);

/// Which traffic mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The write path: open-loop churn over a persistent store.
    Churn,
    /// The read path: closed-loop alerts over 2,000 users, moves beside.
    Alert,
    /// The encoding path: closed-loop 1.2–2 km alerts over 16 users.
    Zones,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Churn, Kind::Alert, Kind::Zones];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Churn => "churn",
            Kind::Alert => "alert",
            Kind::Zones => "zones",
        }
    }
}

impl FromStr for Kind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown workload '{s}' (expected churn, alert or zones)"))
    }
}

/// The subscription store a workload's server runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// `StoreBackend::Persistent` with the default group commit.
    Persistent,
    /// `StoreBackend::ConcurrentSharded` with the default shard count.
    Concurrent,
}

impl Store {
    /// The `serve` subcommand's name for the store.
    pub fn name(self) -> &'static str {
        match self {
            Store::Persistent => "persistent",
            Store::Concurrent => "concurrent",
        }
    }
}

/// How the alert connection sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertLoop {
    /// The next alert is sent when the previous one is answered.
    Closed,
    /// One alert per period on a fixed schedule, timed from its due time.
    Every(Duration),
}

/// The fixed shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Users subscribed before the measured phase.
    pub users: u64,
    /// Open-loop write rate on the writer connection, ops per second;
    /// `None` when the workload sends no writes.
    pub write_rate: Option<f64>,
    /// The alert connection's loop.
    pub alerts: AlertLoop,
    /// The server's store. A `Persistent` store is reopened during set-up,
    /// so that set-up includes recovery.
    pub store: Store,
}

/// The write rate, in ops per second, of the traced run on a workload
/// that sends no writes of its own (the subscribe-side layers need
/// subscribes on the socket), and the lowest rung of its capacity ladder.
/// It is the `alert` workload's rate.
pub const PROBE_WRITE_RATE: f64 = 100.0;

impl Kind {
    /// The workload's shape. The write rates are set against the highest
    /// rate the capacity ladder (`server.max_write_ops_per_s`) sustains
    /// beside the same workload's alerts, measured on a 2-vCPU x86-64
    /// virtual machine. `churn` writes at a third to 40% of its 520–680/s
    /// (a once-a-second alert over 4,000 users holds the persistent
    /// store's writers back for its whole scan), well below the knee of
    /// the latency curve. `alert` moves at about 4% of its ~2,400/s: a low
    /// rate beside the read path, yet about fifteen moves land in every
    /// alert.
    pub fn spec(self) -> Spec {
        match self {
            Kind::Churn => Spec {
                users: 4_000,
                write_rate: Some(210.0),
                alerts: AlertLoop::Every(Duration::from_secs(1)),
                store: Store::Persistent,
            },
            Kind::Alert => Spec {
                users: 2_000,
                write_rate: Some(PROBE_WRITE_RATE),
                alerts: AlertLoop::Closed,
                store: Store::Concurrent,
            },
            Kind::Zones => Spec {
                users: 16,
                write_rate: None,
                alerts: AlertLoop::Closed,
                store: Store::Concurrent,
            },
        }
    }
}

/// Storm tracks drawn per closed-loop workload, the pool its alert zones
/// are picked from.
const TRACKS: usize = 1024;

/// Epochs each storm track lives before a new one starts elsewhere.
const TRACK_EPOCHS: usize = 4;

/// Radius growth of a storm track per epoch, meters.
const TRACK_GROWTH_M: f64 = 50.0;

/// Radius of the `churn` alerts.
const CHURN_RADIUS_M: f64 = 600.0;

/// `churn` alert zones drawn, the pool its alert zones are picked from.
const CHURN_CANDIDATES: usize = 512;

/// Alert zones (`churn`, `alert`) or whole storm tracks (`zones`) a run
/// cycles through. Each zone must recur often enough in a run for its
/// best latency to be steady: a 30 s run issues `churn`'s one zone (the
/// median-cost one) thirty times (one alert per second), `alert`'s eight
/// zones about thirty times each and the 128 zones of `zones`' 32 tracks
/// about thirty times each. (Three `churn` zones, ten alerts each, left
/// the best of each zone to chance: their median spread 0.11 of itself
/// over five seeds.)
fn alert_groups(kind: Kind) -> usize {
    match kind {
        Kind::Churn => 1,
        Kind::Alert => 8,
        Kind::Zones => 32,
    }
}

/// One generated workload: everything the client sends, in order.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which mix.
    pub kind: Kind,
    /// Its fixed shape.
    pub spec: Spec,
    /// The rate the writer connection sends [`Self::writes`] at, ops per
    /// second; `None`: the writer connection stays idle. It starts as the
    /// spec's rate.
    pub write_rate: Option<f64>,
    /// The grid every cell index refers to.
    pub grid: Grid,
    /// The likelihood surface (codebook input and placement density).
    pub probs: ProbabilityMap,
    /// `(user_id, cell)` subscribed during set-up.
    pub population: Vec<(u64, usize)>,
    /// The write stream, generated at the spec's rate or, for a workload
    /// without writes, at [`PROBE_WRITE_RATE`] (the per-layer replay and
    /// the capacity ladder need one).
    pub writes: Vec<ChurnEvent>,
    /// The alert connection's zones, in issue order (cycled).
    pub zones: Vec<Vec<usize>>,
    /// Each zone's pairings per stored ciphertext under the Huffman
    /// codebook (`CellCodebook::pairing_cost(zone, 1)`).
    pub zone_costs: Vec<u64>,
}

/// The Fig. 9 crime-likelihood surface over the 32×32 downtown grid.
pub fn crime_surface() -> (Grid, ProbabilityMap) {
    let grid = Grid::chicago_downtown_32();
    let mut rng = StdRng::seed_from_u64(SURFACE_SEED);
    let dataset = CrimeDataset::generate(&CrimeGeneratorConfig::default(), &mut rng);
    let model = CrimeRiskModel::train(&dataset, &grid, TrainConfig::default());
    let probs = model.likelihood_map();
    (grid, probs)
}

impl Workload {
    /// Generates the workload for a run measuring `measured` after a
    /// `warmup`. The same `(kind, seed, warmup, measured)` always yields
    /// the same workload.
    pub fn generate(kind: Kind, seed: u64, warmup: Duration, measured: Duration) -> Workload {
        let (grid, probs) = crime_surface();
        Self::generate_on(kind, seed, warmup + measured, grid, probs)
    }

    /// [`Self::generate`] over a surface already in hand.
    pub fn generate_on(
        kind: Kind,
        seed: u64,
        span: Duration,
        grid: Grid,
        probs: ProbabilityMap,
    ) -> Workload {
        let spec = kind.spec();
        let sampler = ZoneSampler::new(grid.clone(), &probs);
        let mut rng = StdRng::seed_from_u64(seed ^ (kind as u64).wrapping_mul(0x9E37_79B9));
        // One spare second of writes: the writer stops at the deadline,
        // never because the stream ran out.
        let rate = spec.write_rate.unwrap_or(PROBE_WRITE_RATE);
        let n_writes = (rate * (span.as_secs_f64() + 1.0)).ceil() as usize;

        let codebook = CellCodebook::try_build(EncoderKind::Huffman, probs.raw())
            .expect("the crime surface is a valid codebook input");
        let cost = |cells: &[usize]| codebook.pairing_cost(cells, 1);

        let picked = alert_groups(kind);
        let (population, writes, zones) = match kind {
            Kind::Churn => {
                let (population, writes) = churn_stream(&spec, &sampler, n_writes, &mut rng);
                let groups: Vec<_> = (0..CHURN_CANDIDATES)
                    .map(|_| vec![sampler.sample_zone(CHURN_RADIUS_M, &mut rng).cell_indices()])
                    .collect();
                let zones = representatives(groups, &cost, picked, &mut rng);
                (population, writes, zones)
            }
            Kind::Alert | Kind::Zones => {
                let population: Vec<(u64, usize)> = (0..spec.users)
                    .map(|u| (u, sampler.sample_epicenter_cell(&mut rng).0))
                    .collect();
                let writes = (0..n_writes)
                    .map(|_| ChurnEvent::Move {
                        user_id: rng.gen_range(0, spec.users),
                        cell: sampler.sample_epicenter_cell(&mut rng).0,
                    })
                    .collect();
                let radius = if kind == Kind::Alert {
                    (450.0, 650.0)
                } else {
                    (1_200.0, 1_800.0)
                };
                let tracks = storm_tracks(&sampler, TRACKS, radius, &mut rng);
                // `zones` keeps each track's epochs in sequence (the token
                // cache's reuse is measured along them); `alert` picks
                // single epochs, as few of its slow alerts fit in a run.
                let groups = match kind {
                    Kind::Alert => tracks.into_iter().flatten().map(|z| vec![z]).collect(),
                    _ => tracks,
                };
                (
                    population,
                    writes,
                    representatives(groups, &cost, picked, &mut rng),
                )
            }
        };
        let zone_costs = zones.iter().map(|z| cost(z)).collect();
        Workload {
            kind,
            spec,
            write_rate: spec.write_rate,
            grid,
            probs,
            population,
            writes,
            zones,
            zone_costs,
        }
    }

    /// The wire request for write `i`.
    pub fn write_request(&self, i: usize) -> Request {
        write_request(&self.writes[i])
    }

    /// The wire request for alert `i` (zones cycle).
    pub fn alert_request(&self, i: usize) -> Request {
        Request::Alert {
            cells: self.zones[i % self.zones.len()]
                .iter()
                .map(|&c| c as u64)
                .collect(),
        }
    }

    /// Every request the client would send, encoded: the set-up
    /// population, then the write stream, then one pass over the zones.
    pub fn encoded_stream(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for &(user_id, cell) in &self.population {
            out.extend(encode_request(&Request::Subscribe {
                user_id,
                cell: cell as u64,
            }));
        }
        for i in 0..self.writes.len() {
            out.extend(encode_request(&self.write_request(i)));
        }
        for i in 0..self.zones.len() {
            out.extend(encode_request(&self.alert_request(i)));
        }
        out
    }
}

/// The wire request for one lifecycle event.
pub fn write_request(event: &ChurnEvent) -> Request {
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

/// `churn`: the `ChurnWorkload` generator's first epoch is the set-up
/// population and the later epochs' events, flattened, are the write
/// stream.
fn churn_stream(
    spec: &Spec,
    sampler: &ZoneSampler,
    n_writes: usize,
    rng: &mut StdRng,
) -> (Vec<(u64, usize)>, Vec<ChurnEvent>) {
    let config = ChurnConfig {
        users: spec.users,
        ..ChurnConfig::default()
    };
    // Each epoch moves, drops or returns ~40% of the users; start from
    // that estimate and double until the stream is long enough.
    let mut epochs = n_writes / (spec.users as usize / 3).max(1) + 1;
    loop {
        let w = ChurnConfig { epochs, ..config }.generate(sampler, rng);
        let population = w.epochs[0]
            .events
            .iter()
            .map(|ev| match *ev {
                ChurnEvent::Subscribe { user_id, cell } => (user_id, cell),
                _ => unreachable!("epoch 0 only subscribes"),
            })
            .collect();
        let mut writes: Vec<ChurnEvent> = w.epochs[1..]
            .iter()
            .flat_map(|e| e.events.iter().copied())
            .collect();
        if writes.len() >= n_writes {
            writes.truncate(n_writes);
            return (population, writes);
        }
        epochs *= 2;
    }
}

/// Storm tracks (the `sla-scenarios` moving-zone model): each starts at a
/// likelihood-weighted epicenter, heads in a random direction at one cell
/// width per epoch, and grows by [`TRACK_GROWTH_M`] per epoch from a
/// radius drawn in `radius_m`, for [`TRACK_EPOCHS`] epochs. Zones that
/// have left the grid are skipped (a track that leaves at once is
/// redrawn).
fn storm_tracks(
    sampler: &ZoneSampler,
    count: usize,
    radius_m: (f64, f64),
    rng: &mut StdRng,
) -> Vec<Vec<Vec<usize>>> {
    let grid = sampler.grid();
    let (_, cell_w) = grid.cell_size_m();
    let mut tracks = Vec::with_capacity(count);
    while tracks.len() < count {
        let heading = rng.gen::<f64>() * std::f64::consts::TAU;
        let track = ZoneTrajectory {
            start: sampler.sample_epicenter(rng),
            north_m_per_epoch: cell_w * heading.sin(),
            east_m_per_epoch: cell_w * heading.cos(),
            start_radius_m: radius_m.0 + rng.gen::<f64>() * (radius_m.1 - radius_m.0),
            radius_delta_m: TRACK_GROWTH_M,
        };
        let zones: Vec<Vec<usize>> = (0..TRACK_EPOCHS)
            .map(|e| track.cells_at(grid, e))
            .filter(|cells| !cells.is_empty())
            .collect();
        if !zones.is_empty() {
            tracks.push(zones);
        }
    }
    tracks
}

/// Picks `count` groups of zones (a storm track, or a single zone) from
/// the pool: the groups are ranked by total pairing cost and the one at
/// the centre of each of `count` equal cost strata is taken. The picks,
/// in random order and flattened, are the run's zone sequence. Whatever
/// the seed, a run then alerts on zones at the same cost quantiles, so
/// seed-to-seed variation of the alert metrics comes from the system and
/// not from which zones the seed happened to draw.
fn representatives(
    groups: Vec<Vec<Vec<usize>>>,
    cost: &dyn Fn(&[usize]) -> u64,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Vec<usize>> {
    let mut ranked: Vec<(u64, Vec<Vec<usize>>)> = groups
        .into_iter()
        .map(|g| (g.iter().map(|z| cost(z)).sum(), g))
        .collect();
    ranked.sort_by_key(|(c, _)| *c);
    let n = ranked.len();
    let mut picks: Vec<_> = (0..count)
        .map(|i| std::mem::take(&mut ranked[(2 * i + 1) * n / (2 * count)].1))
        .collect();
    shuffle(&mut picks, rng);
    picks.into_iter().flatten().collect()
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
    }
}
