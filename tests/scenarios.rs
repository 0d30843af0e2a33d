//! Scenario-engine equivalence: incremental token regeneration
//! (`issue_alert_tracked` with a [`ZoneTracker`]) must produce exactly
//! the same alert outcome — notified set, token count, pairing counters
//! — as full per-epoch regeneration, for random moving-zone
//! trajectories across **every** store backend. The property is the
//! soundness argument for the delta path: a cached token matches the
//! same ciphertexts with the same pairing count as a fresh one, because
//! both are determined by the search pattern alone.
//!
//! Also pins the boundary case the matrix bench never hits: a zone that
//! leaves the grid entirely yields an empty cell set, zero tokens, an
//! empty notified set, and a fully evicted cache.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::{
    AlertSystem, FlushPolicy, StoreBackend, SystemBuilder, ZoneTracker,
};
use secure_location_alerts::grid::{BoundingBox, Grid, Point, ProbabilityMap};
use secure_location_alerts::scenarios::ZoneTrajectory;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const ROWS: usize = 6;
const COLS: usize = 6;
const N_CELLS: usize = ROWS * COLS;
const EPOCHS: usize = 4;

/// A fresh unique scratch directory for one persistent-backend system.
fn temp_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sla-scenario-equiv-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn backends(persist_dir: &std::path::Path) -> [StoreBackend; 3] {
    [
        StoreBackend::ConcurrentSharded { shards: 1 },
        StoreBackend::ConcurrentSharded { shards: 4 },
        StoreBackend::Persistent {
            dir: persist_dir.to_path_buf(),
            flush: FlushPolicy::Manual,
        },
    ]
}

fn test_grid() -> Grid {
    Grid::new(BoundingBox::new(0.0, 0.0, 0.06, 0.06), ROWS, COLS)
}

/// Two identically-seeded systems over the same backend flavor: same
/// group, same keys, same ciphertexts — so any divergence between the
/// tracked and full alert paths is the regen cache's fault.
fn build_system(backend: StoreBackend, seed: u64) -> (AlertSystem, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = test_grid();
    let probs = ProbabilityMap::uniform(N_CELLS);
    let system = SystemBuilder::new(grid)
        .group_bits(32)
        .store(backend)
        .build(&probs, &mut rng)
        .expect("valid configuration");
    (system, rng)
}

/// Decodes raw proptest input into a trajectory over the test grid:
/// start anywhere inside, drift up to ±2 cells/epoch on each axis,
/// radius 0.5–2.5 cells growing or shrinking by up to half a cell.
fn decode_trajectory(grid: &Grid, raw: [u64; 5]) -> ZoneTrajectory {
    let (cell_h, cell_w) = grid.cell_size_m();
    let bbox = grid.bbox();
    let frac = |r: u64| (r % 1_000) as f64 / 1_000.0;
    let signed = |r: u64| frac(r) * 2.0 - 1.0;
    ZoneTrajectory {
        start: Point::new(
            bbox.min_lat + (bbox.max_lat - bbox.min_lat) * frac(raw[0]),
            bbox.min_lon + (bbox.max_lon - bbox.min_lon) * frac(raw[1]),
        ),
        north_m_per_epoch: signed(raw[2]) * 2.0 * cell_h,
        east_m_per_epoch: signed(raw[3]) * 2.0 * cell_w,
        start_radius_m: (0.5 + frac(raw[4]) * 2.0) * cell_w,
        radius_delta_m: signed(raw[4]) * 0.5 * cell_w,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn tracked_regen_equals_full_regen_on_every_backend(
        raw in prop::collection::vec(any::<u64>(), 5..6),
        seed in any::<u64>(),
    ) {
        let grid = test_grid();
        let trajectory = decode_trajectory(&grid, [raw[0], raw[1], raw[2], raw[3], raw[4]]);
        let persist_dir = temp_dir();
        for backend in backends(&persist_dir) {
            let (sys_delta, mut rng_d) = build_system(backend.clone(), seed);
            let (sys_full, mut rng_f) = build_system(backend.clone(), seed);
            for user in 0..12u64 {
                let cell = (user as usize * 7) % N_CELLS;
                sys_delta.subscribe_cell(user, cell, &mut rng_d).unwrap();
                sys_full.subscribe_cell(user, cell, &mut rng_f).unwrap();
            }
            let mut tracker = ZoneTracker::new();
            for epoch in 0..EPOCHS {
                let cells = trajectory.cells_at(&grid, epoch);
                let tracked = sys_delta
                    .issue_alert_tracked(&mut tracker, &cells, &mut rng_d)
                    .unwrap();
                let full = sys_full.issue_alert(&cells, &mut rng_f).unwrap();
                prop_assert_eq!(
                    &tracked.alert,
                    &full,
                    "{:?}: delta vs full diverged at epoch {} over {:?}",
                    backend,
                    epoch,
                    cells
                );
                prop_assert_eq!(
                    tracked.regen.tokens_generated + tracked.regen.tokens_reused,
                    tracked.alert.tokens_issued as u64,
                    "regen accounting must cover every issued token"
                );
            }
            // The tracked system's counters saw the deltas; the full
            // system's regen counters never moved.
            prop_assert_eq!(sys_full.service_stats().tokens_regenerated, 0);
        }
        std::fs::remove_dir_all(&persist_dir).ok();
    }
}

#[test]
fn zone_exiting_the_grid_empties_tokens_and_cache() {
    let grid = test_grid();
    let (_, cell_w) = grid.cell_size_m();
    // Storm track scaled to the small grid, sped up so it leaves the
    // east edge within a few epochs.
    let mut trajectory = ZoneTrajectory::storm_track(&grid);
    trajectory.east_m_per_epoch = 4.0 * cell_w;
    trajectory.radius_delta_m = 0.0;
    let exit_epoch = (0..32)
        .find(|&e| trajectory.cells_at(&grid, e).is_empty())
        .expect("trajectory must exit the grid");

    let (sys_delta, mut rng_d) =
        build_system(StoreBackend::ConcurrentSharded { shards: 1 }, 0x51a7e);
    let (sys_full, mut rng_f) =
        build_system(StoreBackend::ConcurrentSharded { shards: 1 }, 0x51a7e);
    for user in 0..10u64 {
        let cell = (user as usize * 5) % N_CELLS;
        sys_delta.subscribe_cell(user, cell, &mut rng_d).unwrap();
        sys_full.subscribe_cell(user, cell, &mut rng_f).unwrap();
    }

    let mut tracker = ZoneTracker::new();
    for epoch in 0..=exit_epoch {
        let cells = trajectory.cells_at(&grid, epoch);
        let tracked = sys_delta
            .issue_alert_tracked(&mut tracker, &cells, &mut rng_d)
            .unwrap();
        let full = sys_full.issue_alert(&cells, &mut rng_f).unwrap();
        assert_eq!(tracked.alert, full, "epoch {epoch} over {cells:?}");
    }

    // After the zone leaves the grid: no cells, no tokens, nobody
    // notified, and the cache holds nothing worth keeping.
    let cells = trajectory.cells_at(&grid, exit_epoch);
    assert!(cells.is_empty());
    let tracked = sys_delta
        .issue_alert_tracked(&mut tracker, &cells, &mut rng_d)
        .unwrap();
    assert!(tracked.alert.notified.is_empty());
    assert_eq!(tracked.alert.tokens_issued, 0);
    assert_eq!(tracked.alert.pairings_used, 0);
    assert_eq!(tracker.cached_tokens(), 0, "empty zone evicts the cache");
    assert!(tracker.prev_cells().is_empty());
}
