//! Scenario-engine oracle: over random moving-zone trajectories and on
//! **every** store backend, `issue_alert` must notify exactly the users
//! whose cell lies in the epoch's zone, and spend exactly the analytic
//! pairing count. One user sits in each of the 36 cells, so every
//! non-empty zone has users to notify and every cell outside it a user
//! who must not be notified: a matcher that drops or adds one id fails.
//!
//! Also pins the boundary case the matrix bench never hits: a zone that
//! leaves the grid entirely yields an empty cell set, zero tokens, zero
//! pairings and an empty notified set.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::{AlertSystem, FlushPolicy, StoreBackend, SystemBuilder};
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
        "sla-scenario-oracle-{}-{}",
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

/// The test grid's system over `backend`, with one subscriber per cell:
/// user `c` in cell `c`.
fn build_system(backend: StoreBackend, seed: u64) -> (AlertSystem, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = test_grid();
    let probs = ProbabilityMap::uniform(N_CELLS);
    let system = SystemBuilder::new(grid)
        .group_bits(32)
        .store(backend)
        .build(&probs, &mut rng)
        .expect("valid configuration");
    for cell in 0..N_CELLS {
        system.subscribe_cell(cell as u64, cell, &mut rng).unwrap();
    }
    (system, rng)
}

/// The plaintext oracle: with user `c` in cell `c`, the users inside a
/// zone are its (sorted, deduplicated) cells.
fn oracle(cells: &[usize]) -> Vec<u64> {
    cells.iter().map(|&cell| cell as u64).collect()
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
    fn issue_alert_matches_the_plaintext_oracle_on_every_backend(
        raw in prop::collection::vec(any::<u64>(), 5..6),
        seed in any::<u64>(),
    ) {
        let grid = test_grid();
        let trajectory = decode_trajectory(&grid, [raw[0], raw[1], raw[2], raw[3], raw[4]]);
        let persist_dir = temp_dir();
        for backend in backends(&persist_dir) {
            let (system, mut rng) = build_system(backend.clone(), seed);
            for epoch in 0..EPOCHS {
                let cells = trajectory.cells_at(&grid, epoch);
                let outcome = system.issue_alert(&cells, &mut rng).unwrap();
                prop_assert_eq!(
                    &outcome.notified,
                    &oracle(&cells),
                    "{:?}: epoch {} over {:?}",
                    backend,
                    epoch,
                    cells
                );
                prop_assert_eq!(
                    outcome.pairings_used,
                    outcome.analytic_pairings,
                    "{:?}: epoch {} over {:?}",
                    backend,
                    epoch,
                    cells
                );
            }
        }
        std::fs::remove_dir_all(&persist_dir).ok();
    }
}

#[test]
fn zone_exiting_the_grid_issues_no_tokens_and_notifies_nobody() {
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

    let (system, mut rng) = build_system(StoreBackend::ConcurrentSharded { shards: 1 }, 0x51a7e);
    for epoch in 0..exit_epoch {
        let cells = trajectory.cells_at(&grid, epoch);
        let outcome = system.issue_alert(&cells, &mut rng).unwrap();
        assert_eq!(outcome.notified, oracle(&cells), "epoch {epoch}");
        assert_eq!(outcome.pairings_used, outcome.analytic_pairings);
    }

    // After the zone leaves the grid: no cells, no tokens, no pairings,
    // nobody notified.
    let cells = trajectory.cells_at(&grid, exit_epoch);
    assert!(cells.is_empty());
    let outcome = system.issue_alert(&cells, &mut rng).unwrap();
    assert!(outcome.notified.is_empty());
    assert_eq!(outcome.tokens_issued, 0);
    assert_eq!(outcome.pairings_used, 0);
}
