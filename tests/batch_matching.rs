//! The SP's exhaustive sweep over a sharded store: the notified users,
//! the token count and the pairings do not depend on how many shards the
//! store is split into or on its backend, the notified users are the
//! plaintext ground truth, and the analytic cost model matches the
//! engine's counters exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::{
    AlertOutcome, AlertSystem, FlushPolicy, StoreBackend, SystemBuilder,
};
use secure_location_alerts::encoding::EncoderKind;
use secure_location_alerts::grid::{BoundingBox, Grid, ProbabilityMap, SigmoidParams, ZoneSampler};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A fresh persistent backend in a unique scratch directory, removed when
/// the returned guard drops.
struct ScratchStore(PathBuf);

impl ScratchStore {
    fn new() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sla-batch-matching-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        ScratchStore(dir)
    }

    fn backend(&self) -> StoreBackend {
        StoreBackend::Persistent {
            dir: self.0.clone(),
            flush: FlushPolicy::Every(Duration::from_millis(20)),
        }
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `check` once on a volatile four-shard store and once on a
/// persistent store.
fn on_both_backends(mut check: impl FnMut(StoreBackend)) {
    check(StoreBackend::ConcurrentSharded { shards: 4 });
    let scratch = ScratchStore::new();
    check(scratch.backend());
}

fn populated_system(
    encoder: EncoderKind,
    backend: StoreBackend,
    users: u64,
) -> (AlertSystem, ZoneSampler, StdRng) {
    let mut rng = StdRng::seed_from_u64(0xba7c4);
    let grid = Grid::new(BoundingBox::chicago_downtown(), 8, 8);
    let probs = ProbabilityMap::sigmoid_synthetic(
        grid.n_cells(),
        SigmoidParams { a: 0.9, b: 100.0 },
        &mut rng,
    );
    let sampler = ZoneSampler::new(grid.clone(), &probs);
    let system = SystemBuilder::new(grid)
        .encoder(encoder)
        .group_bits(40)
        .store(backend)
        .build(&probs, &mut rng)
        .expect("valid configuration");
    for user in 0..users {
        let cell = sampler.sample_epicenter_cell(&mut rng).0;
        system.subscribe_cell(user, cell, &mut rng).unwrap();
    }
    (system, sampler, rng)
}

/// The fields every store layout must reproduce identically.
fn fingerprint(o: &AlertOutcome) -> (Vec<u64>, usize, u64, u64, u64) {
    (
        o.notified.clone(),
        o.tokens_issued,
        o.non_star_bits,
        o.pairings_used,
        o.analytic_pairings,
    )
}

/// Serves the same alert over the same population on each backend and
/// asserts that every outcome equals the first one's.
fn same_outcome_on_every_backend(users: u64, radius_m: f64, backends: Vec<StoreBackend>) {
    let mut reference: Option<AlertOutcome> = None;
    for backend in backends {
        let (system, sampler, mut rng) =
            populated_system(EncoderKind::Huffman, backend.clone(), users);
        let cells = sampler.sample_zone(radius_m, &mut rng).cell_indices();
        let outcome = system.issue_alert(&cells, &mut rng).unwrap();
        assert!(!outcome.notified.is_empty(), "zone should catch someone");
        assert_eq!(outcome.pairings_used, outcome.analytic_pairings);
        match &reference {
            None => reference = Some(outcome),
            Some(r) => assert_eq!(
                fingerprint(&outcome),
                fingerprint(r),
                "{backend:?} diverged from the first layout"
            ),
        }
    }
}

/// From one shard to more shards than records, and on the persistent
/// backend, a 40-record store serves the same outcome.
#[test]
fn sweep_identical_for_every_shard_count() {
    let scratch = ScratchStore::new();
    let backends = [1usize, 2, 3, 7, 16, 64]
        .map(|shards| StoreBackend::ConcurrentSharded { shards })
        .into_iter()
        .chain([scratch.backend()])
        .collect();
    same_outcome_on_every_backend(40, 900.0, backends);
}

/// A 300-record store split into shards (four, or the persistent
/// backend's sixteen) serves what the whole store swept as one shard
/// serves.
#[test]
fn sharded_sweep_identical_to_one_shard_on_large_store() {
    let scratch = ScratchStore::new();
    let backends = vec![
        StoreBackend::ConcurrentSharded { shards: 1 },
        StoreBackend::ConcurrentSharded { shards: 4 },
        scratch.backend(),
    ];
    same_outcome_on_every_backend(300, 700.0, backends);
}

#[test]
fn sweep_holds_analytic_invariant_across_encoders() {
    for encoder in [
        EncoderKind::Huffman,
        EncoderKind::Balanced,
        EncoderKind::BasicFixed,
        EncoderKind::GraySgo,
        EncoderKind::BaryHuffman(3),
    ] {
        let (system, sampler, mut rng) =
            populated_system(encoder, StoreBackend::ConcurrentSharded { shards: 4 }, 25);
        for _ in 0..3 {
            let cells = sampler.sample_zone(700.0, &mut rng).cell_indices();
            let outcome = system.issue_alert(&cells, &mut rng).unwrap();
            assert_eq!(
                outcome.pairings_used, outcome.analytic_pairings,
                "{encoder:?}: the sweep must keep the analytic-pairings invariant"
            );
            assert_eq!(outcome.pairings_used, system.analytic_cost(&cells).unwrap());
        }
    }
}

#[test]
fn sweep_on_empty_store_is_a_noop() {
    on_both_backends(|backend| {
        let mut rng = StdRng::seed_from_u64(3);
        let grid = Grid::new(BoundingBox::chicago_downtown(), 4, 4);
        let probs = ProbabilityMap::uniform(grid.n_cells());
        let system = AlertSystem::builder(grid)
            .encoder(EncoderKind::Huffman)
            .group_bits(40)
            .store(backend)
            .build(&probs, &mut rng)
            .unwrap();
        let outcome = system.issue_alert(&[0, 1], &mut rng).unwrap();
        assert!(outcome.notified.is_empty());
        assert_eq!(outcome.pairings_used, 0);
        assert_eq!(outcome.analytic_pairings, 0);
    });
}

#[test]
fn sweep_matches_ground_truth_membership() {
    // Track the plaintext population alongside the encrypted store, then
    // check the sweep notifies exactly the users whose cells fall
    // inside each zone.
    on_both_backends(|backend| {
        let mut rng = StdRng::seed_from_u64(0x6e0);
        let grid = Grid::new(BoundingBox::chicago_downtown(), 8, 8);
        let probs = ProbabilityMap::sigmoid_synthetic(
            grid.n_cells(),
            SigmoidParams { a: 0.9, b: 100.0 },
            &mut rng,
        );
        let sampler = ZoneSampler::new(grid.clone(), &probs);
        let system = AlertSystem::builder(grid)
            .encoder(EncoderKind::Huffman)
            .group_bits(40)
            .store(backend)
            .build(&probs, &mut rng)
            .unwrap();
        let population: Vec<(u64, usize)> = (0..30u64)
            .map(|u| (u, sampler.sample_epicenter_cell(&mut rng).0))
            .collect();
        for &(user, cell) in &population {
            system.subscribe_cell(user, cell, &mut rng).unwrap();
        }

        for _ in 0..3 {
            let cells = sampler.sample_zone(800.0, &mut rng).cell_indices();
            let outcome = system.issue_alert(&cells, &mut rng).unwrap();
            let expected: Vec<u64> = population
                .iter()
                .filter(|(_, c)| cells.contains(c))
                .map(|(u, _)| *u)
                .collect();
            assert_eq!(outcome.notified, expected);
        }
    });
}
