//! The parallel batch-matching path must be observationally identical to
//! the serial exhaustive path: same notified users, same token count,
//! same live pairing counter — for every chunk size, and with the
//! analytic cost model still matching the engine's counters exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::{AlertOutcome, AlertSystem, StoreBackend, SystemBuilder};
use secure_location_alerts::encoding::EncoderKind;
use secure_location_alerts::grid::{BoundingBox, Grid, ProbabilityMap, SigmoidParams, ZoneSampler};

fn populated_system(encoder: EncoderKind, users: u64) -> (AlertSystem, ZoneSampler, StdRng) {
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
        .store(StoreBackend::ConcurrentSharded { shards: 4 })
        .build(&probs, &mut rng)
        .expect("valid configuration");
    for user in 0..users {
        let cell = sampler.sample_epicenter_cell(&mut rng).0;
        system.subscribe_cell(user, cell, &mut rng).unwrap();
    }
    (system, sampler, rng)
}

/// The fields the batch path must reproduce byte-identically.
fn fingerprint(o: &AlertOutcome) -> (Vec<u64>, usize, u64, u64, u64) {
    (
        o.notified.clone(),
        o.tokens_issued,
        o.non_star_bits,
        o.pairings_used,
        o.analytic_pairings,
    )
}

#[test]
fn batch_outcome_identical_to_serial_for_every_chunk_size() {
    let (system, sampler, mut rng) = populated_system(EncoderKind::Huffman, 40);
    let zone = sampler.sample_zone(900.0, &mut rng);
    let cells = zone.cell_indices();

    let serial = system.issue_alert(&cells, &mut rng).unwrap();
    assert_eq!(serial.pairings_used, serial.analytic_pairings);
    assert!(!serial.notified.is_empty(), "zone should catch someone");

    for chunk in [1usize, 2, 3, 7, 16, 40, 1_000] {
        let batch = system
            .issue_alert_batch(&cells, Some(chunk), &mut rng)
            .unwrap();
        assert_eq!(
            fingerprint(&batch),
            fingerprint(&serial),
            "chunk size {chunk} diverged from serial outcome"
        );
    }

    // Default (per-core) chunk size too.
    let batch = system.issue_alert_batch(&cells, None, &mut rng).unwrap();
    assert_eq!(fingerprint(&batch), fingerprint(&serial));
}

#[test]
fn batch_identical_to_serial_on_large_store() {
    // 300 subscriptions exceeds ServiceProvider::PARALLEL_MIN_STORE, so
    // the default-chunk path fans out; explicit small chunks exercise the
    // par_chunks plumbing with many work items regardless of store size.
    let (system, sampler, mut rng) = populated_system(EncoderKind::Huffman, 300);
    let zone = sampler.sample_zone(700.0, &mut rng);
    let cells = zone.cell_indices();

    let serial = system.issue_alert(&cells, &mut rng).unwrap();
    assert_eq!(serial.pairings_used, serial.analytic_pairings);
    for chunk in [Some(17), Some(64), None] {
        let batch = system.issue_alert_batch(&cells, chunk, &mut rng).unwrap();
        assert_eq!(
            fingerprint(&batch),
            fingerprint(&serial),
            "chunk {chunk:?} diverged on a 300-ciphertext store"
        );
    }
}

#[test]
fn batch_holds_analytic_invariant_across_encoders() {
    for encoder in [
        EncoderKind::Huffman,
        EncoderKind::Balanced,
        EncoderKind::BasicFixed,
        EncoderKind::GraySgo,
        EncoderKind::BaryHuffman(3),
    ] {
        let (system, sampler, mut rng) = populated_system(encoder, 25);
        for _ in 0..3 {
            let zone = sampler.sample_zone(700.0, &mut rng);
            let outcome = system
                .issue_alert_batch(&zone.cell_indices(), None, &mut rng)
                .unwrap();
            assert_eq!(
                outcome.pairings_used, outcome.analytic_pairings,
                "{encoder:?}: batch path must keep the analytic-pairings invariant"
            );
        }
    }
}

#[test]
fn batch_on_empty_store_is_a_noop() {
    let mut rng = StdRng::seed_from_u64(3);
    let grid = Grid::new(BoundingBox::chicago_downtown(), 4, 4);
    let probs = ProbabilityMap::uniform(grid.n_cells());
    let system = AlertSystem::builder(grid)
        .encoder(EncoderKind::Huffman)
        .group_bits(40)
        .build(&probs, &mut rng)
        .unwrap();
    let outcome = system.issue_alert_batch(&[0, 1], None, &mut rng).unwrap();
    assert!(outcome.notified.is_empty());
    assert_eq!(outcome.pairings_used, 0);
    assert_eq!(outcome.analytic_pairings, 0);
}

#[test]
fn batch_matches_ground_truth_membership() {
    // Track the plaintext population alongside the encrypted store, then
    // check the batch path notifies exactly the users whose cells fall
    // inside each zone.
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
        .build(&probs, &mut rng)
        .unwrap();
    let population: Vec<(u64, usize)> = (0..30u64)
        .map(|u| (u, sampler.sample_epicenter_cell(&mut rng).0))
        .collect();
    for &(user, cell) in &population {
        system.subscribe_cell(user, cell, &mut rng).unwrap();
    }

    for _ in 0..3 {
        let zone = sampler.sample_zone(800.0, &mut rng);
        let cells = zone.cell_indices();
        let batch = system.issue_alert_batch(&cells, Some(5), &mut rng).unwrap();
        let mut expected: Vec<u64> = population
            .iter()
            .filter(|(_, c)| cells.contains(c))
            .map(|(u, _)| *u)
            .collect();
        expected.sort_unstable();
        assert_eq!(batch.notified, expected);
    }
}
