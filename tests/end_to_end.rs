//! Full-stack integration: crime pipeline → risk model → codebooks →
//! live encrypted alerting, checking cross-encoder agreement and the
//! analytic cost model against the real engine.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::SystemBuilder;
use secure_location_alerts::datasets::{
    CrimeDataset, CrimeGeneratorConfig, CrimeRiskModel, TrainConfig,
};
use secure_location_alerts::encoding::EncoderKind;
use secure_location_alerts::grid::{AlertZone, Grid, ProbabilityMap, ZoneSampler};

fn tiny_risk_surface() -> (Grid, ProbabilityMap) {
    // Small grid keeps live HVE fast in CI; the pipeline is the same as
    // the 32x32 experiments.
    let mut rng = StdRng::seed_from_u64(77);
    let grid = Grid::new(
        secure_location_alerts::grid::BoundingBox::chicago_downtown(),
        8,
        8,
    );
    let dataset = CrimeDataset::generate(
        &CrimeGeneratorConfig {
            volume_scale: 0.5,
            ..CrimeGeneratorConfig::default()
        },
        &mut rng,
    );
    let model = CrimeRiskModel::train(
        &dataset,
        &grid,
        TrainConfig {
            epochs: 120,
            ..TrainConfig::default()
        },
    );
    (grid, model.likelihood_map())
}

#[test]
fn all_encoders_agree_on_notifications() {
    let (grid, probs) = tiny_risk_surface();
    let mut rng = StdRng::seed_from_u64(5);
    let sampler = ZoneSampler::new(grid.clone(), &probs);

    // Shared population and zones.
    let population: Vec<(u64, usize)> = (0..30u64)
        .map(|u| (u, sampler.sample_epicenter_cell(&mut rng).0))
        .collect();
    let zones: Vec<AlertZone> = (0..3)
        .map(|_| sampler.sample_zone(1_200.0, &mut rng))
        .collect();

    let mut reference: Option<Vec<Vec<u64>>> = None;
    for encoder in [
        EncoderKind::Huffman,
        EncoderKind::Balanced,
        EncoderKind::BasicFixed,
        EncoderKind::GraySgo,
        EncoderKind::BaryHuffman(3),
    ] {
        let mut sys_rng = StdRng::seed_from_u64(6);
        let system = SystemBuilder::new(grid.clone())
            .encoder(encoder)
            .group_bits(40)
            .build(&probs, &mut sys_rng)
            .expect("valid configuration");
        for &(user, cell) in &population {
            system.subscribe_cell(user, cell, &mut sys_rng).unwrap();
        }
        let results: Vec<Vec<u64>> = zones
            .iter()
            .map(|z| {
                let outcome = system.issue_alert(&z.cell_indices(), &mut sys_rng).unwrap();
                assert_eq!(
                    outcome.pairings_used, outcome.analytic_pairings,
                    "{encoder:?}: analytic cost model must match live counters"
                );
                outcome.notified
            })
            .collect();
        match &reference {
            None => reference = Some(results),
            Some(expected) => assert_eq!(
                &results, expected,
                "{encoder:?} notified a different user set"
            ),
        }
    }
}

#[test]
fn notifications_match_plaintext_ground_truth() {
    let (grid, probs) = tiny_risk_surface();
    let mut rng = StdRng::seed_from_u64(9);
    let sampler = ZoneSampler::new(grid.clone(), &probs);

    let system = SystemBuilder::new(grid.clone())
        .encoder(EncoderKind::Huffman)
        .group_bits(40)
        .build(&probs, &mut rng)
        .expect("valid configuration");
    let population: Vec<(u64, usize)> = (0..25u64)
        .map(|u| (u, sampler.sample_epicenter_cell(&mut rng).0))
        .collect();
    for &(user, cell) in &population {
        system.subscribe_cell(user, cell, &mut rng).unwrap();
    }

    for _ in 0..4 {
        let zone = sampler.sample_zone(900.0, &mut rng);
        let outcome = system.issue_alert(&zone.cell_indices(), &mut rng).unwrap();
        let mut expected: Vec<u64> = population
            .iter()
            .filter(|(_, c)| zone.cell_indices().contains(c))
            .map(|(u, _)| *u)
            .collect();
        expected.sort_unstable();
        assert_eq!(outcome.notified, expected);
    }
}

#[test]
fn huffman_cheaper_on_compact_zones_live() {
    // The paper's headline, verified on live counters rather than the
    // analytic model: compact zones on a skewed surface cost fewer
    // pairings under Huffman than under the basic fixed scheme. (The
    // 8x8 crime surface is too small/smooth to show a reliable gap —
    // the 32x32 version is exercised analytically in sla-bench::fig09 —
    // so this live test uses the paper's skewed sigmoid surface.)
    let mut srng = StdRng::seed_from_u64(123);
    let grid = Grid::new(
        secure_location_alerts::grid::BoundingBox::chicago_downtown(),
        8,
        8,
    );
    let probs = ProbabilityMap::sigmoid_synthetic(
        grid.n_cells(),
        secure_location_alerts::grid::SigmoidParams { a: 0.9, b: 100.0 },
        &mut srng,
    );
    let sampler = ZoneSampler::new(grid.clone(), &probs);

    let mut costs = Vec::new();
    for encoder in [EncoderKind::Huffman, EncoderKind::BasicFixed] {
        let mut rng = StdRng::seed_from_u64(11);
        let system = SystemBuilder::new(grid.clone())
            .encoder(encoder)
            .group_bits(40)
            .build(&probs, &mut rng)
            .expect("valid configuration");
        for user in 0..10u64 {
            let cell = sampler.sample_epicenter_cell(&mut rng).0;
            system.subscribe_cell(user, cell, &mut rng).unwrap();
        }
        // 6 compact (single-cell) zones at popular spots
        let mut total = 0u64;
        for _ in 0..6 {
            let cell = sampler.sample_epicenter_cell(&mut rng).0;
            total += system.issue_alert(&[cell], &mut rng).unwrap().pairings_used;
        }
        costs.push(total);
    }
    assert!(
        costs[0] < costs[1],
        "huffman {} should beat basic {} on compact zones",
        costs[0],
        costs[1]
    );
}
