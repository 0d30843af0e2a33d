//! Public-safety alerts driven by the crime-risk pipeline of §7.1:
//! synthetic Chicago crime data → logistic regression → per-cell alert
//! likelihoods → Huffman codebook → live encrypted alerting.
//!
//! ```text
//! cargo run --example crime_alerts --release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::SystemBuilder;
use secure_location_alerts::datasets::{
    CrimeDataset, CrimeGeneratorConfig, CrimeRiskModel, TrainConfig,
};
use secure_location_alerts::encoding::EncoderKind;
use secure_location_alerts::grid::{AlertZone, Grid, ZoneSampler};

fn main() {
    let mut rng = StdRng::seed_from_u64(2015);

    // 1. Generate the CLEAR-like dataset and train the risk model
    //    (Jan-Nov train, December test), as in the paper.
    let dataset = CrimeDataset::generate(&CrimeGeneratorConfig::default(), &mut rng);
    println!("incidents generated: {}", dataset.len());
    for (cat, months) in dataset.monthly_counts() {
        println!(
            "  {:<15} {:>5} incidents",
            cat.name(),
            months.iter().sum::<usize>()
        );
    }

    let grid = Grid::chicago_downtown_32();
    let model = CrimeRiskModel::train(&dataset, &grid, TrainConfig::default());
    println!(
        "\nlogistic regression December accuracy: {:.1}% (paper: 92.9%)",
        model.test_accuracy() * 100.0
    );
    let probs = model.likelihood_map();

    // 2. Stand up the alert system with the learned likelihoods. A
    //    coarser live grid keeps the cryptographic demo snappy.
    let live_grid = Grid::new(*grid.bbox(), 8, 8);
    let live_probs = coarsen(&probs, 32, 8);
    let system = SystemBuilder::new(live_grid.clone())
        .encoder(EncoderKind::Huffman)
        .group_bits(48)
        .build(&live_probs, &mut rng)
        .expect("valid configuration");

    // 3. Subscribers concentrated where people actually are.
    let sampler = ZoneSampler::new(live_grid.clone(), &live_probs);
    for user in 0..40u64 {
        let cell = sampler.sample_epicenter_cell(&mut rng).0;
        system
            .subscribe_cell(user, cell, &mut rng)
            .expect("sampled cells are in range");
    }

    // 4. An incident is reported near a hotspot: alert everyone within
    //    ~one kilometer.
    let epicenter = sampler.sample_epicenter(&mut rng);
    let zone = AlertZone::disk(&live_grid, &epicenter, 1_000.0);
    println!(
        "\nincident at ({:.4}, {:.4}); zone spans {} cells",
        epicenter.lat,
        epicenter.lon,
        zone.len()
    );

    let outcome = system
        .issue_alert(&zone.cell_indices(), &mut rng)
        .expect("zone cells are in range");
    println!(
        "tokens: {}, pairings: {}",
        outcome.tokens_issued, outcome.pairings_used
    );
    println!("notified users: {:?}", outcome.notified);
    assert_eq!(outcome.pairings_used, outcome.analytic_pairings);
}

/// Averages a fine probability map down to a coarser square grid.
fn coarsen(
    probs: &secure_location_alerts::grid::ProbabilityMap,
    fine_side: usize,
    coarse_side: usize,
) -> secure_location_alerts::grid::ProbabilityMap {
    let factor = fine_side / coarse_side;
    let mut out = vec![0.0; coarse_side * coarse_side];
    for row in 0..fine_side {
        for col in 0..fine_side {
            let coarse = (row / factor) * coarse_side + (col / factor);
            out[coarse] += probs.get(row * fine_side + col);
        }
    }
    let k = (factor * factor) as f64;
    secure_location_alerts::grid::ProbabilityMap::new(out.into_iter().map(|p| p / k).collect())
}
