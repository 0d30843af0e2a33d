//! Contact tracing — the paper's §1/§2.3 motivating scenario.
//!
//! A COVID-positive patient's visited sites become many *compact, sparse*
//! alert zones (a few meters to a room each). This is exactly the regime
//! where Huffman encoding shines: fixed-length schemes cannot aggregate
//! single-cell zones, while popular places carry short Huffman codes.
//!
//! ```text
//! cargo run --example contact_tracing --release
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_location_alerts::core::SystemBuilder;
use secure_location_alerts::encoding::EncoderKind;
use secure_location_alerts::grid::{Grid, ProbabilityMap, SigmoidParams, ZoneSampler};

fn main() {
    let mut rng = StdRng::seed_from_u64(19);

    // Central-Chicago district, 16x16 grid (~600 m cells keep the live
    // HVE demo fast; the analytic experiments use 32x32).
    let grid = Grid::new(
        secure_location_alerts::grid::BoundingBox::chicago_downtown(),
        16,
        16,
    );
    // Popularity surface: skewed, as in the paper's synthetic evaluation.
    let probs = ProbabilityMap::sigmoid_synthetic(
        grid.n_cells(),
        SigmoidParams { a: 0.95, b: 100.0 },
        &mut rng,
    );

    let system = SystemBuilder::new(grid.clone())
        .encoder(EncoderKind::Huffman)
        .group_bits(48)
        .build(&probs, &mut rng)
        .expect("valid configuration");

    // 60 subscribers scattered across town, biased toward popular cells.
    let sampler = ZoneSampler::new(grid.clone(), &probs);
    let mut user_cells = Vec::new();
    for user in 0..60u64 {
        let cell = sampler.sample_epicenter_cell(&mut rng).0;
        system
            .subscribe_cell(user, cell, &mut rng)
            .expect("sampled cells are in range");
        user_cells.push((user, cell));
    }

    // The patient visited 5 sites over the last week; each visit is a
    // compact zone around the site (room/store scale: one cell here).
    let mut visited = Vec::new();
    for _ in 0..5 {
        visited.push(sampler.sample_epicenter_cell(&mut rng).0);
    }
    println!("patient trajectory cells: {visited:?}");

    let mut total_pairings = 0u64;
    let mut exposed: Vec<u64> = Vec::new();
    for &site in &visited {
        let outcome = system
            .issue_alert(&[site], &mut rng)
            .expect("sites are in range");
        total_pairings += outcome.pairings_used;
        exposed.extend(&outcome.notified);
    }
    exposed.sort_unstable();
    exposed.dedup();

    // Ground truth from the (plaintext) test harness view.
    let mut expected: Vec<u64> = user_cells
        .iter()
        .filter(|(_, c)| visited.contains(c))
        .map(|(u, _)| *u)
        .collect();
    expected.sort_unstable();
    expected.dedup();

    println!("exposed users (via encrypted matching): {exposed:?}");
    assert_eq!(
        exposed, expected,
        "encrypted matching must equal ground truth"
    );

    // Compare against the fixed-length baseline on the same trajectory.
    let baseline = SystemBuilder::new(grid)
        .encoder(EncoderKind::BasicFixed)
        .group_bits(48)
        .build(&probs, &mut rng)
        .expect("valid configuration");
    for &(user, cell) in &user_cells {
        baseline
            .subscribe_cell(user, cell, &mut rng)
            .expect("sampled cells are in range");
    }
    let mut baseline_pairings = 0u64;
    for &site in &visited {
        baseline_pairings += baseline
            .issue_alert(&[site], &mut rng)
            .expect("sites are in range")
            .pairings_used;
    }

    let gain =
        100.0 * (baseline_pairings as f64 - total_pairings as f64) / baseline_pairings as f64;
    println!("\npairings (huffman)     : {total_pairings}");
    println!("pairings (fixed [14])  : {baseline_pairings}");
    println!("improvement            : {gain:.1}%");
    assert!(
        total_pairings <= baseline_pairings,
        "compact zones must favor Huffman"
    );

    // keep rng "used" for clarity of the seeded-demo contract
    let _: u8 = rng.gen();
}
