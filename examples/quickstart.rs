//! Quickstart: the full protocol on a small grid in ~40 lines.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::{StoreBackend, SystemBuilder};
use secure_location_alerts::encoding::EncoderKind;
use secure_location_alerts::grid::{BoundingBox, Grid, ProbabilityMap};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // 1. A 4x4 grid over a small area; cell 5 and its neighbors are the
    //    "popular" part of town (more likely to host an alert).
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 4, 4);
    let mut likelihoods = vec![0.02; 16];
    for cell in [5usize, 6, 9, 10] {
        likelihoods[cell] = 0.3;
    }
    let probs = ProbabilityMap::new(likelihoods);

    // 2. System initialization (Fig. 3): Huffman codebook + HVE keys.
    //    The builder validates the configuration (probability-map/grid
    //    coverage, group size, store shape) instead of panicking.
    let system = SystemBuilder::new(grid)
        .encoder(EncoderKind::Huffman)
        .group_bits(48)
        .store(StoreBackend::ConcurrentSharded { shards: 4 })
        .build(&probs, &mut rng)
        .expect("valid configuration");
    println!(
        "codebook: {} cells, HVE width {} bits",
        system.codebook().n_cells(),
        system.codebook().width_bits()
    );

    // 3. Users submit encrypted location updates. The SP never sees the
    //    cells in cleartext.
    for (user, cell) in [(101u64, 5usize), (102, 6), (103, 12), (104, 0)] {
        system
            .subscribe_cell(user, cell, &mut rng)
            .expect("cell is in range");
        println!("user {user} encrypted an update for cell {cell}");
    }

    // User 103 moves into the popular block: re-subscribing *replaces*
    // the stored ciphertext, so the old cell no longer matches.
    system
        .subscribe_cell(103, 9, &mut rng)
        .expect("cell is in range");
    println!("user 103 moved to cell 9 (old ciphertext replaced)");

    // 4. An event occurs in the popular block: the TA issues minimized
    //    tokens, the SP matches ciphertexts, matching users are notified.
    let outcome = system
        .issue_alert(&[5, 6, 9, 10], &mut rng)
        .expect("alert cells are in range");
    println!("\nalert zone {{5,6,9,10}}:");
    println!("  tokens issued      : {}", outcome.tokens_issued);
    println!("  non-star bits      : {}", outcome.non_star_bits);
    println!("  pairings performed : {}", outcome.pairings_used);
    println!("  analytic model     : {}", outcome.analytic_pairings);
    println!("  notified users     : {:?}", outcome.notified);

    println!("  store              : {:?}", system.store_stats());

    assert_eq!(outcome.notified, vec![101, 102, 103]);
    assert_eq!(outcome.pairings_used, outcome.analytic_pairings);
}
