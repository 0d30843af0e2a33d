//! Quick sanity probe: serial vs batch alert issuance must produce the
//! same outcome, and the batch plumbing must not add measurable overhead
//! (it parallelizes across cores when more than one is available).

use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::{StoreBackend, SystemBuilder};
use secure_location_alerts::encoding::EncoderKind;
use secure_location_alerts::grid::{BoundingBox, Grid, ProbabilityMap, SigmoidParams, ZoneSampler};
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(20_210_323);
    let grid = Grid::new(BoundingBox::chicago_downtown(), 8, 8);
    let probs = ProbabilityMap::sigmoid_synthetic(
        grid.n_cells(),
        SigmoidParams { a: 0.9, b: 100.0 },
        &mut rng,
    );
    let sampler = ZoneSampler::new(grid.clone(), &probs);
    let system = SystemBuilder::new(grid)
        .encoder(EncoderKind::Huffman)
        .group_bits(48)
        .store(StoreBackend::ConcurrentSharded { shards: 8 })
        .build(&probs, &mut rng)
        .expect("valid configuration");
    for user in 0..64u64 {
        let cell = sampler.sample_epicenter_cell(&mut rng).0;
        system
            .subscribe_cell(user, cell, &mut rng)
            .expect("sampled cells are in range");
    }
    let zone = sampler.sample_zone(600.0, &mut rng);
    let cells = zone.cell_indices();

    let modes = ["serial", "batch"];
    let mut rngs: Vec<StdRng> = (0..2).map(|_| StdRng::seed_from_u64(1)).collect();
    let mut totals = [0u128; 2];
    let mut outcomes = Vec::new();
    for _round in 0..200 {
        for (mi, mode) in modes.iter().enumerate() {
            let t = Instant::now();
            let o = if *mode == "serial" {
                system.issue_alert(&cells, &mut rngs[mi])
            } else {
                system.issue_alert_batch(&cells, None, &mut rngs[mi])
            }
            .expect("zone cells are in range");
            totals[mi] += t.elapsed().as_nanos();
            outcomes.push((o.notified, o.pairings_used, o.tokens_issued));
        }
    }
    let (first, rest) = outcomes.split_first().unwrap();
    assert!(rest.iter().all(|o| o == first), "outcomes diverged");
    for (mi, mode) in modes.iter().enumerate() {
        println!("{mode}: {:.0} us/alert", totals[mi] as f64 / 200.0 / 1000.0);
    }
    println!(
        "notified {} users with {} pairings — identical across paths",
        first.0.len(),
        first.1
    );
}
