//! Times the Fig. 9 pipeline at a reduced workload size (the full run is
//! the `repro` binary's job; here we time the cost-evaluation machinery),
//! plus the live alert path.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_bench::{fig09, SEED};
use sla_core::{StoreBackend, SystemBuilder};
use sla_encoding::EncoderKind;
use sla_grid::{BoundingBox, Grid, ProbabilityMap, SigmoidParams, ZoneSampler};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig09");
    g.sample_size(10);
    g.bench_function("crime_pipeline_5zones", |b| {
        b.iter(|| fig09::run(SEED, 5, 1_000))
    });
    g.bench_function("crime_pipeline_5zones_parallel", |b| {
        b.iter(|| fig09::run_with(SEED, 5, 1_000, true))
    });
    g.finish();
}

fn bench_live_alert(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(SEED);
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

    let mut g = c.benchmark_group("fig09_live");
    g.sample_size(10);
    g.bench_function("issue_alert", |b| {
        let mut r = StdRng::seed_from_u64(1);
        b.iter(|| system.issue_alert(&cells, &mut r).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench, bench_live_alert);
criterion_main!(benches);
