//! `churn` bench group: subscription lifecycle under load. Replays the
//! datasets churn workload (moves / unsubscribes / re-subscriptions plus
//! one alert per epoch) against both store backends — the volatile
//! store's per-shard `RwLock`s, and the persistent store's WAL append
//! per mutation (group commit, so the fsync amortizes across a burst).
//! The `churn_while_matching` entry overlaps writer threads with a
//! running alert.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_bench::SEED;
use sla_core::{AlertSystem, FlushPolicy, StoreBackend, SystemBuilder};
use sla_datasets::{ChurnConfig, ChurnEvent, ChurnWorkload};
use sla_grid::{BoundingBox, Grid, ProbabilityMap, SigmoidParams, ZoneSampler};
use std::time::Duration;

fn fixture() -> (Grid, ProbabilityMap, ChurnWorkload) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let grid = Grid::new(BoundingBox::chicago_downtown(), 8, 8);
    let probs = ProbabilityMap::sigmoid_synthetic(
        grid.n_cells(),
        SigmoidParams { a: 0.9, b: 100.0 },
        &mut rng,
    );
    let sampler = ZoneSampler::new(grid.clone(), &probs);
    let workload = ChurnConfig {
        users: 48,
        epochs: 6,
        ..ChurnConfig::default()
    }
    .generate(&sampler, &mut rng);
    (grid, probs, workload)
}

fn build(grid: &Grid, probs: &ProbabilityMap, backend: StoreBackend) -> (AlertSystem, StdRng) {
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let system = SystemBuilder::new(grid.clone())
        .group_bits(48)
        .store(backend)
        .build(probs, &mut rng)
        .expect("valid configuration");
    (system, rng)
}

/// Applies one epoch's events; unsubscribes of already-departed users
/// (possible when an epoch replays more than once) are ignored.
fn apply_epoch(system: &AlertSystem, epoch: &sla_datasets::ChurnEpoch, rng: &mut StdRng) {
    for event in &epoch.events {
        match *event {
            ChurnEvent::Subscribe { user_id, cell } | ChurnEvent::Move { user_id, cell } => {
                system
                    .subscribe_cell(user_id, cell, rng)
                    .expect("workload cells are in range");
            }
            ChurnEvent::Unsubscribe { user_id } => {
                let _ = system.unsubscribe(user_id);
            }
        }
    }
}

fn bench_churn(c: &mut Criterion) {
    let (grid, probs, workload) = fixture();
    let mut g = c.benchmark_group("churn");
    g.sample_size(10);

    let persist_dir =
        std::env::temp_dir().join(format!("sla-bench-churn-epoch-{}", std::process::id()));
    for (name, backend) in [
        ("concurrent8", StoreBackend::ConcurrentSharded { shards: 8 }),
        (
            "persistent",
            StoreBackend::Persistent {
                dir: persist_dir.clone(),
                flush: FlushPolicy::Every(Duration::from_millis(5)),
            },
        ),
    ] {
        let (system, mut rng) = build(&grid, &probs, backend);
        apply_epoch(&system, &workload.epochs[0], &mut rng);

        let mut next = 1usize;
        g.bench_function(format!("epoch_replay_{name}"), |b| {
            b.iter(|| {
                let epoch = &workload.epochs[next];
                next = 1 + next % (workload.epochs.len() - 1);
                apply_epoch(&system, epoch, &mut rng);
                system.advance_epoch();
                system
                    .issue_alert(&epoch.alert_cells, &mut rng)
                    .expect("workload cells are in range")
            });
        });
    }
    if persist_dir.exists() {
        std::fs::remove_dir_all(&persist_dir).expect("bench scratch cleanup");
    }
    g.finish();
}

/// The churn-while-matching regime: `WRITERS` threads replay an epoch's
/// writer streams through `subscribe_cell`/`unsubscribe` while the
/// measuring thread runs the epoch's alert concurrently. Run on
/// both backends: the volatile sharded store and the persistent store,
/// whose per-shard durability lanes let the four writers log without
/// serializing on a single WAL gate.
fn bench_churn_while_matching(c: &mut Criterion) {
    const WRITERS: usize = 4;
    let (grid, probs, workload) = fixture();
    let mut g = c.benchmark_group("churn");
    g.sample_size(10);

    let persist_dir =
        std::env::temp_dir().join(format!("sla-bench-churn-wm-{}", std::process::id()));
    for (name, backend) in [
        ("concurrent8", StoreBackend::ConcurrentSharded { shards: 8 }),
        (
            "persistent_sharded",
            StoreBackend::Persistent {
                dir: persist_dir.clone(),
                flush: FlushPolicy::Every(Duration::from_millis(5)),
            },
        ),
    ] {
        let (system, mut rng) = {
            let mut rng = StdRng::seed_from_u64(SEED ^ 2);
            let system = SystemBuilder::new(grid.clone())
                .group_bits(48)
                .store(backend)
                .build(&probs, &mut rng)
                .expect("valid configuration");
            (system, rng)
        };
        // Seed the population, then interleave epoch replays with
        // matching.
        for event in &workload.epochs[0].events {
            if let ChurnEvent::Subscribe { user_id, cell } = *event {
                system
                    .subscribe_cell(user_id, cell, &mut rng)
                    .expect("workload cells are in range");
            }
        }

        let mut next = 1usize;
        g.bench_function(format!("while_matching_{name}_w{WRITERS}"), |b| {
            b.iter(|| {
                let epoch = &workload.epochs[next];
                next = 1 + next % (workload.epochs.len() - 1);
                let streams = epoch.writer_streams(WRITERS);
                std::thread::scope(|scope| {
                    for (w, stream) in streams.iter().enumerate() {
                        let system = &system;
                        scope.spawn(move || {
                            let mut rng = StdRng::seed_from_u64(SEED ^ (0x100 + w as u64));
                            for event in stream {
                                match *event {
                                    ChurnEvent::Subscribe { user_id, cell }
                                    | ChurnEvent::Move { user_id, cell } => {
                                        system
                                            .subscribe_cell(user_id, cell, &mut rng)
                                            .expect("workload cells are in range");
                                    }
                                    ChurnEvent::Unsubscribe { user_id } => {
                                        let _ = system.unsubscribe(user_id);
                                    }
                                }
                            }
                        });
                    }
                    let mut match_rng = StdRng::seed_from_u64(SEED ^ 3);
                    system
                        .issue_alert(&epoch.alert_cells, &mut match_rng)
                        .expect("workload cells are in range")
                })
            });
        });
    }
    if persist_dir.exists() {
        std::fs::remove_dir_all(&persist_dir).expect("bench scratch cleanup");
    }
    g.finish();
}

criterion_group!(benches, bench_churn, bench_churn_while_matching);
criterion_main!(benches);
