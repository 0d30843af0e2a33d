//! Store-backend equivalence: random interleavings of
//! upsert / remove / evict-before (via `advance_epoch`) / match must
//! leave the volatile sharded store (one shard and four) and the
//! persistent (WAL-backed) backend with identical contents — as sorted
//! `(user_id, epoch)` sets — and identical notified sets under quiescent
//! matching. Also pins the TTL boundary: a subscription **exactly**
//! `ttl_epochs` old is evicted (the `epoch >= min_epoch` retain bound is
//! the contract).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::{AlertSystem, FlushPolicy, StoreBackend, SystemBuilder};
use secure_location_alerts::grid::{BoundingBox, Grid, ProbabilityMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const N_CELLS: usize = 9;
const TTL: u64 = 3;

/// A fresh unique scratch directory for one persistent-backend system.
fn temp_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sla-store-equivalence-{}-{}",
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
            flush: FlushPolicy::EveryOp,
        },
    ]
}

fn build_system(backend: StoreBackend) -> (AlertSystem, StdRng) {
    let mut rng = StdRng::seed_from_u64(0x51a7e);
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 3, 3);
    let probs = ProbabilityMap::new(vec![0.2, 0.1, 0.05, 0.15, 0.1, 0.1, 0.1, 0.1, 0.1]);
    let system = SystemBuilder::new(grid)
        .group_bits(32)
        .store(backend)
        .ttl_epochs(TTL)
        .build(&probs, &mut rng)
        .expect("valid configuration");
    (system, rng)
}

/// One decoded store operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Upsert { user: u64, cell: usize },
    Remove { user: u64 },
    AdvanceEpoch,
    Match { cell_a: usize, cell_b: usize },
}

/// Decodes a raw u64 into an op (upsert-heavy, like real churn).
fn decode(raw: u64) -> Op {
    let user = (raw >> 4) % 12;
    let cell = ((raw >> 8) % N_CELLS as u64) as usize;
    match raw % 16 {
        0..=8 => Op::Upsert { user, cell },
        9..=11 => Op::Remove { user },
        12 => Op::AdvanceEpoch,
        _ => Op::Match {
            cell_a: cell,
            cell_b: ((raw >> 12) % N_CELLS as u64) as usize,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn random_interleavings_leave_identical_stores_and_notified_sets(
        raw_ops in prop::collection::vec(any::<u64>(), 15..45),
    ) {
        let ops: Vec<Op> = raw_ops.iter().map(|&r| decode(r)).collect();
        let persist_dir = temp_dir();
        let mut systems: Vec<(StoreBackend, AlertSystem, StdRng)> = backends(&persist_dir)
            .into_iter()
            .map(|b| {
                let (system, rng) = build_system(b.clone());
                (b, system, rng)
            })
            .collect();

        for (i, &op) in ops.iter().enumerate() {
            // Apply the op to every backend and compare observable
            // outcomes pairwise against the one-shard reference.
            let mut outcomes = Vec::new();
            for (backend, system, rng) in &mut systems {
                let observed = match op {
                    Op::Upsert { user, cell } => {
                        format!("{:?}", system.subscribe_cell(user, cell, rng))
                    }
                    Op::Remove { user } => format!("{:?}", system.unsubscribe(user)),
                    Op::AdvanceEpoch => format!("evicted={}", system.advance_epoch()),
                    Op::Match { cell_a, cell_b } => {
                        let o = system.issue_alert(&[cell_a, cell_b], rng).unwrap();
                        format!("notified={:?} pairings={}", o.notified, o.pairings_used)
                    }
                };
                outcomes.push((backend.clone(), observed));
            }
            let (ref_backend, reference) = outcomes[0].clone();
            for (backend, observed) in &outcomes[1..] {
                prop_assert_eq!(
                    observed,
                    &reference,
                    "op {} ({:?}): {:?} diverged from {:?}",
                    i,
                    op,
                    backend,
                    ref_backend
                );
            }
        }

        // Terminal state: identical sorted (user_id, epoch) sets and an
        // identical full-grid notified set.
        let reference_state = systems[0].1.subscription_epochs();
        let all_cells: Vec<usize> = (0..N_CELLS).collect();
        let reference_alert = {
            let (_, system, rng) = &mut systems[0];
            system.issue_alert(&all_cells, rng).unwrap()
        };
        for (backend, system, rng) in &mut systems[1..] {
            prop_assert_eq!(
                system.subscription_epochs(),
                reference_state.clone(),
                "{:?}: terminal (user, epoch) set diverged",
                backend
            );
            let alert = system.issue_alert(&all_cells, rng).unwrap();
            prop_assert_eq!(
                (&alert.notified, alert.pairings_used),
                (&reference_alert.notified, reference_alert.pairings_used),
                "{:?}: terminal full-grid alert diverged",
                backend
            );
        }
        drop(systems); // flush + quiesce the persistent backend
        std::fs::remove_dir_all(&persist_dir).unwrap();
    }
}

/// TTL boundary pin, per backend: with TTL `t`, a record upserted at
/// epoch `e` survives `advance_epoch` while its age is `< t` and is
/// evicted by the advance that makes its age exactly `t`.
#[test]
fn ttl_boundary_evicts_exactly_at_ttl_epochs() {
    let persist_dir = temp_dir();
    for backend in backends(&persist_dir) {
        let (system, mut rng) = build_system(backend.clone()); // TTL = 3
        system.subscribe_cell(1, 0, &mut rng).unwrap();
        // Ages 1 and 2: still stored.
        assert_eq!(system.advance_epoch(), 0, "{backend:?}: age 1");
        assert_eq!(system.advance_epoch(), 0, "{backend:?}: age 2");
        assert_eq!(system.subscription_epochs(), vec![(1, 0)], "{backend:?}");
        // Age exactly TTL: evicted by this advance.
        assert_eq!(system.advance_epoch(), 1, "{backend:?}: age == TTL");
        assert!(system.subscription_epochs().is_empty(), "{backend:?}");
        assert_eq!(system.store_stats().evicted, 1, "{backend:?}");
    }
    std::fs::remove_dir_all(&persist_dir).unwrap();
}
