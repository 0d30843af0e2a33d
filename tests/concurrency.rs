//! Churn-while-matching: writer threads upsert/remove through the
//! (`&self`) lifecycle calls while alerts are matched on the same
//! `AlertSystem` — the long-lived regime of the paper's system model
//! (§2.2) at production concurrency. Asserts (a) no deadlock and no torn
//! reads under real parallelism, (b) a deterministic final store state
//! once quiescent (each user is owned by exactly one writer), and (c)
//! that every backend serves the same quiescent outcome. The
//! churn-while-evicting harness adds the sharded epoch/stats plane:
//! `advance_epoch` (TTL eviction through `&self`) racing the writers.
//!
//! A fourth harness runs alerts on several threads beside a writer and
//! checks that every alert's `pairings_used` is its own analytic cost.
//!
//! The `stress_heavy_*` test is `#[ignore]` for local `cargo test`
//! ergonomics; CI runs it with `--include-ignored` so the lock
//! discipline is exercised under real parallelism every run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::{
    AlertOutcome, AlertSystem, FlushPolicy, StoreBackend, SystemBuilder,
};
use secure_location_alerts::grid::{BoundingBox, Grid, ProbabilityMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

const N_CELLS: usize = 9;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sla-concurrency-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn concurrent_system_with(backend: StoreBackend, ttl: Option<u64>) -> (AlertSystem, StdRng) {
    let mut rng = StdRng::seed_from_u64(0xc0c0);
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 3, 3);
    let probs = ProbabilityMap::new(vec![0.2, 0.1, 0.05, 0.15, 0.1, 0.1, 0.1, 0.1, 0.1]);
    let mut builder = SystemBuilder::new(grid).group_bits(32).store(backend);
    if let Some(t) = ttl {
        builder = builder.ttl_epochs(t);
    }
    let system = builder
        .build(&probs, &mut rng)
        .expect("valid configuration");
    (system, rng)
}

fn concurrent_system(shards: usize) -> (AlertSystem, StdRng) {
    concurrent_system_with(StoreBackend::ConcurrentSharded { shards }, None)
}

/// The deterministic final cell of `user` after `rounds` writer rounds of
/// the stress schedule below: subscribe at `(user + round) % N_CELLS`,
/// then unsubscribe when `(user + round) % 3 == 0`.
fn final_position(user: u64, rounds: u64) -> Option<usize> {
    let last = rounds - 1;
    if (user + last).is_multiple_of(3) {
        None
    } else {
        Some(((user + last) % N_CELLS as u64) as usize)
    }
}

/// Core stress harness: `writers` threads churn disjoint user ranges
/// while `matchers + 1` threads issue alerts concurrently; after the
/// scope joins, the store must hold exactly each user's final state.
fn run_stress(writers: u64, users_per_writer: u64, rounds: u64, matchers: usize) {
    let (system, _) = concurrent_system(8);
    let all_cells: Vec<usize> = (0..N_CELLS).collect();

    std::thread::scope(|scope| {
        for w in 0..writers {
            let system = &system;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xaa00 ^ w);
                for round in 0..rounds {
                    for user in (w * users_per_writer)..((w + 1) * users_per_writer) {
                        let cell = ((user + round) % N_CELLS as u64) as usize;
                        system
                            .subscribe_cell(user, cell, &mut rng)
                            .expect("valid cell and id");
                        if (user + round).is_multiple_of(3) {
                            system.unsubscribe(user).expect("user was just subscribed");
                        }
                    }
                }
            });
        }
        // Matcher threads issue full-grid alerts while the writers churn;
        // outcomes must always be well-formed (every
        // notified id is a real user), but membership is race-dependent.
        for m in 0..=matchers {
            let system = &system;
            let all_cells = &all_cells;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x3a7c4 + m as u64);
                for _ in 0..6 {
                    let outcome = system
                        .issue_alert(all_cells, &mut rng)
                        .expect("valid alert");
                    for &id in &outcome.notified {
                        assert!(
                            id < writers * users_per_writer,
                            "matched a user id {id} that never subscribed"
                        );
                    }
                }
            });
        }
    });

    // Quiescent: the store holds exactly each user's final state (each
    // user is touched by exactly one writer, so the interleaving cannot
    // change it).
    let expected: Vec<(u64, u64)> = (0..writers * users_per_writer)
        .filter(|&u| final_position(u, rounds).is_some())
        .map(|u| (u, 0)) // epoch never advances in this harness
        .collect();
    assert_eq!(system.subscription_epochs(), expected);

    // And a quiescent full-grid alert notifies exactly the survivors, at
    // its analytic cost.
    let mut rng = StdRng::seed_from_u64(9);
    let outcome = system.issue_alert(&all_cells, &mut rng).unwrap();
    let survivors: Vec<u64> = expected.iter().map(|&(u, _)| u).collect();
    assert_eq!(outcome.notified, survivors);
    assert_eq!(outcome.pairings_used, outcome.analytic_pairings);
}

/// The fields every backend must reproduce identically.
fn fingerprint(o: &AlertOutcome) -> (Vec<u64>, usize, u64, u64) {
    (
        o.notified.clone(),
        o.tokens_issued,
        o.pairings_used,
        o.analytic_pairings,
    )
}

/// Acceptance: ≥ 4 writer threads upserting/removing while alerts are
/// matched — completes without deadlock or data race, with a
/// deterministic quiescent state.
#[test]
fn four_writers_churn_while_matching() {
    run_stress(4, 6, 8, 1);
}

/// Heavier schedule, run by CI under `--include-ignored` so the lock
/// discipline sees real parallelism every run.
#[test]
#[ignore = "heavy; CI runs it with --include-ignored"]
fn stress_heavy_churn_while_matching() {
    run_stress(6, 10, 40, 2);
}

/// Churn-while-evicting: writer threads upsert/remove through the
/// `&self` lifecycle calls while another thread advances the epoch (TTL
/// eviction enabled) through `advance_epoch` — the sharded
/// epoch/stats plane. Asserts no deadlock, the exact final epoch, the
/// TTL retention invariant over the survivors, and that a full TTL of
/// quiet advances drains the store completely.
fn run_evict_stress(backend: StoreBackend, writers: u64, users_per_writer: u64, rounds: u64) {
    const TTL: u64 = 2;
    const ADVANCES: u64 = 6;
    let (system, _) = concurrent_system_with(backend, Some(TTL));

    std::thread::scope(|scope| {
        for w in 0..writers {
            let system = &system;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xec1c7 ^ w);
                for round in 0..rounds {
                    for user in (w * users_per_writer)..((w + 1) * users_per_writer) {
                        let cell = ((user + round) % N_CELLS as u64) as usize;
                        system
                            .subscribe_cell(user, cell, &mut rng)
                            .expect("valid cell and id");
                        if (user + round).is_multiple_of(5) {
                            // Not `expect`: a concurrent eviction may
                            // legitimately beat this unsubscribe to a
                            // record stamped with an already-old epoch.
                            let _ = system.unsubscribe(user);
                        }
                    }
                }
            });
        }
        let system = &system;
        scope.spawn(move || {
            for _ in 0..ADVANCES {
                system.advance_epoch();
                std::thread::yield_now();
            }
        });
    });

    // Quiescent invariants: the epoch advanced exactly ADVANCES times,
    // and no stamp can exceed the epoch that was current when it was
    // taken. (The *lower* TTL bound on survivors is deliberately not
    // asserted here: a record's epoch stamp is read before its insert,
    // so an eviction sweeping between the two can leave a survivor one
    // window older than the quiescent contract — the deterministic TTL
    // boundary is pinned in the store-equivalence suite instead.)
    assert_eq!(system.epoch(), ADVANCES);
    for (user, epoch) in system.subscription_epochs() {
        assert!(epoch <= ADVANCES, "user {user} stamped from the future");
    }
    // A quiet TTL of advances evicts everything that is left.
    let before = system.n_subscriptions();
    let drained: usize = (0..TTL).map(|_| system.advance_epoch()).sum();
    assert_eq!(drained, before, "every survivor ages out within TTL");
    assert_eq!(system.n_subscriptions(), 0);
    assert_eq!(
        system.store_stats().evicted as usize + system.store_stats().unsubscribed as usize,
        system.store_stats().inserted as usize,
        "every insert is accounted for by an eviction or an unsubscribe"
    );
}

#[test]
fn churn_while_evicting_on_concurrent_store() {
    run_evict_stress(StoreBackend::ConcurrentSharded { shards: 8 }, 4, 6, 10);
}

/// The persistent backend under the same schedule, plus a restart: the
/// drained store must reopen empty at the advanced epoch. Heavy (every
/// mutation pays a WAL append); CI runs it with `--include-ignored`.
#[test]
#[ignore = "heavy; CI runs it with --include-ignored"]
fn stress_churn_while_evicting_persistent() {
    let dir = temp_dir("evict-stress");
    run_evict_stress(
        StoreBackend::Persistent {
            dir: dir.clone(),
            flush: FlushPolicy::Every(std::time::Duration::from_millis(5)),
        },
        4,
        6,
        10,
    );
    // run_evict_stress drained the store and dropped the system (sync on
    // drop); a reopen must find the drained state at the final epoch.
    let (reopened, _) = concurrent_system_with(
        StoreBackend::Persistent {
            dir: dir.clone(),
            flush: FlushPolicy::EveryOp,
        },
        Some(2),
    );
    assert_eq!(reopened.n_subscriptions(), 0);
    assert_eq!(reopened.epoch(), 8, "6 stress advances + 2 drain advances");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Quiescent-store outcome identity for every backend: the served alert
/// agrees field-for-field (`notified`, `tokens_issued`, `pairings_used`,
/// `analytic_pairings`) with the one-shard store's.
#[test]
fn quiescent_outcome_identity_across_all_backends() {
    let persist_dir = temp_dir("quiescent");
    let mut reference: Option<(Vec<u64>, usize, u64, u64)> = None;
    for backend in [
        StoreBackend::ConcurrentSharded { shards: 1 },
        StoreBackend::ConcurrentSharded { shards: 4 },
        StoreBackend::Persistent {
            dir: persist_dir.clone(),
            flush: FlushPolicy::EveryOp,
        },
    ] {
        let mut rng = StdRng::seed_from_u64(0xbeef);
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 3, 3);
        let probs = ProbabilityMap::new(vec![0.2, 0.1, 0.05, 0.15, 0.1, 0.1, 0.1, 0.1, 0.1]);
        let system = SystemBuilder::new(grid)
            .group_bits(32)
            .store(backend.clone())
            .build(&probs, &mut rng)
            .unwrap();
        for user in 0..30u64 {
            system
                .subscribe_cell(user, (user % N_CELLS as u64) as usize, &mut rng)
                .unwrap();
        }

        let mut alert_rng = StdRng::seed_from_u64(7);
        let served = system.issue_alert(&[1, 4, 7], &mut alert_rng).unwrap();
        assert_eq!(
            served.pairings_used, served.analytic_pairings,
            "{backend:?}"
        );
        match &reference {
            None => reference = Some(fingerprint(&served)),
            Some(r) => assert_eq!(
                r,
                &fingerprint(&served),
                "{backend:?} diverged from the one-shard reference"
            ),
        }
    }
    std::fs::remove_dir_all(&persist_dir).unwrap();
}

/// Each alert reports its own pairings while others share the engine:
/// `ALERTERS` threads issue alerts on one `AlertSystem` while a writer
/// keeps moving existing users, so the store size — and with it every
/// alert's analytic cost — stays fixed.
/// Every outcome's `pairings_used` must equal its analytic cost; a
/// matcher that read the shared counters' delta would also count the
/// other alerts' pairings and any the writer spent. The shared counters
/// still advance by exactly the sum of both.
#[test]
fn concurrent_alerts_each_count_their_own_pairings() {
    const USERS: u64 = 240;
    const ALERTERS: usize = 3;
    const ALERTS: usize = 8;
    /// Pairings one subscribe spends: none. The flat Encrypt writes the
    /// stored row, `C' = M·A^s` included, with the payload `gt^{id+1}`
    /// as its canonical log `id + 1`, so no `e(g, g)` is evaluated to
    /// encode it.
    const SUBSCRIBE_PAIRINGS: u64 = 0;

    /// Counts an alerter out when it returns or panics, so the writer
    /// never outlives the alerters.
    struct CountOut<'a>(&'a AtomicU64);
    impl Drop for CountOut<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    let (system, mut rng) = concurrent_system(8);
    for user in 0..USERS {
        system
            .subscribe_cell(user, (user % N_CELLS as u64) as usize, &mut rng)
            .expect("valid cell and id");
    }
    let zones: [&[usize]; 4] = [&[4], &[0, 1, 3], &[2, 5, 8], &[6]];
    let costs: Vec<u64> = zones
        .iter()
        .map(|cells| system.analytic_cost(cells).unwrap())
        .collect();
    let before = system.counters().pairings();
    let start = Barrier::new(ALERTERS + 1);
    let alerting = AtomicU64::new(ALERTERS as u64);

    let (moves, outcomes) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(0x5ab5);
            start.wait();
            let mut moves = 0u64;
            while alerting.load(Ordering::SeqCst) > 0 {
                let user = moves % USERS;
                let cell = ((user + moves / USERS + 1) % N_CELLS as u64) as usize;
                system
                    .subscribe_cell(user, cell, &mut rng)
                    .expect("valid cell and id");
                moves += 1;
            }
            moves
        });
        let alerters: Vec<_> = (0..ALERTERS)
            .map(|a| {
                let (system, start, alerting) = (&system, &start, &alerting);
                scope.spawn(move || {
                    let _count_out = CountOut(alerting);
                    let mut rng = StdRng::seed_from_u64(0xa1e7 + a as u64);
                    start.wait();
                    (0..ALERTS)
                        .map(|i| {
                            let zone = (a + i) % zones.len();
                            let outcome = system.issue_alert(zones[zone], &mut rng);
                            (zone, outcome.expect("valid alert"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let outcomes: Vec<_> = alerters
            .into_iter()
            .flat_map(|h| h.join().expect("alerter finished"))
            .collect();
        (writer.join().expect("writer finished"), outcomes)
    });

    for (zone, outcome) in &outcomes {
        assert_eq!(outcome.analytic_pairings, costs[*zone], "zone {zone}");
        assert_eq!(
            outcome.pairings_used, outcome.analytic_pairings,
            "zone {zone}: an alert counted pairings that were not its own"
        );
    }
    assert_eq!(system.n_subscriptions() as u64, USERS);
    let alerted: u64 = outcomes.iter().map(|(_, o)| o.pairings_used).sum();
    assert_eq!(
        system.counters().pairings() - before,
        alerted + SUBSCRIBE_PAIRINGS * moves,
        "the shared counters advance by every alert's and subscribe's pairings"
    );
}
