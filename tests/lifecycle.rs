//! Service-lifecycle integration: upsert/unsubscribe/TTL semantics over
//! sharded stores, identical outcomes across shard layouts under churn,
//! and the typed error taxonomy of every former panic site.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::{
    codeword_to_pattern, AlertSystem, MobileUser, ServiceProvider, SlaError, StoreBackend,
    Subscription, SystemBuilder, UpsertOutcome,
};
use secure_location_alerts::datasets::{ChurnConfig, ChurnEvent};
use secure_location_alerts::encoding::{CellCodebook, EncoderKind};
use secure_location_alerts::grid::{
    BoundingBox, Grid, Point, ProbabilityMap, SigmoidParams, ZoneSampler,
};
use secure_location_alerts::hve::{AttributeVector, HveScheme};
use secure_location_alerts::pairing::{BilinearGroup, SimulatedGroup};

const BACKENDS: [StoreBackend; 2] = [
    StoreBackend::ConcurrentSharded { shards: 1 },
    StoreBackend::ConcurrentSharded { shards: 5 },
];

fn small_grid_system(backend: StoreBackend, seed: u64) -> (AlertSystem, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 3, 3);
    let probs = ProbabilityMap::new(vec![0.2, 0.1, 0.05, 0.15, 0.1, 0.1, 0.1, 0.1, 0.1]);
    let system = SystemBuilder::new(grid)
        .group_bits(40)
        .store(backend)
        .build(&probs, &mut rng)
        .expect("valid configuration");
    (system, rng)
}

/// Acceptance: after `upsert` at a new cell, an alert on the old cell
/// does NOT notify the user and an alert on the new cell does — for both
/// shard layouts, at the analytic pairing cost.
#[test]
fn upsert_moves_user_on_both_backends() {
    for backend in BACKENDS {
        let (system, mut rng) = small_grid_system(backend.clone(), 0xc4a2);
        // Bystanders on the old and new cells keep both alerts non-empty.
        system.subscribe_cell(50, 2, &mut rng).unwrap();
        system.subscribe_cell(51, 7, &mut rng).unwrap();

        assert_eq!(
            system.subscribe_cell(9, 2, &mut rng),
            Ok(UpsertOutcome::Inserted)
        );
        assert_eq!(
            system.subscribe_cell(9, 7, &mut rng),
            Ok(UpsertOutcome::Replaced),
            "{backend:?}"
        );
        assert_eq!(
            system.n_subscriptions(),
            3,
            "{backend:?}: one record per user"
        );

        let old = system.issue_alert(&[2], &mut rng).unwrap();
        assert_eq!(
            old.notified,
            vec![50],
            "{backend:?}: stale ciphertext must not match"
        );
        assert_eq!(old.pairings_used, old.analytic_pairings);

        let new = system.issue_alert(&[7], &mut rng).unwrap();
        assert_eq!(new.notified, vec![9, 51], "{backend:?}");
        assert_eq!(new.pairings_used, new.analytic_pairings);
    }
}

#[test]
fn unsubscribe_removes_and_unknown_user_errors() {
    for backend in BACKENDS {
        let (system, mut rng) = small_grid_system(backend.clone(), 0x5b5);
        system.subscribe_cell(1, 4, &mut rng).unwrap();
        system.subscribe_cell(2, 4, &mut rng).unwrap();

        system.unsubscribe(1).unwrap();
        assert_eq!(
            system.unsubscribe(1),
            Err(SlaError::UnknownUser { user_id: 1 }),
            "{backend:?}"
        );
        assert_eq!(system.n_subscriptions(), 1);
        let outcome = system.issue_alert(&[4], &mut rng).unwrap();
        assert_eq!(outcome.notified, vec![2], "{backend:?}");

        let stats = system.store_stats();
        assert_eq!(stats.unsubscribed, 1);
        assert_eq!(stats.subscriptions, 1);
    }
}

#[test]
fn ttl_eviction_drops_stale_subscriptions_and_refresh_renews() {
    for backend in BACKENDS {
        let mut rng = StdRng::seed_from_u64(0x77e);
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 2, 2);
        let probs = ProbabilityMap::uniform(4);
        let system = SystemBuilder::new(grid)
            .group_bits(40)
            .store(backend.clone())
            .ttl_epochs(2)
            .build(&probs, &mut rng)
            .unwrap();

        // Epoch 0: users 1 and 2 subscribe.
        system.subscribe_cell(1, 0, &mut rng).unwrap();
        system.subscribe_cell(2, 0, &mut rng).unwrap();
        assert_eq!(
            system.advance_epoch(),
            0,
            "{backend:?}: TTL 2, nothing stale yet"
        );

        // Epoch 1: user 1 refreshes, user 3 arrives; user 2 goes stale.
        system.subscribe_cell(1, 0, &mut rng).unwrap();
        system.subscribe_cell(3, 0, &mut rng).unwrap();
        assert_eq!(
            system.advance_epoch(),
            1,
            "{backend:?}: user 2 (epoch 0) expires at epoch 2"
        );
        let outcome = system.issue_alert(&[0], &mut rng).unwrap();
        assert_eq!(outcome.notified, vec![1, 3], "{backend:?}");

        // Epoch 3: nobody refreshed since epoch 1 — everyone expires.
        assert_eq!(system.advance_epoch(), 2, "{backend:?}");
        assert_eq!(system.n_subscriptions(), 0);
        let stats = system.store_stats();
        assert_eq!(stats.evicted, 3, "{backend:?}");
        assert_eq!(stats.epoch, 3);
    }
}

/// Churn acceptance: replaying the same churn workload over both shard
/// layouts, the encrypted system tracks the plaintext ground truth at
/// every epoch at the analytic pairing cost, and both layouts notify
/// identical user sets at identical pairing cost.
#[test]
fn churn_workload_replays_identically_across_backends() {
    let mut gen_rng = StdRng::seed_from_u64(0xc0de);
    let grid = Grid::new(BoundingBox::chicago_downtown(), 8, 8);
    let probs = ProbabilityMap::sigmoid_synthetic(
        grid.n_cells(),
        SigmoidParams { a: 0.9, b: 100.0 },
        &mut gen_rng,
    );
    let sampler = ZoneSampler::new(grid.clone(), &probs);
    let workload = ChurnConfig {
        users: 24,
        epochs: 4,
        ..ChurnConfig::default()
    }
    .generate(&sampler, &mut gen_rng);

    let mut per_backend: Vec<Vec<(Vec<u64>, u64)>> = Vec::new();
    for backend in [
        StoreBackend::ConcurrentSharded { shards: 1 },
        StoreBackend::ConcurrentSharded { shards: 4 },
    ] {
        let mut rng = StdRng::seed_from_u64(7);
        let system = SystemBuilder::new(grid.clone())
            .group_bits(40)
            .store(backend.clone())
            .build(&probs, &mut rng)
            .unwrap();

        let mut outcomes = Vec::new();
        for (epoch_index, epoch) in workload.epochs.iter().enumerate() {
            for event in &epoch.events {
                match *event {
                    ChurnEvent::Subscribe { user_id, cell }
                    | ChurnEvent::Move { user_id, cell } => {
                        system.subscribe_cell(user_id, cell, &mut rng).unwrap();
                    }
                    ChurnEvent::Unsubscribe { user_id } => {
                        system.unsubscribe(user_id).unwrap();
                    }
                }
            }

            let served = system.issue_alert(&epoch.alert_cells, &mut rng).unwrap();
            assert_eq!(served.pairings_used, served.analytic_pairings);

            // Plaintext ground truth from the workload itself.
            let expected: Vec<u64> = workload
                .positions_after(epoch_index)
                .into_iter()
                .filter(|(_, cell)| epoch.alert_cells.contains(cell))
                .map(|(user, _)| user)
                .collect();
            assert_eq!(
                served.notified, expected,
                "{backend:?}: encrypted matching diverged from ground truth at epoch {epoch_index}"
            );

            outcomes.push((served.notified, served.pairings_used));
            system.advance_epoch();
        }
        per_backend.push(outcomes);
    }
    assert_eq!(
        per_backend[0], per_backend[1],
        "store backends must produce identical notified sets and pairing counts"
    );
}

/// Satellite: every former panic site returns its specific `SlaError`.
#[test]
fn error_taxonomy_covers_every_former_panic_site() {
    let mut rng = StdRng::seed_from_u64(3);
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 2, 2);

    // Probability-map/grid mismatch (was: assert in AlertSystem::setup).
    let wrong = ProbabilityMap::new(vec![0.5, 0.5]);
    assert_eq!(
        SystemBuilder::new(grid.clone())
            .build(&wrong, &mut rng)
            .unwrap_err(),
        SlaError::ProbabilityMapMismatch {
            map_cells: 2,
            grid_cells: 4
        }
    );

    // Group-bits and store-shape validation (new with the builder).
    let probs = ProbabilityMap::uniform(4);
    assert_eq!(
        SystemBuilder::new(grid.clone())
            .group_bits(4)
            .build(&probs, &mut rng)
            .unwrap_err(),
        SlaError::InvalidGroupBits { bits: 4 }
    );
    assert_eq!(
        SystemBuilder::new(grid.clone())
            .store(StoreBackend::ConcurrentSharded { shards: 0 })
            .build(&probs, &mut rng)
            .unwrap_err(),
        SlaError::ZeroShardCount
    );

    let system = SystemBuilder::new(grid)
        .group_bits(40)
        .build(&probs, &mut rng)
        .unwrap();

    // Out-of-range cell (was: assert in subscribe_cell / panic in
    // tokens_for during issue_alert).
    assert_eq!(
        system.subscribe_cell(1, 99, &mut rng).unwrap_err(),
        SlaError::CellOutOfRange {
            cell: 99,
            n_cells: 4
        }
    );
    assert_eq!(
        system.issue_alert(&[0, 99], &mut rng).unwrap_err(),
        SlaError::CellOutOfRange {
            cell: 99,
            n_cells: 4
        }
    );
    assert_eq!(
        system.analytic_cost(&[99]).unwrap_err(),
        SlaError::CellOutOfRange {
            cell: 99,
            n_cells: 4
        }
    );

    // Point outside the grid (was: silent `false`).
    assert!(matches!(
        system.subscribe_point(1, &Point::new(50.0, 50.0), &mut rng),
        Err(SlaError::PointOutsideGrid { .. })
    ));

    // User id outside the HVE message domain (was: assert deep inside
    // encode_message).
    let big_id = 1u64 << 40;
    assert_eq!(
        system.subscribe_cell(big_id, 0, &mut rng).unwrap_err(),
        SlaError::MessageOutOfDomain { id: big_id }
    );
}

/// Satellite: width mismatches surface as typed errors from the SP
/// instead of panicking inside the pairing evaluation.
#[test]
fn width_mismatch_is_a_typed_error_at_the_service_provider() {
    let mut rng = StdRng::seed_from_u64(9);
    let group = SimulatedGroup::generate(40, &mut rng);
    let scheme5 = HveScheme::new(&group, 5);
    let scheme3 = HveScheme::new(&group, 3);
    let (pk5, _) = scheme5.setup(&mut rng);
    let (_, sk3) = scheme3.setup(&mut rng);

    let ct5 = scheme5.encrypt(
        &pk5,
        &AttributeVector::from_bits(&[true, false, true, false, true]),
        &scheme5.encode_message(7),
        &mut rng,
    );

    let sp = ServiceProvider::new();
    // Ciphertext narrower than the scheme is rejected at upsert.
    assert_eq!(
        sp.upsert(
            &scheme3,
            Subscription {
                user_id: 7,
                ciphertext: ct5.clone(),
            },
        )
        .unwrap_err(),
        SlaError::WidthMismatch {
            expected: 3,
            actual: 5
        }
    );
    sp.upsert(
        &scheme5,
        Subscription {
            user_id: 7,
            ciphertext: ct5,
        },
    )
    .unwrap();

    // A token of the wrong width is rejected before any pairing runs.
    let tk3 = scheme3.gen_token(&sk3, &"1*0".parse().unwrap(), &mut rng);
    let tokens = std::slice::from_ref(&tk3);
    assert_eq!(
        sp.match_alert(&scheme5, tokens).unwrap_err(),
        SlaError::WidthMismatch {
            expected: 5,
            actual: 3
        }
    );
    // And a scheme of the wrong width cannot query stored material.
    assert_eq!(
        sp.match_alert(&scheme3, tokens).unwrap_err(),
        SlaError::WidthMismatch {
            expected: 5,
            actual: 3
        }
    );
}

/// The first scheme a Service Provider sees pins the group its stored
/// rows belong to; a scheme over another group is refused, at upsert
/// and at alert, before it touches the store.
#[test]
fn a_scheme_over_another_group_is_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(12);
    let group = SimulatedGroup::generate(40, &mut rng);
    let other = SimulatedGroup::generate(48, &mut rng);
    let scheme = HveScheme::new(&group, 2);
    let foreign = HveScheme::new(&other, 2);
    let (pk, sk) = scheme.setup(&mut rng);
    let (fpk, _) = foreign.setup(&mut rng);
    let bits = AttributeVector::from_bits(&[true, false]);
    let subscription =
        |user_id: u64, scheme: &HveScheme<'_, SimulatedGroup>, pk, rng: &mut StdRng| Subscription {
            user_id,
            ciphertext: scheme.encrypt(pk, &bits, &scheme.encode_message(user_id), rng),
        };

    let sp = ServiceProvider::new();
    sp.upsert(&scheme, subscription(1, &scheme, &pk, &mut rng))
        .unwrap();
    let mismatch = SlaError::GroupMismatch {
        expected_bits: group.order().bit_len(),
        actual_bits: other.order().bit_len(),
    };
    assert_eq!(
        sp.upsert(&foreign, subscription(2, &foreign, &fpk, &mut rng))
            .unwrap_err(),
        mismatch
    );
    let token = foreign.gen_token(&sk, &"1*".parse().unwrap(), &mut rng);
    assert_eq!(
        sp.match_alert(&foreign, std::slice::from_ref(&token))
            .unwrap_err(),
        mismatch
    );
    assert_eq!(sp.n_subscriptions(), 1);
    let token = scheme.gen_token(&sk, &"1*".parse().unwrap(), &mut rng);
    assert_eq!(sp.match_alert(&scheme, &[token]).unwrap().notified, vec![1]);
}

/// A *rejected* upsert must not pin the SP's HVE width: after a
/// MessageOutOfDomain failure on a fresh store, material of a different
/// width is still accepted (regression pin for the OnceLock width pin).
#[test]
fn rejected_upsert_does_not_pin_width() {
    let mut rng = StdRng::seed_from_u64(41);
    let group = SimulatedGroup::generate(40, &mut rng);
    let scheme5 = HveScheme::new(&group, 5);
    let scheme3 = HveScheme::new(&group, 3);
    let (pk5, _) = scheme5.setup(&mut rng);
    let (pk3, _) = scheme3.setup(&mut rng);

    let ct5 = scheme5.encrypt(
        &pk5,
        &AttributeVector::from_bits(&[true, false, true, false, true]),
        &scheme5.encode_message(7),
        &mut rng,
    );
    let ct3 = scheme3.encrypt(
        &pk3,
        &AttributeVector::from_bits(&[true, false, true]),
        &scheme3.encode_message(8),
        &mut rng,
    );

    let sp = ServiceProvider::new();
    // First upsert fails *after* the width checks (id outside the HVE
    // message domain) — the width must stay unpinned.
    let bad_id = 1u64 << 40;
    assert_eq!(
        sp.upsert(
            &scheme5,
            Subscription {
                user_id: bad_id,
                ciphertext: ct5,
            },
        )
        .unwrap_err(),
        SlaError::MessageOutOfDomain { id: bad_id }
    );
    // A width-3 subscription on the still-empty store is accepted.
    assert_eq!(
        sp.upsert(
            &scheme3,
            Subscription {
                user_id: 8,
                ciphertext: ct3,
            },
        ),
        Ok(UpsertOutcome::Inserted)
    );
    assert_eq!(sp.n_subscriptions(), 1);
}

/// The SP alone, fed by users and tokens made outside an `AlertSystem`,
/// notifies exactly the users whose cells fall inside each zone, at the
/// pairing cost the codebook predicts for its store.
#[test]
fn standalone_sp_sweep_matches_ground_truth() {
    let mut rng = StdRng::seed_from_u64(0xea);
    let grid = Grid::new(BoundingBox::chicago_downtown(), 8, 8);
    let probs = ProbabilityMap::sigmoid_synthetic(
        grid.n_cells(),
        SigmoidParams { a: 0.9, b: 100.0 },
        &mut rng,
    );
    let sampler = ZoneSampler::new(grid.clone(), &probs);

    let group = SimulatedGroup::generate(40, &mut rng);
    let cb = CellCodebook::build(EncoderKind::Huffman, probs.raw());
    let scheme = HveScheme::new(&group, cb.width_bits());
    let (pk, sk) = scheme.setup(&mut rng);
    let ppk = scheme.prepare_public_key(&pk);

    let sp =
        ServiceProvider::with_backend(StoreBackend::ConcurrentSharded { shards: 3 }, None).unwrap();
    let mut population = Vec::new();
    for user in 0..30u64 {
        let cell = sampler.sample_epicenter_cell(&mut rng).0;
        let ct = MobileUser::new(user, cell)
            .encrypt_update_prepared(&scheme, &ppk, &cb, &mut rng)
            .unwrap();
        sp.upsert(
            &scheme,
            Subscription {
                user_id: user,
                ciphertext: ct,
            },
        )
        .unwrap();
        population.push((user, cell));
    }

    for _ in 0..3 {
        let cells = sampler.sample_zone(900.0, &mut rng).cell_indices();
        let tokens: Vec<_> = cb
            .tokens_for(&cells)
            .iter()
            .map(|cw| scheme.gen_token(&sk, &codeword_to_pattern(cw), &mut rng))
            .collect();
        let mut found = sp.match_alert(&scheme, &tokens).unwrap();
        found.notified.sort_unstable();
        let expected: Vec<u64> = population
            .iter()
            .filter(|(_, c)| cells.contains(c))
            .map(|(u, _)| *u)
            .collect();
        assert_eq!(found.notified, expected);
        assert_eq!(found.pairings, cb.pairing_cost(&cells, 30));
    }
}

/// Store stats reflect the full lifecycle.
#[test]
fn store_stats_snapshot_counts_the_lifecycle() {
    let (system, mut rng) =
        small_grid_system(StoreBackend::ConcurrentSharded { shards: 5 }, 0x57a75);
    system.subscribe_cell(1, 0, &mut rng).unwrap();
    system.subscribe_cell(2, 1, &mut rng).unwrap();
    system.subscribe_cell(1, 2, &mut rng).unwrap(); // move
    system.unsubscribe(2).unwrap();

    let stats = system.store_stats();
    assert_eq!(stats.backend, "concurrent-sharded");
    assert_eq!(stats.shards, 5);
    assert_eq!(stats.subscriptions, 1);
    assert_eq!(stats.inserted, 2);
    assert_eq!(stats.replaced, 1);
    assert_eq!(stats.unsubscribed, 1);
    assert_eq!(stats.evicted, 0);
    assert_eq!(stats.ttl_epochs, None);
    assert_eq!(stats.epoch, 0);
}
