//! Durable-store acceptance: a `ServiceProvider` built on
//! `StoreBackend::Persistent`, dropped and re-opened from its directory,
//! serves **byte-identical quiescent match outcomes** (`notified` sets
//! and `pairings_used`) to an in-memory backend given the same
//! subscription history — including recovery from a torn final WAL
//! record in one durability lane while every other lane recovers in
//! full — plus the refusal of a pre-sharding (root-level WAL) directory,
//! cross-backend equivalence over random op sequences, and the
//! error/lifecycle surface of the persistent backend.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secure_location_alerts::core::{
    AlertSystem, FlushPolicy, SlaError, StoreBackend, SystemBuilder, UpsertOutcome,
};
use secure_location_alerts::grid::{BoundingBox, Grid, ProbabilityMap};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const N_CELLS: usize = 9;
const TTL: u64 = 3;
const SEED: u64 = 0xD15C;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sla-persistence-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every lane WAL under `dir`'s `shard.NNN/` subdirectories, with its
/// current length.
fn lane_wal_files(dir: &Path) -> BTreeMap<PathBuf, u64> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let lane = entry.unwrap().path();
        let is_lane = lane
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("shard."));
        if !(is_lane && lane.is_dir()) {
            continue;
        }
        for file in std::fs::read_dir(&lane).unwrap() {
            let file = file.unwrap().path();
            if file
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal."))
            {
                let len = std::fs::metadata(&file).unwrap().len();
                out.insert(file, len);
            }
        }
    }
    out
}

/// Builds a system over `backend` from a fixed seed: same seed ⇒ same
/// group, keys, and (given the same call sequence) same ciphertexts, so
/// outcomes are comparable across backends and across restarts.
fn build_system(backend: StoreBackend) -> (AlertSystem, StdRng) {
    let mut rng = StdRng::seed_from_u64(SEED);
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

/// The subscription history both backends replay: subscribes, moves,
/// unsubscribes and epoch advances across three rounds.
fn apply_history(system: &mut AlertSystem, rng: &mut StdRng) {
    for round in 0..3u64 {
        for user in 0..12u64 {
            if (user + round) % 4 == 0 {
                continue; // this user skips the round (goes stale)
            }
            let cell = ((user + 2 * round) % N_CELLS as u64) as usize;
            system.subscribe_cell(user, cell, rng).unwrap();
        }
        let _ = system.unsubscribe(round + 6);
        system.advance_epoch();
    }
}

/// Quiescent fingerprint of one alert.
fn alert_fingerprint(system: &AlertSystem, cells: &[usize], seed: u64) -> (Vec<u64>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let outcome = system.issue_alert(cells, &mut rng).unwrap();
    (outcome.notified, outcome.pairings_used)
}

/// The acceptance pin: persistent == in-memory before the restart, and
/// the re-opened persistent store still equals the in-memory reference
/// afterwards — same `(user, epoch)` content, same epoch, and identical
/// `notified` + `pairings_used` on every probe alert.
#[test]
fn restart_serves_identical_outcomes_to_in_memory_backend() {
    let dir = temp_dir("restart");
    let (mut memory, mut mem_rng) = build_system(StoreBackend::ConcurrentSharded { shards: 4 });
    apply_history(&mut memory, &mut mem_rng);

    let probes: [&[usize]; 3] = [&[0, 1, 2], &[4], &[0, 1, 2, 3, 4, 5, 6, 7, 8]];
    let expected_state = memory.subscription_epochs();
    let expected_epoch = memory.epoch();

    {
        let (mut persistent, mut rng) = build_system(StoreBackend::Persistent {
            dir: dir.clone(),
            flush: FlushPolicy::Every(Duration::from_millis(20)),
        });
        apply_history(&mut persistent, &mut rng);
        assert_eq!(persistent.subscription_epochs(), expected_state);
        for (i, cells) in probes.iter().enumerate() {
            assert_eq!(
                alert_fingerprint(&persistent, cells, 100 + i as u64),
                alert_fingerprint(&memory, cells, 100 + i as u64),
                "pre-restart divergence on {cells:?}"
            );
        }
        persistent.sync().unwrap();
    } // drop: flush the group-commit tail, quiesce the directory

    // The quiesced directory is the sharded layout: a committed layout
    // meta plus per-lane WALs — never a root-level log or snapshot.
    assert!(dir.join("store.meta").exists(), "layout meta committed");
    assert!(!dir.join("snapshot.bin").exists(), "no monolithic snapshot");
    assert!(!lane_wal_files(&dir).is_empty(), "per-lane WALs exist");

    let quiesced = dir_bytes(&dir);
    let (reopened, _) = build_system(StoreBackend::Persistent {
        dir: dir.clone(),
        flush: FlushPolicy::EveryOp,
    });
    assert_eq!(reopened.store_stats().backend, "persistent");
    assert_eq!(reopened.n_subscriptions(), expected_state.len());
    assert_eq!(
        reopened.subscription_epochs(),
        expected_state,
        "recovered (user, epoch) content"
    );
    assert_eq!(reopened.epoch(), expected_epoch, "recovered service epoch");
    for (i, cells) in probes.iter().enumerate() {
        assert_eq!(
            alert_fingerprint(&reopened, cells, 100 + i as u64),
            alert_fingerprint(&memory, cells, 100 + i as u64),
            "post-restart divergence on {cells:?}"
        );
    }
    // A read-only reopen rewrites no byte of the directory.
    drop(reopened);
    assert_eq!(
        dir_bytes(&dir),
        quiesced,
        "a read-only reopen rewrote files"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Torn final WAL record in **one durability lane**: chopping bytes off
/// the last frame of the lane that logged the final subscription loses
/// exactly that subscription and nothing else — every other lane
/// recovers in full, and the re-opened store equals an in-memory
/// reference that never saw the torn subscribe.
#[test]
fn torn_final_wal_record_in_one_shard_recovers_state_at_last_complete_frame() {
    let dir = temp_dir("torn");

    // Reference: users 0..5 (the 6th subscribe never happened).
    let (memory, mut mem_rng) = build_system(StoreBackend::ConcurrentSharded { shards: 4 });
    for user in 0..5u64 {
        memory
            .subscribe_cell(user, user as usize % N_CELLS, &mut mem_rng)
            .unwrap();
    }

    let before;
    {
        let (persistent, mut rng) = build_system(StoreBackend::Persistent {
            dir: dir.clone(),
            flush: FlushPolicy::EveryOp,
        });
        for user in 0..5u64 {
            persistent
                .subscribe_cell(user, user as usize % N_CELLS, &mut rng)
                .unwrap();
        }
        persistent.sync().unwrap();
        // Snapshot every lane's WAL length, then log one more subscribe:
        // exactly one lane grows, and its tail frame is user 5's record.
        before = lane_wal_files(&dir);
        persistent.subscribe_cell(5, 5 % N_CELLS, &mut rng).unwrap();
    }

    let grown: Vec<PathBuf> = lane_wal_files(&dir)
        .into_iter()
        .filter(|(path, len)| before.get(path).copied().unwrap_or(0) < *len)
        .map(|(path, _)| path)
        .collect();
    assert_eq!(grown.len(), 1, "one lane logged the final subscribe");
    let wal_path = &grown[0];

    // Tear the final record: chop a few bytes off that lane's WAL.
    let bytes = std::fs::read(wal_path).unwrap();
    std::fs::write(wal_path, &bytes[..bytes.len() - 3]).unwrap();

    let (reopened, _) = build_system(StoreBackend::Persistent {
        dir: dir.clone(),
        flush: FlushPolicy::EveryOp,
    });
    assert_eq!(
        reopened.subscription_epochs(),
        memory.subscription_epochs(),
        "exactly the torn subscription is lost"
    );
    for cells in [&[0usize, 1][..], &[4, 5][..]] {
        assert_eq!(
            alert_fingerprint(&reopened, cells, 7),
            alert_fingerprint(&memory, cells, 7),
            "torn-recovery divergence on {cells:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A record in the on-disk vocabulary (canonical discrete logs, so it
/// round-trips the codec byte-exactly). Only `(user_id,
/// epoch)` is observable through `subscription_epochs`; the ciphertext
/// just has to be structurally valid.
fn legacy_record(user_id: u64, epoch: u64) -> sla_persist::Record {
    use secure_location_alerts::bigint::BigUint;
    use secure_location_alerts::hve::Ciphertext;
    use secure_location_alerts::pairing::{GElem, GtElem};
    sla_persist::Record {
        user_id,
        epoch,
        row: Ciphertext::from_parts(
            GtElem::from_canonical_log(BigUint::from_u64(user_id * 7 + 3)),
            GElem::from_canonical_log(BigUint::from_u64(user_id + 11)),
            vec![(
                GElem::from_canonical_log(BigUint::from_u64(user_id ^ 0x2A)),
                GElem::from_canonical_log(BigUint::from_u64(user_id + 42)),
            )],
        )
        .to_row(&GtElem::from_canonical_log(BigUint::from_u64(user_id + 1))),
    }
}

/// Every file under `dir` (two levels deep — the layout has no more),
/// with its bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.insert(path.clone(), std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, &mut out);
    out
}

/// A directory in the pre-sharding format — root-level WALs and no
/// layout meta — is refused with `SlaError::Corrupt` naming a root WAL,
/// and the refused open leaves every byte of it as it was.
#[test]
fn pre_sharding_directory_is_refused_untouched() {
    use sla_persist::wal::WalWriter;
    use sla_persist::WalOp;

    let dir = temp_dir("pre-sharding");
    let mut stale = WalWriter::create(&dir, 1, FlushPolicy::EveryOp).unwrap();
    stale.append(&WalOp::Upsert(legacy_record(9, 0))).unwrap();
    drop(stale);
    let mut live = WalWriter::create(&dir, 2, FlushPolicy::EveryOp).unwrap();
    live.append(&WalOp::Upsert(legacy_record(4, 2))).unwrap();
    live.append(&WalOp::Upsert(legacy_record(7, 2))).unwrap();
    live.append(&WalOp::Epoch { epoch: 2 }).unwrap();
    drop(live);

    let before = dir_bytes(&dir);
    match build_system_err(StoreBackend::Persistent {
        dir: dir.clone(),
        flush: FlushPolicy::EveryOp,
    }) {
        SlaError::Corrupt { detail } => assert!(detail.contains("wal.000001"), "{detail}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(
        dir_bytes(&dir),
        before,
        "the refused open touched the files"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One decoded store operation (same shape as the store-equivalence
/// suite, so the persistent backend faces the same churn mix).
#[derive(Debug, Clone, Copy)]
enum Op {
    Upsert { user: u64, cell: usize },
    Remove { user: u64 },
    AdvanceEpoch,
}

fn decode(raw: u64) -> Op {
    let user = (raw >> 4) % 12;
    let cell = ((raw >> 8) % N_CELLS as u64) as usize;
    match raw % 8 {
        0..=4 => Op::Upsert { user, cell },
        5 | 6 => Op::Remove { user },
        _ => Op::AdvanceEpoch,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn random_histories_survive_restart_identically(
        raw_ops in prop::collection::vec(any::<u64>(), 10..30),
        case in any::<u64>(),
    ) {
        let dir = temp_dir(&format!("prop-{case}"));
        let ops: Vec<Op> = raw_ops.iter().map(|&r| decode(r)).collect();

        let (memory, mut mem_rng) =
            build_system(StoreBackend::ConcurrentSharded { shards: 4 });
        {
            let (persistent, mut rng) = build_system(StoreBackend::Persistent {
                dir: dir.clone(),
                flush: FlushPolicy::Manual,
            });
            for op in &ops {
                // Apply to both; observable results must agree.
                let (a, b) = match *op {
                    Op::Upsert { user, cell } => (
                        format!("{:?}", memory.subscribe_cell(user, cell, &mut mem_rng)),
                        format!("{:?}", persistent.subscribe_cell(user, cell, &mut rng)),
                    ),
                    Op::Remove { user } => (
                        format!("{:?}", memory.unsubscribe(user)),
                        format!("{:?}", persistent.unsubscribe(user)),
                    ),
                    Op::AdvanceEpoch => (
                        format!("{}", memory.advance_epoch()),
                        format!("{}", persistent.advance_epoch()),
                    ),
                };
                prop_assert_eq!(a, b, "live divergence at {:?}", op);
            }
            persistent.sync().unwrap();
        }

        let (reopened, _) = build_system(StoreBackend::Persistent {
            dir: dir.clone(),
            flush: FlushPolicy::Manual,
        });
        prop_assert_eq!(reopened.subscription_epochs(), memory.subscription_epochs());
        prop_assert_eq!(reopened.epoch(), memory.epoch());
        let all_cells: Vec<usize> = (0..N_CELLS).collect();
        prop_assert_eq!(
            alert_fingerprint(&reopened, &all_cells, 11),
            alert_fingerprint(&memory, &all_cells, 11)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The persistent backend serves the lifecycle through `&self`, and an
/// epoch advance both evicts and is recorded durably.
#[test]
fn persistent_backend_serves_the_lifecycle_and_epochs_through_shared_refs() {
    let dir = temp_dir("shared");
    {
        let (system, mut rng) = build_system(StoreBackend::Persistent {
            dir: dir.clone(),
            flush: FlushPolicy::EveryOp,
        });
        assert_eq!(
            system.subscribe_cell(1, 0, &mut rng),
            Ok(UpsertOutcome::Inserted)
        );
        assert_eq!(
            system.subscribe_cell(1, 2, &mut rng),
            Ok(UpsertOutcome::Replaced)
        );
        system.subscribe_cell(2, 4, &mut rng).unwrap();
        system.unsubscribe(2).unwrap();
        assert_eq!(
            system.unsubscribe(2).unwrap_err(),
            SlaError::UnknownUser { user_id: 2 }
        );
        // TTL = 3: three shared advances evict user 1 (epoch-0 record).
        assert_eq!(system.advance_epoch(), 0);
        assert_eq!(system.advance_epoch(), 0);
        assert_eq!(system.advance_epoch(), 1);
        assert_eq!(system.n_subscriptions(), 0);
        system.sync().unwrap();
    }
    let (reopened, _) = build_system(StoreBackend::Persistent {
        dir: dir.clone(),
        flush: FlushPolicy::EveryOp,
    });
    assert_eq!(reopened.epoch(), 3, "shared advances recovered");
    assert_eq!(reopened.n_subscriptions(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Error surface: a corrupt snapshot refuses to open with
/// `SlaError::Corrupt`; an unusable directory surfaces
/// `SlaError::Storage`.
#[test]
fn unrecoverable_directories_surface_typed_errors() {
    // Corrupt snapshot: valid system, then flip a byte mid-snapshot.
    let dir = temp_dir("corrupt");
    std::fs::write(dir.join("snapshot.bin"), b"not a snapshot at all").unwrap();
    let err = build_system_err(StoreBackend::Persistent {
        dir: dir.clone(),
        flush: FlushPolicy::EveryOp,
    });
    assert!(
        matches!(err, SlaError::Corrupt { .. }),
        "expected Corrupt, got {err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // A file where the directory should be.
    let blocker = temp_dir("blocked").join("occupied");
    std::fs::write(&blocker, b"file, not dir").unwrap();
    let err = build_system_err(StoreBackend::Persistent {
        dir: blocker.clone(),
        flush: FlushPolicy::EveryOp,
    });
    assert!(
        matches!(err, SlaError::Storage { .. }),
        "expected Storage, got {err:?}"
    );
    std::fs::remove_dir_all(blocker.parent().unwrap()).unwrap();
}

fn build_system_err(backend: StoreBackend) -> SlaError {
    let mut rng = StdRng::seed_from_u64(SEED);
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 3, 3);
    let probs = ProbabilityMap::new(vec![0.2, 0.1, 0.05, 0.15, 0.1, 0.1, 0.1, 0.1, 0.1]);
    SystemBuilder::new(grid)
        .group_bits(32)
        .store(backend)
        .build(&probs, &mut rng)
        .unwrap_err()
}

/// A system over `dir` at 40-bit primes: an 80-bit order of two limbs.
fn build_wide_system(dir: &Path) -> (AlertSystem, StdRng) {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x40);
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 3, 3);
    let probs = ProbabilityMap::new(vec![0.2, 0.1, 0.05, 0.15, 0.1, 0.1, 0.1, 0.1, 0.1]);
    let system = SystemBuilder::new(grid)
        .group_bits(40)
        .store(StoreBackend::Persistent {
            dir: dir.to_path_buf(),
            flush: FlushPolicy::Manual,
        })
        .build(&probs, &mut rng)
        .expect("valid configuration");
    (system, rng)
}

/// A reopened store holds its rows at the width the codec decoded them
/// at, before any group is known; the first alert after the restart
/// brings them to its group (the pin) and serves the same notified set
/// and exact `pairings_used` as before the restart.
#[test]
fn store_reopened_before_the_pin_serves_identical_alerts() {
    use secure_location_alerts::core::{ConcurrentSubscriptionStore, PersistentStore};

    let dir = temp_dir("pin");
    let probes: [&[usize]; 3] = [&[0, 1, 2], &[4], &[0, 1, 2, 3, 4, 5, 6, 7, 8]];
    let before: Vec<(Vec<u64>, u64)> = {
        let (system, mut rng) = build_wide_system(&dir);
        for user in 0..12u64 {
            system
                .subscribe_cell(user, (user % N_CELLS as u64) as usize, &mut rng)
                .unwrap();
        }
        let fingerprints = probes
            .iter()
            .map(|cells| alert_fingerprint(&system, cells, 5))
            .collect();
        system.sync().unwrap();
        fingerprints
    };
    assert!(before.iter().any(|(notified, _)| !notified.is_empty()));

    {
        let store = PersistentStore::open(&dir, FlushPolicy::Manual).unwrap();
        let mut recovered = 0;
        for shard in 0..store.shard_count() {
            store.read_shard(shard, &mut |records| {
                if !records.is_empty() {
                    let shape = records.rows().shape();
                    assert!(shape.limbs <= 2, "an 80-bit order's logs fit two limbs");
                    assert_eq!(
                        records.rows().as_limbs().len(),
                        records.len() * shape.stride()
                    );
                }
                recovered += records.len();
            });
        }
        assert_eq!(recovered, 12);
    }

    let (reopened, _) = build_wide_system(&dir);
    let after: Vec<(Vec<u64>, u64)> = probes
        .iter()
        .map(|cells| alert_fingerprint(&reopened, cells, 5))
        .collect();
    assert_eq!(after, before, "the pinned store serves what it served");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What happens to a stored log that is not below the group order `N`:
/// it is reduced mod `N` — at upsert when the Service Provider packs the
/// ciphertext, and at the pin for a row recovered from the WAL as it was
/// written — so the record matches exactly as its reduced ciphertext
/// does.
#[test]
fn logs_not_below_the_order_are_reduced_mod_n() {
    use secure_location_alerts::bigint::BigUint;
    use secure_location_alerts::core::{
        ConcurrentSubscriptionStore, PersistentStore, Record, ServiceProvider, Subscription,
    };
    use secure_location_alerts::hve::{AttributeVector, Ciphertext, HveScheme};
    use secure_location_alerts::pairing::{BilinearGroup, GElem, GtElem, SimulatedGroup};

    let mut rng = StdRng::seed_from_u64(SEED);
    let group = SimulatedGroup::generate(40, &mut rng);
    let scheme = HveScheme::new(&group, 3);
    let (pk, sk) = scheme.setup(&mut rng);
    let msg = scheme.encode_message(7);
    let ct = scheme.encrypt(
        &pk,
        &AttributeVector::from_bits(&[true, false, true]),
        &msg,
        &mut rng,
    );
    let tokens = [
        scheme.gen_token(&sk, &"1*1".parse().unwrap(), &mut rng),
        scheme.gen_token(&sk, &"0**".parse().unwrap(), &mut rng),
    ];
    let n = group.order();
    // log + N·(2^64 + 1): the same residue mod N, one limb wider than N.
    let multiple = n * &(&BigUint::one().shl_bits(64) + &BigUint::one());
    let plus_n = |log: BigUint| &log + &multiple;
    let unreduced = {
        let (c_prime, c0, c) = ct.parts();
        Ciphertext::from_parts(
            GtElem::from_canonical_log(plus_n(c_prime.discrete_log())),
            GElem::from_canonical_log(plus_n(c0.discrete_log())),
            c.iter()
                .map(|(a, b)| {
                    (
                        GElem::from_canonical_log(plus_n(a.discrete_log())),
                        GElem::from_canonical_log(plus_n(b.discrete_log())),
                    )
                })
                .collect(),
        )
    };
    let subscription = |ciphertext: &Ciphertext| Subscription {
        user_id: 7,
        ciphertext: ciphertext.clone(),
    };

    let reference = ServiceProvider::new();
    reference.upsert(&scheme, subscription(&ct)).unwrap();
    let want = reference.match_alert(&scheme, &tokens).unwrap();
    assert_eq!(want.notified, vec![7]);

    // Reduced when the Service Provider packs it.
    let sp = ServiceProvider::new();
    sp.upsert(&scheme, subscription(&unreduced)).unwrap();
    assert_eq!(sp.match_alert(&scheme, &tokens).unwrap(), want);

    // Logged as written, reduced at the pin after recovery.
    let dir = temp_dir("above-n");
    {
        let store = PersistentStore::open(&dir, FlushPolicy::EveryOp).unwrap();
        let row = unreduced.to_row(&GtElem::from_canonical_log(plus_n(msg.discrete_log())));
        assert_eq!(row.shape().limbs, 3, "wider than the two-limb order");
        store
            .upsert(Record {
                user_id: 7,
                epoch: 0,
                row,
            })
            .unwrap();
        store.sync().unwrap();
    }
    let recovered = ServiceProvider::with_backend(
        StoreBackend::Persistent {
            dir: dir.clone(),
            flush: FlushPolicy::EveryOp,
        },
        None,
    )
    .unwrap();
    assert_eq!(recovered.match_alert(&scheme, &tokens).unwrap(), want);
    std::fs::remove_dir_all(&dir).unwrap();
}
