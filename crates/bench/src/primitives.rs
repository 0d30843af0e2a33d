//! Primitive-operation timings: the data behind `BENCH_primitives.json`.
//!
//! Measures the modular building blocks every HVE phase bottoms out in —
//! `mod_mul` and `mod_pow` (naive division-based vs Montgomery) and the
//! simulated `pair` — plus the HVE phases themselves (Setup, Encrypt and
//! GenToken through the element reference and through the engine's flat
//! loops, and the reference Query), so the performance trajectory of the
//! arithmetic layer is tracked across PRs as a machine-readable
//! artifact.
//!
//! Every figure is registered with one [`Rounds`] before any is timed,
//! and the run takes its samples in rounds: round `r` times every figure
//! once. A figure's quartiles therefore span the whole run, so a host
//! phase that slows one stretch of it widens the quartiles instead of
//! moving a median unseen.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_bigint::{gen_prime, BigUint, MontgomeryCtx};
use sla_core::{
    ConcurrentShardedStore, ConcurrentSubscriptionStore, FlushPolicy, PersistentStore, Record,
};
use sla_hve::{AttributeVector, HveScheme, SearchPattern};
use sla_pairing::{BilinearGroup, PackedRow, SimulatedGroup};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One figure's spread over its [`SAMPLES`] timed samples, in ns/op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// First quartile of the samples.
    pub q1: f64,
    /// Median of the samples.
    pub median: f64,
    /// Third quartile of the samples.
    pub q3: f64,
}

impl Timing {
    /// The quartiles of `samples` (nearest rank; at least one sample).
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = samples.len();
        Timing {
            q1: samples[n / 4],
            median: samples[n / 2],
            q3: samples[3 * n / 4],
        }
    }
}

/// Per-item cost of a timing that covered `rhs` items per op.
impl std::ops::Div<f64> for Timing {
    type Output = Timing;

    fn div(self, rhs: f64) -> Timing {
        Timing {
            q1: self.q1 / rhs,
            median: self.median / rhs,
            q3: self.q3 / rhs,
        }
    }
}

/// Times `iters` calls of `f`, in ns per call.
fn ns_per_call<R>(iters: usize, f: &mut impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Timed samples behind every figure: each figure is the quartiles of
/// this many samples, one per round.
pub const SAMPLES: usize = 5;

/// The figures of one run, timed in rounds: register every figure with
/// [`Self::time`] or [`Self::sample`], then [`Self::run`] takes
/// [`SAMPLES`] rounds, each sampling every figure once in the order they
/// were registered.
#[derive(Default)]
pub struct Rounds<'a> {
    figures: Vec<Box<dyn FnMut() -> f64 + 'a>>,
}

/// A registered figure: its index in the run's [`Timings`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure(usize);

/// The timing of every figure of a run.
#[derive(Debug, Clone)]
pub struct Timings(Vec<Timing>);

impl std::ops::Index<Figure> for Timings {
    type Output = Timing;

    fn index(&self, figure: Figure) -> &Timing {
        &self.0[figure.0]
    }
}

impl<'a> Rounds<'a> {
    /// Registers a figure whose every sample times `iters` calls of `f`,
    /// in ns per call. `f` is called once now, as a warmup.
    pub fn time<R>(&mut self, iters: usize, mut f: impl FnMut() -> R + 'a) -> Figure {
        std::hint::black_box(f());
        self.sample(move || ns_per_call(iters, &mut f))
    }

    /// [`Self::time`] for a figure whose state the other figures of a
    /// round disturb: every sample first calls `settle`, then makes its
    /// `iters` calls untimed, then times them, so the timed calls follow
    /// the same calls as they would in back-to-back samples.
    pub fn time_settled<R>(
        &mut self,
        iters: usize,
        mut settle: impl FnMut() + 'a,
        mut f: impl FnMut() -> R + 'a,
    ) -> Figure {
        self.sample(move || {
            settle();
            ns_per_call(iters, &mut f);
            ns_per_call(iters, &mut f)
        })
    }

    /// Registers a figure whose every sample `f` takes itself, returning
    /// ns per op.
    pub fn sample(&mut self, f: impl FnMut() -> f64 + 'a) -> Figure {
        self.figures.push(Box::new(f));
        Figure(self.figures.len() - 1)
    }

    /// Takes the samples, round after round, and drops every figure (and
    /// what it owns) before returning their timings.
    pub fn run(mut self) -> Timings {
        let mut samples = vec![Vec::with_capacity(SAMPLES); self.figures.len()];
        for _ in 0..SAMPLES {
            for (figure, taken) in self.figures.iter_mut().zip(&mut samples) {
                taken.push(figure());
            }
        }
        Timings(samples.into_iter().map(Timing::of).collect())
    }
}

/// Timings (ns/op) for one modulus size.
#[derive(Debug, Clone)]
pub struct PrimitiveTimings {
    /// Bit length of the composite modulus `N = P·Q`.
    pub modulus_bits: usize,
    /// `(a·b) mod N` via multiply + Knuth division.
    pub mod_mul_naive_ns: Timing,
    /// `(a·b) mod N` via the Montgomery context.
    pub mod_mul_mont_ns: Timing,
    /// `a^e mod N` via square-and-multiply with division per step.
    pub mod_pow_naive_ns: Timing,
    /// `a^e mod N` via the windowed Montgomery ladder (what
    /// `BigUint::mod_pow` takes for odd moduli).
    pub mod_pow_mont_ns: Timing,
    /// One simulated pairing on a `SimulatedGroup` of this order: the
    /// product of two canonical logs mod `N` through the Montgomery
    /// context.
    pub pairing_ns: Timing,
}

impl PrimitiveTimings {
    /// Montgomery-vs-naive speedup on `mod_pow` (ratio of medians).
    pub fn mod_pow_speedup(&self) -> f64 {
        self.mod_pow_naive_ns.median / self.mod_pow_mont_ns.median
    }

    /// Montgomery-vs-naive speedup on `mod_mul` (ratio of medians).
    pub fn mod_mul_speedup(&self) -> f64 {
        self.mod_mul_naive_ns.median / self.mod_mul_mont_ns.median
    }
}

/// Timings (ns/op) for the HVE phases at one (modulus, width).
#[derive(Debug, Clone)]
pub struct PhaseTimings {
    /// Bit length of the composite modulus `N = P·Q`.
    pub modulus_bits: usize,
    /// HVE width `l`.
    pub width: usize,
    /// **Setup**: one `(PK, SK)` generation.
    pub setup_ns: Timing,
    /// Readying both keys' bases for the flat loops (once per key).
    pub prepare_ns: Timing,
    /// **Encrypt** through the element reference (`HveScheme::encrypt`).
    pub encrypt_ns: Timing,
    /// **Encrypt** through the engine's flat loop, writing the stored
    /// row (`HveScheme::encrypt_for_user`).
    pub encrypt_flat_ns: Timing,
    /// **GenToken** through the element reference
    /// (`HveScheme::gen_token`).
    pub gen_token_ns: Timing,
    /// **GenToken** through the engine's flat loop, writing the swept
    /// keys (`HveScheme::gen_query`).
    pub gen_token_flat_ns: Timing,
    /// **Query** per (token, ciphertext) pair via the reference
    /// `query_decode`: one canonical conversion per pair, match or not.
    pub query_decode_ns: Timing,
}

impl PhaseTimings {
    /// Flat-vs-reference speedup on Encrypt (ratio of medians).
    pub fn encrypt_speedup(&self) -> f64 {
        self.encrypt_ns.median / self.encrypt_flat_ns.median
    }

    /// Flat-vs-reference speedup on GenToken (ratio of medians).
    pub fn gen_token_speedup(&self) -> f64 {
        self.gen_token_ns.median / self.gen_token_flat_ns.median
    }
}

/// Where a `BENCH_primitives.json` came from: the commit, the host's
/// core count, and the timed samples behind each figure.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git describe --always --dirty` of the working directory (the
    /// short commit, `-dirty` when the tree has uncommitted changes), or
    /// `"unknown"` outside a git checkout.
    pub commit: String,
    /// `std::thread::available_parallelism` of the host.
    pub nproc: usize,
    /// Timed samples per figure ([`SAMPLES`]).
    pub repetitions: usize,
}

impl Provenance {
    /// The provenance of a run in the current directory on this host.
    pub fn current() -> Self {
        let commit = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            commit,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            repetitions: SAMPLES,
        }
    }
}

/// Registers the primitives for a group whose prime factors have
/// `prime_bits` bits (modulus `N` has `2·prime_bits` bits); the returned
/// function reads their row from the run's timings.
pub fn measure(
    prime_bits: usize,
    seed: u64,
    rounds: &mut Rounds<'_>,
) -> impl Fn(&Timings) -> PrimitiveTimings {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = gen_prime(prime_bits, &mut rng);
    let q = gen_prime(prime_bits, &mut rng);
    let n = &p * &q;
    let ctx = MontgomeryCtx::new(&n).expect("N = P·Q is odd");

    // Full-width reduced operands — group elements occupy all of [0, N).
    let a = &n - &BigUint::from_u64(12345);
    let b = &n - &BigUint::from_u64(6789);
    let e = &n - &BigUint::from_u64(2); // full-length exponent

    let mod_mul_naive_ns = {
        let (a, b, n) = (a.clone(), b.clone(), n.clone());
        rounds.time(2_000, move || a.mod_mul(&b, &n))
    };
    let mod_mul_mont_ns = {
        let (a, b) = (a.clone(), b.clone());
        rounds.time(2_000, move || ctx.mod_mul(&a, &b))
    };
    let mod_pow_naive_ns = {
        let (a, e, n) = (a.clone(), e.clone(), n.clone());
        rounds.time(50, move || a.mod_pow_naive(&e, &n))
    };
    let mod_pow_mont_ns = {
        let n = n.clone();
        rounds.time(50, move || a.mod_pow(&e, &n))
    };

    let group = SimulatedGroup::new(sla_pairing::GroupParams::from_factors(p, q));
    let x = group.random_gp(&mut rng);
    let y = group.random_gp(&mut rng);
    let pairing_ns = rounds.time(2_000, move || group.pair(&x, &y));

    let modulus_bits = n.bit_len();
    move |t: &Timings| PrimitiveTimings {
        modulus_bits,
        mod_mul_naive_ns: t[mod_mul_naive_ns],
        mod_mul_mont_ns: t[mod_mul_mont_ns],
        mod_pow_naive_ns: t[mod_pow_naive_ns],
        mod_pow_mont_ns: t[mod_pow_mont_ns],
        pairing_ns: t[pairing_ns],
    }
}

/// Registers the HVE phases (element reference vs flat loops) for a
/// group with `prime_bits`-bit factors at HVE width `width`; the
/// returned function reads their row from the run's timings. Each
/// figure draws from its own seeded RNG.
pub fn measure_phases(
    prime_bits: usize,
    width: usize,
    seed: u64,
    rounds: &mut Rounds<'_>,
) -> impl Fn(&Timings) -> PhaseTimings {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let group = Rc::new(SimulatedGroup::generate(prime_bits, &mut rng));
    let scheme = HveScheme::new(&*group, width);
    let (pk, sk) = scheme.setup(&mut rng);
    let ppk = scheme.prepare_public_key(&pk);
    let psk = scheme.prepare_secret_key(&sk);

    let bits: Vec<bool> = (0..width).map(|i| i % 3 == 0).collect();
    let index = AttributeVector::from_bits(&bits);
    let msg = scheme.encode_message(7);
    let symbols: Vec<Option<bool>> = bits
        .iter()
        .enumerate()
        .map(|(i, &b)| if i % 2 == 0 { Some(b) } else { None })
        .collect();
    let pattern = SearchPattern::from_symbols(&symbols);

    // Query: one token against a pool of 16 ciphertexts with a single
    // match — the exhaustive-matching regime, where almost every pair is
    // ⊥. The reference path decodes every candidate through
    // `gt_canonical`.
    let token = scheme.gen_token(&sk, &pattern, &mut rng);
    let pool: Vec<sla_hve::Ciphertext> = (0..16u64)
        .map(|i| {
            let pool_bits: Vec<bool> = if i == 0 {
                bits.clone()
            } else {
                // Flip a non-star position so the token misses.
                bits.iter().map(|b| !b).collect()
            };
            let pool_index = AttributeVector::from_bits(&pool_bits);
            let pool_msg = scheme.encode_message(i + 1);
            scheme.encrypt(&pk, &pool_index, &pool_msg, &mut rng)
        })
        .collect();

    // Each figure owns what it reads and an RNG of its own; the scheme
    // over the shared group is rebuilt per call (a reference and a width).
    let figure_rng = |k: u64| StdRng::seed_from_u64(seed ^ (0x5eed + k));
    let setup_ns = {
        let (group, mut rng) = (group.clone(), figure_rng(0));
        rounds.time(10, move || HveScheme::new(&*group, width).setup(&mut rng))
    };
    let prepare_ns = {
        let (group, pk, sk) = (group.clone(), pk.clone(), sk.clone());
        rounds.time(10, move || {
            let scheme = HveScheme::new(&*group, width);
            (
                scheme.prepare_public_key(&pk),
                scheme.prepare_secret_key(&sk),
            )
        })
    };
    let encrypt_ns = {
        let (group, index, mut rng) = (group.clone(), index.clone(), figure_rng(1));
        rounds.time(40, move || {
            HveScheme::new(&*group, width).encrypt(&pk, &index, &msg, &mut rng)
        })
    };
    let encrypt_flat_ns = {
        let (group, mut rng) = (group.clone(), figure_rng(2));
        rounds.time(40, move || {
            HveScheme::new(&*group, width).encrypt_for_user(&ppk, &index, 7, &mut rng)
        })
    };
    let gen_token_ns = {
        let (group, pattern, mut rng) = (group.clone(), pattern.clone(), figure_rng(3));
        rounds.time(40, move || {
            HveScheme::new(&*group, width).gen_token(&sk, &pattern, &mut rng)
        })
    };
    let gen_token_flat_ns = {
        let (group, mut rng) = (group.clone(), figure_rng(4));
        rounds.time(40, move || {
            HveScheme::new(&*group, width).gen_query(&psk, &pattern, &mut rng)
        })
    };
    let modulus_bits = group.params().order_bits();
    let query_decode_ns = rounds.time(10, move || {
        let scheme = HveScheme::new(&*group, width);
        pool.iter()
            .map(|ct| scheme.query_decode(&token, ct))
            .collect::<Vec<_>>()
    });

    move |t: &Timings| PhaseTimings {
        modulus_bits,
        width,
        setup_ns: t[setup_ns],
        prepare_ns: t[prepare_ns],
        encrypt_ns: t[encrypt_ns],
        encrypt_flat_ns: t[encrypt_flat_ns],
        gen_token_ns: t[gen_token_ns],
        gen_token_flat_ns: t[gen_token_flat_ns],
        query_decode_ns: t[query_decode_ns] / 16.0,
    }
}

/// Store-lifecycle timings (ns/op) for one store backend — the
/// `churn` rows of `BENCH_primitives.json`. Measured at the store seam
/// (records packed once, as the Service Provider packs them), so the
/// deltas isolate what each backend itself costs: the persistent rows
/// show the WAL append (group-commit vs per-op fsync) that durability
/// adds to mutations, and that **matching cost is unchanged** (reads
/// never touch the log).
#[derive(Debug, Clone)]
pub struct ChurnTimings {
    /// Backend label (`concurrent8`, `persistent`, `persistent_fsync`,
    /// `persistent_sharded` — the last measured under four concurrent
    /// writers).
    pub backend: &'static str,
    /// Store population during the measurement.
    pub users: usize,
    /// Re-subscribe (replace) one existing record.
    pub upsert_ns: Timing,
    /// One unsubscribe + fresh subscribe cycle.
    pub remove_insert_ns: Timing,
    /// One full-store token evaluation through the served sweep (the
    /// token prepared once, each shard's slab swept in place), per
    /// record.
    pub match_per_record_ns: Timing,
    /// Bytes a shard's columns and slab hold per stored record (the
    /// packed row plus the `user_id` and `epoch` words, by length).
    pub resident_bytes_per_record: f64,
}

/// Evaluates `token` against every record of `store` as the Service
/// Provider does: the token prepared once, then each shard's slab swept
/// in place under that shard's read lock. Returns the match count (a
/// live data dependency so the loop cannot be optimized away).
fn match_all<G: BilinearGroup>(
    store: &dyn ConcurrentSubscriptionStore,
    scheme: &HveScheme<'_, G>,
    token: &sla_hve::Token,
) -> usize {
    let query = scheme.prepare_token(token);
    let mut hits = 0;
    let mut swept = Vec::new();
    for shard in 0..store.shard_count() {
        store.read_shard(shard, &mut |records| {
            swept.clear();
            swept.resize(records.len(), false);
            scheme.match_rows(&query, records.rows(), &mut swept);
            hits += swept.iter().filter(|h| **h).count();
        });
    }
    hits
}

/// Bytes the shards' columns and slabs hold per record (see
/// [`ChurnTimings::resident_bytes_per_record`]).
fn resident_bytes_per_record(store: &dyn ConcurrentSubscriptionStore) -> f64 {
    let (mut words, mut records) = (0, 0);
    for shard in 0..store.shard_count() {
        store.read_shard(shard, &mut |shard| {
            words += shard.rows().as_limbs().len() + shard.user_ids().len() + shard.epochs().len();
            records += shard.len();
        });
    }
    (8 * words) as f64 / records.max(1) as f64
}

/// One backend's churn figures and its resident bytes per record.
type ChurnFigures = (&'static str, Figure, Figure, Figure, f64);

/// Population of every churned store.
const CHURN_USERS: u64 = 256;

/// The record a store keeps for `user_id`: `row` at epoch 0.
fn record(row: &PackedRow, user_id: u64) -> Record {
    Record {
        user_id,
        epoch: 0,
        row: row.clone(),
    }
}

/// Registers the subscription-lifecycle cost of every store backend,
/// including the persistent (WAL-backed) one under group commit and
/// under per-op fsync. Scratch directories live under the OS temp dir;
/// the returned function reads the rows from the run's timings and
/// removes the directories, which the run's figures no longer hold once
/// [`Rounds::run`] has returned.
pub fn measure_churn(
    seed: u64,
    rounds: &mut Rounds<'_>,
) -> impl FnOnce(&Timings) -> Vec<ChurnTimings> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc44c);
    let group = Rc::new(SimulatedGroup::generate(32, &mut rng));
    let scheme = HveScheme::new(&*group, 4);
    let (pk, sk) = scheme.setup(&mut rng);
    let index: AttributeVector = "1010".parse().expect("valid bits");
    let expected = scheme.encode_message(1);
    let ct = scheme.encrypt(&pk, &index, &expected, &mut rng);
    let token = Rc::new(scheme.gen_token(&sk, &"1**0".parse().expect("valid pattern"), &mut rng));
    let row = Arc::new(scheme.pack(&ct, &expected));

    let tmp_base =
        std::env::temp_dir().join(format!("sla-bench-churn-{}-{seed:x}", std::process::id()));
    let persistent = |name: &str, flush: FlushPolicy| -> Box<dyn ConcurrentSubscriptionStore> {
        let dir = tmp_base.join(name);
        Box::new(PersistentStore::open(&dir, flush).expect("scratch dir is writable"))
    };

    let backends: Vec<(&'static str, Box<dyn ConcurrentSubscriptionStore>)> = vec![
        ("concurrent8", Box::new(ConcurrentShardedStore::new(8))),
        (
            "persistent",
            persistent("grouped", FlushPolicy::Every(Duration::from_millis(5))),
        ),
        (
            "persistent_fsync",
            persistent("fsync", FlushPolicy::EveryOp),
        ),
    ];

    // A store sits idle while a round samples every other figure: its
    // rows leave the caches, and under group commit the first append
    // after an idle interval fsyncs. So every mutation sample first
    // syncs, which restarts the commit interval, then repeats its
    // mutations untimed before the timed ones ([`Rounds::time_settled`]).
    let synced = |store: &Rc<dyn ConcurrentSubscriptionStore>| {
        let store = store.clone();
        move || store.sync().expect("scratch store syncs")
    };
    let mut figures: Vec<ChurnFigures> = Vec::with_capacity(backends.len() + 1);
    for (name, store) in backends {
        for user in 0..CHURN_USERS {
            store.upsert(record(&row, user)).expect("one HVE width");
        }
        let resident = resident_bytes_per_record(store.as_ref());
        let store: Rc<dyn ConcurrentSubscriptionStore> = Rc::from(store);
        let upsert_ns = {
            let (store, row, mut cursor) = (store.clone(), row.clone(), 0);
            rounds.time_settled(256, synced(&store), move || {
                cursor = (cursor + 1) % CHURN_USERS;
                store.upsert(record(&row, cursor)) // replace path
            })
        };
        let remove_insert_ns = {
            let (store, row, mut cursor) = (store.clone(), row.clone(), 0);
            rounds.time_settled(128, synced(&store), move || {
                cursor = (cursor + 1) % CHURN_USERS;
                store.remove(cursor);
                store.upsert(record(&row, cursor))
            })
        };
        let match_ns = {
            let (group, token) = (group.clone(), token.clone());
            rounds.time(16, move || {
                match_all(store.as_ref(), &HveScheme::new(&*group, 4), &token)
            })
        };
        figures.push((name, upsert_ns, remove_insert_ns, match_ns, resident));
    }
    // The sharded-durability row: the same persistent store, but churned
    // by four writer threads at once — the per-shard WAL lanes are what
    // keeps those writers from serializing on a single log gate.
    figures.push(measure_persistent_sharded_churn(
        &tmp_base.join("sharded4w"),
        row,
        group,
        token,
        rounds,
    ));
    move |t: &Timings| {
        if tmp_base.exists() {
            std::fs::remove_dir_all(&tmp_base).expect("scratch cleanup");
        }
        figures
            .into_iter()
            .map(
                |(backend, upsert, remove_insert, matched, resident)| ChurnTimings {
                    backend,
                    users: CHURN_USERS as usize,
                    upsert_ns: t[upsert],
                    remove_insert_ns: t[remove_insert],
                    match_per_record_ns: t[matched] / CHURN_USERS as f64,
                    resident_bytes_per_record: resident,
                },
            )
            .collect()
    }
}

/// The `persistent_sharded` churn row: four writer threads drive the
/// persistent store's shared (`&self`) mutation surface concurrently,
/// each over its own user stripe so the churn spreads across the
/// durability lanes, and the full-store token evaluation is timed
/// **while the writers keep churning**. Each mutation sample is the
/// wall-clock of one four-writer pass over total ops (the throughput
/// view — per-lane group commit lets the four writers overlap their log
/// appends), and the match figure pins
/// the read-path claim that matching never touches the log.
fn measure_persistent_sharded_churn(
    dir: &std::path::Path,
    row: Arc<PackedRow>,
    group: Rc<SimulatedGroup>,
    token: Rc<sla_hve::Token>,
    rounds: &mut Rounds<'_>,
) -> ChurnFigures {
    use std::sync::atomic::{AtomicBool, Ordering};
    const WRITERS: usize = 4;
    const OPS_PER_WRITER: usize = 192;

    let store = Arc::new(
        PersistentStore::open(dir, FlushPolicy::Every(Duration::from_millis(5)))
            .expect("scratch dir is writable"),
    );
    for user in 0..CHURN_USERS {
        store.upsert(record(&row, user)).expect("one HVE width");
    }
    let resident = resident_bytes_per_record(store.as_ref());

    // Each writer walks its own residue class mod WRITERS, so no two
    // writers ever touch the same user (or, with a lane count that is a
    // multiple of WRITERS, contend on the same gate by accident).
    let four_writer_ns = |churn: &(dyn Fn(u64) + Sync)| {
        let t = Instant::now();
        std::thread::scope(|s| {
            for writer in 0..WRITERS {
                s.spawn(move || {
                    let mut user = writer as u64;
                    for _ in 0..OPS_PER_WRITER {
                        user = (user + WRITERS as u64) % CHURN_USERS;
                        churn(user);
                    }
                });
            }
        });
        t.elapsed().as_nanos() as f64 / (WRITERS * OPS_PER_WRITER) as f64
    };

    // Each mutation sample syncs, then makes its pass untimed, then
    // times it (as `Rounds::time_settled` does).
    let settled = move |store: &PersistentStore, churn: &(dyn Fn(u64) + Sync)| {
        store.sync().expect("scratch store syncs");
        four_writer_ns(churn);
        four_writer_ns(churn)
    };
    let upsert_ns = {
        let (store, row) = (store.clone(), row.clone());
        rounds.sample(move || {
            settled(&store, &|user| {
                store.upsert(record(&row, user)).expect("one HVE width");
            })
        })
    };
    let remove_insert_ns = {
        let (store, row) = (store.clone(), row.clone());
        rounds.sample(move || {
            settled(&store, &|user| {
                store.remove(user);
                store.upsert(record(&row, user)).expect("one HVE width");
            })
        })
    };

    // Churn-while-matching: per sample, the writers loop until the timed
    // match passes finish, then are signalled to stop.
    let match_ns = rounds.sample(move || {
        const SCANS: usize = 8;
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for writer in 0..WRITERS {
                let (store, row, stop) = (&store, &row, &stop);
                s.spawn(move || {
                    let mut user = writer as u64;
                    while !stop.load(Ordering::Relaxed) {
                        user = (user + WRITERS as u64) % CHURN_USERS;
                        store.upsert(record(row, user)).expect("one HVE width");
                    }
                });
            }
            let scheme = HveScheme::new(&*group, 4);
            let t = Instant::now();
            for _ in 0..SCANS {
                std::hint::black_box(match_all(store.as_ref(), &scheme, &token));
            }
            let per_scan = t.elapsed().as_nanos() as f64 / SCANS as f64;
            stop.store(true, Ordering::Relaxed);
            per_scan
        })
    });
    (
        "persistent_sharded",
        upsert_ns,
        remove_insert_ns,
        match_ns,
        resident,
    )
}

/// One whole run in one [`Rounds`]: the primitive rows for each of
/// `prime_bits`, the phase rows at `phase_bits`-bit factors for each of
/// `widths`, and the churn rows.
pub fn run(
    prime_bits: &[usize],
    phase_bits: usize,
    widths: &[usize],
    seed: u64,
) -> (Vec<PrimitiveTimings>, Vec<PhaseTimings>, Vec<ChurnTimings>) {
    let mut rounds = Rounds::default();
    let rows: Vec<_> = prime_bits
        .iter()
        .map(|&bits| measure(bits, seed, &mut rounds))
        .collect();
    let phases: Vec<_> = widths
        .iter()
        .map(|&width| measure_phases(phase_bits, width, seed, &mut rounds))
        .collect();
    let churn = measure_churn(seed, &mut rounds);
    let timings = rounds.run();
    (
        rows.iter().map(|row| row(&timings)).collect(),
        phases.iter().map(|phase| phase(&timings)).collect(),
        churn(&timings),
    )
}

/// `"name": median, "name_q1": q1, "name_q3": q3` at `decimals` places.
fn timing_json(name: &str, t: Timing, decimals: usize) -> String {
    format!(
        "\"{name}\": {:.decimals$}, \"{name}_q1\": {:.decimals$}, \"{name}_q3\": {:.decimals$}",
        t.median, t.q1, t.q3
    )
}

/// Renders the timing series as the `BENCH_primitives.json` artifact
/// (schema v13: provenance, primitive rows, per-phase HVE timings of the
/// element reference against the flat loops, and per-backend store
/// churn timings over the two store backends — including the
/// four-writer `persistent_sharded` row — with the bytes each stored
/// record takes). Every timing is its samples' median, with their first
/// and third quartiles beside it as `<name>_q1` and `<name>_q3`; the
/// samples were taken in rounds across the whole run ([`Rounds`]).
pub fn to_json(
    provenance: &Provenance,
    rows: &[PrimitiveTimings],
    phases: &[PhaseTimings],
    churn: &[ChurnTimings],
) -> String {
    let sep = |i: usize, len: usize| if i + 1 == len { "" } else { "," };
    let mut out = format!(
        "{{\n  \"schema\": \"sla-bench/primitives/v13\",\n  \"provenance\": \
         {{\"commit\": \"{}\", \"nproc\": {}, \"repetitions\": {}}},\n  \"rows\": [\n",
        provenance.commit, provenance.nproc, provenance.repetitions
    );
    for (i, r) in rows.iter().enumerate() {
        let timings = [
            timing_json("mod_mul_naive_ns", r.mod_mul_naive_ns, 1),
            timing_json("mod_mul_mont_ns", r.mod_mul_mont_ns, 1),
            timing_json("mod_pow_naive_ns", r.mod_pow_naive_ns, 1),
            timing_json("mod_pow_mont_ns", r.mod_pow_mont_ns, 1),
            timing_json("pairing_ns", r.pairing_ns, 1),
        ]
        .join(", ");
        out.push_str(&format!(
            "    {{\"modulus_bits\": {}, {timings}, \"mod_mul_speedup\": {:.2}, \
             \"mod_pow_speedup\": {:.2}}}{}\n",
            r.modulus_bits,
            r.mod_mul_speedup(),
            r.mod_pow_speedup(),
            sep(i, rows.len()),
        ));
    }
    out.push_str("  ],\n  \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let timings = [
            timing_json("setup_ns", p.setup_ns, 0),
            timing_json("prepare_ns", p.prepare_ns, 0),
            timing_json("encrypt_ns", p.encrypt_ns, 0),
            timing_json("encrypt_flat_ns", p.encrypt_flat_ns, 0),
            timing_json("gen_token_ns", p.gen_token_ns, 0),
            timing_json("gen_token_flat_ns", p.gen_token_flat_ns, 0),
            timing_json("query_decode_ns", p.query_decode_ns, 0),
        ]
        .join(", ");
        out.push_str(&format!(
            "    {{\"modulus_bits\": {}, \"width\": {}, {timings}, \
             \"encrypt_speedup\": {:.2}, \"gen_token_speedup\": {:.2}}}{}\n",
            p.modulus_bits,
            p.width,
            p.encrypt_speedup(),
            p.gen_token_speedup(),
            sep(i, phases.len()),
        ));
    }
    out.push_str("  ],\n  \"churn\": [\n");
    for (i, c) in churn.iter().enumerate() {
        let timings = [
            timing_json("upsert_ns", c.upsert_ns, 0),
            timing_json("remove_insert_ns", c.remove_insert_ns, 0),
            timing_json("match_per_record_ns", c.match_per_record_ns, 0),
        ]
        .join(", ");
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"users\": {}, {timings}, \
             \"resident_bytes_per_record\": {:.0}}}{}\n",
            c.backend,
            c.users,
            c.resident_bytes_per_record,
            sep(i, churn.len()),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A positive, finite timing whose quartiles bracket its median.
    fn assert_spread(t: Timing) {
        assert!(t.q1.is_finite() && t.q1 > 0.0 && t.q3.is_finite(), "{t:?}");
        assert!(t.q1 <= t.median && t.median <= t.q3, "{t:?}");
    }

    #[test]
    fn quartiles_are_nearest_rank() {
        let t = Timing::of(vec![50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!(
            t,
            Timing {
                q1: 20.0,
                median: 30.0,
                q3: 40.0
            }
        );
        assert_eq!((t / 10.0).median, 3.0);
    }

    #[test]
    fn rounds_interleave_the_figures() {
        // Each figure's closure records its name: after one warmup call
        // each, every round samples A, then B.
        let seen = std::cell::RefCell::new(String::new());
        let mut rounds = Rounds::default();
        let a = rounds.time(1, || seen.borrow_mut().push('A'));
        let b = rounds.time(1, || seen.borrow_mut().push('B'));
        let timings = rounds.run();
        assert_eq!(seen.into_inner(), "AB".repeat(1 + SAMPLES));
        assert_spread(timings[a]);
        assert_spread(timings[b]);
    }

    #[test]
    fn measure_produces_sane_numbers() {
        let mut rounds = Rounds::default();
        let row = measure(32, 7, &mut rounds);
        let t = row(&rounds.run());
        assert_eq!(t.modulus_bits, 64);
        for v in [
            t.mod_mul_naive_ns,
            t.mod_mul_mont_ns,
            t.mod_pow_naive_ns,
            t.mod_pow_mont_ns,
            t.pairing_ns,
        ] {
            assert_spread(v);
        }
        let provenance = Provenance {
            commit: "abc1234".into(),
            nproc: 2,
            repetitions: SAMPLES,
        };
        let json = to_json(&provenance, std::slice::from_ref(&t), &[], &[]);
        assert!(json.contains("\"schema\": \"sla-bench/primitives/v13\""));
        assert!(json.contains(
            "\"provenance\": {\"commit\": \"abc1234\", \"nproc\": 2, \"repetitions\": 5}"
        ));
        assert!(json.contains("\"modulus_bits\": 64"));
        assert!(json.contains("mod_pow_speedup"));
        assert!(json.contains(&format!(
            "\"mod_mul_naive_ns\": {:.1}, \"mod_mul_naive_ns_q1\": {:.1}, \"mod_mul_naive_ns_q3\": {:.1}",
            t.mod_mul_naive_ns.median, t.mod_mul_naive_ns.q1, t.mod_mul_naive_ns.q3
        )));
        for dropped in ["mod_pow_fixed_ns", "fixed_base_speedup"] {
            assert!(!json.contains(dropped), "{dropped} is gone since v11");
        }
    }

    #[test]
    fn measure_phases_produces_sane_numbers() {
        let mut rounds = Rounds::default();
        let phases = measure_phases(24, 8, 7, &mut rounds);
        let p = phases(&rounds.run());
        assert_eq!(p.width, 8);
        for v in [
            p.setup_ns,
            p.prepare_ns,
            p.encrypt_ns,
            p.encrypt_flat_ns,
            p.gen_token_ns,
            p.gen_token_flat_ns,
            p.query_decode_ns,
        ] {
            assert_spread(v);
        }
        let json = to_json(&Provenance::current(), &[], &[p], &[]);
        assert!(json.contains("\"phases\""));
        assert!(json.contains("gen_token_speedup"));
        for key in [
            "encrypt_flat_ns",
            "gen_token_flat_ns_q1",
            "query_decode_ns",
            "query_decode_ns_q1",
            "query_decode_ns_q3",
        ] {
            assert!(json.contains(&format!("\"{key}\": ")), "{key} missing");
        }
        for dropped in ["query_batch_ns", "query_speedup"] {
            assert!(!json.contains(dropped), "{dropped} is gone since v11");
        }
        for dropped in ["encrypt_prepared_ns", "gen_token_prepared_ns"] {
            assert!(!json.contains(dropped), "{dropped} is gone since v13");
        }
    }

    #[test]
    fn measure_churn_covers_every_backend_and_cleans_up() {
        let mut rounds = Rounds::default();
        let rows = measure_churn(7, &mut rounds);
        let churn = rows(&rounds.run());
        let names: Vec<&str> = churn.iter().map(|c| c.backend).collect();
        assert_eq!(
            names,
            vec![
                "concurrent8",
                "persistent",
                "persistent_fsync",
                "persistent_sharded"
            ]
        );
        for c in &churn {
            for t in [c.upsert_ns, c.remove_insert_ns, c.match_per_record_ns] {
                assert_spread(t);
            }
            // Width 4 over a 64-bit order: 11 one-limb operands and the
            // two column words.
            assert_eq!(c.resident_bytes_per_record, 8.0 * 13.0, "{}", c.backend);
        }
        let json = to_json(&Provenance::current(), &[], &[], &churn);
        assert!(json.contains("resident_bytes_per_record"));
        assert!(json.contains("\"churn\""));
        assert!(json.contains("persistent_fsync"));
        assert!(json.contains("persistent_sharded"));
        assert!(json.contains("\"upsert_ns_q1\": "));
        assert!(json.contains("\"match_per_record_ns_q3\": "));
        // Tmpdir hygiene: the scratch directories are gone.
        let leaked = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name().to_str().is_some_and(|n| {
                    n.starts_with(&format!("sla-bench-churn-{}", std::process::id()))
                })
            })
            .count();
        assert_eq!(leaked, 0, "scratch directories leaked");
    }
}
