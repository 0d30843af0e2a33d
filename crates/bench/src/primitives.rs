//! Primitive-operation timings: the data behind `BENCH_primitives.json`.
//!
//! Measures the modular building blocks every HVE phase bottoms out in —
//! `mod_mul`, `mod_pow` (naive division-based vs Montgomery vs fixed-base
//! table) and the simulated `pair` — plus the HVE phases themselves
//! (Setup / Encrypt / GenToken, plain and prepared), so the performance
//! trajectory of the arithmetic layer is tracked across PRs as a
//! machine-readable artifact.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_bigint::{gen_prime, BigUint, FixedBaseTable, MontgomeryCtx, Reducer};
use sla_core::{
    ConcurrentShardedStore, ConcurrentSubscriptionStore, FlushPolicy, PersistentStore,
    ShardedStore, StoredSubscription, SubscriptionStore, VecStore,
};
use sla_hve::{AttributeVector, HveScheme, SearchPattern};
use sla_pairing::{BilinearGroup, SimulatedGroup};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timings (ns/op medians) for one modulus size.
#[derive(Debug, Clone)]
pub struct PrimitiveTimings {
    /// Bit length of the composite modulus `N = P·Q`.
    pub modulus_bits: usize,
    /// `(a·b) mod N` via multiply + Knuth division.
    pub mod_mul_naive_ns: f64,
    /// `(a·b) mod N` via the Montgomery context.
    pub mod_mul_mont_ns: f64,
    /// `a^e mod N` via square-and-multiply with division per step.
    pub mod_pow_naive_ns: f64,
    /// `a^e mod N` via the windowed Montgomery ladder (what
    /// `BigUint::mod_pow` dispatches to for odd moduli).
    pub mod_pow_mont_ns: f64,
    /// `a^e mod N` via a per-base [`FixedBaseTable`] (the repeated-base
    /// regime of Setup/Encrypt/GenToken).
    pub mod_pow_fixed_ns: f64,
    /// One simulated pairing on a `SimulatedGroup` of this order (a single
    /// residue-domain product under the Montgomery representation).
    pub pairing_ns: f64,
}

impl PrimitiveTimings {
    /// Montgomery-vs-naive speedup on `mod_pow`.
    pub fn mod_pow_speedup(&self) -> f64 {
        self.mod_pow_naive_ns / self.mod_pow_mont_ns
    }

    /// Montgomery-vs-naive speedup on `mod_mul`.
    pub fn mod_mul_speedup(&self) -> f64 {
        self.mod_mul_naive_ns / self.mod_mul_mont_ns
    }

    /// Fixed-base-table-vs-generic-Montgomery speedup on `mod_pow`.
    pub fn fixed_base_speedup(&self) -> f64 {
        self.mod_pow_mont_ns / self.mod_pow_fixed_ns
    }
}

/// Lockstep batch-multiplication timings (ns **per product**, medians)
/// for one (modulus size, batch width) — the `lockstep` rows of
/// `BENCH_primitives.json`. Serial drives each product one at a time
/// through the scalar CIOS; lockstep hands the whole batch to
/// `MontgomeryCtx::mont_mul_batch`, which advances eight, then four,
/// products through interleaved u128 carry chains. Both paths are
/// byte-identical, so the delta is pure throughput.
#[derive(Debug, Clone)]
pub struct LockstepTimings {
    /// Bit length of the composite modulus `N = P·Q`.
    pub modulus_bits: usize,
    /// Number of independent products per batch call.
    pub batch: usize,
    /// ns per product, one `mont_mul` at a time.
    pub serial_ns: f64,
    /// ns per product through `mont_mul_batch`.
    pub lockstep_ns: f64,
}

impl LockstepTimings {
    /// Lockstep-vs-serial speedup per product.
    pub fn speedup(&self) -> f64 {
        self.serial_ns / self.lockstep_ns
    }
}

/// Batch widths of the `lockstep` rows: a lone product (the scalar
/// remainder path), one narrow group and one wide group.
const LOCKSTEP_BATCHES: [usize; 3] = [1, 4, 8];

/// Measures serial vs lockstep Montgomery products for a modulus with
/// `prime_bits`-bit factors at batch widths 1, 4 and 8.
pub fn measure_lockstep(prime_bits: usize, seed: u64) -> Vec<LockstepTimings> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10c5);
    let p = gen_prime(prime_bits, &mut rng);
    let q = gen_prime(prime_bits, &mut rng);
    let n = &p * &q;
    let ctx = MontgomeryCtx::new(&n).expect("N = P·Q is odd");

    // Full-width residue-domain operands, as the pairing engine holds.
    let elems: Vec<BigUint> = (1..=16u64)
        .map(|i| ctx.to_mont(&(&n - &BigUint::from_u64(i * 977 + 5))))
        .collect();

    LOCKSTEP_BATCHES
        .iter()
        .map(|&width| {
            let pairs: Vec<(&BigUint, &BigUint)> = (0..width)
                .map(|i| (&elems[i % elems.len()], &elems[(i * 5 + 3) % elems.len()]))
                .collect();
            let iters = (4_000 / width).max(500);
            let serial_ns = time_ns(iters, || {
                pairs
                    .iter()
                    .map(|(a, b)| ctx.mont_mul(a, b))
                    .collect::<Vec<_>>()
            }) / width as f64;
            let lockstep_ns = time_ns(iters, || ctx.mont_mul_batch(&pairs)) / width as f64;
            LockstepTimings {
                modulus_bits: n.bit_len(),
                batch: width,
                serial_ns,
                lockstep_ns,
            }
        })
        .collect()
}

/// Timings (ns/op medians) for the HVE phases at one (modulus, width).
#[derive(Debug, Clone)]
pub struct PhaseTimings {
    /// Bit length of the composite modulus `N = P·Q`.
    pub modulus_bits: usize,
    /// HVE width `l`.
    pub width: usize,
    /// **Setup**: one `(PK, SK)` generation.
    pub setup_ns: f64,
    /// Building the fixed-base tables for both keys (amortized once per
    /// key over every later Encrypt/GenToken).
    pub prepare_ns: f64,
    /// **Encrypt** through the plain key.
    pub encrypt_ns: f64,
    /// **Encrypt** through the prepared key's tables.
    pub encrypt_prepared_ns: f64,
    /// **GenToken** through the plain key.
    pub gen_token_ns: f64,
    /// **GenToken** through the prepared key's tables.
    pub gen_token_prepared_ns: f64,
    /// **Query** per (token, ciphertext) pair via per-pair
    /// `query_decode`: one canonical conversion per pair, match or not.
    pub query_decode_ns: f64,
    /// **QueryBatch** per pair via `query_decode_batch`: the match
    /// decision stays in the Montgomery residue domain and the canonical
    /// conversion is paid only on match (measured on a mostly
    /// non-matching pool — the exhaustive-matching regime).
    pub query_batch_ns: f64,
}

impl PhaseTimings {
    /// Prepared-vs-plain speedup on Encrypt.
    pub fn encrypt_speedup(&self) -> f64 {
        self.encrypt_ns / self.encrypt_prepared_ns
    }

    /// Prepared-vs-plain speedup on GenToken.
    pub fn gen_token_speedup(&self) -> f64 {
        self.gen_token_ns / self.gen_token_prepared_ns
    }

    /// Residue-domain-batch-vs-per-pair speedup on Query.
    pub fn query_speedup(&self) -> f64 {
        self.query_decode_ns / self.query_batch_ns
    }
}

/// Median ns/op of `f` over `iters` iterations, with warmup.
fn time_ns<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let samples = 5;
    let mut medians = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        medians.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    medians.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    medians[samples / 2]
}

/// Measures all primitives for a group whose prime factors have
/// `prime_bits` bits (modulus `N` has `2·prime_bits` bits).
pub fn measure(prime_bits: usize, seed: u64) -> PrimitiveTimings {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = gen_prime(prime_bits, &mut rng);
    let q = gen_prime(prime_bits, &mut rng);
    let n = &p * &q;
    let ctx = MontgomeryCtx::new(&n).expect("N = P·Q is odd");

    // Full-width reduced operands — group elements occupy all of [0, N).
    let a = &n - &BigUint::from_u64(12345);
    let b = &n - &BigUint::from_u64(6789);
    let e = &n - &BigUint::from_u64(2); // full-length exponent

    let reducer = Arc::new(Reducer::new(&n).expect("N > 1"));
    let table = FixedBaseTable::with_default_window(reducer, &a, n.bit_len());

    let mod_mul_naive_ns = time_ns(2_000, || a.mod_mul(&b, &n));
    let mod_mul_mont_ns = time_ns(2_000, || ctx.mod_mul(&a, &b));
    let mod_pow_naive_ns = time_ns(50, || a.mod_pow_naive(&e, &n));
    let mod_pow_mont_ns = time_ns(50, || a.mod_pow(&e, &n));
    let mod_pow_fixed_ns = time_ns(200, || table.pow(&e));

    let group = SimulatedGroup::new(sla_pairing::GroupParams::from_factors(p, q));
    let x = group.random_gp(&mut rng);
    let y = group.random_gp(&mut rng);
    let pairing_ns = time_ns(2_000, || group.pair(&x, &y));

    PrimitiveTimings {
        modulus_bits: n.bit_len(),
        mod_mul_naive_ns,
        mod_mul_mont_ns,
        mod_pow_naive_ns,
        mod_pow_mont_ns,
        mod_pow_fixed_ns,
        pairing_ns,
    }
}

/// Measures the HVE phases (plain vs prepared) for a group with
/// `prime_bits`-bit factors at HVE width `width`.
pub fn measure_phases(prime_bits: usize, width: usize, seed: u64) -> PhaseTimings {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let group = SimulatedGroup::generate(prime_bits, &mut rng);
    let scheme = HveScheme::new(&group, width);

    let setup_ns = time_ns(10, || scheme.setup(&mut rng));
    let (pk, sk) = scheme.setup(&mut rng);
    let prepare_ns = time_ns(10, || {
        (
            scheme.prepare_public_key(&pk),
            scheme.prepare_secret_key(&sk),
        )
    });
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

    let encrypt_ns = time_ns(40, || scheme.encrypt(&pk, &index, &msg, &mut rng));
    let encrypt_prepared_ns = time_ns(40, || scheme.encrypt_prepared(&ppk, &index, &msg, &mut rng));
    let gen_token_ns = time_ns(40, || scheme.gen_token(&sk, &pattern, &mut rng));
    let gen_token_prepared_ns = time_ns(40, || scheme.gen_token_prepared(&psk, &pattern, &mut rng));

    // Query: one token against a pool of 16 (ciphertext, expected
    // payload) pairs with a single match — the exhaustive-matching
    // regime, where almost every pair is ⊥. The per-pair path converts
    // every candidate out of the residue domain; the batch path decides
    // in-domain and converts on match only.
    let token = scheme.gen_token(&sk, &pattern, &mut rng);
    let pool: Vec<(sla_hve::Ciphertext, sla_pairing::GtElem)> = (0..16u64)
        .map(|i| {
            let pool_bits: Vec<bool> = if i == 0 {
                bits.clone()
            } else {
                // Flip a non-star position so the token misses.
                bits.iter().map(|b| !b).collect()
            };
            let pool_index = AttributeVector::from_bits(&pool_bits);
            let pool_msg = scheme.encode_message(i + 1);
            let ct = scheme.encrypt(&pk, &pool_index, &pool_msg, &mut rng);
            (ct, pool_msg)
        })
        .collect();
    let per_pair = pool.len() as f64;
    let query_decode_ns = time_ns(10, || {
        pool.iter()
            .map(|(ct, _)| scheme.query_decode(&token, ct))
            .collect::<Vec<_>>()
    }) / per_pair;
    let query_batch_ns = time_ns(10, || {
        scheme.query_decode_batch(&token, pool.iter().map(|(ct, msg)| (ct, msg)))
    }) / per_pair;

    PhaseTimings {
        modulus_bits: group.params().order_bits(),
        width,
        setup_ns,
        prepare_ns,
        encrypt_ns,
        encrypt_prepared_ns,
        gen_token_ns,
        gen_token_prepared_ns,
        query_decode_ns,
        query_batch_ns,
    }
}

/// Store-lifecycle timings (ns/op medians) for one store backend — the
/// `churn` rows of `BENCH_primitives.json`. Measured at the store seam
/// (pre-encrypted records), so the deltas isolate what each backend
/// itself costs: the persistent rows show the WAL append (group-commit
/// vs per-op fsync) that durability adds to mutations, and that
/// **matching cost is unchanged** (reads never touch the log).
#[derive(Debug, Clone)]
pub struct ChurnTimings {
    /// Backend label (`contiguous`, `sharded8`, `concurrent8`,
    /// `persistent`, `persistent_fsync`, `persistent_sharded` — the
    /// last measured under four concurrent writers).
    pub backend: &'static str,
    /// Store population during the measurement.
    pub users: usize,
    /// Re-subscribe (replace) one existing record.
    pub upsert_ns: f64,
    /// One unsubscribe + fresh subscribe cycle.
    pub remove_insert_ns: f64,
    /// One full-store token evaluation, per record.
    pub match_per_record_ns: f64,
}

/// A store under measurement: exclusive (`&mut self`) and concurrent
/// (`&self`) backends behind one face.
enum BenchStore {
    Exclusive(Box<dyn SubscriptionStore>),
    Concurrent(Box<dyn ConcurrentSubscriptionStore>),
}

impl BenchStore {
    fn upsert(&mut self, record: StoredSubscription) {
        match self {
            BenchStore::Exclusive(s) => {
                s.upsert(record);
            }
            BenchStore::Concurrent(s) => {
                s.upsert(record);
            }
        }
    }

    fn remove(&mut self, user_id: u64) -> bool {
        match self {
            BenchStore::Exclusive(s) => s.remove(user_id),
            BenchStore::Concurrent(s) => s.remove(user_id),
        }
    }

    /// Evaluates `token` against every stored record, returning the
    /// match count (a live data dependency so the loop cannot be
    /// optimized away).
    fn match_all<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        token: &sla_hve::Token,
    ) -> usize {
        let mut hits = 0;
        let mut scan = |records: &[StoredSubscription]| {
            for r in records {
                if scheme.match_token(token, &r.ciphertext, &r.expected) {
                    hits += 1;
                }
            }
        };
        match self {
            BenchStore::Exclusive(s) => {
                for shard in s.shards() {
                    scan(shard);
                }
            }
            BenchStore::Concurrent(s) => {
                for shard in 0..s.shard_count() {
                    s.read_shard(shard, &mut scan);
                }
            }
        }
        hits
    }
}

/// Measures the subscription-lifecycle cost of every store backend,
/// including the persistent (WAL-backed) one under group commit and
/// under per-op fsync. Scratch directories live under the OS temp dir
/// and are removed before returning.
pub fn measure_churn(seed: u64) -> Vec<ChurnTimings> {
    const USERS: u64 = 256;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc44c);
    let group = SimulatedGroup::generate(32, &mut rng);
    let scheme = HveScheme::new(&group, 4);
    let (pk, sk) = scheme.setup(&mut rng);
    let index: AttributeVector = "1010".parse().expect("valid bits");
    let expected = scheme.encode_message(1);
    let ct = scheme.encrypt(&pk, &index, &expected, &mut rng);
    let token = scheme.gen_token(&sk, &"1**0".parse().expect("valid pattern"), &mut rng);
    let record = |user_id: u64| StoredSubscription {
        user_id,
        ciphertext: ct.clone(),
        expected: expected.clone(),
        epoch: 0,
    };

    let tmp_base =
        std::env::temp_dir().join(format!("sla-bench-churn-{}-{seed:x}", std::process::id()));
    let persistent = |name: &str, flush: FlushPolicy| {
        let dir = tmp_base.join(name);
        BenchStore::Concurrent(Box::new(
            PersistentStore::open(&dir, flush).expect("scratch dir is writable"),
        ))
    };

    let backends: Vec<(&'static str, BenchStore)> = vec![
        (
            "contiguous",
            BenchStore::Exclusive(Box::new(VecStore::new())),
        ),
        (
            "sharded8",
            BenchStore::Exclusive(Box::new(ShardedStore::new(8))),
        ),
        (
            "concurrent8",
            BenchStore::Concurrent(Box::new(ConcurrentShardedStore::new(8))),
        ),
        (
            "persistent",
            persistent("grouped", FlushPolicy::Every(Duration::from_millis(5))),
        ),
        (
            "persistent_fsync",
            persistent("fsync", FlushPolicy::EveryOp),
        ),
    ];

    let mut out = Vec::with_capacity(backends.len());
    for (name, mut store) in backends {
        for user in 0..USERS {
            store.upsert(record(user));
        }
        let mut cursor = 0u64;
        let upsert_ns = time_ns(256, || {
            cursor = (cursor + 1) % USERS;
            store.upsert(record(cursor)); // replace path
        });
        let remove_insert_ns = time_ns(128, || {
            cursor = (cursor + 1) % USERS;
            store.remove(cursor);
            store.upsert(record(cursor));
        });
        let match_per_record_ns = time_ns(16, || store.match_all(&scheme, &token)) / USERS as f64;
        out.push(ChurnTimings {
            backend: name,
            users: USERS as usize,
            upsert_ns,
            remove_insert_ns,
            match_per_record_ns,
        });
        // Drop the store (flushes + joins the persistent machinery)
        // before its directory is removed below.
        drop(store);
    }
    // The sharded-durability row: the same persistent store, but churned
    // by four writer threads at once — the per-shard WAL lanes are what
    // keeps those writers from serializing on a single log gate.
    out.push(measure_persistent_sharded_churn(
        &tmp_base.join("sharded4w"),
        &record,
        &scheme,
        &token,
    ));
    if tmp_base.exists() {
        std::fs::remove_dir_all(&tmp_base).expect("scratch cleanup");
    }
    out
}

/// The `persistent_sharded` churn row: four writer threads drive the
/// persistent store's shared (`&self`) mutation surface concurrently,
/// each over its own user stripe so the churn spreads across the
/// durability lanes, and the full-store token evaluation is timed
/// **while the writers keep churning**. Mutation costs are wall-clock
/// over total ops (the throughput view — per-lane group commit lets the
/// four writers overlap their log appends), and the match figure pins
/// the read-path claim that matching never touches the log.
fn measure_persistent_sharded_churn(
    dir: &std::path::Path,
    record: &(dyn Fn(u64) -> StoredSubscription + Sync),
    scheme: &HveScheme<'_, SimulatedGroup>,
    token: &sla_hve::Token,
) -> ChurnTimings {
    use std::sync::atomic::{AtomicBool, Ordering};
    const WRITERS: usize = 4;
    const USERS: u64 = 256;
    const OPS_PER_WRITER: usize = 192;

    let store = PersistentStore::open(dir, FlushPolicy::Every(Duration::from_millis(5)))
        .expect("scratch dir is writable");
    for user in 0..USERS {
        store.upsert(record(user));
    }

    // Each writer walks its own residue class mod WRITERS, so no two
    // writers ever touch the same user (or, with a lane count that is a
    // multiple of WRITERS, contend on the same gate by accident).
    let striped = |writer: usize, churn: &dyn Fn(u64)| {
        let mut user = writer as u64;
        for _ in 0..OPS_PER_WRITER {
            user = (user + WRITERS as u64) % USERS;
            churn(user);
        }
    };
    let four_writer_ns = |churn: &(dyn Fn(u64) + Sync)| {
        let t = Instant::now();
        std::thread::scope(|s| {
            for writer in 0..WRITERS {
                s.spawn(move || striped(writer, churn));
            }
        });
        t.elapsed().as_nanos() as f64 / (WRITERS * OPS_PER_WRITER) as f64
    };

    let upsert_ns = four_writer_ns(&|user| {
        store.upsert(record(user));
    });
    let remove_insert_ns = four_writer_ns(&|user| {
        store.remove(user);
        store.upsert(record(user));
    });

    // Churn-while-matching: the writers loop until the measured match
    // pass finishes, then are signalled to stop.
    let stop = AtomicBool::new(false);
    let match_per_record_ns = std::thread::scope(|s| {
        for writer in 0..WRITERS {
            let (store, stop) = (&store, &stop);
            s.spawn(move || {
                let mut user = writer as u64;
                while !stop.load(Ordering::Relaxed) {
                    user = (user + WRITERS as u64) % USERS;
                    store.upsert(record(user));
                }
            });
        }
        let per_scan = time_ns(8, || {
            let mut hits = 0usize;
            let mut scan = |records: &[StoredSubscription]| {
                for r in records {
                    if scheme.match_token(token, &r.ciphertext, &r.expected) {
                        hits += 1;
                    }
                }
            };
            for shard in 0..store.shard_count() {
                store.read_shard(shard, &mut scan);
            }
            hits
        });
        stop.store(true, Ordering::Relaxed);
        per_scan / USERS as f64
    });
    drop(store);

    ChurnTimings {
        backend: "persistent_sharded",
        users: USERS as usize,
        upsert_ns,
        remove_insert_ns,
        match_per_record_ns,
    }
}

/// Renders the timing series as the `BENCH_primitives.json` artifact
/// (schema v7: primitive rows, per-phase HVE timings, per-backend store
/// churn timings — including the four-writer `persistent_sharded` row —
/// and serial-vs-lockstep product timings).
pub fn to_json(
    rows: &[PrimitiveTimings],
    phases: &[PhaseTimings],
    churn: &[ChurnTimings],
    lockstep: &[LockstepTimings],
) -> String {
    let mut out = String::from("{\n  \"schema\": \"sla-bench/primitives/v7\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"modulus_bits\": {}, \"mod_mul_naive_ns\": {:.1}, \"mod_mul_mont_ns\": {:.1}, \
             \"mod_pow_naive_ns\": {:.1}, \"mod_pow_mont_ns\": {:.1}, \
             \"mod_pow_fixed_ns\": {:.1}, \"pairing_ns\": {:.1}, \
             \"mod_mul_speedup\": {:.2}, \"mod_pow_speedup\": {:.2}, \
             \"fixed_base_speedup\": {:.2}}}{}\n",
            r.modulus_bits,
            r.mod_mul_naive_ns,
            r.mod_mul_mont_ns,
            r.mod_pow_naive_ns,
            r.mod_pow_mont_ns,
            r.mod_pow_fixed_ns,
            r.pairing_ns,
            r.mod_mul_speedup(),
            r.mod_pow_speedup(),
            r.fixed_base_speedup(),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"modulus_bits\": {}, \"width\": {}, \"setup_ns\": {:.0}, \
             \"prepare_ns\": {:.0}, \"encrypt_ns\": {:.0}, \"encrypt_prepared_ns\": {:.0}, \
             \"gen_token_ns\": {:.0}, \"gen_token_prepared_ns\": {:.0}, \
             \"query_decode_ns\": {:.0}, \"query_batch_ns\": {:.0}, \
             \"encrypt_speedup\": {:.2}, \"gen_token_speedup\": {:.2}, \
             \"query_speedup\": {:.2}}}{}\n",
            p.modulus_bits,
            p.width,
            p.setup_ns,
            p.prepare_ns,
            p.encrypt_ns,
            p.encrypt_prepared_ns,
            p.gen_token_ns,
            p.gen_token_prepared_ns,
            p.query_decode_ns,
            p.query_batch_ns,
            p.encrypt_speedup(),
            p.gen_token_speedup(),
            p.query_speedup(),
            if i + 1 == phases.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"churn\": [\n");
    for (i, c) in churn.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"users\": {}, \"upsert_ns\": {:.0}, \
             \"remove_insert_ns\": {:.0}, \"match_per_record_ns\": {:.0}}}{}\n",
            c.backend,
            c.users,
            c.upsert_ns,
            c.remove_insert_ns,
            c.match_per_record_ns,
            if i + 1 == churn.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"lockstep\": [\n");
    for (i, l) in lockstep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"modulus_bits\": {}, \"batch\": {}, \
             \"serial_ns\": {:.1}, \"lockstep_ns\": {:.1}, \"speedup\": {:.2}}}{}\n",
            l.modulus_bits,
            l.batch,
            l.serial_ns,
            l.lockstep_ns,
            l.speedup(),
            if i + 1 == lockstep.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_sane_numbers() {
        let t = measure(32, 7);
        assert_eq!(t.modulus_bits, 64);
        for v in [
            t.mod_mul_naive_ns,
            t.mod_mul_mont_ns,
            t.mod_pow_naive_ns,
            t.mod_pow_mont_ns,
            t.mod_pow_fixed_ns,
            t.pairing_ns,
        ] {
            assert!(v.is_finite() && v > 0.0);
        }
        let json = to_json(&[t], &[], &[], &[]);
        assert!(json.contains("\"schema\": \"sla-bench/primitives/v7\""));
        assert!(json.contains("\"modulus_bits\": 64"));
        assert!(json.contains("fixed_base_speedup"));
    }

    #[test]
    fn measure_lockstep_produces_sane_rows() {
        let rows = measure_lockstep(32, 7);
        let batches: Vec<usize> = rows.iter().map(|l| l.batch).collect();
        assert_eq!(batches, vec![1, 4, 8]);
        for l in &rows {
            assert_eq!(l.modulus_bits, 64);
            assert!(l.serial_ns.is_finite() && l.serial_ns > 0.0);
            assert!(l.lockstep_ns.is_finite() && l.lockstep_ns > 0.0);
        }
        let json = to_json(&[], &[], &[], &rows);
        assert!(json.contains("\"lockstep\""));
        assert!(json.contains("\"batch\": 8"));
    }

    #[test]
    fn measure_phases_produces_sane_numbers() {
        let p = measure_phases(24, 8, 7);
        assert_eq!(p.width, 8);
        for v in [
            p.setup_ns,
            p.prepare_ns,
            p.encrypt_ns,
            p.encrypt_prepared_ns,
            p.gen_token_ns,
            p.gen_token_prepared_ns,
            p.query_decode_ns,
            p.query_batch_ns,
        ] {
            assert!(v.is_finite() && v > 0.0);
        }
        let json = to_json(&[], &[p], &[], &[]);
        assert!(json.contains("\"phases\""));
        assert!(json.contains("gen_token_speedup"));
        assert!(json.contains("query_batch_ns"));
        assert!(json.contains("query_speedup"));
    }

    #[test]
    fn measure_churn_covers_every_backend_and_cleans_up() {
        let churn = measure_churn(7);
        let names: Vec<&str> = churn.iter().map(|c| c.backend).collect();
        assert_eq!(
            names,
            vec![
                "contiguous",
                "sharded8",
                "concurrent8",
                "persistent",
                "persistent_fsync",
                "persistent_sharded"
            ]
        );
        for c in &churn {
            assert!(
                c.upsert_ns > 0.0 && c.remove_insert_ns > 0.0 && c.match_per_record_ns > 0.0,
                "{}: non-positive timing",
                c.backend
            );
        }
        let json = to_json(&[], &[], &churn, &[]);
        assert!(json.contains("\"churn\""));
        assert!(json.contains("persistent_fsync"));
        assert!(json.contains("persistent_sharded"));
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
