//! The three parties of the system model (§2.2).

use crate::convert::{codeword_to_pattern, index_to_attribute};
use crate::error::{SlaError, SlaResult};
use crate::store::{
    ConcurrentSubscriptionStore, DurabilityLaneStats, StoreBackend, StoreStats, UpsertOutcome,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sla_encoding::CellCodebook;
use sla_hve::{
    Ciphertext, HveScheme, PreparedPublicKey, PreparedSecretKey, PublicKey, RegenStats, SecretKey,
    Token, TokenCache,
};
use sla_pairing::{BigUint, BilinearGroup, PreparedQuery};
use sla_persist::Record;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The Trusted Authority: holds the HVE secret key and the codebook's
/// coding tree; issues minimized search tokens for alert zones. "The TA
/// does not have access to user locations" — it only ever sees cell sets
/// supplied by the alert source.
///
/// After [`TrustedAuthority::prepare`] the TA also holds fixed-base tables
/// over its key material, so every token of every alert reuses the same
/// per-base precomputation.
#[derive(Debug)]
pub struct TrustedAuthority {
    /// The secret key, in exactly one state: plain after construction,
    /// table-backed after [`Self::prepare`] (the prepared form embeds the
    /// key, so nothing is stored twice).
    key: TaKey,
    codebook: CellCodebook,
}

/// The TA's key-material state.
#[derive(Debug)]
enum TaKey {
    Plain(SecretKey),
    Prepared(Box<PreparedSecretKey>),
}

impl TaKey {
    fn secret_key(&self) -> &SecretKey {
        match self {
            TaKey::Plain(sk) => sk,
            TaKey::Prepared(psk) => psk.secret_key(),
        }
    }
}

impl TrustedAuthority {
    /// Creates the TA from setup artifacts;
    /// `Err(SlaError::WidthMismatch)` when the key and codebook widths
    /// disagree.
    pub fn new(sk: SecretKey, codebook: CellCodebook) -> SlaResult<Self> {
        if sk.width() != codebook.width_bits() {
            return Err(SlaError::WidthMismatch {
                expected: codebook.width_bits(),
                actual: sk.width(),
            });
        }
        Ok(TrustedAuthority {
            key: TaKey::Plain(sk),
            codebook,
        })
    }

    /// Builds the secret key's fixed-base tables; subsequent
    /// [`Self::issue_tokens`] calls route through them (same operations
    /// and outputs, lower wall-clock).
    pub fn prepare<G: BilinearGroup>(&mut self, scheme: &HveScheme<'_, G>) {
        self.key = TaKey::Prepared(Box::new(scheme.prepare_secret_key(self.key.secret_key())));
    }

    /// The codebook (public: users need the indexes).
    pub fn codebook(&self) -> &CellCodebook {
        &self.codebook
    }

    /// Issues the minimized token set for an alert zone (Fig. 3's
    /// "minimization algorithm" + token encryption), through the prepared
    /// key tables when [`Self::prepare`] has run.
    ///
    /// With a prepared key the whole set is generated through
    /// [`HveScheme::gen_token_prepared_batch`] — byte-identical to
    /// per-token generation against the same RNG, with identical
    /// operation counts.
    ///
    /// `Err(SlaError::CellOutOfRange)` on alert cells outside the grid.
    pub fn issue_tokens<G: BilinearGroup, R: Rng>(
        &self,
        scheme: &HveScheme<'_, G>,
        alert_cells: &[usize],
        rng: &mut R,
    ) -> SlaResult<Vec<Token>> {
        let patterns: Vec<_> = self
            .codebook
            .try_tokens_for(alert_cells)?
            .iter()
            .map(codeword_to_pattern)
            .collect();
        match &self.key {
            TaKey::Prepared(psk) => {
                let refs: Vec<_> = patterns.iter().collect();
                Ok(scheme.gen_token_prepared_batch(psk, &refs, rng))
            }
            TaKey::Plain(sk) => Ok(patterns
                .iter()
                .map(|pattern| scheme.gen_token(sk, pattern, rng))
                .collect()),
        }
    }

    /// Incremental variant of [`Self::issue_tokens`] for dynamic alert
    /// zones: minimizes the zone to its pattern set, then serves it from
    /// `cache` — only patterns that entered since the previous epoch are
    /// freshly generated (batched through
    /// [`HveScheme::gen_token_prepared_batch`] on a prepared key), and
    /// patterns that exited are evicted. Tokens for unchanged patterns
    /// are reused, which leaves notified sets and pairing counts
    /// identical to a full regeneration (matching depends only on the
    /// pattern, never on token randomness).
    ///
    /// `Err(SlaError::CellOutOfRange)` on alert cells outside the grid.
    pub fn issue_tokens_cached<G: BilinearGroup, R: Rng>(
        &self,
        scheme: &HveScheme<'_, G>,
        cache: &mut TokenCache,
        alert_cells: &[usize],
        rng: &mut R,
    ) -> SlaResult<(Vec<Token>, RegenStats)> {
        let patterns: Vec<_> = self
            .codebook
            .try_tokens_for(alert_cells)?
            .iter()
            .map(codeword_to_pattern)
            .collect();
        Ok(match &self.key {
            TaKey::Prepared(psk) => scheme.regen_tokens_prepared(psk, cache, &patterns, rng),
            TaKey::Plain(sk) => scheme.regen_tokens(sk, cache, &patterns, rng),
        })
    }

    /// Analytic pairing cost of an alert against `n_ciphertexts`
    /// ciphertexts — what the SP *will* spend evaluating the tokens.
    /// `Err(SlaError::CellOutOfRange)` on alert cells outside the grid.
    pub fn analytic_pairing_cost(
        &self,
        alert_cells: &[usize],
        n_ciphertexts: u64,
    ) -> SlaResult<u64> {
        let tokens = self.codebook.try_tokens_for(alert_cells)?;
        Ok(sla_encoding::minimize::pairing_cost(&tokens, n_ciphertexts))
    }
}

/// A mobile user: knows its own cell, encrypts the cell's index under the
/// public key, and submits the ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MobileUser {
    /// Application-level identifier (also the HVE message payload, so a
    /// successful match reveals *whom* to notify and nothing else).
    pub id: u64,
    /// Current grid cell.
    pub cell: usize,
}

impl MobileUser {
    /// Creates a user at a cell.
    pub fn new(id: u64, cell: usize) -> Self {
        MobileUser { id, cell }
    }

    /// Encrypts the user's location update (Fig. 1: users A and B encrypt
    /// their indexes with PK). Errors on cells outside the codebook and
    /// on ids outside the HVE message domain.
    pub fn encrypt_update<G: BilinearGroup, R: Rng>(
        &self,
        scheme: &HveScheme<'_, G>,
        pk: &PublicKey,
        codebook: &CellCodebook,
        rng: &mut R,
    ) -> SlaResult<Ciphertext> {
        let (attr, msg) = self.update_parts(scheme, codebook)?;
        Ok(scheme.encrypt(pk, &attr, &msg, rng))
    }

    /// [`Self::encrypt_update`] through a prepared public key — identical
    /// output, with the fixed-base tables amortized across all users
    /// encrypting under the same key.
    pub fn encrypt_update_prepared<G: BilinearGroup, R: Rng>(
        &self,
        scheme: &HveScheme<'_, G>,
        ppk: &PreparedPublicKey,
        codebook: &CellCodebook,
        rng: &mut R,
    ) -> SlaResult<Ciphertext> {
        let (attr, msg) = self.update_parts(scheme, codebook)?;
        Ok(scheme.encrypt_prepared(ppk, &attr, &msg, rng))
    }

    /// Validated attribute/message pair shared by both encrypt paths.
    fn update_parts<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        codebook: &CellCodebook,
    ) -> SlaResult<(sla_hve::AttributeVector, sla_pairing::GtElem)> {
        if self.cell >= codebook.n_cells() {
            return Err(SlaError::CellOutOfRange {
                cell: self.cell,
                n_cells: codebook.n_cells(),
            });
        }
        let attr = index_to_attribute(codebook.index_of(self.cell));
        let msg = scheme.try_encode_message(self.id)?;
        Ok((attr, msg))
    }
}

/// A location update as submitted to the SP: the user's id (routing
/// metadata) and the opaque ciphertext.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Subscription {
    /// Routing identifier (who to push the notification to).
    pub user_id: u64,
    /// The encrypted location update.
    pub ciphertext: Ciphertext,
}

/// One cheap serving-plane snapshot of a [`ServiceProvider`]: the store
/// layout and lifecycle counters plus the epoch a durable backend
/// recovered at open. Assembled entirely from atomics through
/// [`ServiceProvider::service_stats`] (`&self`, no write lock), so a
/// `stats` RPC never stalls matching or churn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Store layout and lifecycle counters.
    pub store: StoreStats,
    /// The epoch recovered from a durable directory at open (`None` on
    /// volatile backends and fresh directories).
    pub recovered_epoch: Option<u64>,
    /// Per-lane durability stats (WAL generation and ops since the last
    /// snapshot for every durability lane, in shard order). Empty on
    /// volatile backends. Read from per-lane atomics — never a lane
    /// lock — so the snapshot stays wait-free.
    pub durability_lanes: Vec<DurabilityLaneStats>,
    /// Lifetime count of alert tokens freshly generated by the tracked
    /// (incremental) alert path — cache misses; cache hits cost no group
    /// operations and are not counted here.
    pub tokens_regenerated: u64,
    /// Lifetime count of cells that entered a tracked alert zone
    /// relative to the previous epoch of the same tracker.
    pub cells_entered: u64,
    /// Lifetime count of cells that exited a tracked alert zone
    /// relative to the previous epoch of the same tracker.
    pub cells_exited: u64,
}

/// What an exhaustive match of one alert's tokens over the store found,
/// and the pairings its sweeps performed. The sweeps count their own
/// pairings, so the count stays exact while other alerts or subscribes
/// run on the same engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlertMatch {
    /// Users whose ciphertext matched at least one token, in store order.
    pub notified: Vec<u64>,
    /// Pairings evaluated: `Σ_tokens (1 + 2·|J|)` per ciphertext swept.
    pub pairings: u64,
}

impl FromIterator<AlertMatch> for AlertMatch {
    /// Concatenates the notified ids of `parts` in order and sums their
    /// pairings.
    fn from_iter<I: IntoIterator<Item = AlertMatch>>(parts: I) -> Self {
        let mut all = AlertMatch::default();
        for part in parts {
            all.notified.extend(part.notified);
            all.pairings += part.pairings;
        }
        all
    }
}

/// The Service Provider: stores encrypted updates, evaluates tokens, and
/// notifies matched users. Learns only "user u is inside the alert zone" /
/// "user u is not" — nothing else (§6).
///
/// ## Lifecycle
///
/// The store holds **one ciphertext per user**: [`Self::upsert`] replaces
/// on re-subscription (a user who moves stops matching alerts on the old
/// cell), [`Self::unsubscribe`] removes, and [`Self::advance_epoch`]
/// evicts subscriptions that have not been refreshed within the
/// configured TTL. [`Self::stats`] snapshots the store and its lifetime
/// counters.
///
/// ## Matching
///
/// [`Self::match_alert`] evaluates every token against every stored
/// ciphertext, one whole shard at a time, on the calling thread. Each
/// stored record is a packed row of canonical logs that carries its
/// expected payload, and each token's keys are resolved to Montgomery
/// residues once per alert, so a pairing is one CIOS pass of a stored
/// operand against a key, read in place from the shard's slab, and the
/// decision is one comparison — zero canonical conversions and zero
/// allocations per (token, ciphertext) pair (see
/// `HveScheme::match_rows`).
///
/// ## Concurrency
///
/// Every lifecycle and matching call takes `&self`, so writer threads
/// can churn the store **while** an alert is matched: matching holds
/// one shard's read lock at a time, mutation one shard's write lock —
/// never more than one lock per operation, so no interleaving can
/// deadlock (see the [`ConcurrentSubscriptionStore`] consistency model
/// for what the notified set means under concurrent churn).
#[derive(Debug)]
pub struct ServiceProvider {
    store: Box<dyn ConcurrentSubscriptionStore>,
    /// The service epoch — atomic so [`Self::advance_epoch`] can advance
    /// it through `&self` while matching and churn are running.
    epoch: AtomicU64,
    ttl_epochs: Option<u64>,
    /// HVE width pinned by the first accepted ciphertext; every later
    /// upsert and every token must agree. A `OnceLock` so concurrent
    /// first upserts race safely (one pins, the others validate).
    width: OnceLock<usize>,
    /// Order of the group the store's rows were brought to, pinned the
    /// first time an upsert or an alert brings a scheme; every later
    /// scheme must be over the same group. Initializing it fits the
    /// store (see [`ConcurrentSubscriptionStore::fit_rows`]) while other
    /// first callers wait.
    order: OnceLock<BigUint>,
    inserted: AtomicU64,
    replaced: AtomicU64,
    unsubscribed: AtomicU64,
    evicted: AtomicU64,
    tokens_regenerated: AtomicU64,
    cells_entered: AtomicU64,
    cells_exited: AtomicU64,
}

impl Default for ServiceProvider {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceProvider {
    /// An SP over an empty `ConcurrentSharded { shards: 8 }` store, with
    /// no TTL eviction.
    pub fn new() -> Self {
        Self::with_backend(StoreBackend::default(), None)
            .expect("a volatile sharded store is always constructible")
    }

    /// An SP over the chosen store backend;
    /// `ttl_epochs = Some(t)` evicts subscriptions not refreshed within
    /// `t` epochs. `Err(SlaError::ZeroShardCount)` for a zero-shard
    /// sharded backend; `Err(SlaError::Storage)` /
    /// `Err(SlaError::Corrupt)` when the persistent backend cannot open
    /// or recover its directory.
    pub fn with_backend(backend: StoreBackend, ttl_epochs: Option<u64>) -> SlaResult<Self> {
        let store = backend.build()?;
        // A durable backend resumes at its recovered epoch, so TTL
        // arithmetic and new upsert stamps continue where the previous
        // process stopped; volatile backends start at 0.
        let epoch = store.recovered_epoch().unwrap_or(0);
        Ok(ServiceProvider {
            store,
            epoch: AtomicU64::new(epoch),
            ttl_epochs,
            width: OnceLock::new(),
            order: OnceLock::new(),
            inserted: AtomicU64::new(0),
            replaced: AtomicU64::new(0),
            unsubscribed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            tokens_regenerated: AtomicU64::new(0),
            cells_entered: AtomicU64::new(0),
            cells_exited: AtomicU64::new(0),
        })
    }

    /// Records one tracked-alert regeneration pass (atomics through
    /// `&self`, like the churn counters): `generated` fresh tokens and
    /// the zone's cell delta against the tracker's previous epoch.
    pub(crate) fn note_regen(&self, generated: u64, entered: u64, exited: u64) {
        self.tokens_regenerated
            .fetch_add(generated, Ordering::Relaxed);
        self.cells_entered.fetch_add(entered, Ordering::Relaxed);
        self.cells_exited.fetch_add(exited, Ordering::Relaxed);
    }

    /// Number of stored ciphertexts (one per live user). Exact when
    /// quiescent; may transiently lag under concurrent churn.
    pub fn n_subscriptions(&self) -> usize {
        self.store.len()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Snapshot of the store layout and lifecycle counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            backend: self.store.backend_name(),
            shards: self.store.shard_count(),
            subscriptions: self.store.len(),
            epoch: self.epoch(),
            ttl_epochs: self.ttl_epochs,
            inserted: self.inserted.load(Ordering::Relaxed),
            replaced: self.replaced.load(Ordering::Relaxed),
            unsubscribed: self.unsubscribed.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// The epoch a durable backend recovered from its directory at open,
    /// `None` on volatile backends and on fresh directories.
    pub fn recovered_epoch(&self) -> Option<u64> {
        self.store.recovered_epoch()
    }

    /// One-call serving snapshot: [`Self::stats`] plus the recovered
    /// epoch. Everything here reads atomics (store length included) —
    /// **no shard write lock is taken**, so a `stats` RPC can be answered
    /// while matching and churn are running without perturbing either.
    pub fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            store: self.stats(),
            recovered_epoch: self.recovered_epoch(),
            durability_lanes: self.store.durability_lanes(),
            tokens_regenerated: self.tokens_regenerated.load(Ordering::Relaxed),
            cells_entered: self.cells_entered.load(Ordering::Relaxed),
            cells_exited: self.cells_exited.load(Ordering::Relaxed),
        }
    }

    /// Every stored `(user_id, epoch)` pair, sorted — a cheap
    /// content fingerprint for diagnostics and the cross-backend
    /// equivalence tests (ciphertexts are deliberately not exposed).
    pub fn subscription_epochs(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.store.len());
        for shard in 0..self.store.shard_count() {
            self.store.read_shard(shard, &mut |records| {
                out.extend(
                    records
                        .user_ids()
                        .iter()
                        .copied()
                        .zip(records.epochs().iter().copied()),
                );
            });
        }
        out.sort_unstable();
        out
    }

    /// Upsert validation: width agreement with the scheme and with
    /// previously pinned material, then assembly of the stored record
    /// (the ciphertext and its expected payload packed for the scheme's
    /// group, and the epoch stamp).
    fn validated_record<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        subscription: Subscription,
    ) -> SlaResult<Record> {
        let ct_width = subscription.ciphertext.width();
        if ct_width != scheme.width() {
            return Err(SlaError::WidthMismatch {
                expected: scheme.width(),
                actual: ct_width,
            });
        }
        if let Some(&width) = self.width.get() {
            if width != ct_width {
                return Err(SlaError::WidthMismatch {
                    expected: width,
                    actual: ct_width,
                });
            }
        }
        let row = scheme.pack_for_user(&subscription.ciphertext, subscription.user_id)?;
        // Pin only after the last fallible step, so a *rejected* upsert
        // (e.g. MessageOutOfDomain) leaves the width unpinned — exactly
        // the pre-concurrency behavior. Concurrent first upserts race
        // safely: one initializes, the others validate against it.
        let pinned = *self.width.get_or_init(|| ct_width);
        if pinned != ct_width {
            return Err(SlaError::WidthMismatch {
                expected: pinned,
                actual: ct_width,
            });
        }
        Ok(Record {
            user_id: subscription.user_id,
            epoch: self.epoch(),
            row,
        })
    }

    /// Pins the group the store's rows belong to the first time a
    /// scheme is seen, bringing every stored row to it (rows recovered
    /// from a durable directory arrive at the width of their widest log);
    /// `Err(SlaError::GroupMismatch)` for a scheme over another group.
    fn pin_group<G: BilinearGroup>(&self, scheme: &HveScheme<'_, G>) -> SlaResult<()> {
        let order = scheme.group().order();
        let pinned = self.order.get_or_init(|| {
            self.store.fit_rows(order);
            order.clone()
        });
        if pinned != order {
            return Err(SlaError::GroupMismatch {
                expected_bits: pinned.bit_len(),
                actual_bits: order.bit_len(),
            });
        }
        Ok(())
    }

    /// Bumps the lifetime counter matching an upsert outcome.
    fn note_upsert(&self, outcome: UpsertOutcome) {
        match outcome {
            UpsertOutcome::Inserted => self.inserted.fetch_add(1, Ordering::Relaxed),
            UpsertOutcome::Replaced => self.replaced.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Accepts (or refreshes) a user's encrypted location update: a
    /// re-subscribing user's previous ciphertext is **replaced**, so the
    /// old location stops matching alerts. The record is stamped with the
    /// current epoch, and the ciphertext is packed with its expected
    /// payload `gt^{id+1}` into one row of canonical limbs
    /// ([`HveScheme::pack_for_user`]), which the matcher sweeps in place.
    /// Takes only the target shard's write lock, so writer threads can
    /// call it while an alert is matched.
    ///
    /// Errors: `WidthMismatch` when the ciphertext disagrees with the
    /// scheme or with previously stored material; `MessageOutOfDomain`
    /// when the user id cannot serve as an HVE payload; `GroupMismatch`
    /// when the scheme's group is not the one the store holds rows of.
    pub fn upsert<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        subscription: Subscription,
    ) -> SlaResult<UpsertOutcome> {
        self.pin_group(scheme)?;
        let record = self.validated_record(scheme, subscription)?;
        let outcome = self.store.upsert(record)?;
        self.note_upsert(outcome);
        Ok(outcome)
    }

    /// Former name of [`Self::upsert`].
    #[doc(hidden)]
    pub fn upsert_shared<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        subscription: Subscription,
    ) -> SlaResult<UpsertOutcome> {
        self.upsert(scheme, subscription)
    }

    /// Removes a user's subscription (target shard's write lock);
    /// `Err(SlaError::UnknownUser)` when none is stored.
    pub fn unsubscribe(&self, user_id: u64) -> SlaResult<()> {
        if self.store.remove(user_id) {
            self.unsubscribed.fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            Err(SlaError::UnknownUser { user_id })
        }
    }

    /// Former name of [`Self::unsubscribe`].
    #[doc(hidden)]
    pub fn unsubscribe_shared(&self, user_id: u64) -> SlaResult<()> {
        self.unsubscribe(user_id)
    }

    /// The TTL retention bound for `new_epoch`, if eviction applies.
    fn ttl_min_epoch(&self, new_epoch: u64) -> Option<u64> {
        let ttl = self.ttl_epochs?;
        new_epoch.checked_sub(ttl).map(|e| e + 1)
    }

    /// Advances the service epoch and, when a TTL is configured, evicts
    /// every subscription whose last upsert is `ttl_epochs` or more
    /// epochs old (a record upserted at epoch `e` with TTL `t` is evicted
    /// when the epoch reaches `e + t` — equivalently, the
    /// `epoch >= min_epoch` retain bound is the contract: a record
    /// *exactly* `ttl_epochs` old is dropped). Returns how many were
    /// evicted.
    ///
    /// The epoch and stats plane is atomic and eviction locks one shard
    /// at a time, exactly like a writer, so this can overlap churn and
    /// matching. A durable backend logs the advance (and any eviction),
    /// so a reopened store resumes at this epoch.
    pub fn advance_epoch(&self) -> usize {
        let new_epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.store.note_epoch(new_epoch);
        let Some(min_epoch) = self.ttl_min_epoch(new_epoch) else {
            return 0;
        };
        let evicted = self.store.evict_before(min_epoch);
        self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Flushes a durable store backend to stable storage, surfacing any
    /// deferred write error (`SlaError::Storage` / `SlaError::Corrupt`).
    /// On volatile backends this trivially succeeds — subscriptions are
    /// exactly as durable as the process.
    pub fn sync(&self) -> SlaResult<()> {
        self.store.sync()
    }

    /// Validates an alert's token set against the system width before any
    /// pairing is evaluated, so the matching loops below cannot panic on
    /// user-supplied material.
    fn validate_tokens<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
    ) -> SlaResult<()> {
        if let Some(&width) = self.width.get() {
            if width != scheme.width() {
                return Err(SlaError::WidthMismatch {
                    expected: width,
                    actual: scheme.width(),
                });
            }
        }
        for token in tokens {
            if token.pattern().len() != scheme.width() {
                return Err(SlaError::WidthMismatch {
                    expected: scheme.width(),
                    actual: token.pattern().len(),
                });
            }
        }
        Ok(())
    }

    /// The served matcher: evaluates *every* (token, ciphertext) pair —
    /// the worst-case evaluation the paper's cost model counts
    /// (`Σ_tokens (1+2·|J|) · n_ciphertexts`) — and returns who matched
    /// and the pairings its sweeps performed. The engine's shared
    /// counters advance by the same amount. Each token's keys are
    /// resolved once per alert ([`HveScheme::prepare_token`]), not once
    /// per shard.
    ///
    /// The shards are swept one after another on the calling thread, not
    /// fanned out over threads: on a shared two-vCPU host a fan-out's
    /// speed-up swings between none and 2× with the host's scheduling,
    /// which makes alert latency unrepeatable, and writers would wait on
    /// several read-locked shards at once.
    ///
    /// Errors: `WidthMismatch` when a token, the scheme or a shard's
    /// stored rows disagree on the HVE width; `GroupMismatch` when the
    /// scheme's group is not the one the store holds rows of.
    pub fn match_alert<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
    ) -> SlaResult<AlertMatch> {
        self.validate_tokens(scheme, tokens)?;
        self.pin_group(scheme)?;
        let queries: Vec<PreparedQuery<'_>> =
            tokens.iter().map(|t| scheme.prepare_token(t)).collect();
        (0..self.store.shard_count())
            .map(|shard| self.match_shard(shard, scheme, &queries))
            .collect()
    }

    /// Exhaustively matches one whole shard under its read lock, sweeping
    /// its slab of rows in place.
    ///
    /// Evaluation is **token-outer**: each prepared token sweeps every
    /// row of the shard in one [`HveScheme::match_rows`] (the engine's
    /// fused query check), and per-record hits are OR-accumulated across
    /// tokens. Notified ids are pushed in record order, and the pairings
    /// are the sum of what the sweeps recorded.
    fn match_shard<G: BilinearGroup>(
        &self,
        shard: usize,
        scheme: &HveScheme<'_, G>,
        queries: &[PreparedQuery<'_>],
    ) -> SlaResult<AlertMatch> {
        let mut found = Ok(AlertMatch::default());
        self.store.read_shard(shard, &mut |records| {
            if records.is_empty() {
                return;
            }
            let rows = records.rows();
            if rows.shape().width != scheme.width() {
                found = Err(SlaError::WidthMismatch {
                    expected: scheme.width(),
                    actual: rows.shape().width,
                });
                return;
            }
            let mut hit = vec![false; records.len()];
            let mut swept = vec![false; records.len()];
            let mut pairings = 0;
            for query in queries {
                pairings += scheme.match_rows(query, rows, &mut swept).pairings;
                for (h, s) in hit.iter_mut().zip(&swept) {
                    *h |= *s;
                }
            }
            found = Ok(AlertMatch {
                notified: records
                    .user_ids()
                    .iter()
                    .zip(hit)
                    .filter_map(|(id, h)| h.then_some(*id))
                    .collect(),
                pairings,
            });
        });
        found
    }

    /// [`Self::match_alert`] returning only the notified ids, under the
    /// name the benchmark's trace calls.
    #[doc(hidden)]
    pub fn match_alert_exhaustive<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
    ) -> SlaResult<Vec<u64>> {
        self.match_alert(scheme, tokens).map(|m| m.notified)
    }

    /// [`Self::match_alert`] returning only the notified ids, under the
    /// name the benchmark's trace calls; `chunk_size` is ignored.
    #[doc(hidden)]
    pub fn process_alert_batch<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
        _chunk_size: usize,
    ) -> SlaResult<Vec<u64>> {
        self.match_alert(scheme, tokens).map(|m| m.notified)
    }

    /// A chunk size for `process_alert_batch`, which ignores it.
    #[doc(hidden)]
    pub fn default_batch_chunk_size(&self) -> usize {
        self.store.len().max(1)
    }
}
