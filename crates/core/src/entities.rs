//! The three parties of the system model (§2.2).

use crate::convert::{codeword_to_pattern, index_to_attribute};
use crate::error::{SlaError, SlaResult};
use crate::store::{
    ConcurrentSubscriptionStore, DurabilityLaneStats, StoreBackend, StoreHandle, StoreStats,
    StoredSubscription, UpsertOutcome,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sla_encoding::CellCodebook;
use sla_hve::{
    Ciphertext, HveScheme, PreparedPublicKey, PreparedSecretKey, PublicKey, RegenStats, SecretKey,
    Token, TokenCache,
};
use sla_pairing::BilinearGroup;
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
/// The stored ciphertexts (and the tokens handed in per alert) keep their
/// group elements in the engine's Montgomery residue domain, and each
/// record carries its expected payload, so matching is a pure
/// residue-domain comparison — zero canonical conversions per (token,
/// ciphertext) pair (see `HveScheme::match_token`).
///
/// ## Concurrency
///
/// All matching paths take `&self`. With the
/// `StoreBackend::ConcurrentSharded` backend, [`Self::upsert_shared`] and
/// [`Self::unsubscribe_shared`] also take `&self`, so writer threads can
/// churn the store **while** a batch match runs: matching holds one
/// shard's read lock at a time, mutation one shard's write lock — never
/// more than one lock per operation, so no interleaving can deadlock (see
/// the [`ConcurrentSubscriptionStore`] consistency model for what the
/// notified set means under concurrent churn). On the exclusive backends
/// the shared entry points return [`SlaError::StoreNotConcurrent`].
#[derive(Debug)]
pub struct ServiceProvider {
    store: StoreHandle,
    /// The service epoch — atomic so [`Self::advance_epoch_shared`] can
    /// advance it through `&self` while matching and churn are running.
    epoch: AtomicU64,
    ttl_epochs: Option<u64>,
    /// HVE width pinned by the first accepted ciphertext; every later
    /// upsert and every token must agree. A `OnceLock` so concurrent
    /// first upserts race safely (one pins, the others validate).
    width: OnceLock<usize>,
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
    /// An SP with an empty contiguous store and no TTL eviction.
    pub fn new() -> Self {
        Self::with_backend(StoreBackend::Contiguous, None)
            .expect("contiguous backend is always constructible")
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
    /// quiescent; may transiently lag under concurrent churn on the
    /// concurrent backend.
    pub fn n_subscriptions(&self) -> usize {
        self.store.len()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// `true` iff the store backend supports shared-reference mutation
    /// ([`Self::upsert_shared`] / [`Self::unsubscribe_shared`]).
    pub fn supports_shared_mutation(&self) -> bool {
        matches!(self.store, StoreHandle::Concurrent(_))
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
        match &self.store {
            StoreHandle::Exclusive(store) => {
                for shard in store.shards() {
                    out.extend(shard.iter().map(|r| (r.user_id, r.epoch)));
                }
            }
            StoreHandle::Concurrent(store) => {
                for shard in 0..store.shard_count() {
                    store.read_shard(shard, &mut |records| {
                        out.extend(records.iter().map(|r| (r.user_id, r.epoch)));
                    });
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Validation shared by both upsert paths: width agreement with the
    /// scheme and with previously pinned material, then assembly of the
    /// stored record (expected payload + epoch stamp).
    fn validated_record<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        subscription: Subscription,
    ) -> SlaResult<StoredSubscription> {
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
        let expected = scheme.try_encode_message(subscription.user_id)?;
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
        Ok(StoredSubscription {
            user_id: subscription.user_id,
            ciphertext: subscription.ciphertext,
            expected,
            epoch: self.epoch(),
        })
    }

    /// Bumps the lifetime counter matching an upsert outcome.
    fn note_upsert(&self, outcome: UpsertOutcome) {
        match outcome {
            UpsertOutcome::Inserted => self.inserted.fetch_add(1, Ordering::Relaxed),
            UpsertOutcome::Replaced => self.replaced.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// The concurrent store, or `Err(SlaError::StoreNotConcurrent)` on an
    /// exclusive backend.
    fn concurrent_store(&self) -> SlaResult<&dyn ConcurrentSubscriptionStore> {
        match &self.store {
            StoreHandle::Concurrent(store) => Ok(store.as_ref()),
            StoreHandle::Exclusive(_) => Err(SlaError::StoreNotConcurrent),
        }
    }

    /// Accepts (or refreshes) a user's encrypted location update: a
    /// re-subscribing user's previous ciphertext is **replaced**, so the
    /// old location stops matching alerts. The record is stamped with the
    /// current epoch and carries the precomputed expected payload for
    /// residue-domain matching.
    ///
    /// Errors: `WidthMismatch` when the ciphertext disagrees with the
    /// scheme or with previously stored material; `MessageOutOfDomain`
    /// when the user id cannot serve as an HVE payload.
    pub fn upsert<G: BilinearGroup>(
        &mut self,
        scheme: &HveScheme<'_, G>,
        subscription: Subscription,
    ) -> SlaResult<UpsertOutcome> {
        let record = self.validated_record(scheme, subscription)?;
        let outcome = self.store.upsert(record);
        self.note_upsert(outcome);
        Ok(outcome)
    }

    /// [`Self::upsert`] through a shared reference — the entry point
    /// writer threads use while a batch match is running. Takes only the
    /// target shard's write lock.
    ///
    /// `Err(SlaError::StoreNotConcurrent)` unless the SP was built over
    /// `StoreBackend::ConcurrentSharded`.
    pub fn upsert_shared<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        subscription: Subscription,
    ) -> SlaResult<UpsertOutcome> {
        let store = self.concurrent_store()?;
        let record = self.validated_record(scheme, subscription)?;
        let outcome = store.upsert(record);
        self.note_upsert(outcome);
        Ok(outcome)
    }

    /// Removes a user's subscription;
    /// `Err(SlaError::UnknownUser)` when none is stored.
    pub fn unsubscribe(&mut self, user_id: u64) -> SlaResult<()> {
        if self.store.remove(user_id) {
            self.unsubscribed.fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            Err(SlaError::UnknownUser { user_id })
        }
    }

    /// [`Self::unsubscribe`] through a shared reference (see
    /// [`Self::upsert_shared`]).
    ///
    /// `Err(SlaError::StoreNotConcurrent)` on an exclusive backend,
    /// `Err(SlaError::UnknownUser)` when no subscription is stored.
    pub fn unsubscribe_shared(&self, user_id: u64) -> SlaResult<()> {
        if self.concurrent_store()?.remove(user_id) {
            self.unsubscribed.fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            Err(SlaError::UnknownUser { user_id })
        }
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
    /// A durable backend logs the advance (and any eviction), so a
    /// reopened store resumes at this epoch.
    pub fn advance_epoch(&mut self) -> usize {
        let new_epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.store.note_epoch(new_epoch);
        let Some(min_epoch) = self.ttl_min_epoch(new_epoch) else {
            return 0;
        };
        let evicted = self.store.evict_before(min_epoch);
        self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// [`Self::advance_epoch`] through a shared reference — the epoch
    /// and stats plane is atomic, so eviction can overlap subscription
    /// churn and matching on a concurrent-capable backend (eviction
    /// locks one shard at a time, exactly like a writer).
    ///
    /// `Err(SlaError::StoreNotConcurrent)` on the exclusive backends.
    pub fn advance_epoch_shared(&self) -> SlaResult<usize> {
        let store = self.concurrent_store()?;
        let new_epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        store.note_epoch(new_epoch);
        let Some(min_epoch) = self.ttl_min_epoch(new_epoch) else {
            return Ok(0);
        };
        let evicted = store.evict_before(min_epoch);
        self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        Ok(evicted)
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

    /// Evaluates the token set with an **early exit**: a subscription
    /// stops evaluating tokens after its first match. This is the
    /// latency-optimal production call — its pairing count depends on
    /// *which* users match, so it does not reproduce the paper's
    /// worst-case cost model; use [`Self::match_alert_exhaustive`] (or
    /// the batch path) when live counters must equal the analytic
    /// prediction. Both paths decide each (token, ciphertext) pair with
    /// the same residue-domain primitive, so the notified set is
    /// identical.
    pub fn match_alert<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
    ) -> SlaResult<Vec<u64>> {
        self.validate_tokens(scheme, tokens)?;
        let mut notified = Vec::new();
        let mut early_exit_chunk = |chunk: &[StoredSubscription]| {
            for sub in chunk {
                for token in tokens {
                    if scheme.match_token(token, &sub.ciphertext, &sub.expected) {
                        notified.push(sub.user_id);
                        break; // already matched; skip remaining tokens
                    }
                }
            }
        };
        match &self.store {
            StoreHandle::Exclusive(store) => {
                for shard in store.shards() {
                    early_exit_chunk(shard);
                }
            }
            StoreHandle::Concurrent(store) => {
                for shard in 0..store.shard_count() {
                    store.read_shard(shard, &mut early_exit_chunk);
                }
            }
        }
        Ok(notified)
    }

    /// Like [`Self::match_alert`] but evaluates *every* (token,
    /// ciphertext) pair without early exit — the worst-case evaluation the
    /// paper's cost model counts (`Σ_tokens (1+2·|J|) · n_ciphertexts`).
    pub fn match_alert_exhaustive<G: BilinearGroup>(
        &self,
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
    ) -> SlaResult<Vec<u64>> {
        self.validate_tokens(scheme, tokens)?;
        let mut notified = Vec::new();
        match &self.store {
            StoreHandle::Exclusive(store) => {
                for shard in store.shards() {
                    notified.extend(Self::match_chunk_exhaustive(shard, scheme, tokens));
                }
            }
            StoreHandle::Concurrent(store) => {
                for shard in 0..store.shard_count() {
                    store.read_shard(shard, &mut |records| {
                        notified.extend(Self::match_chunk_exhaustive(records, scheme, tokens));
                    });
                }
            }
        }
        Ok(notified)
    }

    /// Exhaustive matching of one chunk of the store; the unit of work
    /// the serial and the parallel batch paths share, so their outcomes
    /// are identical by construction. Decides every pair in the residue
    /// domain — no canonical conversions.
    ///
    /// Evaluation is **token-outer / lockstep-inner**: each token sweeps
    /// the whole chunk through [`HveScheme::match_token_batch`], which
    /// hands the chunk's pairings to the engine's batch multiplier in
    /// one call per [`HveScheme::query_many`] chunk, and per-subscription
    /// hits are OR-accumulated across tokens. Notified ids are still
    /// pushed in subscription order, and every (token, ciphertext) pair
    /// is still decided by the same residue-domain primitive, so the
    /// result and the pairing count are identical to the old
    /// subscription-outer loop.
    fn match_chunk_exhaustive<G: BilinearGroup>(
        chunk: &[StoredSubscription],
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
    ) -> Vec<u64> {
        let pairs: Vec<(&Ciphertext, &sla_pairing::GtElem)> = chunk
            .iter()
            .map(|sub| (&sub.ciphertext, &sub.expected))
            .collect();
        let mut hit = vec![false; chunk.len()];
        for token in tokens {
            for (h, matched) in hit.iter_mut().zip(scheme.match_token_batch(token, &pairs)) {
                *h |= matched;
            }
        }
        chunk
            .iter()
            .zip(hit)
            .filter_map(|(sub, h)| h.then_some(sub.user_id))
            .collect()
    }

    /// Default chunk size for [`Self::process_alert_batch`]: a handful of
    /// chunks per available core so stragglers rebalance — or one single
    /// chunk when only one core is available or the store is small, where
    /// the rayon shim's per-call thread spawns (scoped threads, no
    /// persistent pool — it is `forbid(unsafe_code)`) outweigh the
    /// matching work. An explicit `chunk_size` always takes the parallel
    /// machinery, which is what the equivalence tests exercise.
    pub fn default_batch_chunk_size(&self) -> usize {
        let threads = Self::match_threads();
        let len = self.store.len();
        if threads <= 1 || len < Self::PARALLEL_MIN_STORE {
            return len.max(1);
        }
        len.div_ceil(threads * 4).max(1)
    }

    #[cfg(feature = "parallel")]
    fn match_threads() -> usize {
        rayon::current_num_threads()
    }

    #[cfg(not(feature = "parallel"))]
    fn match_threads() -> usize {
        1
    }

    /// Batch variant of [`Self::match_alert_exhaustive`]: partitions every
    /// store shard into `chunk_size`-sized chunks and matches them in
    /// parallel (rayon; `parallel` feature, on by default — serial chunks
    /// otherwise).
    ///
    /// Chunk results are concatenated in shard order, so on a quiescent
    /// store the returned ids are **byte-identical** to the serial path's
    /// regardless of thread count, and the engine's atomic
    /// [`sla_pairing::OpCounters`] see exactly the same number of
    /// pairings.
    ///
    /// On the concurrent backend the parallel unit is a **shard**: each
    /// worker takes one shard's read lock, walks that shard's chunks, and
    /// releases — writers to other shards proceed in parallel, writers to
    /// the locked shard wait for at most one shard scan (see the
    /// [`ConcurrentSubscriptionStore`] consistency model).
    ///
    /// `Err(SlaError::ZeroChunkSize)` when `chunk_size == 0`.
    pub fn process_alert_batch<G: BilinearGroup + Sync>(
        &self,
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
        chunk_size: usize,
    ) -> SlaResult<Vec<u64>> {
        if chunk_size == 0 {
            return Err(SlaError::ZeroChunkSize);
        }
        self.validate_tokens(scheme, tokens)?;
        match &self.store {
            StoreHandle::Exclusive(store) => {
                let units = store.chunked(chunk_size);
                let per_chunk = Self::match_units(&units, scheme, tokens);
                Ok(per_chunk.into_iter().flatten().collect())
            }
            StoreHandle::Concurrent(store) => {
                let shard_ids: Vec<usize> = (0..store.shard_count()).collect();
                let per_shard = Self::match_shards_locked(
                    store.as_ref(),
                    &shard_ids,
                    scheme,
                    tokens,
                    chunk_size,
                );
                Ok(per_shard.into_iter().flatten().collect())
            }
        }
    }

    /// Exhaustively matches one shard of the concurrent store under its
    /// read lock, chunk by chunk in order — the per-worker unit of the
    /// concurrent batch path.
    fn match_one_shard_locked<G: BilinearGroup>(
        store: &dyn ConcurrentSubscriptionStore,
        shard: usize,
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
        chunk_size: usize,
    ) -> Vec<u64> {
        let mut notified = Vec::new();
        store.read_shard(shard, &mut |records| {
            for chunk in records.chunks(chunk_size) {
                notified.extend(Self::match_chunk_exhaustive(chunk, scheme, tokens));
            }
        });
        notified
    }

    #[cfg(feature = "parallel")]
    fn match_shards_locked<G: BilinearGroup + Sync>(
        store: &dyn ConcurrentSubscriptionStore,
        shard_ids: &[usize],
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
        chunk_size: usize,
    ) -> Vec<Vec<u64>> {
        use rayon::prelude::*;
        shard_ids
            .par_iter()
            .map(|&shard| Self::match_one_shard_locked(store, shard, scheme, tokens, chunk_size))
            .collect()
    }

    #[cfg(not(feature = "parallel"))]
    fn match_shards_locked<G: BilinearGroup + Sync>(
        store: &dyn ConcurrentSubscriptionStore,
        shard_ids: &[usize],
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
        chunk_size: usize,
    ) -> Vec<Vec<u64>> {
        shard_ids
            .iter()
            .map(|&shard| Self::match_one_shard_locked(store, shard, scheme, tokens, chunk_size))
            .collect()
    }

    /// Below this store size [`Self::default_batch_chunk_size`] picks a
    /// single chunk, keeping the default path serial where parallelism
    /// cannot pay for its thread spawns.
    const PARALLEL_MIN_STORE: usize = 256;

    #[cfg(feature = "parallel")]
    fn match_units<G: BilinearGroup + Sync>(
        units: &[&[StoredSubscription]],
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
    ) -> Vec<Vec<u64>> {
        use rayon::prelude::*;
        units
            .par_iter()
            .map(|chunk| Self::match_chunk_exhaustive(chunk, scheme, tokens))
            .collect()
    }

    #[cfg(not(feature = "parallel"))]
    fn match_units<G: BilinearGroup + Sync>(
        units: &[&[StoredSubscription]],
        scheme: &HveScheme<'_, G>,
        tokens: &[Token],
    ) -> Vec<Vec<u64>> {
        units
            .iter()
            .map(|chunk| Self::match_chunk_exhaustive(chunk, scheme, tokens))
            .collect()
    }
}
