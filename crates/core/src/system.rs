//! [`SystemBuilder`] / [`AlertSystem`]: owns the bilinear group and wires
//! the three parties together for long-lived service runs.

use crate::convert::index_to_attribute;
use crate::entities::{AlertMatch, MobileUser, ServiceProvider, Subscription, TrustedAuthority};
use crate::error::{SlaError, SlaResult, MAX_GROUP_BITS, MIN_GROUP_BITS};
use crate::store::{StoreBackend, StoreStats, UpsertOutcome};
use crate::tracker::{TokenRegenStats, TrackedAlertOutcome, ZoneTracker};
use rand::Rng;
use sla_encoding::{CellCodebook, EncoderKind};
use sla_grid::{Grid, Point, ProbabilityMap};
use sla_hve::{HveScheme, PreparedPublicKey, PublicKey};
use sla_pairing::{BilinearGroup, SimulatedGroup};

/// Fallible, defaults-first constructor for [`AlertSystem`].
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sla_core::{AlertSystem, StoreBackend, SystemBuilder};
/// use sla_encoding::EncoderKind;
/// use sla_grid::{BoundingBox, Grid, ProbabilityMap};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 2, 2);
/// let probs = ProbabilityMap::new(vec![0.4, 0.1, 0.3, 0.2]);
/// let system = SystemBuilder::new(grid)
///     .encoder(EncoderKind::Huffman)
///     .group_bits(48)
///     .store(StoreBackend::ConcurrentSharded { shards: 4 })
///     .ttl_epochs(24)
///     .build(&probs, &mut rng)
///     .expect("valid configuration");
/// system.subscribe_cell(7, 0, &mut rng).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    grid: Grid,
    encoder: EncoderKind,
    group_bits: usize,
    store: StoreBackend,
    ttl_epochs: Option<u64>,
}

impl SystemBuilder {
    /// Starts a builder over `grid` with the paper's defaults: Huffman
    /// encoding, 48-bit prime factors, a volatile
    /// `ConcurrentSharded { shards: 8 }` store, no TTL.
    pub fn new(grid: Grid) -> Self {
        SystemBuilder {
            grid,
            encoder: EncoderKind::Huffman,
            group_bits: 48,
            store: StoreBackend::default(),
            ttl_epochs: None,
        }
    }

    /// The cell-encoding scheme (the paper's proposal or a baseline).
    pub fn encoder(mut self, encoder: EncoderKind) -> Self {
        self.encoder = encoder;
        self
    }

    /// Bit length of each prime factor of the group order (validated at
    /// [`Self::build`] against `[MIN_GROUP_BITS, MAX_GROUP_BITS]`).
    pub fn group_bits(mut self, bits: usize) -> Self {
        self.group_bits = bits;
        self
    }

    /// The Service Provider's subscription-store backend.
    pub fn store(mut self, backend: StoreBackend) -> Self {
        self.store = backend;
        self
    }

    /// Enables TTL eviction: a subscription not refreshed within
    /// `epochs` service epochs is dropped by
    /// [`AlertSystem::advance_epoch`].
    pub fn ttl_epochs(mut self, epochs: u64) -> Self {
        self.ttl_epochs = Some(epochs);
        self
    }

    /// Runs system initialization (Fig. 3): build the codebook from the
    /// probability map, generate the group and the HVE key pair, prepare
    /// the fixed-base tables for both keys, and assemble the Service
    /// Provider over the chosen store backend.
    ///
    /// Every misconfiguration returns a typed [`SlaError`]:
    /// `ProbabilityMapMismatch` when the surface does not cover the grid,
    /// `InvalidCodebook`/`InvalidLikelihoods` for unusable surfaces,
    /// `InvalidGroupBits` and `ZeroShardCount` for bad parameters.
    pub fn build<R: Rng>(self, probs: &ProbabilityMap, rng: &mut R) -> SlaResult<AlertSystem> {
        if probs.len() != self.grid.n_cells() {
            return Err(SlaError::ProbabilityMapMismatch {
                map_cells: probs.len(),
                grid_cells: self.grid.n_cells(),
            });
        }
        if !(MIN_GROUP_BITS..=MAX_GROUP_BITS).contains(&self.group_bits) {
            return Err(SlaError::InvalidGroupBits {
                bits: self.group_bits,
            });
        }
        let sp = ServiceProvider::with_backend(self.store, self.ttl_epochs)?;
        let codebook = CellCodebook::try_build(self.encoder, probs.raw())?;
        let group = SimulatedGroup::generate(self.group_bits, rng);
        let scheme = HveScheme::try_new(&group, codebook.width_bits())?;
        let (pk, sk) = scheme.setup(rng);
        let ppk = scheme.prepare_public_key(&pk);
        let mut ta = TrustedAuthority::new(sk, codebook)?;
        ta.prepare(&scheme);
        Ok(AlertSystem {
            group,
            grid: self.grid,
            ppk,
            ta,
            sp,
        })
    }
}

/// Result of issuing one alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertOutcome {
    /// Users found inside the alert zone.
    pub notified: Vec<u64>,
    /// Number of tokens the TA issued after minimization.
    pub tokens_issued: usize,
    /// Total non-star bits across the issued tokens.
    pub non_star_bits: u64,
    /// Pairings the SP's matcher evaluated for this alert, counted by its
    /// own sweeps — exact even while other alerts and subscribes run on
    /// the same engine.
    pub pairings_used: u64,
    /// Pairings predicted by the analytic cost model
    /// `Σ_tokens (1 + 2·|J|) · n_ciphertexts`; the test-suite asserts this
    /// equals [`AlertOutcome::pairings_used`].
    pub analytic_pairings: u64,
}

/// The assembled system: group engine + TA + SP + codebook.
///
/// Build one through [`SystemBuilder`] (or [`AlertSystem::builder`]).
/// Setup also builds the fixed-base tables for both halves of the key
/// pair (the prepared public key lives here, the prepared secret key in
/// the TA), so every subscription encryption and every token issuance
/// reuses the per-base precomputation.
///
/// Every entry point that takes user-supplied input is fallible — no
/// panic is reachable through the public service API. Every entry point
/// takes `&self`: subscription churn, epoch advances and alerts may run
/// on many threads at once (see [`ServiceProvider`]'s concurrency
/// model).
#[derive(Debug)]
pub struct AlertSystem {
    group: SimulatedGroup,
    grid: Grid,
    /// The public key plus its fixed-base tables, reused by every
    /// subscription (the plain key is a view into this).
    ppk: PreparedPublicKey,
    ta: TrustedAuthority,
    sp: ServiceProvider,
}

impl AlertSystem {
    /// Starts a [`SystemBuilder`] over `grid`.
    pub fn builder(grid: Grid) -> SystemBuilder {
        SystemBuilder::new(grid)
    }

    /// The grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The public codebook.
    pub fn codebook(&self) -> &CellCodebook {
        self.ta.codebook()
    }

    /// The HVE public key (what a real deployment would publish).
    pub fn public_key(&self) -> &PublicKey {
        self.ppk.public_key()
    }

    /// The group's operation counters.
    pub fn counters(&self) -> &sla_pairing::OpCounters {
        self.group.counters()
    }

    /// Number of stored location updates (one per live user).
    pub fn n_subscriptions(&self) -> usize {
        self.sp.n_subscriptions()
    }

    /// The current service epoch.
    pub fn epoch(&self) -> u64 {
        self.sp.epoch()
    }

    /// Snapshot of the SP's store layout and lifecycle counters.
    pub fn store_stats(&self) -> StoreStats {
        self.sp.stats()
    }

    /// One-call serving snapshot ([`ServiceProvider::service_stats`]):
    /// store stats plus the recovered epoch, read entirely from atomics
    /// through `&self` — the `stats` RPC of the service plane routes
    /// here, so answering it never takes a shard write lock.
    pub fn service_stats(&self) -> crate::ServiceStats {
        self.sp.service_stats()
    }

    /// Every stored `(user_id, epoch)` pair, sorted — a cheap content
    /// fingerprint (see [`ServiceProvider::subscription_epochs`]).
    pub fn subscription_epochs(&self) -> Vec<(u64, u64)> {
        self.sp.subscription_epochs()
    }

    fn scheme(&self) -> HveScheme<'_, SimulatedGroup> {
        HveScheme::new(&self.group, self.codebook().width_bits())
    }

    /// A user at `cell` encrypts and submits a location update; a
    /// re-subscribing user's previous ciphertext is **replaced** (the old
    /// location stops matching alerts). Each caller supplies its own
    /// `rng`, so writer threads can subscribe while an alert is being
    /// matched.
    ///
    /// Errors: `CellOutOfRange`, `MessageOutOfDomain` (ids double as HVE
    /// payloads and must fit the message domain).
    pub fn subscribe_cell<R: Rng>(
        &self,
        user_id: u64,
        cell: usize,
        rng: &mut R,
    ) -> SlaResult<UpsertOutcome> {
        if cell >= self.grid.n_cells() {
            return Err(SlaError::CellOutOfRange {
                cell,
                n_cells: self.grid.n_cells(),
            });
        }
        let scheme = self.scheme();
        let ciphertext = MobileUser::new(user_id, cell).encrypt_update_prepared(
            &scheme,
            &self.ppk,
            self.codebook(),
            rng,
        )?;
        self.sp.upsert(
            &scheme,
            Subscription {
                user_id,
                ciphertext,
            },
        )
    }

    /// Bulk [`Self::subscribe_cell`]: validates every `(user_id, cell)`
    /// update, then encrypts each through
    /// [`HveScheme::encrypt_prepared`] in request order. Ciphertext `j`
    /// is byte-identical to what the `j`-th serial `subscribe_cell` call
    /// would have stored against the same RNG, and outcomes are returned
    /// in request order.
    ///
    /// Validation is all-or-nothing: every request is checked
    /// (`CellOutOfRange`, `MessageOutOfDomain`) before any cryptography
    /// runs or any record is stored.
    pub fn subscribe_cells_bulk<R: Rng>(
        &self,
        requests: &[(u64, usize)],
        rng: &mut R,
    ) -> SlaResult<Vec<UpsertOutcome>> {
        let scheme = self.scheme();
        let mut attrs = Vec::with_capacity(requests.len());
        let mut msgs = Vec::with_capacity(requests.len());
        for &(user_id, cell) in requests {
            if cell >= self.grid.n_cells() {
                return Err(SlaError::CellOutOfRange {
                    cell,
                    n_cells: self.grid.n_cells(),
                });
            }
            attrs.push(index_to_attribute(self.ta.codebook().index_of(cell)));
            msgs.push(scheme.try_encode_message(user_id)?);
        }
        let cts: Vec<_> = attrs
            .iter()
            .zip(&msgs)
            .map(|(attr, msg)| scheme.encrypt_prepared(&self.ppk, attr, msg, rng))
            .collect();
        requests
            .iter()
            .zip(cts)
            .map(|(&(user_id, _), ciphertext)| {
                let outcome = self.sp.upsert(
                    &scheme,
                    Subscription {
                        user_id,
                        ciphertext,
                    },
                )?;
                Ok(outcome)
            })
            .collect()
    }

    /// A user at a geographic point subscribes;
    /// `Err(SlaError::PointOutsideGrid)` when the point lies outside the
    /// grid.
    pub fn subscribe_point<R: Rng>(
        &self,
        user_id: u64,
        point: &Point,
        rng: &mut R,
    ) -> SlaResult<UpsertOutcome> {
        match self.grid.cell_of(point) {
            Some(cell) => self.subscribe_cell(user_id, cell.0, rng),
            None => Err(SlaError::PointOutsideGrid {
                lat: point.lat,
                lon: point.lon,
            }),
        }
    }

    /// Removes a user's subscription;
    /// `Err(SlaError::UnknownUser)` when none is stored.
    pub fn unsubscribe(&self, user_id: u64) -> SlaResult<()> {
        self.sp.unsubscribe(user_id)
    }

    /// Advances the service epoch, evicting expired subscriptions when
    /// the builder configured a TTL. Returns how many were evicted.
    /// Epoch advancement and TTL eviction can overlap churn and matching.
    pub fn advance_epoch(&self) -> usize {
        self.sp.advance_epoch()
    }

    /// Flushes a durable store backend ([`StoreBackend::Persistent`]) to
    /// stable storage, surfacing any deferred write error; a no-op on
    /// volatile backends.
    pub fn sync(&self) -> SlaResult<()> {
        self.sp.sync()
    }

    /// Second half of the alert pipeline, shared by the full-regeneration
    /// and tracked (incremental) paths: analytic cost, matching and
    /// outcome assembly over tokens already in hand.
    fn outcome_from_tokens(
        &self,
        scheme: &HveScheme<'_, SimulatedGroup>,
        tokens: Vec<sla_hve::Token>,
    ) -> SlaResult<AlertOutcome> {
        let non_star_bits: u64 = tokens.iter().map(|t| t.non_star_count() as u64).sum();
        // The analytic model `Σ_tokens (1 + 2·|J|) · n` evaluated on the
        // tokens already in hand, so the alert does not pay minimization
        // a second time.
        let analytic = (tokens.len() as u64 + 2 * non_star_bits) * self.sp.n_subscriptions() as u64;

        let AlertMatch {
            mut notified,
            pairings,
        } = self.sp.match_alert(scheme, &tokens)?;
        notified.sort_unstable();

        Ok(AlertOutcome {
            notified,
            tokens_issued: tokens.len(),
            non_star_bits,
            pairings_used: pairings,
            analytic_pairings: analytic,
        })
    }

    /// Issues an alert for a set of cells: the TA minimizes and signs
    /// tokens, the SP evaluates them exhaustively (the cost model's
    /// regime) through [`ServiceProvider::match_alert`], and matched
    /// users are notified.
    ///
    /// Subscription churn through [`Self::subscribe_cell`] /
    /// [`Self::unsubscribe`] may proceed while the alert is being
    /// matched. [`AlertOutcome::pairings_used`] is counted by this alert's
    /// own matcher, so it stays exact while other alerts run concurrently.
    ///
    /// `Err(SlaError::CellOutOfRange)` on alert cells outside the grid.
    pub fn issue_alert<R: Rng>(
        &self,
        alert_cells: &[usize],
        rng: &mut R,
    ) -> SlaResult<AlertOutcome> {
        let scheme = self.scheme();
        let tokens = self.ta.issue_tokens(&scheme, alert_cells, rng)?;
        self.outcome_from_tokens(&scheme, tokens)
    }

    /// Analytic pairing cost of an alert against the current store,
    /// without performing any cryptography.
    pub fn analytic_cost(&self, alert_cells: &[usize]) -> SlaResult<u64> {
        self.ta
            .analytic_pairing_cost(alert_cells, self.sp.n_subscriptions() as u64)
    }

    /// Incremental variant of [`Self::issue_alert`] for **dynamic alert
    /// zones**: the TA serves the zone's minimized pattern set from the
    /// tracker's token cache, freshly generating only the patterns that
    /// entered since the tracker's previous epoch (one
    /// `gen_token_prepared_batch` call) and evicting the ones that
    /// exited.
    ///
    /// The returned [`TrackedAlertOutcome::alert`] is **equal** to what
    /// [`Self::issue_alert`] over the same cells and store contents
    /// produces — same notified set, token count, `pairings_used` and
    /// analytic cost — because matching depends only on token *patterns*,
    /// never on token randomness; the `scenarios` proptest suite pins
    /// this across random trajectories and every store backend. What the
    /// incremental path saves is GenToken work, reported in
    /// [`TrackedAlertOutcome::regen`] and accumulated into
    /// [`crate::ServiceStats`] (`tokens_regenerated`, `cells_entered`,
    /// `cells_exited`) through the SP's atomics.
    ///
    /// Keep one [`ZoneTracker`] per live zone and pass it back every
    /// epoch; a fresh tracker makes the first call a full regeneration.
    ///
    /// `Err(SlaError::CellOutOfRange)` on alert cells outside the grid
    /// (the tracker is left unchanged on error).
    pub fn issue_alert_tracked<R: Rng>(
        &self,
        tracker: &mut ZoneTracker,
        alert_cells: &[usize],
        rng: &mut R,
    ) -> SlaResult<TrackedAlertOutcome> {
        let scheme = self.scheme();
        let (tokens, regen) =
            self.ta
                .issue_tokens_cached(&scheme, tracker.cache_mut(), alert_cells, rng)?;
        let (cells_entered, cells_exited) = tracker.note_cells(alert_cells);
        self.sp
            .note_regen(regen.generated as u64, cells_entered, cells_exited);
        let alert = self.outcome_from_tokens(&scheme, tokens)?;
        Ok(TrackedAlertOutcome {
            alert,
            regen: TokenRegenStats {
                tokens_generated: regen.generated as u64,
                tokens_reused: regen.reused as u64,
                tokens_evicted: regen.evicted as u64,
                cells_entered,
                cells_exited,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sla_grid::BoundingBox;

    fn small_system(encoder: EncoderKind) -> (AlertSystem, StdRng) {
        let mut rng = StdRng::seed_from_u64(0xa1e47);
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 2, 3);
        let probs = ProbabilityMap::new(vec![0.3, 0.1, 0.25, 0.05, 0.2, 0.1]);
        let system = SystemBuilder::new(grid)
            .encoder(encoder)
            .group_bits(40)
            .build(&probs, &mut rng)
            .expect("valid configuration");
        (system, rng)
    }

    #[test]
    fn end_to_end_notifications_all_encoders() {
        for encoder in [
            EncoderKind::Huffman,
            EncoderKind::Balanced,
            EncoderKind::BasicFixed,
            EncoderKind::GraySgo,
            EncoderKind::BaryHuffman(3),
        ] {
            let (system, mut rng) = small_system(encoder);
            // users 0..6, one per cell
            for cell in 0..6 {
                system
                    .subscribe_cell(100 + cell as u64, cell, &mut rng)
                    .unwrap();
            }
            let outcome = system.issue_alert(&[1, 4], &mut rng).unwrap();
            assert_eq!(outcome.notified, vec![101, 104], "{:?}", encoder);
            assert_eq!(
                outcome.pairings_used, outcome.analytic_pairings,
                "{encoder:?}: live counter must equal analytic model"
            );
        }
    }

    #[test]
    fn tracked_alert_equals_full_and_feeds_stats() {
        // Two identically-seeded systems: one alerts through a tracker,
        // the other regenerates fully; every epoch's outcome must agree.
        let (sys_delta, mut rng_d) = small_system(EncoderKind::Huffman);
        let (sys_full, mut rng_f) = small_system(EncoderKind::Huffman);
        for cell in 0..6 {
            sys_delta
                .subscribe_cell(100 + cell as u64, cell, &mut rng_d)
                .unwrap();
            sys_full
                .subscribe_cell(100 + cell as u64, cell, &mut rng_f)
                .unwrap();
        }
        let mut tracker = ZoneTracker::new();
        let epochs: [&[usize]; 4] = [&[0, 1], &[1, 2], &[2], &[2, 3, 4]];
        for cells in epochs {
            let tracked = sys_delta
                .issue_alert_tracked(&mut tracker, cells, &mut rng_d)
                .unwrap();
            let full = sys_full.issue_alert(cells, &mut rng_f).unwrap();
            assert_eq!(tracked.alert, full, "cells {cells:?}");
            assert_eq!(
                tracked.regen.tokens_generated + tracked.regen.tokens_reused,
                tracked.alert.tokens_issued as u64
            );
        }
        let stats = sys_delta.service_stats();
        assert!(stats.tokens_regenerated > 0);
        // Epoch deltas: {0,1}→+2, →{1,2} +1, →{2} +0, →{2,3,4} +2 = 5 in;
        // 1+1+0 = 2 out.
        assert_eq!(stats.cells_entered, 5);
        assert_eq!(stats.cells_exited, 2);
        // The untracked system never touched the regen path.
        assert_eq!(sys_full.service_stats().tokens_regenerated, 0);
    }

    #[test]
    fn tracked_alert_out_of_range_leaves_tracker_unchanged() {
        let (system, mut rng) = small_system(EncoderKind::Huffman);
        let mut tracker = ZoneTracker::new();
        system
            .issue_alert_tracked(&mut tracker, &[0, 1], &mut rng)
            .unwrap();
        let cached = tracker.cached_tokens();
        assert!(matches!(
            system.issue_alert_tracked(&mut tracker, &[99], &mut rng),
            Err(SlaError::CellOutOfRange { .. })
        ));
        assert_eq!(tracker.cached_tokens(), cached);
        assert_eq!(tracker.prev_cells(), &[0, 1]);
    }

    #[test]
    fn alert_on_empty_store_costs_nothing() {
        let (system, mut rng) = small_system(EncoderKind::Huffman);
        let outcome = system.issue_alert(&[0], &mut rng).unwrap();
        assert!(outcome.notified.is_empty());
        assert_eq!(outcome.pairings_used, 0);
        assert_eq!(outcome.analytic_pairings, 0);
        assert!(outcome.tokens_issued > 0);
    }

    #[test]
    fn multiple_users_same_cell() {
        let (system, mut rng) = small_system(EncoderKind::Huffman);
        for id in [1u64, 2, 3] {
            system.subscribe_cell(id, 2, &mut rng).unwrap();
        }
        system.subscribe_cell(4, 0, &mut rng).unwrap();
        let outcome = system.issue_alert(&[2], &mut rng).unwrap();
        assert_eq!(outcome.notified, vec![1, 2, 3]);
    }

    #[test]
    fn subscribe_by_point() {
        let (system, mut rng) = small_system(EncoderKind::Huffman);
        let inside = system.grid().cell_center(sla_grid::CellId(5));
        assert_eq!(
            system.subscribe_point(42, &inside, &mut rng),
            Ok(UpsertOutcome::Inserted)
        );
        assert!(matches!(
            system.subscribe_point(43, &Point::new(50.0, 50.0), &mut rng),
            Err(SlaError::PointOutsideGrid { .. })
        ));
        assert_eq!(system.n_subscriptions(), 1);
        let outcome = system.issue_alert(&[5], &mut rng).unwrap();
        assert_eq!(outcome.notified, vec![42]);
    }

    #[test]
    fn full_zone_alert_notifies_everyone() {
        let (system, mut rng) = small_system(EncoderKind::Huffman);
        for cell in 0..6 {
            system.subscribe_cell(cell as u64, cell, &mut rng).unwrap();
        }
        let outcome = system.issue_alert(&[0, 1, 2, 3, 4, 5], &mut rng).unwrap();
        assert_eq!(outcome.notified, vec![0, 1, 2, 3, 4, 5]);
        // whole grid minimizes to very few tokens (root subtree(s))
        assert!(outcome.tokens_issued <= 2, "{}", outcome.tokens_issued);
    }

    #[test]
    fn doc_example_runs() {
        // mirror of the lib.rs doctest, kept as a unit test for coverage
        let mut rng = StdRng::seed_from_u64(1);
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 2, 2);
        let probs = ProbabilityMap::new(vec![0.4, 0.1, 0.3, 0.2]);
        let system = AlertSystem::builder(grid)
            .group_bits(48)
            .build(&probs, &mut rng)
            .unwrap();
        system.subscribe_cell(7, 0, &mut rng).unwrap();
        system.subscribe_cell(9, 3, &mut rng).unwrap();
        let outcome = system.issue_alert(&[0, 1], &mut rng).unwrap();
        assert_eq!(outcome.notified, vec![7]);
        assert_eq!(outcome.pairings_used, outcome.analytic_pairings);
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        let mut rng = StdRng::seed_from_u64(2);
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 2, 2);
        let probs3 = ProbabilityMap::new(vec![0.5, 0.3, 0.2]);
        assert_eq!(
            SystemBuilder::new(grid.clone())
                .build(&probs3, &mut rng)
                .unwrap_err(),
            SlaError::ProbabilityMapMismatch {
                map_cells: 3,
                grid_cells: 4
            }
        );
        let probs4 = ProbabilityMap::new(vec![0.4, 0.1, 0.3, 0.2]);
        assert_eq!(
            SystemBuilder::new(grid.clone())
                .group_bits(8)
                .build(&probs4, &mut rng)
                .unwrap_err(),
            SlaError::InvalidGroupBits { bits: 8 }
        );
        assert_eq!(
            SystemBuilder::new(grid)
                .store(StoreBackend::ConcurrentSharded { shards: 0 })
                .build(&probs4, &mut rng)
                .unwrap_err(),
            SlaError::ZeroShardCount
        );
    }

    #[test]
    fn default_system_serves_the_lifecycle_through_shared_refs() {
        let mut rng = StdRng::seed_from_u64(0x5afe);
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 2, 2);
        let probs = ProbabilityMap::new(vec![0.4, 0.1, 0.3, 0.2]);
        let system = SystemBuilder::new(grid)
            .group_bits(40)
            .build(&probs, &mut rng)
            .unwrap();
        let stats = system.store_stats();
        assert_eq!((stats.backend, stats.shards), ("concurrent-sharded", 8));

        // Every lifecycle call goes through `&AlertSystem`.
        let shared: &AlertSystem = &system;
        assert_eq!(
            shared.subscribe_cell(1, 0, &mut rng),
            Ok(UpsertOutcome::Inserted)
        );
        assert_eq!(
            shared.subscribe_cell(1, 2, &mut rng),
            Ok(UpsertOutcome::Replaced)
        );
        assert_eq!(shared.subscription_epochs(), vec![(1, 0)]);
        let outcome = shared.issue_alert(&[2], &mut rng).unwrap();
        assert_eq!(outcome.notified, vec![1]);
        assert_eq!(shared.advance_epoch(), 0);
        assert_eq!(shared.epoch(), 1);
        shared.unsubscribe(1).unwrap();
        assert_eq!(
            shared.unsubscribe(1).unwrap_err(),
            SlaError::UnknownUser { user_id: 1 }
        );
        assert_eq!(shared.n_subscriptions(), 0);
        // The one-call serving snapshot agrees with the piecewise view
        // and reports no recovered epoch on a volatile backend.
        let snapshot = shared.service_stats();
        assert_eq!(snapshot.store, shared.store_stats());
        assert_eq!(snapshot.recovered_epoch, None);
        assert_eq!(snapshot.store.inserted, 1);
        assert_eq!(snapshot.store.replaced, 1);
        assert_eq!(snapshot.store.unsubscribed, 1);
    }

    #[test]
    fn bulk_subscribe_matches_serial_exactly() {
        // Same seed through the bulk and the serial path: identical
        // stored ciphertexts (hence identical alert outcomes), identical
        // counter deltas, outcomes in request order.
        let requests: Vec<(u64, usize)> = vec![(100, 1), (101, 4), (102, 1), (103, 0), (104, 5)];

        let (serial_sys, _) = small_system(EncoderKind::Huffman);
        let mut r1 = StdRng::seed_from_u64(0xb01);
        let before = serial_sys.counters().snapshot();
        let serial_outcomes: Vec<UpsertOutcome> = requests
            .iter()
            .map(|&(id, cell)| serial_sys.subscribe_cell(id, cell, &mut r1).unwrap())
            .collect();
        let serial_delta = serial_sys.counters().snapshot() - before;

        let (bulk_sys, _) = small_system(EncoderKind::Huffman);
        let mut r2 = StdRng::seed_from_u64(0xb01);
        let before = bulk_sys.counters().snapshot();
        let bulk_outcomes = bulk_sys.subscribe_cells_bulk(&requests, &mut r2).unwrap();
        let bulk_delta = bulk_sys.counters().snapshot() - before;

        assert_eq!(bulk_outcomes, serial_outcomes);
        assert_eq!(bulk_delta, serial_delta, "op counts must be identical");
        assert_eq!(
            bulk_sys.subscription_epochs(),
            serial_sys.subscription_epochs()
        );
        // Both systems were built from the same seed, so the alert
        // outcomes (notified sets AND pairing counts) must agree.
        let mut ra = StdRng::seed_from_u64(7);
        let mut rb = StdRng::seed_from_u64(7);
        let a = serial_sys.issue_alert(&[1, 4], &mut ra).unwrap();
        let b = bulk_sys.issue_alert(&[1, 4], &mut rb).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.notified, vec![100, 101, 102]);

        // Validation is all-or-nothing: a bad cell leaves the store
        // untouched.
        let before_len = bulk_sys.n_subscriptions();
        assert!(matches!(
            bulk_sys.subscribe_cells_bulk(&[(200, 0), (201, 99)], &mut r2),
            Err(SlaError::CellOutOfRange { cell: 99, .. })
        ));
        assert_eq!(bulk_sys.n_subscriptions(), before_len);
        // Empty bulk is a no-op.
        assert_eq!(bulk_sys.subscribe_cells_bulk(&[], &mut r2), Ok(vec![]));
    }

    #[test]
    fn upsert_moves_a_user_between_cells() {
        for backend in [
            StoreBackend::ConcurrentSharded { shards: 1 },
            StoreBackend::ConcurrentSharded { shards: 3 },
        ] {
            let mut rng = StdRng::seed_from_u64(0xa1e47);
            let grid = Grid::new(BoundingBox::new(0.0, 0.0, 0.1, 0.1), 2, 3);
            let probs = ProbabilityMap::new(vec![0.3, 0.1, 0.25, 0.05, 0.2, 0.1]);
            let system = SystemBuilder::new(grid)
                .group_bits(40)
                .store(backend.clone())
                .build(&probs, &mut rng)
                .unwrap();
            assert_eq!(
                system.subscribe_cell(9, 1, &mut rng),
                Ok(UpsertOutcome::Inserted)
            );
            assert_eq!(
                system.subscribe_cell(9, 4, &mut rng),
                Ok(UpsertOutcome::Replaced)
            );
            assert_eq!(system.n_subscriptions(), 1, "{backend:?}");
            let old = system.issue_alert(&[1], &mut rng).unwrap();
            assert!(old.notified.is_empty(), "{backend:?}: stale match");
            let new = system.issue_alert(&[4], &mut rng).unwrap();
            assert_eq!(new.notified, vec![9], "{backend:?}");
        }
    }
}
