//! [`SystemBuilder`] / [`AlertSystem`]: owns the bilinear group and wires
//! the three parties together for long-lived service runs.

use crate::convert::index_to_attribute;
use crate::entities::{AlertMatch, ServiceProvider, TrustedAuthority};
use crate::error::{SlaError, SlaResult, MAX_GROUP_BITS, MIN_GROUP_BITS};
use crate::store::{StoreBackend, StoreStats, UpsertOutcome};
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
    /// probability map, generate the group and the HVE key pair, ready
    /// both keys' bases for the engine's flat Encrypt and GenToken, and
    /// assemble the Service Provider over the chosen store backend.
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
/// Setup also readies the bases of both halves of the key pair (the
/// prepared public key lives here, the prepared secret key in the TA),
/// so a subscribe writes its stored row and an alert its swept keys with
/// the engine's flat loops, without building a group element.
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
    /// The public key plus its readied bases, reused by every
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
    /// location stops matching alerts). The flat Encrypt writes the row
    /// the Service Provider stores ([`HveScheme::encrypt_for_user`]),
    /// which goes in through the row half of [`ServiceProvider::upsert`];
    /// no pairing is evaluated. Each caller supplies its own `rng`, so
    /// writer threads can subscribe while an alert is being matched.
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
        let attr = index_to_attribute(self.codebook().index_of(cell));
        let row = scheme.encrypt_for_user(&self.ppk, &attr, user_id, rng)?;
        self.sp.upsert_row(&scheme, user_id, row)
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

    /// Issues an alert for a set of cells: the TA minimizes the zone's
    /// cover and its flat GenToken writes each token's keys
    /// ([`TrustedAuthority::issue_queries`]), the SP sweeps them
    /// exhaustively (the cost model's regime) through
    /// [`ServiceProvider::match_queries`], and matched users are
    /// notified. No token element is built and no token is prepared.
    ///
    /// Every call draws fresh tokens, as in the paper's protocol: no two
    /// alerts share token bytes, so the SP cannot link alerts whose
    /// zones share a pattern.
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
        let queries = self.ta.issue_queries(&scheme, alert_cells, rng)?;
        let non_star_bits: u64 = queries.iter().map(|q| q.positions().len() as u64).sum();
        // The analytic model `Σ_tokens (1 + 2·|J|) · n` evaluated on the
        // tokens already in hand, so the alert does not pay minimization
        // a second time.
        let analytic =
            (queries.len() as u64 + 2 * non_star_bits) * self.sp.n_subscriptions() as u64;

        let AlertMatch {
            mut notified,
            pairings,
        } = self.sp.match_queries(&scheme, &queries)?;
        notified.sort_unstable();

        Ok(AlertOutcome {
            notified,
            tokens_issued: queries.len(),
            non_star_bits,
            pairings_used: pairings,
            analytic_pairings: analytic,
        })
    }

    /// Analytic pairing cost of an alert against the current store,
    /// without performing any cryptography.
    pub fn analytic_cost(&self, alert_cells: &[usize]) -> SlaResult<u64> {
        self.ta
            .analytic_pairing_cost(alert_cells, self.sp.n_subscriptions() as u64)
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

    /// On a quiescent system an alert advances the shared counters by
    /// exactly what the reference GenToken records for its cover plus
    /// what the sweep records for its pairings, and a subscribe records
    /// Encrypt's operations and no pairing.
    #[test]
    fn served_paths_count_exactly_the_reference() {
        use crate::convert::{codeword_to_pattern, index_to_attribute};
        use sla_pairing::CounterSnapshot;

        let (system, mut rng) = small_system(EncoderKind::Huffman);
        let scheme = system.scheme();
        let messages: Vec<_> = (0..6).map(|id| scheme.encode_message(id)).collect();
        let before = system.counters().snapshot();
        for (cell, message) in messages.iter().enumerate() {
            let attr = index_to_attribute(system.codebook().index_of(cell));
            scheme.encrypt(system.public_key(), &attr, message, &mut rng);
        }
        let encrypt = system.counters().snapshot() - before;
        let before = system.counters().snapshot();
        for cell in 0..6 {
            system.subscribe_cell(cell as u64, cell, &mut rng).unwrap();
        }
        let subscribes = system.counters().snapshot() - before;
        assert_eq!(subscribes, encrypt);
        assert_eq!(subscribes.pairings, 0);

        let (_, sk) = scheme.setup(&mut rng);
        for cells in [&[1, 4][..], &[0, 1, 2, 3, 4, 5], &[3]] {
            let before = system.counters().snapshot();
            let tokens: Vec<_> = system
                .codebook()
                .tokens_for(cells)
                .iter()
                .map(|cw| scheme.gen_token(&sk, &codeword_to_pattern(cw), &mut rng))
                .collect();
            let gen_token = system.counters().snapshot() - before;

            let before = system.counters().snapshot();
            let outcome = system.issue_alert(cells, &mut rng).unwrap();
            let alert = system.counters().snapshot() - before;

            let n = system.n_subscriptions() as u64;
            let folds: u64 = tokens
                .iter()
                .map(|t| n * (2 * t.non_star_count() as u64 + 2))
                .sum();
            assert_eq!(outcome.pairings_used, outcome.analytic_pairings);
            assert_eq!(
                alert,
                CounterSnapshot {
                    pairings: gen_token.pairings + outcome.pairings_used,
                    gt_mults: gen_token.gt_mults + folds,
                    ..gen_token
                },
                "cells {cells:?}"
            );
        }
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
