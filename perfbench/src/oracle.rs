//! Ground truth for a run: every response is checked against the
//! plaintext positions the client itself sent.
//!
//! The writer connection is the only writer and the server answers its
//! pipelined frames in order, so its operations are totally ordered:
//! write `k` is applied before write `k + 1`. An alert sent at `a.sent`
//! and answered at `a.recv` therefore sees every write answered before
//! `a.sent`, none sent after `a.recv`, and any prefix of the writes in
//! between (the ones *in flight* during the alert). A user with no write
//! in flight must match exactly; a user with one may be in any state the
//! in-flight prefix allows. Pairings must equal
//! `CellCodebook::pairing_cost(zone, n)`, with `n` anywhere between the
//! users present in every allowed state and those present in any, plus
//! [`SUBSCRIBE_PAIRINGS`] for each subscribe in flight.

use sla_datasets::ChurnEvent;
use sla_server::Response;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One write as the writer connection saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteRecord {
    /// The lifecycle event sent.
    pub event: ChurnEvent,
    /// When its frame was written (ns since the run's origin).
    pub sent_ns: u64,
    /// When its response was read.
    pub recv_ns: u64,
    /// The response.
    pub response: Response,
}

/// One alert as the alert connection saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRecord {
    /// The alert zone.
    pub cells: Vec<usize>,
    /// The zone's pairings per stored ciphertext
    /// (`CellCodebook::pairing_cost(zone, 1)`).
    pub cost_per_ct: u64,
    /// When its frame was written.
    pub sent_ns: u64,
    /// When its response was read.
    pub recv_ns: u64,
    /// The response.
    pub response: Response,
}

/// What the oracle found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Writes that failed, were refused or answered wrongly.
    pub failed_writes: usize,
    /// Alerts that failed, were refused, notified the wrong users or
    /// reported the wrong pairing count.
    pub failed_alerts: usize,
    /// The first few violations, for the report.
    pub violations: Vec<String>,
}

impl Verdict {
    fn flag(&mut self, alert: bool, detail: String) {
        if alert {
            self.failed_alerts += 1;
        } else {
            self.failed_writes += 1;
        }
        if self.violations.len() < 8 {
            self.violations.push(detail);
        }
    }

    /// `true` when nothing failed.
    pub fn clean(&self) -> bool {
        self.failed_writes == 0 && self.failed_alerts == 0
    }
}

/// Pairings one `Subscribe` adds to the server's global operation
/// counters: encoding the user's id as the HVE payload costs one pairing
/// (`e(g, g)`), once for the ciphertext and once for the stored expected
/// value. The server reports an alert's pairings as a delta of those
/// global counters, so subscribes served during the alert show up in it.
pub const SUBSCRIBE_PAIRINGS: u64 = 2;

/// Live positions: user → cell.
type Positions = HashMap<u64, usize>;

fn apply(positions: &mut Positions, event: &ChurnEvent) {
    match *event {
        ChurnEvent::Subscribe { user_id, cell } | ChurnEvent::Move { user_id, cell } => {
            positions.insert(user_id, cell);
        }
        ChurnEvent::Unsubscribe { user_id } => {
            positions.remove(&user_id);
        }
    }
}

/// The response a write must get given the state before it.
fn expected_write_response(positions: &Positions, event: &ChurnEvent) -> Response {
    match *event {
        ChurnEvent::Subscribe { user_id, .. } | ChurnEvent::Move { user_id, .. } => {
            Response::Subscribed {
                replaced: positions.contains_key(&user_id),
            }
        }
        ChurnEvent::Unsubscribe { .. } => Response::Unsubscribed,
    }
}

/// Checks a run. `population` is what set-up subscribed, `writes` are in
/// send order and `alerts` in send order.
pub fn check(
    population: &[(u64, usize)],
    writes: &[WriteRecord],
    alerts: &[AlertRecord],
) -> Verdict {
    let mut verdict = Verdict::default();
    let initial: Positions = population.iter().copied().collect();

    // Writes: replay in order, checking each response against the state
    // it was applied to.
    let mut positions = initial.clone();
    for (k, w) in writes.iter().enumerate() {
        let expected = expected_write_response(&positions, &w.event);
        if w.response != expected {
            verdict.flag(
                false,
                format!(
                    "write {k} {:?}: got {:?}, expected {expected:?}",
                    w.event, w.response
                ),
            );
        }
        apply(&mut positions, &w.event);
    }

    // Alerts, in send order: `applied` advances monotonically to the
    // writes definitely applied before each alert was sent.
    let mut positions = initial;
    let mut applied = 0usize;
    for (a_idx, a) in alerts.iter().enumerate() {
        let (notified, pairings) = match &a.response {
            Response::Alerted {
                notified,
                pairings_used,
                ..
            } => (notified, *pairings_used),
            other => {
                verdict.flag(true, format!("alert {a_idx}: got {other:?}"));
                continue;
            }
        };
        let definite = writes.partition_point(|w| w.recv_ns < a.sent_ns);
        let maybe = writes
            .partition_point(|w| w.sent_ns < a.recv_ns)
            .max(definite);
        while applied < definite {
            apply(&mut positions, &writes[applied].event);
            applied += 1;
        }

        // Every state each in-flight user may be in.
        let mut states: BTreeMap<u64, Vec<Option<usize>>> = BTreeMap::new();
        for w in &writes[definite..maybe] {
            let user = w.event.user_id();
            let before = positions.get(&user).copied();
            let next = match w.event {
                ChurnEvent::Subscribe { cell, .. } | ChurnEvent::Move { cell, .. } => Some(cell),
                ChurnEvent::Unsubscribe { .. } => None,
            };
            states
                .entry(user)
                .or_insert_with(|| vec![before])
                .push(next);
        }
        // The matcher scans each shard once under its read lock and a
        // user lives in one shard, so it evaluates every user present in
        // all their possible states and no user absent from all of them.
        let settled = positions.keys().filter(|u| !states.contains_key(u)).count();
        let n_min = settled
            + states
                .values()
                .filter(|s| s.iter().all(Option::is_some))
                .count();
        let n_max = settled
            + states
                .values()
                .filter(|s| s.iter().any(Option::is_some))
                .count();
        let subscribes = writes[definite..maybe]
            .iter()
            .filter(|w| !matches!(w.event, ChurnEvent::Unsubscribe { .. }))
            .count() as u64;

        let zone: HashSet<usize> = a.cells.iter().copied().collect();
        let got: HashSet<u64> = notified.iter().copied().collect();
        let mut wrong = Vec::new();
        for (&user, &cell) in &positions {
            if !states.contains_key(&user) && zone.contains(&cell) != got.contains(&user) {
                wrong.push(user);
            }
        }
        for (&user, seq) in &states {
            let inside = |s: &Option<usize>| s.is_some_and(|c| zone.contains(&c));
            let must = seq.iter().all(inside);
            let may = seq.iter().any(inside);
            let hit = got.contains(&user);
            if (must && !hit) || (hit && !may) {
                wrong.push(user);
            }
        }
        for &user in &got {
            if !positions.contains_key(&user) && !states.contains_key(&user) {
                wrong.push(user);
            }
        }
        if !wrong.is_empty() {
            wrong.sort_unstable();
            wrong.dedup();
            verdict.flag(
                true,
                format!(
                    "alert {a_idx}: {} users notified wrongly (first {:?})",
                    wrong.len(),
                    &wrong[..wrong.len().min(4)]
                ),
            );
            continue;
        }

        let c = a.cost_per_ct;
        let (lo, hi) = (
            c * n_min as u64,
            c * n_max as u64 + SUBSCRIBE_PAIRINGS * subscribes,
        );
        if !(lo..=hi).contains(&pairings) {
            verdict.flag(
                true,
                format!(
                    "alert {a_idx}: {pairings} pairings, expected {c} x n for n in \
                     {n_min}..={n_max} (+ up to {SUBSCRIBE_PAIRINGS} x {subscribes} \
                     in-flight subscribes)"
                ),
            );
        }
    }
    verdict
}
