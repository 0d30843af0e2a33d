//! The request executor: an [`AlertSystem`] behind `&self`, plus the
//! server's own RPC counters and drain flag.
//!
//! Every RPC reaches the store through the system's `&self` lifecycle
//! and alert calls (`subscribe_cell`, `unsubscribe`, `issue_alert`), so
//! one [`AlertService`] serves all connections concurrently without an
//! outer lock.

use crate::wire::{error_response, wire_stats, Request, Response};
use rand::Rng;
use sla_core::{AlertSystem, SlaError, SlaResult};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The service state shared by every connection handler.
#[derive(Debug)]
pub struct AlertService {
    system: AlertSystem,
    /// Requests served, indexed subscribe/unsubscribe/alert/stats.
    ops: [AtomicU64; 4],
    busy_rejections: AtomicU64,
    draining: AtomicBool,
}

impl AlertService {
    /// Wraps a system for serving. Always `Ok`: every store backend
    /// serves concurrent churn.
    pub fn new(system: AlertSystem) -> SlaResult<Self> {
        Ok(AlertService {
            system,
            ops: Default::default(),
            busy_rejections: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        })
    }

    /// The wrapped system (tests inspect it after a drain).
    pub fn system(&self) -> &AlertSystem {
        &self.system
    }

    /// `true` once a `shutdown` RPC has been accepted: the accept loop
    /// stops, in-flight requests finish, and no new ones are executed.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Marks the service as draining (the `shutdown` RPC, or a signal
    /// handler if a deployment adds one).
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Records one [`Response::Busy`] rejection (the server's accept
    /// loop calls this when the pool is full; it lives here so the
    /// count shows up in `stats`).
    pub fn note_busy(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Flushes the durable store (no-op on volatile backends) — the
    /// last step of a graceful shutdown.
    pub fn sync(&self) -> SlaResult<()> {
        self.system.sync()
    }

    fn count_op(&self, idx: usize) {
        self.ops[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Executes one request. Infallible at this layer: every service
    /// error becomes a typed [`Response::Error`]. Requests that race a
    /// drain are rejected with `ErrorCode::ShuttingDown` instead of
    /// executing against a store that is about to be flushed and
    /// closed.
    pub fn handle<R: Rng>(&self, req: &Request, rng: &mut R) -> Response {
        if self.is_draining() && !matches!(req, Request::Shutdown | Request::Stats) {
            return Response::Error {
                code: crate::wire::ErrorCode::ShuttingDown,
                detail: "server is draining; request not executed".into(),
            };
        }
        match req {
            Request::Subscribe { user_id, cell } => {
                self.count_op(0);
                let cell = match cell_index(*cell, &self.system) {
                    Ok(c) => c,
                    Err(e) => return error_response(&e),
                };
                match self.system.subscribe_cell(*user_id, cell, rng) {
                    Ok(outcome) => Response::Subscribed {
                        replaced: outcome == sla_core::UpsertOutcome::Replaced,
                    },
                    Err(e) => error_response(&e),
                }
            }
            Request::Unsubscribe { user_id } => {
                self.count_op(1);
                match self.system.unsubscribe(*user_id) {
                    Ok(()) => Response::Unsubscribed,
                    Err(e) => error_response(&e),
                }
            }
            Request::Alert { cells } => {
                self.count_op(2);
                match cell_indices(cells, &self.system)
                    .and_then(|cells| self.system.issue_alert(&cells, rng))
                {
                    Ok(outcome) => alerted(outcome),
                    Err(e) => error_response(&e),
                }
            }
            Request::Stats => {
                self.count_op(3);
                let ops = [
                    self.ops[0].load(Ordering::Relaxed),
                    self.ops[1].load(Ordering::Relaxed),
                    self.ops[2].load(Ordering::Relaxed),
                    // Count this very request.
                    self.ops[3].load(Ordering::Relaxed),
                ];
                Response::Stats(wire_stats(
                    &self.system.service_stats(),
                    ops,
                    self.busy_rejections.load(Ordering::Relaxed),
                ))
            }
            Request::Shutdown => {
                self.begin_drain();
                Response::ShuttingDown
            }
        }
    }
}

fn alerted(outcome: sla_core::AlertOutcome) -> Response {
    Response::Alerted {
        notified: outcome.notified,
        tokens_issued: outcome.tokens_issued as u32,
        pairings_used: outcome.pairings_used,
    }
}

/// Validates one wire cell index against the grid (also catching `u64`
/// values that do not fit `usize` on narrow targets).
fn cell_index(cell: u64, system: &AlertSystem) -> SlaResult<usize> {
    let n_cells = system.grid().n_cells();
    match usize::try_from(cell) {
        Ok(c) if c < n_cells => Ok(c),
        _ => Err(SlaError::CellOutOfRange {
            cell: usize::try_from(cell).unwrap_or(usize::MAX),
            n_cells,
        }),
    }
}

fn cell_indices(cells: &[u64], system: &AlertSystem) -> SlaResult<Vec<usize>> {
    cells.iter().map(|&c| cell_index(c, system)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ErrorCode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sla_core::{StoreBackend, SystemBuilder};
    use sla_grid::{Grid, ProbabilityMap};

    fn service() -> (AlertService, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x5e41);
        let grid = Grid::chicago_downtown_32();
        let probs = ProbabilityMap::uniform(grid.n_cells());
        let system = SystemBuilder::new(grid)
            .group_bits(40)
            .store(StoreBackend::ConcurrentSharded { shards: 4 })
            .build(&probs, &mut rng)
            .expect("valid configuration");
        (AlertService::new(system).expect("always Ok"), rng)
    }

    #[test]
    fn requests_execute_against_the_store() {
        let (svc, mut rng) = service();
        let resp = svc.handle(
            &Request::Subscribe {
                user_id: 7,
                cell: 12,
            },
            &mut rng,
        );
        assert_eq!(resp, Response::Subscribed { replaced: false });
        let resp = svc.handle(
            &Request::Subscribe {
                user_id: 7,
                cell: 13,
            },
            &mut rng,
        );
        assert_eq!(resp, Response::Subscribed { replaced: true });

        match svc.handle(&Request::Alert { cells: vec![13] }, &mut rng) {
            Response::Alerted { notified, .. } => assert_eq!(notified, vec![7]),
            other => panic!("{other:?}"),
        }

        assert_eq!(
            svc.handle(&Request::Unsubscribe { user_id: 7 }, &mut rng),
            { Response::Unsubscribed }
        );
        match svc.handle(&Request::Unsubscribe { user_id: 7 }, &mut rng) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownUser),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_reflect_op_counters() {
        let (svc, mut rng) = service();
        svc.handle(
            &Request::Subscribe {
                user_id: 1,
                cell: 0,
            },
            &mut rng,
        );
        svc.handle(&Request::Alert { cells: vec![0] }, &mut rng);
        svc.note_busy();
        match svc.handle(&Request::Stats, &mut rng) {
            Response::Stats(stats) => {
                assert_eq!(stats.backend, "concurrent-sharded");
                assert_eq!(stats.subscriptions, 1);
                assert_eq!(stats.ops_subscribe, 1);
                assert_eq!(stats.ops_alert, 1);
                assert_eq!(stats.busy_rejections, 1);
                assert_eq!(stats.recovered_epoch, None);
                // Volatile backends have no durability lanes to report.
                assert!(stats.lanes.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_cells_map_to_typed_errors() {
        let (svc, mut rng) = service();
        match svc.handle(
            &Request::Subscribe {
                user_id: 1,
                cell: 1 << 20,
            },
            &mut rng,
        ) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::CellOutOfRange),
            other => panic!("{other:?}"),
        }
        match svc.handle(
            &Request::Alert {
                cells: vec![0, u64::MAX],
            },
            &mut rng,
        ) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::CellOutOfRange),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drain_rejects_new_work_but_answers_stats() {
        let (svc, mut rng) = service();
        assert_eq!(
            svc.handle(&Request::Shutdown, &mut rng),
            Response::ShuttingDown
        );
        assert!(svc.is_draining());
        match svc.handle(
            &Request::Subscribe {
                user_id: 1,
                cell: 0,
            },
            &mut rng,
        ) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            svc.handle(&Request::Stats, &mut rng),
            Response::Stats(_)
        ));
    }
}
