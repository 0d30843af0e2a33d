//! [`SlaError`]: the workspace-wide error taxonomy of the service layer.
//!
//! Every fallible entry point of the public service API — system
//! construction, the subscription lifecycle, and alert issuance — returns
//! a typed [`SlaError`] instead of panicking. Errors raised by the
//! substrate crates (`sla-grid`, `sla-encoding`, `sla-hve`) convert into
//! the matching service-level variant via `From`, so `?` composes across
//! the whole stack.

use sla_encoding::EncodingError;
use sla_grid::GridError;
use sla_hve::HveError;
use sla_persist::PersistError;
use std::fmt;

/// `Result` alias over [`SlaError`] used throughout the service API.
pub type SlaResult<T> = Result<T, SlaError>;

/// Why a service-layer operation could not be performed.
///
/// (Not `Copy`: the durable-store variants carry rendered context
/// strings — `PersistError` wraps `std::io::Error`, which is neither
/// `Clone` nor `PartialEq`, so the service layer keeps the display form.)
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SlaError {
    /// A cell index outside the configured grid.
    CellOutOfRange {
        /// The offending cell.
        cell: usize,
        /// Number of cells the grid has.
        n_cells: usize,
    },
    /// The probability map does not cover the grid.
    ProbabilityMapMismatch {
        /// Cells in the supplied map.
        map_cells: usize,
        /// Cells in the grid.
        grid_cells: usize,
    },
    /// A likelihood score was negative, non-finite, or the whole surface
    /// was zero/empty.
    InvalidLikelihoods(GridError),
    /// The grid or bounding box itself was degenerate.
    InvalidGrid(GridError),
    /// The codebook could not be built from the supplied surface.
    InvalidCodebook(EncodingError),
    /// An HVE-layer error with no dedicated service-level variant
    /// (preserved verbatim rather than approximated).
    Hve(HveError),
    /// `group_bits` outside the simulation's supported range.
    InvalidGroupBits {
        /// The requested per-prime bit length.
        bits: usize,
    },
    /// A sharded store with zero shards.
    ZeroShardCount,
    /// A token/ciphertext/key width that does not match the system's
    /// HVE width.
    WidthMismatch {
        /// The width this system operates at.
        expected: usize,
        /// The width of the offending input.
        actual: usize,
    },
    /// A scheme over another group than the one the Service Provider's
    /// stored rows were brought to (the first scheme it saw).
    GroupMismatch {
        /// Bit length of the pinned group's order.
        expected_bits: usize,
        /// Bit length of the offending scheme's group order.
        actual_bits: usize,
    },
    /// A user id outside the HVE message domain (ids double as encrypted
    /// payloads, so they must fit in `2^MESSAGE_DOMAIN_BITS`).
    MessageOutOfDomain {
        /// The offending user id.
        id: u64,
    },
    /// An operation on a user the store does not hold.
    UnknownUser {
        /// The offending user id.
        user_id: u64,
    },
    /// A geographic point outside the grid's bounding box.
    PointOutsideGrid {
        /// Latitude of the point.
        lat: f64,
        /// Longitude of the point.
        lon: f64,
    },
    /// A durable-store I/O failure (open, append, fsync, snapshot
    /// promotion). The store may work again once the environment
    /// recovers; the in-memory index is unaffected.
    Storage {
        /// The rendered `sla_persist::PersistError::Io`.
        detail: String,
    },
    /// Durable-store bytes failed structural or CRC validation somewhere
    /// a torn tail is not tolerated (a snapshot, or a mid-file frame).
    /// Recovery refuses to guess; operator intervention is required.
    Corrupt {
        /// The rendered `sla_persist::PersistError::Corrupt`.
        detail: String,
    },
    /// A transport-level I/O failure (socket read/write, bind, accept).
    /// Raised by the service plane (`sla-server`) so network failures
    /// surface through the same taxonomy as every other service error.
    /// (Carries the rendered `std::io::Error` — like [`SlaError::Storage`],
    /// the inner error is neither `Clone` nor `PartialEq`.)
    Io {
        /// The rendered `std::io::Error`.
        detail: String,
    },
    /// Bytes arrived over the wire that do not form a valid protocol
    /// frame or payload (torn frame, CRC mismatch, oversized frame,
    /// unknown tag, trailing bytes). The peer is misbehaving or speaking
    /// a different protocol version; the connection cannot be resynced.
    Protocol {
        /// What failed to parse.
        detail: String,
    },
}

impl fmt::Display for SlaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlaError::CellOutOfRange { cell, n_cells } => {
                write!(f, "cell {cell} out of range (grid has {n_cells} cells)")
            }
            SlaError::ProbabilityMapMismatch {
                map_cells,
                grid_cells,
            } => write!(
                f,
                "probability map covers {map_cells} cells but the grid has {grid_cells}"
            ),
            SlaError::InvalidLikelihoods(e) | SlaError::InvalidGrid(e) => e.fmt(f),
            SlaError::InvalidCodebook(e) => e.fmt(f),
            SlaError::Hve(e) => e.fmt(f),
            SlaError::InvalidGroupBits { bits } => write!(
                f,
                "group_bits {bits} outside the supported range [{MIN_GROUP_BITS}, {MAX_GROUP_BITS}]"
            ),
            SlaError::ZeroShardCount => write!(f, "sharded store needs at least one shard"),
            SlaError::WidthMismatch { expected, actual } => {
                write!(
                    f,
                    "width mismatch: system width {expected}, input width {actual}"
                )
            }
            SlaError::GroupMismatch {
                expected_bits,
                actual_bits,
            } => write!(
                f,
                "group mismatch: the store holds rows of a {expected_bits}-bit group order, \
                 the scheme's order is another ({actual_bits} bits)"
            ),
            SlaError::MessageOutOfDomain { id } => {
                write!(f, "user id {id} outside the HVE message domain")
            }
            SlaError::UnknownUser { user_id } => {
                write!(f, "user {user_id} has no stored subscription")
            }
            SlaError::PointOutsideGrid { lat, lon } => {
                write!(f, "point ({lat}, {lon}) lies outside the grid")
            }
            SlaError::Storage { detail } => write!(f, "durable store I/O failure: {detail}"),
            SlaError::Corrupt { detail } => write!(f, "durable store corruption: {detail}"),
            SlaError::Io { detail } => write!(f, "transport I/O failure: {detail}"),
            SlaError::Protocol { detail } => write!(f, "wire protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for SlaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SlaError::InvalidLikelihoods(e) | SlaError::InvalidGrid(e) => Some(e),
            SlaError::InvalidCodebook(e) => Some(e),
            SlaError::Hve(e) => Some(e),
            _ => None,
        }
    }
}

/// Smallest per-prime bit length the simulated group accepts through the
/// builder (below this the message domain no longer fits the order).
pub const MIN_GROUP_BITS: usize = 24;

/// Largest per-prime bit length the builder accepts (prime generation
/// cost grows steeply beyond this and the simulation gains nothing).
pub const MAX_GROUP_BITS: usize = 256;

impl From<GridError> for SlaError {
    fn from(e: GridError) -> Self {
        match e {
            GridError::EmptyProbabilityMap
            | GridError::InvalidLikelihood { .. }
            | GridError::AllZeroLikelihoods => SlaError::InvalidLikelihoods(e),
            GridError::DegenerateBoundingBox { .. } | GridError::ZeroGridDimension { .. } => {
                SlaError::InvalidGrid(e)
            }
            _ => SlaError::InvalidGrid(e),
        }
    }
}

impl From<EncodingError> for SlaError {
    fn from(e: EncodingError) -> Self {
        match e {
            EncodingError::CellOutOfRange { cell, n_cells } => {
                SlaError::CellOutOfRange { cell, n_cells }
            }
            _ => SlaError::InvalidCodebook(e),
        }
    }
}

impl From<PersistError> for SlaError {
    fn from(e: PersistError) -> Self {
        // A lane aggregate maps by its worst content: any corrupt lane
        // makes the whole error `Corrupt` (the directory needs operator
        // attention), otherwise it is an environmental `Storage`
        // failure. The Display form already names every failed lane.
        if e.is_corrupt() {
            SlaError::Corrupt {
                detail: e.to_string(),
            }
        } else {
            SlaError::Storage {
                detail: e.to_string(),
            }
        }
    }
}

impl From<std::io::Error> for SlaError {
    fn from(e: std::io::Error) -> Self {
        SlaError::Io {
            detail: e.to_string(),
        }
    }
}

impl From<HveError> for SlaError {
    fn from(e: HveError) -> Self {
        match e {
            HveError::WidthMismatch { expected, actual } => {
                SlaError::WidthMismatch { expected, actual }
            }
            HveError::MessageOutOfDomain { id } => SlaError::MessageOutOfDomain { id },
            // ZeroWidth (and any future HveError variant) passes through
            // verbatim rather than being approximated by a width error.
            other => SlaError::Hve(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(SlaError, &str)> = vec![
            (
                SlaError::CellOutOfRange {
                    cell: 9,
                    n_cells: 4,
                },
                "cell 9 out of range",
            ),
            (
                SlaError::ProbabilityMapMismatch {
                    map_cells: 3,
                    grid_cells: 4,
                },
                "covers 3 cells",
            ),
            (
                SlaError::WidthMismatch {
                    expected: 5,
                    actual: 3,
                },
                "width mismatch",
            ),
            (SlaError::UnknownUser { user_id: 7 }, "user 7"),
            (
                SlaError::Storage {
                    detail: "fsync wal /x/wal.000001: disk full".into(),
                },
                "durable store I/O failure",
            ),
            (
                SlaError::Corrupt {
                    detail: "corrupt frame in /x/snapshot.bin at offset 9".into(),
                },
                "durable store corruption",
            ),
            (
                SlaError::Io {
                    detail: "connection reset by peer".into(),
                },
                "transport I/O failure",
            ),
            (
                SlaError::Protocol {
                    detail: "crc mismatch in request frame".into(),
                },
                "wire protocol violation",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err:?} -> {err} missing {needle:?}"
            );
        }
    }

    #[test]
    fn substrate_errors_convert() {
        assert_eq!(
            SlaError::from(EncodingError::CellOutOfRange {
                cell: 8,
                n_cells: 5
            }),
            SlaError::CellOutOfRange {
                cell: 8,
                n_cells: 5
            }
        );
        assert_eq!(
            SlaError::from(HveError::MessageOutOfDomain { id: 1 << 40 }),
            SlaError::MessageOutOfDomain { id: 1 << 40 }
        );
        assert!(matches!(
            SlaError::from(GridError::AllZeroLikelihoods),
            SlaError::InvalidLikelihoods(_)
        ));
        // Durable-store errors keep their family: Io -> Storage (the
        // environment may recover), Corrupt -> Corrupt (it will not).
        assert!(matches!(
            SlaError::from(PersistError::io(
                "fsync wal",
                "/x/wal.000001",
                std::io::Error::other("disk full"),
            )),
            SlaError::Storage { .. }
        ));
        assert!(matches!(
            SlaError::from(PersistError::corrupt("/x/snapshot.bin", 9, "crc mismatch")),
            SlaError::Corrupt { .. }
        ));
        // Lane aggregates map by their worst content: all-Io stays
        // Storage, any corrupt lane escalates to Corrupt; either way the
        // detail names every failed lane.
        let all_io = PersistError::from_lanes(vec![
            (
                0,
                PersistError::io(
                    "fsync wal",
                    "/x/shard.000/wal.000001",
                    std::io::Error::other("a"),
                ),
            ),
            (
                3,
                PersistError::io(
                    "fsync wal",
                    "/x/shard.003/wal.000002",
                    std::io::Error::other("b"),
                ),
            ),
        ])
        .unwrap();
        match SlaError::from(all_io) {
            SlaError::Storage { detail } => {
                assert!(
                    detail.contains("[shard 0]") && detail.contains("[shard 3]"),
                    "{detail}"
                )
            }
            other => panic!("{other:?}"),
        }
        let one_corrupt = PersistError::from_lanes(vec![
            (
                1,
                PersistError::io(
                    "fsync wal",
                    "/x/shard.001/wal.000001",
                    std::io::Error::other("a"),
                ),
            ),
            (
                2,
                PersistError::corrupt("/x/shard.002/snapshot.bin", 0, "page 3 checksum"),
            ),
        ])
        .unwrap();
        assert!(matches!(
            SlaError::from(one_corrupt),
            SlaError::Corrupt { .. }
        ));
        // Transport errors keep their rendered detail so operators can
        // tell a refused bind from a mid-stream reset.
        match SlaError::from(std::io::Error::other("address in use")) {
            SlaError::Io { detail } => assert!(detail.contains("address in use")),
            other => panic!("{other:?}"),
        }
    }
}
