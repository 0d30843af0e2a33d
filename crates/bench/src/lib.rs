//! # sla-bench
//!
//! Experiment harness reproducing **every figure of §7** of the paper.
//! Each `figNN` module exposes a pure function returning the figure's data
//! series; the `repro` binary prints them as tables and writes
//! `results/figNN.csv`. The [`primitives`] module times the arithmetic,
//! the HVE phases and the store backends for
//! `results/BENCH_primitives.json`, and `repro --smoke` runs it at its
//! smallest size. That is all `repro` does: the served protocol is timed
//! end to end by `perfbench/` and checked by the workspace tests.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig07`] | LE (length excess) numeric vs analytic bound |
//! | [`fig08`] | Chicago crime dataset statistics |
//! | [`fig09`] | Real-dataset evaluation (pairings & improvement vs radius) |
//! | [`fig10`] | Synthetic sweep over sigmoid (a, b) |
//! | [`fig11`] | Mixed workloads W1–W4 |
//! | [`fig12`] | Varying grid granularity |
//! | [`fig13`] | Average-to-maximum code length ratio |
//! | [`fig14`] | System initialization time |

#![forbid(unsafe_code)]

pub mod common;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod primitives;
pub mod table;

/// Number of stored ciphertexts the cost model charges each alert against
/// (a population size; improvement percentages are invariant to it).
pub const N_CIPHERTEXTS: u64 = 10_000;

/// Master seed for every experiment (reproducibility).
pub const SEED: u64 = 20_210_323; // EDBT 2021 conference date
