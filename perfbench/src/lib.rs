//! # perfbench
//!
//! The repository's benchmark. One run starts a real alert server
//! process over a Unix socket (the public `SystemBuilder` →
//! `AlertService` → `SlaServer` path), drives it from two connections in
//! this process, checks every response against plaintext ground truth,
//! and reports client-observed end-to-end metrics. A traced run also
//! replays the workload in-process against parties built from the public
//! APIs and times each layer's calls from here — the program itself is
//! not instrumented.
//!
//! Modules: [`workload`] (seeded inputs), [`sched`] (open- and
//! closed-loop senders), [`oracle`] (ground truth), [`serve`] (the server
//! process), [`e2e`] (the socket run), [`trace`] (the per-layer ledger),
//! [`stats`] and [`report`] (output), and [`sys`] (two libc calls for
//! the generator's timing).

#![deny(unsafe_code)]

pub mod e2e;
pub mod oracle;
pub mod report;
pub mod sched;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
