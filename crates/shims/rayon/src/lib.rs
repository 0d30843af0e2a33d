//! Empty package: nothing in this workspace runs on rayon (alerts are
//! swept serially).
//!
//! The package remains only because the benchmark's frozen
//! `perfbench/Cargo.lock` names it, as a dependency of `sla-core`, whose
//! manifest therefore keeps its `rayon` line. The benchmark change that
//! rewrites that lock drops the line and deletes this package.
