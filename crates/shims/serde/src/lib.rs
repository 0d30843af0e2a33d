//! Empty package: no crate in this workspace serializes through serde.
//! The rows the Service Provider stores and the requests and alerts on
//! the wire all go through `sla-persist`'s CRC-framed binary codec.
//!
//! The package remains only because the benchmark's frozen
//! `perfbench/Cargo.lock` names it, as a dependency of seven `sla-*`
//! crates whose manifests therefore keep their `serde` line. The
//! benchmark change that rewrites that lock drops those lines and
//! deletes this package with `serde_derive`.
