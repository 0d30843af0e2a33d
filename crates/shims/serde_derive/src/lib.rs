//! Empty package: no crate in this workspace derives serde's traits.
//!
//! The package remains only because the benchmark's frozen
//! `perfbench/Cargo.lock` names it, as the dependency of the empty
//! `serde` package. The benchmark change that rewrites that lock deletes
//! both.
