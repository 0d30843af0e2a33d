//! # sla-server
//!
//! The **service plane**: the secure location-based alert protocol of
//! the paper served over a socket, so subscription churn and alert
//! matching arrive from real clients instead of in-process calls.
//!
//! Three layers, each a seam:
//!
//! * [`wire`] — the codec. `[len u32 LE][payload][crc32(len‖payload)
//!   u32 LE]` frames (the `sla-persist` on-disk style, applied to a
//!   stream) carrying tag-dispatched [`Request`]/[`Response`] payloads,
//!   with a hard frame cap enforced before allocation and strict
//!   decoding. Torn input is typed ([`wire::FrameIn::Torn`]), never
//!   resynced.
//! * [`service`] — the executor. An [`sla_core::AlertSystem`] behind
//!   `&self` (the shared-mutation store seam), per-op counters, and the
//!   drain flag. Every error becomes a typed wire error mirroring the
//!   [`sla_core::SlaError`] taxonomy.
//! * [`server`] — the transport. Unix-domain *and* TCP listeners in
//!   front of a hand-rolled blocking worker pool; per-connection logic
//!   lives in the standalone [`serve_connection`], the function an
//!   epoll reactor would call instead. Backpressure is explicit: a
//!   connection that finds the pool and its hand-off queue full is
//!   answered with a typed [`Response::Busy`]. Shutdown is graceful:
//!   drain connections, flush the durable store's WAL, remove the
//!   socket file.
//!
//! The `sla-server` binary wires these to a command line;
//! `tests/live_server.rs` runs that binary as a child process and checks
//! its answers, counters, drain and restart end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod server;
pub mod service;
pub mod wire;

pub use server::{serve_connection, ConnOutcome, ServeReport, ServerConfig, SlaServer};
pub use service::AlertService;
pub use wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame,
    read_frame_abortable, write_frame, DecodeError, ErrorCode, FrameIn, Request, Response,
    WireLaneStats, WireStats, MAX_FRAME_BYTES,
};
