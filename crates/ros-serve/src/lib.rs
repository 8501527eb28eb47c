//! Fleet-scale corridor reader service.
//!
//! The batch reader ([`ros_core::reader::DriveBy`]) answers "what does
//! one pass decode to?". A deployed roadside system answers a bigger
//! question continuously: N roadside radars each watch M vehicles
//! drive past K tags, and every pass must yield a sign read without
//! the service's memory growing with drive length.
//!
//! This crate wires the streaming reader primitives
//! ([`ros_core::stream`]) into that service shape:
//!
//! * [`corridor`] — deterministic corridor scenario generation: the
//!   full encounter list (radar × vehicle × tag) with per-encounter
//!   seeds, speeds, and tag words derived from one master seed.
//! * [`service`] — the sharded worker topology: per-shard frame
//!   producers feed decode workers over bounded
//!   [`ros_exec::channel`]s (explicit backpressure — a full channel
//!   blocks the producer and counts a stall, never drops), workers
//!   fan reads into an aggregator, and the aggregate read log is
//!   proven bit-identical at any worker count by canonical ordering.
//!
//! Observability: the service emits the `serve.*` metric family
//! (declared in `ros_obs::names::ALL`) — frames in/out, reads,
//! backpressure stalls, channel high-water mark, and a decode-latency
//! histogram (count/sum/min/max, like every `ros_obs` histogram).
//!
//! Geometry memoization: every worker shares one injected
//! [`ros_cache::GeomCache`] snapshot, so a K-tag corridor builds each
//! distinct tag design's tables exactly once per cache regardless of
//! the encounter count. [`run_corridor_with`] is the entry point (pass
//! `&GeomCache::new()` for a cold run); [`run_corridor_uncached`] is
//! the no-memoization reference. Cache traffic surfaces as the
//! `cache.*` counters and in [`ServeReport`]'s
//! `cache_hits`/`cache_misses`.

pub mod corridor;
mod service;

pub use corridor::{CorridorConfig, Encounter};
pub use service::{run_corridor_uncached, run_corridor_with, ServeReport};
