//! Content-addressed geometry/EM memoization (`ros-cache`).
//!
//! A corridor reuses a handful of tag designs across thousands of
//! encounters, yet RCS grids, array-factor patterns, TL dispersion
//! tables, and DE beam-shaping profiles are pure functions of their
//! inputs. This crate memoizes them behind one explicit, *injected*
//! store:
//!
//! * [`key::KeyBuilder`] turns exact inputs (f64s by bit pattern)
//!   into structural [`key::Key`]s.
//! * [`GeomCache`] maps keys to shared immutable `Arc<T>` tables with
//!   bounded capacity, deterministic insertion-order eviction,
//!   explicit [`GeomCache::clear`]/[`GeomCache::invalidate_kind`], and
//!   per-kind hit/miss/insert/evict counters exported as `cache.*`
//!   metrics.
//!
//! **No globals.** The PR 5 incident (an implicit one-shot shaping
//! cache made golden traces cache-temperature-dependent) fixed the
//! design rule: every cache is passed by reference from the
//! composition root, and `tests/cache_determinism.rs` proves results
//! are bit-identical whether the cache is cold, pre-warmed, or
//! thrashing at capacity 1.

pub mod key;
mod store;

pub use key::{Key, KeyBuilder};
pub use store::{CacheStats, GeomCache, StatsSnapshot, TableKind};
