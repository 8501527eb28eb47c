//! Shared helpers for RoS integration tests.

use ros_cache::GeomCache;
use ros_em::units::cast::AsF64;
use ros_em::{Complex64, Vec3};
use ros_radar::echo::{Echo, Pose};
use std::sync::OnceLock;

/// Process-wide fixture cache for expensive tag geometry.
///
/// The library crates carry no global caches (DESIGN.md §16): every
/// memoized table lives in an explicitly injected [`GeomCache`]. Test
/// binaries, however, build the same 32-row DE-optimized shaping
/// profile dozens of times across unrelated `#[test]` functions, so
/// they share one fixture cache the way a production composition root
/// would. Cached reads are bit-identical to uncached ones (proved by
/// `cache_determinism.rs`), so sharing cannot couple tests.
pub fn fixture_cache() -> &'static GeomCache {
    static CACHE: OnceLock<GeomCache> = OnceLock::new();
    CACHE.get_or_init(GeomCache::new)
}

/// One crowded capture job for the batch-capture guards: 17 live
/// echoes, enough to fill several groups of the grouped IF-synthesis
/// kernel and leave a scalar remainder, with a zero-amplitude and a
/// behind-the-array echo among them.
pub fn crowded_capture_job() -> (Pose, Vec<Echo>) {
    let echoes = (0..19_usize)
        .map(|k| {
            let x = k.as_f64();
            let y = if k == 11 { -2.0 } else { 3.1 + 0.02 * x };
            let amp = if k == 5 {
                Complex64::ZERO
            } else {
                Complex64::from_polar(ros_em::db::db_to_lin(-45.0), 0.17 * x)
            };
            Echo::new(Vec3::new(-1.8 + 0.2 * x, y, 0.0), amp)
        })
        .collect();
    (Pose::side_looking(Vec3::new(0.2, 0.0, 0.0)), echoes)
}
