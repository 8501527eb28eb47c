//! The injected-clock boundary: the one place that reads the OS clock.
//!
//! Every span duration in the workspace flows through [`now_ns`].
//! Library code never touches `std::time` directly — clippy's
//! `disallowed_types`/`disallowed_methods` (root `clippy.toml`) enforce
//! it, and this file is their sole exemption. The default clock is *null*: it
//! reads 0 until a binary edge installs the monotonic clock, which is
//! what keeps determinism tests clock-free and golden traces bit-stable
//! (`dur_ns: 0` everywhere).
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the injected-clock boundary is the one place allowed to read the OS clock"
)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Clock kind: 0 = null (always reads 0), 1 = monotonic.
static CLOCK: AtomicU8 = AtomicU8::new(0);

/// Epoch of the monotonic clock (set once on first install).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Installs the real monotonic clock (span durations become wall time).
///
/// Only "edges" — binaries like `bench`, never library code — should
/// call this (normally via [`crate::init_from_env`]); determinism tests
/// rely on the default null clock so traces carry `dur_ns: 0` and stay
/// bit-stable.
pub fn install_monotonic_clock() {
    let _ = EPOCH.get_or_init(Instant::now);
    CLOCK.store(1, Ordering::Relaxed);
}

/// Reinstalls the null clock (span durations read 0).
pub fn install_null_clock() {
    CLOCK.store(0, Ordering::Relaxed);
}

/// Nanoseconds since the installed epoch (0 under the null clock).
pub fn now_ns() -> u64 {
    if CLOCK.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    monotonic_ns()
}

/// Nanoseconds since the monotonic epoch (0 before one is set).
#[expect(clippy::as_conversions, reason = "monotonic nanoseconds fit u64 for ~584 years of uptime")]
fn monotonic_ns() -> u64 {
    match EPOCH.get() {
        // Truncation after ~584 years of uptime is acceptable.
        Some(epoch) => epoch.elapsed().as_nanos() as u64,
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_clock_reads_zero() {
        install_null_clock();
        assert_eq!(now_ns(), 0);
    }

    #[test]
    fn monotonic_clock_advances_and_null_reinstalls() {
        // Reads the monotonic source directly instead of switching the
        // process-wide clock, which `null_clock_reads_zero` running on
        // another test thread would see (and flip back) mid-test.
        let _ = EPOCH.get_or_init(Instant::now);
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a, "monotonic clock must not run backwards");
        install_null_clock();
        assert_eq!(now_ns(), 0);
    }
}
