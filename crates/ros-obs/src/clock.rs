//! The injected-clock boundary: the one place that reads the OS clock.
//!
//! Every span duration in the workspace flows through [`now_ns`].
//! Library code never touches `std::time` directly — clippy's
//! `disallowed_types`/`disallowed_methods` (root `clippy.toml`) enforce
//! it, and this file is their sole exemption. The clock belongs to the
//! calling thread's run and is *null* by default: it reads 0 until a
//! binary edge installs the monotonic clock, which is what keeps
//! determinism tests clock-free and golden traces bit-stable
//! (`dur_ns: 0` everywhere).
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the injected-clock boundary is the one place allowed to read the OS clock"
)]

use std::sync::OnceLock;
use std::time::Instant;

/// Epoch of the monotonic clock (set once on first install).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Installs the real monotonic clock on the calling thread's run (span
/// durations become wall time).
///
/// Only "edges" — binaries like `bench`, never library code — should
/// call this (normally via [`crate::init_from_env`]); determinism tests
/// rely on the default null clock so traces carry `dur_ns: 0` and stay
/// bit-stable.
pub fn install_monotonic_clock() {
    let _ = EPOCH.get_or_init(Instant::now);
    crate::run::set_monotonic();
}

/// Nanoseconds since the installed epoch (0 under the null clock).
#[expect(
    clippy::as_conversions,
    reason = "monotonic nanoseconds fit u64 for ~584 years of uptime"
)]
pub fn now_ns() -> u64 {
    match EPOCH.get() {
        // Truncation after ~584 years of uptime is acceptable.
        Some(epoch) if crate::run::monotonic() => epoch.elapsed().as_nanos() as u64,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_clock_reads_zero() {
        assert_eq!(now_ns(), 0);
    }

    #[test]
    fn monotonic_clock_advances_and_null_reinstalls() {
        let null = crate::RunContext::current();
        install_monotonic_clock();
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a, "monotonic clock must not run backwards");
        null.within(|| assert_eq!(now_ns(), 0, "entering a null-clock run reinstalls it"));
        assert!(now_ns() >= b, "the guard restores the monotonic clock");
        let other = std::thread::spawn(now_ns).join().expect("thread joins");
        assert_eq!(other, 0, "another thread keeps its null clock");
    }
}
