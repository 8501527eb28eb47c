//! Plan cache: memoized FFT plans and window tables keyed by their
//! build parameters.
//!
//! The decode and detect prologues resolve plans here once per
//! configuration; the steady-state kernels then borrow the plans and
//! run allocation-free. Lookups use `BTreeMap` so any iteration
//! over cached plans is deterministic (clippy's `HashMap` ban).
//!
//! Cache misses build a plan (allocating); that is why no method of
//! [`PlanCache`] may be called from a steady-state kernel. Callers split
//! resolution (prologue, warm-up) from execution (steady state).

use crate::fft::FftPlan;
use crate::window::{Window, WindowTable};
use std::collections::BTreeMap;

/// Memoized plan storage; one per worker or per long-lived scratch
/// arena. See the module docs for the resolution/execution split.
#[derive(Clone, Debug, Default)]
pub struct PlanCache {
    fft: BTreeMap<usize, FftPlan>,
    windows: BTreeMap<(u8, usize), WindowTable>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The FFT plan for transforms of length `n`, built on first use.
    pub fn fft(&mut self, n: usize) -> &FftPlan {
        self.fft.entry(n).or_insert_with(|| FftPlan::new(n))
    }

    /// Resolves a window table *and* an FFT plan in one call, so a
    /// prologue can hold shared references to both while a hot-path
    /// kernel runs (the two live in disjoint maps, so the borrows
    /// coexist without a fallible re-lookup).
    pub fn window_and_fft(
        &mut self,
        window: Window,
        window_n: usize,
        fft_n: usize,
    ) -> (&WindowTable, &FftPlan) {
        let table = self
            .windows
            .entry((window.key(), window_n))
            .or_insert_with(|| WindowTable::new(window, window_n));
        let plan = self.fft.entry(fft_n).or_insert_with(|| FftPlan::new(fft_n));
        (table, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_by_size() {
        // Interleaved sizes each resolve to the plan of their own size.
        let mut cache = PlanCache::new();
        assert_eq!(cache.fft(64).len(), 64);
        assert_eq!(cache.fft(128).len(), 128);
        assert_eq!(cache.fft(64).len(), 64);
    }

    #[test]
    fn combined_resolution_yields_coexisting_refs() {
        let mut cache = PlanCache::new();
        let (table, plan) = cache.window_and_fft(Window::Hann, 512, 64);
        assert_eq!(plan.len(), 64);
        assert_eq!(table.len(), 512);
    }

    #[test]
    fn windows_keyed_by_shape_and_length() {
        let mut cache = PlanCache::new();
        let taper = |cache: &mut PlanCache, window, n| {
            let mut v = vec![1.0; n];
            cache.window_and_fft(window, n, 64).0.taper(&mut v);
            v
        };
        let hann = taper(&mut cache, Window::Hann, 512);
        let hamming = taper(&mut cache, Window::Hamming, 512);
        let short = taper(&mut cache, Window::Hann, 256);
        assert_ne!(hann, hamming);
        assert_eq!(short.len(), 256);
        assert_eq!(taper(&mut cache, Window::Hann, 512), hann);
    }
}
