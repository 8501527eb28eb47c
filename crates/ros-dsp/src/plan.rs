//! Plan cache: memoized FFT / CZT / window plans keyed by their build
//! parameters.
//!
//! The decode and detect prologues resolve plans here once per
//! configuration; the `lint: hot-path` kernels then borrow the plans
//! and run allocation-free. Lookups use `BTreeMap` so any iteration
//! over cached plans is deterministic (clippy's `HashMap` ban),
//! and CZT arc parameters are keyed by their exact `f64` bit patterns
//! — two configurations share a plan only when the planned transform
//! would be bit-identical.
//!
//! Cache misses build a plan (allocating); that is why no method of
//! [`PlanCache`] may be called from a hot-path kernel. Callers split
//! resolution (prologue, warm-up) from execution (steady state).

use crate::czt::CztPlan;
use crate::fft::FftPlan;
use crate::window::{Window, WindowTable};
use ros_em::Complex64;
use std::collections::BTreeMap;

/// Cache key for a CZT plan: sizes plus the exact bit patterns of the
/// arc parameters `w` and `a`.
type CztKey = (usize, usize, (u64, u64), (u64, u64));

/// Memoized plan storage; one per worker or per long-lived scratch
/// arena. See the module docs for the resolution/execution split.
#[derive(Clone, Debug, Default)]
pub struct PlanCache {
    fft: BTreeMap<usize, FftPlan>,
    czt: BTreeMap<CztKey, CztPlan>,
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

    /// The CZT plan for `czt(x, m, w, a)` with `x.len() == n`, built on
    /// first use.
    pub fn czt(&mut self, n: usize, m: usize, w: Complex64, a: Complex64) -> &CztPlan {
        let key = (
            n,
            m,
            (w.re.to_bits(), w.im.to_bits()),
            (a.re.to_bits(), a.im.to_bits()),
        );
        self.czt.entry(key).or_insert_with(|| CztPlan::new(n, m, w, a))
    }

    /// The window table for `window` at length `n`, built on first use.
    pub fn window(&mut self, window: Window, n: usize) -> &WindowTable {
        self.windows
            .entry((window.key(), n))
            .or_insert_with(|| WindowTable::new(window, n))
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

    /// Resolves a window table *and* a CZT plan in one call; the CZT
    /// twin of [`PlanCache::window_and_fft`].
    pub fn window_and_czt(
        &mut self,
        window: Window,
        window_n: usize,
        n: usize,
        m: usize,
        w: Complex64,
        a: Complex64,
    ) -> (&WindowTable, &CztPlan) {
        let table = self
            .windows
            .entry((window.key(), window_n))
            .or_insert_with(|| WindowTable::new(window, window_n));
        let key = (
            n,
            m,
            (w.re.to_bits(), w.im.to_bits()),
            (a.re.to_bits(), a.im.to_bits()),
        );
        let plan = self.czt.entry(key).or_insert_with(|| CztPlan::new(n, m, w, a));
        (table, plan)
    }

    /// Total number of cached plans across all kinds.
    pub fn len(&self) -> usize {
        self.fft.len() + self.czt.len() + self.windows.len()
    }

    /// True when nothing has been planned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (arena reset). Subsequent lookups
    /// rebuild from the same parameters, so results are unchanged —
    /// only the build cost returns.
    pub fn clear(&mut self) {
        self.fft.clear();
        self.czt.clear();
        self.windows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_by_size() {
        let mut cache = PlanCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.fft(64).len(), 64);
        assert_eq!(cache.fft(128).len(), 128);
        assert_eq!(cache.fft(64).len(), 64); // hit, not a rebuild
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn combined_resolution_yields_coexisting_refs() {
        let mut cache = PlanCache::new();
        let (table, plan) = cache.window_and_fft(Window::Hann, 512, 64);
        assert_eq!(plan.len(), 64);
        assert_eq!(table.len(), 512);
        assert_eq!(cache.len(), 2);
        // A second resolution with the same parameters hits the cache.
        cache.window_and_fft(Window::Hann, 512, 64);
        assert_eq!(cache.len(), 2);

        let w = Complex64::cis(-0.05);
        let a = Complex64::cis(0.0);
        let (table, czt) = cache.window_and_czt(Window::Hamming, 17, 17, 23, w, a);
        assert_eq!(table.len(), 17);
        assert_eq!(czt.input_len(), 17);
        assert_eq!(czt.output_len(), 23);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn czt_keyed_by_exact_parameters() {
        let mut cache = PlanCache::new();
        let w = Complex64::cis(-0.05);
        let a = Complex64::cis(0.3);
        cache.czt(17, 23, w, a);
        cache.czt(17, 23, w, a); // identical params → hit
        assert_eq!(cache.len(), 1);
        cache.czt(17, 23, w, Complex64::cis(0.31)); // new arc → miss
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn windows_keyed_by_shape_and_length() {
        let mut cache = PlanCache::new();
        cache.window(Window::Hann, 512);
        cache.window(Window::Hann, 512);
        cache.window(Window::Hamming, 512);
        cache.window(Window::Hann, 256);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn clear_resets_and_rebuilds_identically() {
        let mut cache = PlanCache::new();
        let mut data: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut first = data.clone();
        cache.fft(32).process_forward(&mut first);
        cache.clear();
        assert!(cache.is_empty());
        cache.fft(32).process_forward(&mut data);
        for (a, b) in first.iter().zip(&data) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}
