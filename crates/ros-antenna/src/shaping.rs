//! Elevation beam shaping via differential evolution (§4.3, Fig. 8).
//!
//! Goal: a flat-top elevation pattern ≈10° wide (vs the 1–4° of a
//! uniform stack) so the tag tolerates radar height mismatch. The only
//! knob a passive PCB offers is per-row TL length, i.e. a phase weight
//! — but adding line makes a row taller and shifts every row above it,
//! changing their geometric phases. That coupling has no closed form
//! (§4.3), so the phases are found with the DE-GA of [`ros_optim`].
//!
//! The search space is the symmetric half of the phase vector (the
//! paper keeps the profile symmetric for a symmetric pattern); the
//! objective rewards a flat, wide main beam:
//!
//! * minimize ripple (max−min dB) inside the ±half-target window,
//! * maximize the worst in-window level relative to boresight,
//! * penalize beams that stay narrow.

use crate::stack::PsvaaStack;
use ros_cache::{GeomCache, Key, KeyBuilder, TableKind};
use ros_em::geom::deg_to_rad;
use ros_em::units::cast::{self, AsF64};
use ros_optim::{minimize, DeConfig, Strategy};
use std::sync::Arc;

/// A beam-shaping profile: per-row TL phase weights \[rad\].
#[derive(Clone, Debug, PartialEq)]
pub struct ShapingProfile {
    /// Phase weight per row, bottom to top \[rad\].
    pub phases: Vec<f64>,
    /// The flat-top target width the profile was optimized for \[rad\].
    pub target_width_rad: f64,
}

impl ShapingProfile {
    /// The paper's published 8-row example (Fig. 8a):
    /// phases (152.9°, 37.6°, 0°, 0°, 0°, 0°, 37.6°, 152.9°).
    pub fn paper_example_8() -> Self {
        let d = deg_to_rad(152.9);
        let m = deg_to_rad(37.6);
        ShapingProfile {
            phases: vec![d, m, 0.0, 0.0, 0.0, 0.0, m, d],
            target_width_rad: deg_to_rad(10.0),
        }
    }

    /// Builds the stack realizing this profile.
    pub fn build(&self) -> PsvaaStack {
        PsvaaStack::with_phases(&self.phases)
    }
}

/// Cost of a candidate symmetric phase vector (half-profile).
///
/// Evaluates the elevation power pattern directly from the row
/// geometry (positions + phase weights) — one cheap pass, no repeated
/// peak normalization — so the DE search stays fast.
fn flat_top_cost(half: &[f64], n_rows: usize, target_width_rad: f64) -> f64 {
    let phases = mirror(half, n_rows);
    // Row geometry from the §4.3 height coupling, computed directly
    // (no stack/array construction in the inner DE loop).
    let base = crate::stack::base_row_pitch_m();
    let h_per_rad = crate::stack::height_per_phase_m_per_rad();
    let mut rows: Vec<(f64, f64)> = Vec::with_capacity(n_rows);
    let mut z_bottom = 0.0;
    for &phi in &phases {
        let h = base + phi * h_per_rad;
        rows.push((z_bottom + h / 2.0, phi));
        z_bottom += h;
    }
    let zc = z_bottom / 2.0;
    for r in rows.iter_mut() {
        r.0 -= zc;
    }
    let k = std::f64::consts::TAU / ros_em::constants::LAMBDA_CENTER_M;

    let pattern = |eps: f64| -> f64 {
        let (mut re, mut im) = (0.0, 0.0);
        let s = eps.sin();
        for &(z, phi) in &rows {
            let ph = 2.0 * k * z * s + phi;
            re += ph.cos();
            im += ph.sin();
        }
        re * re + im * im
    };

    // Peak over a window generously covering the target.
    let scan_half = target_width_rad * 1.5;
    let n_scan = 61;
    let mut peak = 1e-30_f64;
    for i in 0..n_scan {
        let eps = -scan_half + 2.0 * scan_half * i.as_f64() / (n_scan - 1).as_f64();
        peak = peak.max(pattern(eps));
    }

    // In-window levels relative to the peak.
    let half_w = target_width_rad / 2.0;
    let n_in = 21;
    let mut worst_in = f64::INFINITY;
    let mut best_in = f64::NEG_INFINITY;
    for i in 0..n_in {
        let eps = -half_w + target_width_rad * i.as_f64() / (n_in - 1).as_f64();
        let db = 10.0 * (pattern(eps) / peak).max(1e-12).log10();
        worst_in = worst_in.min(db);
        best_in = best_in.max(db);
    }
    let ripple = best_in - worst_in;

    // Flat top: small ripple AND high worst level. The worst-level term
    // dominates (a deep null anywhere in the window is fatal for
    // height-mismatch robustness); ripple polishes the top.
    ripple + 3.0 * (-worst_in)
}

/// The flat-top objective exposed for external optimizers (the
/// DE-vs-PSO ablation in `bench`): lower is flatter/wider.
pub fn flat_top_objective(half: &[f64], n_rows: usize, target_width_rad: f64) -> f64 {
    flat_top_cost(half, n_rows, target_width_rad)
}

/// Mirrors a half-profile into a full symmetric profile of `n` rows
/// (exposed alongside [`flat_top_objective`]).
pub fn mirror_profile(half: &[f64], n: usize) -> Vec<f64> {
    mirror(half, n)
}

/// Mirrors a half-profile into a full symmetric profile of `n` rows.
fn mirror(half: &[f64], n: usize) -> Vec<f64> {
    let mut phases = vec![0.0; n];
    for (i, &p) in half.iter().enumerate() {
        phases[i] = p;
        phases[n - 1 - i] = p;
    }
    phases
}

/// Optimizes a flat-top profile for `n_rows` rows and a target beam
/// width (radians). Deterministic per (`n_rows`, width bucket).
///
/// # Panics
/// Panics when `n_rows < 2`.
pub fn optimize_flat_top(n_rows: usize, target_width_rad: f64) -> ShapingProfile {
    let half_len = n_rows / 2 + n_rows % 2;
    optimize_flat_top_with_budget(n_rows, target_width_rad, (8 * half_len).max(24), 120)
}

/// [`optimize_flat_top`] with an explicit DE budget (population size and
/// generation count) — for quick searches and benchmarking.
///
/// # Panics
/// Panics when `n_rows < 2`.
pub(crate) fn optimize_flat_top_with_budget(
    n_rows: usize,
    target_width_rad: f64,
    population: usize,
    max_generations: usize,
) -> ShapingProfile {
    assert!(n_rows >= 2, "beam shaping needs at least 2 rows");
    let half_len = n_rows / 2 + n_rows % 2;
    let bounds = vec![(0.0, std::f64::consts::TAU * 0.9); half_len];
    let cfg = DeConfig {
        population: population.max(4),
        f: 0.6,
        cr: 0.9,
        max_generations,
        strategy: Strategy::RandToBest1Bin,
        seed: 0x0b3a_0000 + cast::u64_from_usize(n_rows),
        ..Default::default()
    };
    // Stays on the asynchronous `minimize`: every downstream amplitude
    // calibration (ASK levels, cached standard profiles) is frozen to
    // this exact trajectory. The parallel generation-synchronous
    // `minimize_par` follows a different (equally good) trajectory and
    // is exercised by the determinism tests.
    let result = minimize(
        |half| flat_top_cost(half, n_rows, target_width_rad),
        &bounds,
        &cfg,
    );
    ShapingProfile {
        phases: mirror(&result.x, n_rows),
        target_width_rad,
    }
}

/// Standard flat-top profile for `n_rows`, optimized for the paper's
/// 10° target. Pure: every call re-runs the (deterministic) DE search.
/// There is deliberately **no** process-global memo here — the PR 5
/// incident showed an implicit cache makes golden traces depend on
/// cache temperature. Loop-heavy callers should pass an explicit
/// [`GeomCache`] to [`standard_profile_in`] instead.
pub fn standard_profile(n_rows: usize) -> ShapingProfile {
    optimize_flat_top(n_rows, deg_to_rad(10.0))
}

/// Structural cache key for the standard profile: the domain plus
/// every input the DE search depends on.
fn standard_profile_key(n_rows: usize) -> Key {
    KeyBuilder::new("antenna.shaping.standard_profile")
        .usize(n_rows)
        .f64(deg_to_rad(10.0))
        .finish()
}

/// [`standard_profile`] memoized in an injected cache: optimization
/// runs once per size per cache, and every experiment sharing the
/// cache then shares the same layout, exactly like reusing one
/// fabricated PCB. Bit-identical to the uncached path by construction
/// (the build closure *is* `standard_profile`).
pub fn standard_profile_in(cache: &GeomCache, n_rows: usize) -> Arc<ShapingProfile> {
    cache.get_or_build(TableKind::Shaping, standard_profile_key(n_rows), || {
        standard_profile(n_rows)
    })
}

/// Builds the standard beam-shaped stack of `n_rows` PSVAAs (pure; see
/// [`standard_profile`] for the no-global rationale).
pub fn shaped_stack(n_rows: usize) -> PsvaaStack {
    standard_profile(n_rows).build()
}

/// [`shaped_stack`] with the profile memoized in an injected cache.
pub fn shaped_stack_in(cache: &GeomCache, n_rows: usize) -> PsvaaStack {
    standard_profile_in(cache, n_rows).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_em::constants::F_CENTER_HZ;
    use ros_em::geom::rad_to_deg;

    #[test]
    fn mirror_is_symmetric() {
        assert_eq!(mirror(&[1.0, 2.0], 4), vec![1.0, 2.0, 2.0, 1.0]);
        assert_eq!(mirror(&[1.0, 2.0, 3.0], 5), vec![1.0, 2.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn paper_profile_buildable() {
        let p = ShapingProfile::paper_example_8();
        let s = p.build();
        assert_eq!(s.n_rows(), 8);
    }

    #[test]
    fn optimized_8_row_flat_top() {
        // Fig. 8b: the shaped 8-row stack has a ≈10° flat-ish top while
        // the uniform stack is ≈4°.
        let shaped = shaped_stack(8);
        let flat = PsvaaStack::uniform(8);
        let bw_shaped = rad_to_deg(shaped.measured_beamwidth_rad(F_CENTER_HZ));
        let bw_flat = rad_to_deg(flat.measured_beamwidth_rad(F_CENTER_HZ));
        assert!(
            bw_shaped > 7.0,
            "shaped beamwidth only {bw_shaped}° (uniform {bw_flat}°)"
        );
        assert!(bw_shaped > 1.8 * bw_flat);
    }

    #[test]
    fn optimized_profile_has_no_deep_null_in_window() {
        let shaped = shaped_stack(8);
        for i in -10..=10 {
            let eps = deg_to_rad(0.5 * i as f64); // ±5°
            let level = shaped.elevation_pattern_db(eps, F_CENTER_HZ);
            assert!(level > -6.0, "level {level} dB at {}°", 0.5 * i as f64);
        }
    }

    #[test]
    fn optimized_profile_is_symmetric() {
        let p = standard_profile(8);
        for i in 0..4 {
            assert_eq!(p.phases[i], p.phases[7 - i]);
        }
    }

    #[test]
    fn cache_returns_same_profile() {
        let cache = GeomCache::new();
        let a = standard_profile_in(&cache, 8);
        let b = standard_profile_in(&cache, 8);
        assert_eq!(*a, *b);
        // And the second lookup is a genuine hit, not a rebuild.
        let snap = cache.snapshot();
        assert_eq!(snap.kind(TableKind::Shaping).misses, 1);
        assert_eq!(snap.kind(TableKind::Shaping).hits, 1);
    }

    #[test]
    fn standard_profile_order_is_bit_stable() {
        // Regression for the nondet-iter arc: the cached profile must
        // be bit-identical to a fresh optimization, in row order —
        // the cache (container choice, eviction, temperature) must
        // never reorder or perturb what callers see.
        let cache = GeomCache::new();
        let cached = standard_profile_in(&cache, 6);
        let fresh = optimize_flat_top(6, deg_to_rad(10.0));
        let bits = |p: &ShapingProfile| p.phases.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cached), bits(&fresh));
        assert_eq!(bits(&cached), bits(&standard_profile_in(&cache, 6)));
        assert_eq!(bits(&cached), bits(&standard_profile(6)));
    }

    #[test]
    #[should_panic(expected = "at least 2 rows")]
    fn single_row_rejected() {
        optimize_flat_top(1, deg_to_rad(10.0));
    }
}
