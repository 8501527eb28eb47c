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
//! * maximize the worst in-window level relative to the pattern peak,
//!   which also penalizes beams that stay narrow.
//!
//! Every standard profile is frozen to the search's exact trajectory
//! (the tests pin their bits). The search is nonetheless cheap: DE
//! only asks whether a trial beats its target, so the objective gets
//! that target's cost and stops as soon as a sound lower bound of the
//! trial's cost clears it (see `FlatTop::cost`). The bound holds over
//! any subset of the 82 pattern points, and the points that decided
//! earlier trials are visited first, so about 80% of trials stop
//! after about 7 points; every cost the search keeps is exact.

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

/// Scan points of the peak search, spanning ±1.5× the target width.
const N_SCAN: usize = 61;
/// In-window points, spanning the target width.
const N_IN: usize = 21;
/// Pattern points of one evaluation: the in-window points (indices
/// `0..N_IN`, window order), then the scan points (scan order).
const N_POINTS: usize = N_IN + N_SCAN;
/// Relative slack of the pruning bound: a trial is abandoned only when
/// its lower bound exceeds `cutoff + PRUNE_SLACK·max(1, |cutoff|)`.
/// It sits many orders of magnitude above the few-ulp rounding of the
/// bound's and the cost's `log10` terms, so an abandoned trial's exact
/// cost is always above its cutoff.
const PRUNE_SLACK: f64 = 1e-9;
/// The cost can never fall below this once the worst in-window level
/// clamps at −120 dB: `best − 4·worst ≥ −120 + 480`.
const CLAMPED_COST_FLOOR: f64 = 360.0;

/// The flat-top objective, built once per search.
///
/// A candidate symmetric phase vector (half-profile) is scored from the
/// elevation power pattern of the row geometry (positions + phase
/// weights), with no stack or array construction in the DE loop. With
/// `P` the pattern peak over the 61 scan points and `p_i` the powers at
/// the 21 in-window points, each level is `g(p_i/P)` with
/// `g(x) = 10·log10(max(x, 1e-12))`, and the cost is
/// `ripple + 3·(−worst) = best − 4·worst`:
///
/// * a small ripple (max−min dB) inside the ±half-target window, and
/// * a high worst in-window level relative to the peak: this term
///   dominates, since a deep null anywhere in the window is fatal for
///   height-mismatch robustness.
///
/// The sines of all 82 points are computed once per search, with the
/// same expressions per angle as a fresh evaluation, so every pattern
/// sample, and with it every cost and the DE trajectory, keeps its
/// bits. [`Self::cost`] reuses the row buffers and never allocates.
struct FlatTop {
    /// `sin ε` per pattern point, by point index.
    sin: [f64; N_POINTS],
    /// The order [`Self::cost`] visits the points in. It starts with
    /// the scan centre, then alternates window and scan points, each
    /// centre-out; after every evaluation the lowest in-window and the
    /// highest scan point move to the front.
    order: [usize; N_POINTS],
    /// The current candidate's powers, by point index.
    power: [f64; N_POINTS],
    /// The mirrored full phase profile of the current candidate.
    phases: Vec<f64>,
    /// Per row: `2k·z` about the stack centre, and the phase weight.
    rows: Vec<(f64, f64)>,
    /// Pattern points evaluated over every call so far.
    points: usize,
}

impl FlatTop {
    fn new(n_rows: usize, target_width_rad: f64) -> Self {
        let scan_half = target_width_rad * 1.5;
        let half_w = target_width_rad / 2.0;
        let sin = std::array::from_fn(|i| {
            if i < N_IN {
                (-half_w + target_width_rad * i.as_f64() / (N_IN - 1).as_f64()).sin()
            } else {
                let j = i - N_IN;
                (-scan_half + 2.0 * scan_half * j.as_f64() / (N_SCAN - 1).as_f64()).sin()
            }
        });
        // The `j`-th of `n` points counted outwards from the centre.
        let centre_out = |j: usize, n: usize| {
            let off = j.div_ceil(2);
            if j % 2 == 1 {
                n / 2 - off
            } else {
                n / 2 + off
            }
        };
        // A flat top peaks near boresight, so the scan centre leads.
        let order = std::array::from_fn(|k| {
            if k < 2 * N_IN && k % 2 == 1 {
                centre_out(k / 2, N_IN)
            } else {
                N_IN + centre_out(if k < 2 * N_IN { k / 2 } else { k - N_IN }, N_SCAN)
            }
        });
        FlatTop {
            sin,
            order,
            power: [0.0; N_POINTS],
            phases: vec![0.0; n_rows],
            rows: vec![(0.0, 0.0); n_rows],
            points: 0,
        }
    }

    /// The cost of `half`, under `ros_optim`'s cutoff contract: exact
    /// when it is `≤ cutoff`, otherwise some value above `cutoff`
    /// (`f64::INFINITY` when the evaluation stopped early).
    ///
    /// The points are visited in [`Self::order`]. Whenever a point
    /// raises the partial peak `P′`, or moves the partial in-window
    /// extremes `pM′`/`pm′`, the cost formula is evaluated at them.
    /// Above the 1e-12 floor the cost is
    /// `10·log10(pM) − 40·log10(pm) + 30·log10(P)`: nondecreasing in
    /// `pM` and `P`, nonincreasing in `pm`. Once the worst level clamps
    /// it is at least 360. Since `pM′ ≤ pM`, `pm′ ≥ pm` and `P′ ≤ P`
    /// (and `pM′ ≥ pm′`), the true cost is at least
    /// `min(cost(pM′, pm′, P′), 360)` (DESIGN.md §9), and a trial whose
    /// bound clears the cutoff (plus [`PRUNE_SLACK`]) is abandoned.
    ///
    /// Afterwards the points that decided this call, its lowest
    /// in-window and highest scan power, move to the front of the
    /// order, so the next losing trial meets them first. The exact
    /// cost is formed from the powers in window order, and `max`/`min`
    /// do not depend on order, so the order never changes its bits.
    fn cost(&mut self, half: &[f64], cutoff: f64) -> f64 {
        self.set_rows(half);
        let prune = cutoff.is_finite();
        let limit = cutoff + PRUNE_SLACK * cutoff.abs().max(1.0);
        let (mut p_min, mut p_max, mut peak) = (f64::INFINITY, f64::NEG_INFINITY, 1e-30_f64);
        // Point indices of the lowest in-window and highest scan power.
        let (mut lowest, mut highest) = (None, None);
        let mut abandoned = false;
        for &i in &self.order {
            let p = power(&self.rows, self.sin[i]);
            self.power[i] = p;
            self.points += 1;
            let moved = if i < N_IN {
                let (lower, higher) = (p < p_min, p > p_max);
                if lower {
                    p_min = p;
                    lowest = Some(i);
                }
                if higher {
                    p_max = p;
                }
                lower || higher
            } else if p > peak {
                peak = p;
                highest = Some(i);
                true
            } else {
                false
            };
            if prune
                && moved
                && lowest.is_some()
                && level_cost(level_db(p_max, peak), level_db(p_min, peak)).min(CLAMPED_COST_FLOOR)
                    > limit
            {
                abandoned = true;
                break;
            }
        }
        for point in [lowest, highest].into_iter().flatten() {
            self.promote(point);
        }
        if abandoned {
            return f64::INFINITY;
        }

        let mut worst_in = f64::INFINITY;
        let mut best_in = f64::NEG_INFINITY;
        for &p in &self.power[..N_IN] {
            let db = level_db(p, peak);
            worst_in = worst_in.min(db);
            best_in = best_in.max(db);
        }
        level_cost(best_in, worst_in)
    }

    /// Moves `point` to the front of the order, keeping the others'
    /// relative order.
    fn promote(&mut self, point: usize) {
        if let Some(at) = self.order.iter().position(|&i| i == point) {
            self.order[..=at].rotate_right(1);
        }
    }

    /// Row geometry from the §4.3 height coupling, computed directly
    /// into the reused buffers.
    fn set_rows(&mut self, half: &[f64]) {
        mirror_into(half, &mut self.phases);
        let base = crate::stack::base_row_pitch_m();
        let h_per_rad = crate::stack::height_per_phase_m_per_rad();
        let mut z_bottom = 0.0;
        for (row, &phi) in self.rows.iter_mut().zip(&self.phases) {
            let h = base + phi * h_per_rad;
            *row = (z_bottom + h / 2.0, phi);
            z_bottom += h;
        }
        let zc = z_bottom / 2.0;
        let k = std::f64::consts::TAU / ros_em::constants::LAMBDA_CENTER_M;
        for row in &mut self.rows {
            row.0 = 2.0 * k * (row.0 - zc);
        }
    }
}

/// Elevation power `|Σ e^{j(2k·z·sin ε + φ)}|²` at one `sin ε`.
fn power(rows: &[(f64, f64)], s: f64) -> f64 {
    let (mut re, mut im) = (0.0, 0.0);
    for &(kz, phi) in rows {
        let ph = kz * s + phi;
        re += ph.cos();
        im += ph.sin();
    }
    re * re + im * im
}

/// A level relative to the peak \[dB\], floored at −120 dB.
fn level_db(p: f64, peak: f64) -> f64 {
    10.0 * (p / peak).max(1e-12).log10()
}

/// Flat top: small ripple AND high worst level.
fn level_cost(best_in: f64, worst_in: f64) -> f64 {
    let ripple = best_in - worst_in;
    ripple + 3.0 * (-worst_in)
}

/// The flat-top objective exposed for external optimizers (the
/// DE-vs-PSO ablation in `bench`): lower is flatter/wider. The exact
/// cost the shaping search sees, from the same evaluator.
pub fn flat_top_objective(half: &[f64], n_rows: usize, target_width_rad: f64) -> f64 {
    FlatTop::new(n_rows, target_width_rad).cost(half, f64::INFINITY)
}

/// Mirrors a half-profile into a full symmetric profile of `n` rows
/// (exposed alongside [`flat_top_objective`]).
pub fn mirror_profile(half: &[f64], n: usize) -> Vec<f64> {
    mirror(half, n)
}

/// Mirrors a half-profile into a full symmetric profile of `n` rows.
fn mirror(half: &[f64], n: usize) -> Vec<f64> {
    let mut phases = vec![0.0; n];
    mirror_into(half, &mut phases);
    phases
}

/// [`mirror`] into an existing buffer of the full profile's length.
fn mirror_into(half: &[f64], phases: &mut [f64]) {
    let n = phases.len();
    phases.fill(0.0);
    for (i, &p) in half.iter().enumerate() {
        phases[i] = p;
        phases[n - 1 - i] = p;
    }
}

/// Optimizes a flat-top profile for `n_rows` rows and a target beam
/// width (radians). Deterministic per (`n_rows`, width bucket).
///
/// # Panics
/// Panics when `n_rows < 2`.
pub fn optimize_flat_top(n_rows: usize, target_width_rad: f64) -> ShapingProfile {
    let result = flat_top_search(&mut FlatTop::new(n_rows, target_width_rad));
    ShapingProfile {
        phases: mirror(&result.x, n_rows),
        target_width_rad,
    }
}

/// The DE search behind [`optimize_flat_top`].
///
/// The search runs the asynchronous `minimize`, and every downstream
/// amplitude calibration (ASK levels, cached standard profiles) is
/// frozen to its exact trajectory. `objective` serves the whole
/// search: a trial is abandoned once its bound shows it cannot beat its
/// target, and every cost the search keeps is exact, so pruning leaves
/// the trajectory bit for bit as it was.
fn flat_top_search(objective: &mut FlatTop) -> ros_optim::DeResult {
    let n_rows = objective.rows.len();
    assert!(n_rows >= 2, "beam shaping needs at least 2 rows");
    let half_len = n_rows / 2 + n_rows % 2;
    let bounds = vec![(0.0, std::f64::consts::TAU * 0.9); half_len];
    let cfg = DeConfig {
        population: (8 * half_len).max(24),
        f: 0.6,
        cr: 0.9,
        max_generations: 120,
        strategy: Strategy::RandToBest1Bin,
        seed: 0x0b3a_0000 + cast::u64_from_usize(n_rows),
        ..Default::default()
    };
    minimize(|half, cutoff| objective.cost(half, cutoff), &bounds, &cfg)
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

/// Structural cache key for the standard stack: a whole-tag layout,
/// keyed like the profile it is built from.
fn standard_stack_key(n_rows: usize) -> Key {
    KeyBuilder::new("antenna.shaping.standard_stack")
        .usize(n_rows)
        .f64(deg_to_rad(10.0))
        .finish()
}

/// [`shaped_stack`] memoized in an injected cache: the profile under
/// [`TableKind::Shaping`] and the stack built from it under
/// [`TableKind::Pattern`] each build once per cache, and every call
/// returns a clone sharing that stack's one row table.
pub fn shaped_stack_in(cache: &GeomCache, n_rows: usize) -> PsvaaStack {
    let stack = cache.get_or_build(TableKind::Pattern, standard_stack_key(n_rows), || {
        standard_profile_in(cache, n_rows).build()
    });
    PsvaaStack::clone(&stack)
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
        // Regression for hash-ordered containers (clippy now bans
        // HashMap/HashSet in library code): the cached profile must
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

    /// `standard_profile(n).phases[..⌈n/2⌉]` as `f64::to_bits`, recorded
    /// before the search learned to prune. The profiles are symmetric,
    /// so the half pins the whole vector.
    #[rustfmt::skip]
    const STANDARD_HALVES: [(usize, &[u64]); 7] = [
        (2, &[
            0x3c401354b984bcd3,
        ]),
        (3, &[
            0x3c7480f8088cb50e, 0x3cc0484ae796193d,
        ]),
        (4, &[
            0x3ffc85554f413cd3, 0x3cddf3387b1eecf4,
        ]),
        (6, &[
            0x3e91198638b69780, 0x400432122528a05d, 0x40007ba19e3d8e66,
        ]),
        (8, &[
            0x3f50053119b8054a, 0x4001eae54661e0e4, 0x3ffed499b84cb98c,
            0x400c078fd178184e,
        ]),
        (16, &[
            0x3fc640b54f461fa9, 0x40102dd9d559e9b0, 0x400e959cf4edcdf0,
            0x3ff250ad4586368e, 0x40009b8ab135532f, 0x3ff0156618f08233,
            0x3fdff3647ee23ad8, 0x3fa7641f67a80b69,
        ]),
        (32, &[
            0x4012919295f538fe, 0x4004a83819ca8871, 0x3fecc687de8b45fb,
            0x4007fcea7eb706a1, 0x3fca345cf9360910, 0x400cc26d5b7b986a,
            0x40025de17cf589ae, 0x3fb7767348a1fd60, 0x3ffadf99e21cfe79,
            0x3ffa0014d9597716, 0x3fb3c877aa343754, 0x3f9014dce5e22419,
            0x3f926f333c22257f, 0x3f7fc8bb93c180b8, 0x40166c9c21a83473,
            0x400c8512f2044d33,
        ]),
    ];

    #[test]
    fn standard_profiles_match_recorded_bits() {
        for (n, half) in STANDARD_HALVES {
            let phases = standard_profile(n).phases;
            let bits: Vec<u64> = phases.iter().map(|x| x.to_bits()).collect();
            let halves: Vec<f64> = half.iter().map(|&b| f64::from_bits(b)).collect();
            let want: Vec<u64> = mirror(&halves, n).iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, want, "{n} rows");
        }
    }

    #[test]
    fn standard_search_prunes_most_trials() {
        let mut objective = FlatTop::new(8, deg_to_rad(10.0));
        let r = flat_top_search(&mut objective);
        // Population 32, so all but the first 32 evaluations are trials.
        let trials = r.evaluations - 32;
        assert!(
            r.pruned * 10 >= trials * 7,
            "pruned {} of {trials} trials",
            r.pruned
        );
        // 805 full evaluations take 66,010 of these points; a pruned
        // trial takes about 7 (149,641 in all when only the partial
        // peak was bounded).
        assert!(
            objective.points <= 95_000,
            "{} pattern points",
            objective.points
        );
    }

    /// The flat-top cost as one self-contained evaluation, kept as the
    /// oracle for [`FlatTop::cost`] with an infinite cutoff.
    fn reference_cost(half: &[f64], n_rows: usize, target_width_rad: f64) -> f64 {
        let phases = mirror(half, n_rows);
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

        let scan_half = target_width_rad * 1.5;
        let n_scan = 61;
        let mut peak = 1e-30_f64;
        for i in 0..n_scan {
            let eps = -scan_half + 2.0 * scan_half * i.as_f64() / (n_scan - 1).as_f64();
            peak = peak.max(pattern(eps));
        }

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
        ripple + 3.0 * (-worst_in)
    }

    /// A 3-row profile `(φ, φ + π, φ)` whose pattern
    /// `|2·cos(2k·z·sin ε) − 1|²` (`z` the outer rows' offset) has an
    /// exact null at the last in-window point of a `width`-wide window,
    /// so the worst level clamps at the 1e-12 floor. `φ` sets the row
    /// heights so that `2k·z·sin ε = π/3` there. The peak then sits at
    /// the scan edges, which the centre-first scan reaches last, so
    /// the partial peak stays far below the true one for most checks.
    fn deep_null_half(width: f64) -> [f64; 2] {
        let s = FlatTop::new(3, width).sin[N_IN - 1];
        let k = std::f64::consts::TAU / ros_em::constants::LAMBDA_CENTER_M;
        let h_per_rad = crate::stack::height_per_phase_m_per_rad();
        // z = (h_outer + h_middle) / 2 = base + (φ + π/2)·h_per_rad.
        let z = std::f64::consts::FRAC_PI_3 / (2.0 * k * s);
        let phi = (z - crate::stack::base_row_pitch_m()) / h_per_rad - std::f64::consts::FRAC_PI_2;
        [phi, phi + std::f64::consts::PI]
    }

    /// Checks the cutoff contract of one evaluation against the oracle.
    fn check_contract(ft: &mut FlatTop, half: &[f64], exact: f64, cutoff: f64) {
        let got = ft.cost(half, cutoff);
        if exact <= cutoff {
            assert_eq!(
                got.to_bits(),
                exact.to_bits(),
                "cutoff {cutoff}: {got} vs {exact}"
            );
        } else {
            assert!(
                got > cutoff,
                "cutoff {cutoff}: returned {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn deep_null_profile_reaches_the_floor() {
        let width = deg_to_rad(10.0);
        let half = deep_null_half(width);
        let exact = reference_cost(&half, 3, width);
        assert!(
            exact >= CLAMPED_COST_FLOOR,
            "cost {exact}: the floor was not reached"
        );
        let mut ft = FlatTop::new(3, width);
        for cutoff in [
            f64::INFINITY,
            exact,
            exact.next_up(),
            exact.next_down(),
            300.0,
            359.0,
        ] {
            check_contract(&mut ft, &half, exact, cutoff);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// [`FlatTop::cost`] keeps the cutoff contract on random
        /// half-profiles: with an infinite cutoff it equals the oracle
        /// bit for bit; with a finite one it returns those same bits
        /// whenever the exact cost is at most the cutoff, and otherwise
        /// a value above the cutoff. Cutoffs sit exactly on the cost,
        /// one ulp to either side, or anywhere in 0.5–1.5× the cost.
        /// Deep-null draws put an exact null in a 9–11° window, so the
        /// worst level clamps at the 1e-12 floor.
        #[test]
        fn bounded_cost_keeps_the_cutoff_contract(
            rows_pick in 0usize..6,
            genes in proptest::prop::collection::vec(0.0f64..1.0, 16..=16),
            scales in proptest::prop::collection::vec(0.5f64..1.5, 4..=4),
            deep_null in 0u8..4,
            null_width_deg in 9.0f64..11.0,
        ) {
            let (n_rows, width, half) = if deep_null == 0 {
                let width = deg_to_rad(null_width_deg);
                (3, width, deep_null_half(width).to_vec())
            } else {
                let n_rows = [2, 3, 5, 8, 16, 32][rows_pick];
                let half_len = n_rows / 2 + n_rows % 2;
                let half = genes[..half_len].iter().map(|g| g * std::f64::consts::TAU * 0.9);
                (n_rows, deg_to_rad(10.0), half.collect())
            };
            let exact = reference_cost(&half, n_rows, width);
            let mut ft = FlatTop::new(n_rows, width);
            proptest::prop_assert_eq!(ft.cost(&half, f64::INFINITY).to_bits(), exact.to_bits());
            let mut cutoffs = vec![exact, exact.next_up(), exact.next_down()];
            cutoffs.extend(scales.iter().map(|s| exact * s));
            for cutoff in cutoffs {
                check_contract(&mut ft, &half, exact, cutoff);
            }
        }

        /// One [`FlatTop`] carried through a sequence of evaluations, as
        /// DE carries it: the order each call leaves behind never
        /// changes a later exact cost. Each step draws a half-profile
        /// (at 3 rows, sometimes the deep-null one) and a cutoff
        /// (infinite, on the cost, one ulp to either side, or 0.5–1.5×
        /// the cost), and checks the contract against the oracle.
        #[test]
        fn carried_order_keeps_the_cutoff_contract(
            rows_pick in 0usize..6,
            genes in proptest::prop::collection::vec(0.0f64..1.0, 128..=128),
            picks in proptest::prop::collection::vec(0u8..5, 8..=8),
            scales in proptest::prop::collection::vec(0.5f64..1.5, 8..=8),
            deep_null in proptest::prop::collection::vec(0u8..4, 8..=8),
        ) {
            let n_rows = [2, 3, 5, 8, 16, 32][rows_pick];
            let half_len = n_rows / 2 + n_rows % 2;
            let width = deg_to_rad(10.0);
            let mut ft = FlatTop::new(n_rows, width);
            for (step, genes) in genes.chunks(16).enumerate() {
                let half: Vec<f64> = if n_rows == 3 && deep_null[step] == 0 {
                    deep_null_half(width).to_vec()
                } else {
                    genes[..half_len].iter().map(|g| g * std::f64::consts::TAU * 0.9).collect()
                };
                let exact = reference_cost(&half, n_rows, width);
                let cutoff = match picks[step] {
                    0 => f64::INFINITY,
                    1 => exact,
                    2 => exact.next_up(),
                    3 => exact.next_down(),
                    _ => exact * scales[step],
                };
                check_contract(&mut ft, &half, exact, cutoff);
            }
        }
    }
}
