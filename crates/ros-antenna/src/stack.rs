//! Vertical PSVAA stacks (§4.3).
//!
//! A spatial-coding "column" on the RoS tag is a vertical stack of
//! identical PSVAAs. The stack multiplies the row's azimuth response by
//! a vertical array factor:
//!
//! * uniform stacks produce the narrow Eq.-5 beam (1–4°, the height-
//!   mismatch problem),
//! * beam-*shaped* stacks carry per-row phase weights (implemented as
//!   extra TL length, which also makes the row physically taller) that
//!   flatten the elevation pattern to ≈10° (Fig. 8).
//!
//! The module exposes both the far-field elevation pattern (for design
//! and the Fig. 8 experiment) and a per-row scatterer export that the
//! scene/radar layer uses for exact spherical-wave (near-field) sums —
//! the effect behind the 32-row stack's SNR penalty in Fig. 15b.

use crate::patch;
use crate::vaa::{ArrayKind, VanAttaArray};
use ros_cache::{GeomCache, Key, KeyBuilder, TableKind};
use ros_em::prelude::*;
use ros_em::units::cast::AsF64;
use std::sync::Arc;

/// Baseline row pitch: 0.725λ at 79 GHz (Fig. 8a) \[m\].
pub fn base_row_pitch_m() -> f64 {
    0.725 * LAMBDA_CENTER_M
}

/// Extra row height per radian of phase weight \[m/rad\]: a phase φ
/// needs `φ/2π·λg` of extra line, routed vertically (§4.3 "the added
/// TL length increases the height of each PSVAA").
pub(crate) fn height_per_phase_m_per_rad() -> f64 {
    LAMBDA_GUIDED_79GHZ_M / std::f64::consts::TAU
}

/// One row of a stack.
#[derive(Clone, Debug)]
pub struct StackRow {
    /// Height of the row centre above the stack bottom \[m\].
    pub z_m: f64,
    /// TL phase weight at the 79 GHz design frequency \[rad\].
    pub phase_rad: f64,
    /// The row's Van Atta array (carries the extra TL length).
    pub array: VanAttaArray,
}

/// A vertical stack of PSVAAs with optional per-row phase weights.
#[derive(Clone, Debug)]
pub struct PsvaaStack {
    /// The rows, bottom to top. The stack has no `&mut` methods, so
    /// clones (a tag's stacks, one per slot) share one allocation.
    rows: Arc<[StackRow]>,
    /// [`Self::layout_key`], built once from `rows`; it cannot go
    /// stale, and clones share its bytes too.
    layout: Key,
}

impl PsvaaStack {
    /// A uniform (un-shaped) stack of `n_rows` PSVAAs at the base
    /// pitch with zero phase weights — the Fig. 8a "without beam
    /// shaping" baseline and the Fig. 14 comparison tag.
    ///
    /// # Panics
    /// Panics when `n_rows == 0`.
    pub fn uniform(n_rows: usize) -> Self {
        Self::with_phases(&vec![0.0; n_rows])
    }

    /// A stack with the given per-row phase weights \[rad\].
    ///
    /// Row geometry follows the §4.3 coupling: each row's height grows
    /// with its phase weight (extra TL is routed vertically), which
    /// pushes all rows above it upward — the interaction that forces
    /// the DE-GA search in [`crate::shaping`].
    ///
    /// # Panics
    /// Panics when `phases` is empty or contains a negative phase.
    pub fn with_phases(phases: &[f64]) -> Self {
        assert!(!phases.is_empty(), "a stack needs at least one row");
        assert!(
            phases.iter().all(|&p| p >= 0.0),
            "phase weights must be non-negative (extra line length)"
        );
        let base = base_row_pitch_m();
        let h_per_rad = height_per_phase_m_per_rad();
        let mut rows = Vec::with_capacity(phases.len());
        let mut z = Vec::with_capacity(phases.len());
        let mut z_bottom = 0.0;
        for (i, &phi) in phases.iter().enumerate() {
            let row_height = base + phi * h_per_rad;
            let extra_line = phi / std::f64::consts::TAU * LAMBDA_GUIDED_79GHZ_M;
            // Alternate the patch polarization order between adjacent
            // rows (§4.3) — electrically equivalent in this model, but
            // recorded for layout faithfulness via the array handle.
            let _ = i;
            let array = VanAttaArray::new(ArrayKind::Psvaa, 3).with_extra_line(extra_line);
            let z_m = z_bottom + row_height / 2.0;
            z.push(z_m);
            rows.push(StackRow {
                z_m,
                phase_rad: phi,
                array,
            });
            z_bottom += row_height;
        }
        let layout = KeyBuilder::new("antenna.stack.layout")
            .f64s(&z)
            .f64s(phases)
            .finish();
        PsvaaStack {
            rows: rows.into(),
            layout,
        }
    }

    /// Number of PSVAA rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows (bottom to top).
    pub fn rows(&self) -> &[StackRow] {
        &self.rows
    }

    /// Total stack height \[m\].
    pub fn height_m(&self) -> f64 {
        match self.rows.last() {
            Some(last) => {
                last.z_m
                    + (base_row_pitch_m() + last.phase_rad * height_per_phase_m_per_rad()) / 2.0
            }
            None => 0.0,
        }
    }

    /// Height of the stack's geometric centre above its bottom \[m\].
    pub fn center_z_m(&self) -> f64 {
        self.height_m() / 2.0
    }

    /// Far-field elevation array factor at elevation `epsilon` \[rad\],
    /// 79 GHz, normalized so a uniform in-phase stack gives `n_rows`
    /// at `epsilon = 0`.
    ///
    /// Each row contributes `e^{j(2k·z·sin ε + φ)}` — geometric height
    /// enters twice (two-way reflection), the TL phase weight once.
    pub fn elevation_array_factor(&self, epsilon: f64, freq_hz: f64) -> Complex64 {
        let k = std::f64::consts::TAU / wavelength(freq_hz);
        let zc = self.center_z_m();
        let g = patch::elevation_pattern(epsilon);
        self.rows
            .iter()
            .map(|r| {
                // Phase weight scales with frequency like any line.
                let phi = r.phase_rad * freq_hz / F_CENTER_HZ;
                Complex64::cis(2.0 * k * (r.z_m - zc) * epsilon.sin() + phi) * g
            })
            .sum()
    }

    /// Normalized elevation power pattern \[dB\], peak 0 dB, sampled at
    /// `epsilon` \[rad\].
    pub fn elevation_pattern_db(&self, epsilon: f64, freq_hz: f64) -> f64 {
        let p = self.elevation_array_factor(epsilon, freq_hz).norm_sqr();
        let peak = self.peak_elevation_power(freq_hz);
        10.0 * (p / peak).max(1e-12).log10()
    }

    fn peak_elevation_power(&self, freq_hz: f64) -> f64 {
        // Scan a fine grid around boresight for the pattern maximum.
        let mut peak = 0.0_f64;
        for i in -200..=200 {
            let eps = i.as_f64() * 1e-3; // ±0.2 rad ≈ ±11.5°
            peak = peak.max(self.elevation_array_factor(eps, freq_hz).norm_sqr());
        }
        peak.max(1e-30)
    }

    /// −3 dB elevation beamwidth \[rad\], measured on the pattern.
    pub fn measured_beamwidth_rad(&self, freq_hz: f64) -> f64 {
        let peak = self.peak_elevation_power(freq_hz);
        let half = peak / 2.0;
        let step = 1e-4;
        let mut hi = 0.0;
        for i in 0..4000 {
            let eps = i.as_f64() * step;
            if self.elevation_array_factor(eps, freq_hz).norm_sqr() < half {
                hi = eps;
                break;
            }
        }
        let mut lo = 0.0;
        for i in 0..4000 {
            let eps = -(i.as_f64()) * step;
            if self.elevation_array_factor(eps, freq_hz).norm_sqr() < half {
                lo = eps;
                break;
            }
        }
        hi - lo
    }

    /// Structural layout key of this stack: the exact row geometry and
    /// phase weights — everything [`Self::elevation_array_factor`]
    /// reads. Two stacks share cached tables iff this key is equal.
    /// Built once by [`Self::with_phases`], so a per-frame table lookup
    /// borrows it instead of re-encoding the rows.
    pub(crate) fn layout_key(&self) -> &Key {
        &self.layout
    }

    /// Elevation pattern cut \[dB\] sampled at `epsilons`, memoized in
    /// an injected cache. Bit-identical to calling
    /// [`Self::elevation_pattern_db`] per sample, but the boresight
    /// peak scan runs once per table instead of once per sample, and
    /// repeated cuts of the same layout are free.
    pub fn elevation_pattern_table_in(
        &self,
        cache: &GeomCache,
        epsilons: &[f64],
        freq_hz: f64,
    ) -> Arc<Vec<f64>> {
        let key = KeyBuilder::new("antenna.stack.elevation_pattern")
            .nested(self.layout_key())
            .f64(freq_hz)
            .f64s(epsilons)
            .finish();
        cache.get_or_build(TableKind::Pattern, key, || {
            let peak = self.peak_elevation_power(freq_hz);
            epsilons
                .iter()
                .map(|&eps| {
                    let p = self.elevation_array_factor(eps, freq_hz).norm_sqr();
                    10.0 * (p / peak).max(1e-12).log10()
                })
                .collect()
        })
    }

    /// [`Self::row_scatterers`] memoized in an injected cache: one
    /// table per exact (layout, frequency). The reader's per-pass
    /// frequency is fixed, so a drive-by pays one build and every
    /// subsequent frame reads the shared table.
    pub fn row_scatterers_table_in(
        &self,
        cache: &GeomCache,
        freq_hz: f64,
    ) -> Arc<Vec<(f64, Complex64)>> {
        let key = KeyBuilder::new("antenna.stack.row_scatterers")
            .nested(self.layout_key())
            .f64(freq_hz)
            .finish();
        cache.get_or_build(TableKind::Pattern, key, || self.row_scatterers(freq_hz))
    }

    /// Per-row scatterer export for exact near-field sums: pairs of
    /// (row centre height above stack bottom \[m\], complex row weight
    /// `amp·e^{jφ}` at `freq_hz`).
    ///
    /// The caller (scene layer) multiplies each row's weight by the
    /// azimuth response and the exact spherical-wave phase to its
    /// position — no far-field approximation.
    pub fn row_scatterers(&self, freq_hz: f64) -> Vec<(f64, Complex64)> {
        self.rows
            .iter()
            .map(|r| {
                let phi = r.phase_rad * freq_hz / F_CENTER_HZ;
                // Extra-line loss (meander + dielectric) is already in
                // the row array's response; here only the phase weight
                // and a mild extra-line amplitude factor are exported.
                let extra = r.array.extra_line_m();
                let loss_db = extra / LAMBDA_GUIDED_79GHZ_M
                    * crate::vaa::MEANDER_LOSS_DB_PER_LAMBDA_G
                    + extra * ros_em::constants::TL_LOSS_DB_PER_M;
                let amp = ros_em::db::db_to_lin(-loss_db);
                (r.z_m, Complex64::from_polar(amp, phi))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design;
    use ros_em::geom::{deg_to_rad, rad_to_deg};

    const FC: f64 = F_CENTER_HZ;

    #[test]
    fn uniform_stack_geometry() {
        let s = PsvaaStack::uniform(8);
        assert_eq!(s.n_rows(), 8);
        let pitch = base_row_pitch_m();
        assert!((s.height_m() - 8.0 * pitch).abs() < 1e-12);
        // Rows are evenly spaced.
        for w in s.rows().windows(2) {
            assert!((w[1].z_m - w[0].z_m - pitch).abs() < 1e-12);
        }
    }

    #[test]
    fn boresight_gain_is_row_count() {
        for n in [4, 8, 16] {
            let s = PsvaaStack::uniform(n);
            let af = s.elevation_array_factor(0.0, FC);
            assert!((af.abs() - n as f64).abs() < 1e-9, "n={n}: {}", af.abs());
        }
    }

    #[test]
    fn uniform_beamwidth_matches_eq5() {
        // Measured −3 dB width ≈ Eq. 5 prediction.
        for n in [8usize, 16, 32] {
            let s = PsvaaStack::uniform(n);
            let predicted = design::stack_beamwidth_rad(n, base_row_pitch_m(), LAMBDA_CENTER_M);
            let measured = s.measured_beamwidth_rad(FC);
            assert!(
                (measured / predicted - 1.0).abs() < 0.15,
                "n={n}: measured {measured}, Eq.5 {predicted}"
            );
        }
    }

    #[test]
    fn uniform_32_stack_beam_is_about_1_degree() {
        let s = PsvaaStack::uniform(32);
        let bw = rad_to_deg(s.measured_beamwidth_rad(FC));
        assert!(bw > 0.8 && bw < 1.5, "beamwidth {bw}°");
    }

    #[test]
    fn phase_weights_increase_height() {
        let flat = PsvaaStack::uniform(8);
        let shaped = PsvaaStack::with_phases(&[
            deg_to_rad(152.9),
            deg_to_rad(37.6),
            0.0,
            0.0,
            0.0,
            0.0,
            deg_to_rad(37.6),
            deg_to_rad(152.9),
        ]);
        assert!(shaped.height_m() > flat.height_m());
    }

    #[test]
    fn paper_8row_profile_widens_beam() {
        // The Fig. 8a example profile must broaden the elevation beam
        // substantially relative to uniform.
        let flat = PsvaaStack::uniform(8);
        let shaped = PsvaaStack::with_phases(&[
            deg_to_rad(152.9),
            deg_to_rad(37.6),
            0.0,
            0.0,
            0.0,
            0.0,
            deg_to_rad(37.6),
            deg_to_rad(152.9),
        ]);
        let bw_flat = flat.measured_beamwidth_rad(FC);
        let bw_shaped = shaped.measured_beamwidth_rad(FC);
        assert!(
            bw_shaped > 1.5 * bw_flat,
            "shaped {bw_shaped} vs flat {bw_flat}"
        );
    }

    #[test]
    fn pattern_db_peak_is_zero() {
        let s = PsvaaStack::uniform(8);
        let at_peak = s.elevation_pattern_db(0.0, FC);
        assert!(at_peak.abs() < 0.01, "{at_peak}");
        // Away from the main beam the pattern is well down.
        assert!(s.elevation_pattern_db(deg_to_rad(10.0), FC) < -10.0);
    }

    #[test]
    fn elevation_factor_carries_stack_gain_and_selectivity() {
        let s = PsvaaStack::uniform(16);
        let on = s.elevation_array_factor(0.0, FC).norm_sqr();
        let off_el = s.elevation_array_factor(deg_to_rad(5.0), FC).norm_sqr();
        assert!(on / off_el > 10.0, "elevation selectivity missing");
        // 16 rows: +24 dB power over a single PSVAA at boresight.
        let gain_db = 10.0 * on.log10();
        assert!((gain_db - 24.1).abs() < 0.5, "stack gain {gain_db} dB");
    }

    #[test]
    fn row_scatterers_export() {
        let phases = [0.0, deg_to_rad(90.0), 0.0];
        let s = PsvaaStack::with_phases(&phases);
        let sc = s.row_scatterers(FC);
        assert_eq!(sc.len(), 3);
        // Phase weight appears in the exported weight.
        assert!((sc[1].1.arg() - deg_to_rad(90.0)).abs() < 1e-9);
        assert!((sc[0].1.arg()).abs() < 1e-9);
        // Weighted rows pay a small extra-line loss.
        assert!(sc[1].1.abs() < sc[0].1.abs());
        assert!(sc[1].1.abs() > 0.9);
        // Heights ascend.
        assert!(sc[0].0 < sc[1].0 && sc[1].0 < sc[2].0);
    }

    #[test]
    fn stored_layout_key_matches_rows() {
        let phases = [0.0, deg_to_rad(40.0), deg_to_rad(90.0), 0.0];
        for s in [PsvaaStack::uniform(5), PsvaaStack::with_phases(&phases)] {
            let z: Vec<f64> = s.rows().iter().map(|r| r.z_m).collect();
            let phi: Vec<f64> = s.rows().iter().map(|r| r.phase_rad).collect();
            let fresh = KeyBuilder::new("antenna.stack.layout")
                .f64s(&z)
                .f64s(&phi)
                .finish();
            assert_eq!(s.layout_key(), &fresh);
            assert_eq!(s.layout_key().fingerprint(), fresh.fingerprint());
            // Clones share the key.
            assert_eq!(s.clone().layout_key(), &fresh);
        }
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn empty_stack_rejected() {
        PsvaaStack::with_phases(&[]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_phase_rejected() {
        PsvaaStack::with_phases(&[-0.1]);
    }
}
