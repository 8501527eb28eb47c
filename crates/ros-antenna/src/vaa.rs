//! The Van Atta array engine (§4.1–§4.2, Figs. 3–6).
//!
//! One model covers all three array types the paper simulates:
//!
//! * **VanAtta** — the classic retroreflector: pairs of patches
//!   interconnected by transmission lines whose lengths differ by
//!   multiples of λg. Signals received by one element re-radiate from
//!   its mirror partner, conjugating the aperture phase and steering
//!   the reflection back at the source.
//! * **Psvaa** — the polarization-switching variant: each pair couples
//!   a vertical patch to a horizontal one, so the retroreflection
//!   returns in the orthogonal polarization (−6 dB, §4.2).
//! * **Ula** — a plain row of disconnected patches: the specular
//!   baseline of Fig. 4 ("an ordinary reflective object").
//!
//! The bistatic response sums, coherently and with full polarization
//! bookkeeping, (a) the retro paths through every TL in both
//! directions and (b) the structural (specular) reflection of each
//! metal patch. RCS values are calibrated to the paper's −37 dBsm
//! anchor for the 3-pair VAA at broadside (⇒ −43 dBsm for the PSVAA,
//! Fig. 5a).

use crate::patch;
use crate::tl::{self, TransmissionLine};
use ros_cache::{GeomCache, Key, KeyBuilder, TableKind};
use ros_em::jones::Polarization;
use ros_em::prelude::*;
use ros_em::units::cast::AsF64;
use std::sync::{Arc, OnceLock};

/// Which of the three array types to model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrayKind {
    /// Classic Van Atta retroreflector (co-polarized).
    VanAtta,
    /// Polarization-switching Van Atta (cross-polarized retro).
    Psvaa,
    /// Uniform linear array of disconnected patches (specular).
    Ula,
}

/// Target broadside RCS of the reference 3-pair VAA \[dBsm\],
/// the calibration anchor (Fig. 5a: VAA ≈ −37 dBsm, PSVAA ≈ −43 dBsm).
pub const VAA_BROADSIDE_RCS_DBSM: f64 = -37.0;

/// Amplitude cross-polarization leakage of a patch (−18 dB power),
/// which sets the original VAA's cross-pol floor ≈12 dB below the
/// PSVAA's response in Fig. 5a.
pub(crate) const PATCH_XPOL_LEAK: f64 = 0.126;

/// Amplitude cross-pol leakage of the *structural* (specular) patch
/// reflection — metal patches barely depolarize (−30 dB power).
pub(crate) const STRUCT_XPOL_LEAK: f64 = 0.0316;

/// Excess meander/bend loss of the routed Van Atta lines \[dB per λg\].
///
/// The §4.1 design-rule lines are meandered to fit between the ground
/// vias (Fig. 7b); each guided wavelength of routing adds bend and
/// transition loss on top of the straight-line attenuation. This
/// superlinear penalty on the outer (longer) pairs is what makes the
/// *per-pair* RCS contribution peak at 3 pairs in Fig. 3 rather than
/// grow indefinitely.
pub(crate) const MEANDER_LOSS_DB_PER_LAMBDA_G: f64 = 1.0;

/// Structural (specular) reflection amplitude of a patch whose port is
/// terminated into a matched Van Atta line, relative to the radiating
/// element amplitude. Matched patches mostly absorb and re-radiate
/// through the line; only a small structural mode scatters specularly.
pub(crate) const STRUCT_AMP_CONNECTED: f64 = 0.2;

/// Structural reflection amplitude of a *disconnected* ULA patch
/// (open port ⇒ full re-reflection), relative to the radiating
/// element amplitude.
pub(crate) const STRUCT_AMP_ULA: f64 = 1.0;

/// One interconnected antenna pair.
#[derive(Clone, Copy, Debug)]
struct Pair {
    /// Index of the first element.
    a: usize,
    /// Index of the second (mirror) element.
    b: usize,
    /// The interconnecting line.
    line: TransmissionLine,
    /// Residual feed-direction phase \[rad\] (0 when the extra λg/2 of
    /// line already compensates it; see [`tl::feed_phase_compensation`]).
    feed_phase: f64,
}

/// A single horizontal Van Atta / PSVAA / ULA row.
#[derive(Clone, Debug)]
pub struct VanAttaArray {
    kind: ArrayKind,
    /// Element x-positions \[m\], symmetric about 0.
    element_x: Vec<f64>,
    /// Element patch polarizations.
    element_pol: Vec<Polarization>,
    pairs: Vec<Pair>,
    /// Extra line length added uniformly to every TL \[m\] — the §4.3
    /// beam-shaping phase-weight mechanism.
    extra_line_m: f64,
}

impl VanAttaArray {
    /// Builds an array of `n_pairs` pairs (2·n_pairs elements) on the
    /// λ/2 grid with §4.1 design-rule line lengths (ΔL = 2λg).
    ///
    /// # Panics
    /// Panics when `n_pairs == 0`.
    pub fn new(kind: ArrayKind, n_pairs: usize) -> Self {
        assert!(n_pairs > 0, "an array needs at least one pair");
        let n = 2 * n_pairs;
        let pitch = patch::ELEMENT_PITCH_M;
        let element_x: Vec<f64> = (0..n)
            .map(|i| (i.as_f64() - (n.as_f64() - 1.0) / 2.0) * pitch)
            .collect();

        // Polarizations: VAA/ULA all vertical; PSVAA couples V ↔ H.
        let element_pol: Vec<Polarization> = (0..n)
            .map(|i| match kind {
                ArrayKind::Psvaa => {
                    if i < n_pairs {
                        Polarization::V
                    } else {
                        Polarization::H
                    }
                }
                _ => Polarization::V,
            })
            .collect();

        // Pair p joins element (n_pairs−1−p) to its mirror — outermost
        // pair gets the longest line, as physical routing demands.
        let lengths = tl::design_tl_lengths_m(n_pairs);
        let pairs: Vec<Pair> = match kind {
            ArrayKind::Ula => Vec::new(),
            _ => (0..n_pairs)
                .map(|p| {
                    let a = n_pairs - 1 - p;
                    Pair {
                        a,
                        b: n - 1 - a,
                        line: TransmissionLine::new(lengths[p]),
                        feed_phase: 0.0,
                    }
                })
                .collect(),
        };

        VanAttaArray {
            kind,
            element_x,
            element_pol,
            pairs,
            extra_line_m: 0.0,
        }
    }

    /// The paper's fabricated 3-pair PSVAA (§4.2): exact line lengths
    /// 4.106 / 9.148 / 12.171 mm with the middle pair's feed-direction
    /// π offset (compensated by its extra λg/2 at 79 GHz).
    pub fn paper_psvaa() -> Self {
        let mut arr = VanAttaArray::new(ArrayKind::Psvaa, 3);
        let lengths = tl::paper_tl_lengths_m();
        for (p, pair) in arr.pairs.iter_mut().enumerate() {
            pair.line = TransmissionLine::new(lengths[p]);
            pair.feed_phase = tl::feed_phase_compensation(p);
        }
        arr
    }

    /// The array kind.
    pub fn kind(&self) -> ArrayKind {
        self.kind
    }

    /// Number of antenna pairs (0 for a ULA).
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Physical width of the row \[m\] (3λ for the 3-pair design, §5).
    pub fn width_m(&self) -> f64 {
        match (self.element_x.first(), self.element_x.last()) {
            (Some(first), Some(last)) => last - first + patch::ELEMENT_PITCH_M,
            _ => 0.0,
        }
    }

    /// Adds `extra_m` of line to every TL — the §4.3 phase-weight
    /// mechanism (a phase shift φ needs φ/2π·λg of extra length).
    pub fn with_extra_line(mut self, extra_m: f64) -> Self {
        assert!(extra_m >= 0.0, "extra line length must be non-negative");
        self.extra_line_m = extra_m;
        self
    }

    /// Extra line length currently applied \[m\].
    pub(crate) fn extra_line_m(&self) -> f64 {
        self.extra_line_m
    }

    /// Complex scattered field amplitude \[√m²\] for a plane wave
    /// incident from azimuth `theta_in`, observed at azimuth
    /// `theta_out`, at `freq_hz`, transmitted with polarization `tx`
    /// and received with polarization `rx`.
    ///
    /// Azimuth angles are measured from broadside \[rad\].
    pub(crate) fn bistatic_field(
        &self,
        theta_in: f64,
        theta_out: f64,
        freq_hz: f64,
        tx: Polarization,
        rx: Polarization,
    ) -> Complex64 {
        let k = std::f64::consts::TAU / wavelength(freq_hz);
        let g_in = patch::azimuth_pattern(theta_in);
        let g_out = patch::azimuth_pattern(theta_out);
        let m = patch::match_amplitude(freq_hz);
        let a0 = calibration_amp();

        let mut field = Complex64::ZERO;

        // Retro paths through each TL, both directions.
        for pair in &self.pairs {
            let line = pair.line.extended(self.extra_line_m);
            let t = line.transfer(freq_hz)
                * Complex64::cis(pair.feed_phase)
                * meander_amplitude(line.length_m);
            for (i, j) in [(pair.a, pair.b), (pair.b, pair.a)] {
                let rx_proj = pol_factor(self.element_pol[i], tx);
                let tx_proj = pol_factor(self.element_pol[j], rx);
                let geom = Complex64::cis(
                    k * (self.element_x[i] * theta_in.sin() + self.element_x[j] * theta_out.sin()),
                );
                field += geom * t * (a0 * g_in * g_out * m * m * rx_proj * tx_proj);
            }
        }

        // Structural (specular) reflection of every patch.
        let s_amp = match self.kind {
            ArrayKind::Ula => STRUCT_AMP_ULA,
            _ => STRUCT_AMP_CONNECTED,
        };
        let s_proj = if tx == rx { 1.0 } else { STRUCT_XPOL_LEAK };
        for &x in &self.element_x {
            let geom = Complex64::cis(k * x * (theta_in.sin() + theta_out.sin()));
            field += geom * (a0 * g_in * g_out * s_amp * s_proj);
        }

        field
    }

    /// Monostatic scattered field: `theta_out == theta_in`.
    pub fn monostatic_field(
        &self,
        theta: f64,
        freq_hz: f64,
        tx: Polarization,
        rx: Polarization,
    ) -> Complex64 {
        self.bistatic_field(theta, theta, freq_hz, tx, rx)
    }

    /// Monostatic RCS \[dBsm\].
    pub fn monostatic_rcs_dbsm(
        &self,
        theta: f64,
        freq_hz: f64,
        tx: Polarization,
        rx: Polarization,
    ) -> f64 {
        let sigma = self.monostatic_field(theta, freq_hz, tx, rx).norm_sqr();
        10.0 * sigma.max(1e-30).log10()
    }

    /// Structural layout key of this array: kind, exact element
    /// geometry and polarizations, every pair's line length and feed
    /// phase, and the uniform extra line — everything
    /// [`Self::bistatic_field`] reads. Two arrays share cached tables
    /// iff this key is equal.
    pub(crate) fn layout_key(&self) -> Key {
        let kind = match self.kind {
            ArrayKind::VanAtta => 0u64,
            ArrayKind::Psvaa => 1,
            ArrayKind::Ula => 2,
        };
        let pols: Vec<bool> = self
            .element_pol
            .iter()
            .map(|&p| p == Polarization::H)
            .collect();
        let mut b = KeyBuilder::new("antenna.vaa.layout")
            .u64(kind)
            .f64s(&self.element_x)
            .bools(&pols)
            .f64(self.extra_line_m);
        for pair in &self.pairs {
            b = b
                .usize(pair.a)
                .usize(pair.b)
                .f64(pair.line.length_m)
                .f64(pair.feed_phase);
        }
        b.finish()
    }

    /// Monostatic RCS azimuth cut \[dBsm\] sampled at `thetas`,
    /// memoized in an injected cache. Bit-identical to calling
    /// [`Self::monostatic_rcs_dbsm`] per sample; repeated cuts of the
    /// same layout (e.g. the VAA baseline shared by Figs. 4a and 5b)
    /// build once.
    pub fn monostatic_rcs_table_in(
        &self,
        cache: &GeomCache,
        thetas: &[f64],
        freq_hz: f64,
        tx: Polarization,
        rx: Polarization,
    ) -> Arc<Vec<f64>> {
        let key = KeyBuilder::new("antenna.vaa.monostatic_rcs")
            .nested(&self.layout_key())
            .f64(freq_hz)
            .bool(tx == Polarization::H)
            .bool(rx == Polarization::H)
            .f64s(thetas)
            .finish();
        cache.get_or_build(TableKind::Pattern, key, || {
            thetas
                .iter()
                .map(|&th| self.monostatic_rcs_dbsm(th, freq_hz, tx, rx))
                .collect()
        })
    }

    /// Bistatic RCS \[dBsm\].
    pub fn bistatic_rcs_dbsm(
        &self,
        theta_in: f64,
        theta_out: f64,
        freq_hz: f64,
        tx: Polarization,
        rx: Polarization,
    ) -> f64 {
        let sigma = self
            .bistatic_field(theta_in, theta_out, freq_hz, tx, rx)
            .norm_sqr();
        10.0 * sigma.max(1e-30).log10()
    }
}

/// Amplitude coupling between a patch of polarization `patch_pol` and a
/// wave of polarization `wave_pol`.
#[inline]
fn pol_factor(patch_pol: Polarization, wave_pol: Polarization) -> f64 {
    if patch_pol == wave_pol {
        1.0
    } else {
        PATCH_XPOL_LEAK
    }
}

/// Amplitude factor of the excess meander/bend routing loss.
#[inline]
fn meander_amplitude(length_m: f64) -> f64 {
    let loss_db =
        MEANDER_LOSS_DB_PER_LAMBDA_G * length_m / ros_em::constants::LAMBDA_GUIDED_79GHZ_M;
    ros_em::db::db_to_lin(-loss_db)
}

/// Per-element field amplitude \[√m²\], fixed so the *retro component*
/// of the reference 3-pair VAA hits [`VAA_BROADSIDE_RCS_DBSM`] at
/// 79 GHz, co-pol. (Anchoring on the retro component keeps the
/// retroreflective plateau of Fig. 4a/5a at the paper's level; the
/// structural specular term adds a small extra peak at broadside.)
fn calibration_amp() -> f64 {
    static CAL: OnceLock<f64> = OnceLock::new();
    *CAL.get_or_init(|| {
        let reference = VanAttaArray::new(ArrayKind::VanAtta, 3);
        let m = patch::match_amplitude(F_CENTER_HZ);
        let mut raw = Complex64::ZERO;
        for pair in &reference.pairs {
            let t = pair.line.transfer(F_CENTER_HZ)
                * Complex64::cis(pair.feed_phase)
                * meander_amplitude(pair.line.length_m);
            raw += t * (2.0 * m * m); // both directions, co-pol
        }
        let target_field = ros_em::db::db_to_lin(VAA_BROADSIDE_RCS_DBSM);
        target_field / raw.abs()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_em::geom::deg_to_rad;

    const FC: f64 = F_CENTER_HZ;

    #[test]
    fn calibration_anchor_holds() {
        // The retro plateau (off broadside, where the structural
        // specular term has decohered) sits at the −37 dBsm anchor
        // minus the small element-pattern rolloff.
        let vaa = VanAttaArray::new(ArrayKind::VanAtta, 3);
        let th = deg_to_rad(25.0);
        let rcs = vaa.monostatic_rcs_dbsm(th, FC, Polarization::V, Polarization::V);
        let pattern_drop_db = -40.0 * patch::azimuth_pattern(th).log10();
        assert!(
            (rcs - (VAA_BROADSIDE_RCS_DBSM - pattern_drop_db)).abs() < 1.0,
            "plateau RCS {rcs} dBsm (expected ≈{})",
            VAA_BROADSIDE_RCS_DBSM - pattern_drop_db
        );
    }

    #[test]
    fn vaa_is_retroreflective_across_fov() {
        // Fig. 4a: flat RCS within ±60° (small broadside specular peak
        // allowed, plateau variation itself must be mild).
        let vaa = VanAttaArray::new(ArrayKind::VanAtta, 3);
        let broadside = vaa.monostatic_rcs_dbsm(0.0, FC, Polarization::V, Polarization::V);
        let mut plateau = Vec::new();
        for deg in [-60.0, -40.0, -20.0, 20.0, 40.0, 60.0] {
            let rcs =
                vaa.monostatic_rcs_dbsm(deg_to_rad(deg), FC, Polarization::V, Polarization::V);
            assert!(
                broadside - rcs < 6.5,
                "RCS at {deg}° is {rcs}, broadside {broadside}"
            );
            plateau.push(rcs);
        }
        let spread = plateau.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - plateau.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 4.5, "plateau spread {spread:.1} dB");
    }

    #[test]
    fn ula_is_specular() {
        // Fig. 4a: the ULA responds strongly only near broadside.
        let ula = VanAttaArray::new(ArrayKind::Ula, 3);
        let broadside = ula.monostatic_rcs_dbsm(0.0, FC, Polarization::V, Polarization::V);
        let off = ula.monostatic_rcs_dbsm(deg_to_rad(30.0), FC, Polarization::V, Polarization::V);
        assert!(
            broadside - off > 15.0,
            "ULA broadside {broadside}, 30° {off}"
        );
    }

    #[test]
    fn vaa_beats_ula_off_broadside() {
        let vaa = VanAttaArray::new(ArrayKind::VanAtta, 3);
        let ula = VanAttaArray::new(ArrayKind::Ula, 3);
        for deg in [20.0, 35.0, 50.0] {
            let v = vaa.monostatic_rcs_dbsm(deg_to_rad(deg), FC, Polarization::V, Polarization::V);
            let u = ula.monostatic_rcs_dbsm(deg_to_rad(deg), FC, Polarization::V, Polarization::V);
            assert!(v > u + 8.0, "at {deg}°: VAA {v} vs ULA {u}");
        }
    }

    #[test]
    fn bistatic_vaa_returns_to_source() {
        // Fig. 4b: incidence 30°; the VAA's strongest response is back
        // at 30°, the ULA's at −30°.
        let vaa = VanAttaArray::new(ArrayKind::VanAtta, 3);
        let ula = VanAttaArray::new(ArrayKind::Ula, 3);
        let th_in = deg_to_rad(30.0);
        let retro = vaa.bistatic_rcs_dbsm(th_in, th_in, FC, Polarization::V, Polarization::V);
        let spec = vaa.bistatic_rcs_dbsm(th_in, -th_in, FC, Polarization::V, Polarization::V);
        assert!(retro > spec + 5.0, "VAA retro {retro} vs specular {spec}");

        let ula_retro = ula.bistatic_rcs_dbsm(th_in, th_in, FC, Polarization::V, Polarization::V);
        let ula_spec = ula.bistatic_rcs_dbsm(th_in, -th_in, FC, Polarization::V, Polarization::V);
        assert!(ula_spec > ula_retro + 5.0);
    }

    #[test]
    fn psvaa_switches_polarization() {
        // Fig. 5a: PSVAA cross-pol ≈ −43 dBsm, ≈12 dB above the
        // original VAA's cross-pol leakage.
        let psvaa = VanAttaArray::new(ArrayKind::Psvaa, 3);
        let vaa = VanAttaArray::new(ArrayKind::VanAtta, 3);
        let ps_cross =
            psvaa.monostatic_rcs_dbsm(deg_to_rad(10.0), FC, Polarization::V, Polarization::H);
        let vaa_cross =
            vaa.monostatic_rcs_dbsm(deg_to_rad(10.0), FC, Polarization::V, Polarization::H);
        assert!(
            (ps_cross - (-43.0)).abs() < 3.0,
            "PSVAA cross-pol {ps_cross} dBsm"
        );
        assert!(
            ps_cross - vaa_cross > 8.0,
            "PSVAA {ps_cross} vs VAA {vaa_cross}"
        );
    }

    #[test]
    fn psvaa_pays_6db_for_switching() {
        // §4.2: the PSVAA's cross-pol RCS sits ≈6 dB below the original
        // VAA's co-pol RCS (half the elements re-radiate). Measured off
        // broadside so the structural specular term doesn't bias it.
        let psvaa = VanAttaArray::new(ArrayKind::Psvaa, 3);
        let vaa = VanAttaArray::new(ArrayKind::VanAtta, 3);
        let th = deg_to_rad(25.0);
        let ps = psvaa.monostatic_rcs_dbsm(th, FC, Polarization::V, Polarization::H);
        let co = vaa.monostatic_rcs_dbsm(th, FC, Polarization::V, Polarization::V);
        let penalty = co - ps;
        assert!(
            (penalty - 6.0).abs() < 1.5,
            "polarization-switching penalty {penalty:.1} dB"
        );
    }

    #[test]
    fn psvaa_copol_is_specular_only() {
        // Fig. 5b: with co-polarized Tx/Rx the PSVAA acts as a normal
        // specular reflector.
        let psvaa = VanAttaArray::new(ArrayKind::Psvaa, 3);
        let broadside = psvaa.monostatic_rcs_dbsm(0.0, FC, Polarization::V, Polarization::V);
        let off = psvaa.monostatic_rcs_dbsm(deg_to_rad(30.0), FC, Polarization::V, Polarization::V);
        assert!(broadside - off > 10.0, "co-pol {broadside} vs {off}");
    }

    #[test]
    fn psvaa_rcs_stable_across_band() {
        // Fig. 6a: cross-pol RCS varies < 4 dB over 76–81 GHz.
        let psvaa = VanAttaArray::paper_psvaa();
        let th = deg_to_rad(15.0);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for k in 0..=20 {
            let f = 76.0e9 + 5.0e9 * k as f64 / 20.0;
            let rcs = psvaa.monostatic_rcs_dbsm(th, f, Polarization::V, Polarization::H);
            min = min.min(rcs);
            max = max.max(rcs);
        }
        assert!(max - min < 4.0, "band ripple {:.1} dB", max - min);
    }

    #[test]
    fn per_pair_rcs_maximized_at_3_pairs() {
        // Fig. 3: the worst-case-over-band RCS contribution per antenna
        // pair peaks at 3 pairs — beyond that, band-edge TL phase
        // misalignment plus routing loss erodes the marginal gain.
        let per_pair: Vec<f64> = (1..=6)
            .map(|n| {
                let vaa = VanAttaArray::new(ArrayKind::VanAtta, n);
                let th = deg_to_rad(30.0);
                let mut worst = f64::INFINITY;
                let samples = 21;
                for k in 0..samples {
                    let f = 76.0e9 + 5.0e9 * k as f64 / (samples - 1) as f64;
                    // Off-broadside angle so the structural specular
                    // term (which also grows with n) doesn't dominate.
                    let p = vaa
                        .monostatic_field(th, f, Polarization::V, Polarization::V)
                        .norm_sqr();
                    worst = worst.min(p);
                }
                worst / n as f64
            })
            .collect();
        let best = per_pair
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0
            + 1;
        assert_eq!(best, 3, "per-pair RCS {per_pair:?}");
    }

    #[test]
    fn extra_line_shifts_phase() {
        let lg = ros_em::constants::LAMBDA_GUIDED_79GHZ_M;
        let base = VanAttaArray::new(ArrayKind::Psvaa, 3);
        let shifted = VanAttaArray::new(ArrayKind::Psvaa, 3).with_extra_line(lg / 4.0);
        // λg/4 of extra line = 90° of phase weight.
        let th = deg_to_rad(20.0);
        let f0 = base.monostatic_field(th, FC, Polarization::V, Polarization::H);
        let f1 = shifted.monostatic_field(th, FC, Polarization::V, Polarization::H);
        // Same magnitude (tiny extra loss), rotated phase.
        assert!((f0.abs() - f1.abs()).abs() / f0.abs() < 0.05);
        let dphi = ros_em::geom::wrap_angle(f1.arg() - f0.arg());
        assert!(
            (dphi + std::f64::consts::FRAC_PI_2).abs() < 0.05,
            "phase shift {dphi}"
        );
    }

    #[test]
    fn geometry_accessors() {
        let arr = VanAttaArray::new(ArrayKind::Psvaa, 3);
        assert_eq!(arr.n_pairs(), 3);
        assert_eq!(arr.kind(), ArrayKind::Psvaa);
        // §5: a PSVAA is 3λ wide.
        let lambda = ros_em::constants::LAMBDA_CENTER_M;
        assert!((arr.width_m() - 3.0 * lambda).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn zero_pairs_rejected() {
        VanAttaArray::new(ArrayKind::VanAtta, 0);
    }

    #[test]
    fn paper_psvaa_aligned_at_center() {
        // The paper lengths + feed compensation must be phase-aligned
        // at 79 GHz: response magnitude within 1 dB of the design-rule
        // array's.
        let paper = VanAttaArray::paper_psvaa();
        let design = VanAttaArray::new(ArrayKind::Psvaa, 3);
        let th = deg_to_rad(20.0);
        let p = paper.monostatic_rcs_dbsm(th, FC, Polarization::V, Polarization::H);
        let d = design.monostatic_rcs_dbsm(th, FC, Polarization::V, Polarization::H);
        assert!((p - d).abs() < 2.0, "paper {p} vs design {d}");
    }
}
