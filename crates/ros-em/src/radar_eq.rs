//! The monostatic radar equation and RoS link budgets (§3.1, §5.3, §8).
//!
//! The paper's Eq. (1) governs everything the radar can see:
//!
//! ```text
//! P_r = P_t · G_t · G_r · λ² · σ / ((4π)³ · d⁴)
//! ```
//!
//! and the decode condition is `P_r > noise floor`, with the noise
//! floor `L₀ = c₀ · N_F · B_IF / (G_ra · G_rs)` expressed in §5.3 (on
//! the dB scale the gains *reduce* the effective floor seen by the
//! detector). This module provides:
//!
//! * [`received_power`] — the radar equation on the typed dB layer,
//! * [`RadarLinkBudget`] — a named parameter set with the paper's two
//!   radar presets ([`RadarLinkBudget::ti_eval`] and
//!   [`RadarLinkBudget::commercial`]),
//! * maximum-range solving ([`RadarLinkBudget::max_range`]).
//!
//! All arithmetic goes through [`crate::units`] so that power-family
//! (10·log₁₀) and amplitude-family (20·log₁₀) conversions cannot be
//! mixed up silently.

use crate::constants::THERMAL_NOISE_DBM_PER_HZ;
use crate::units::{Db, DbAmplitude, DbPower, Dbm, Hertz, Meters};

/// Received power from the monostatic radar equation.
///
/// * `pt` — transmit power
/// * `gt`, `gr` — Tx / Rx gains
/// * `freq` — carrier frequency
/// * `rcs_dbsm` — target radar cross-section, dB relative to 1 m²
/// * `d` — one-way radar-to-target distance
pub fn received_power(pt: Dbm, gt: Db, gr: Db, freq: Hertz, rcs_dbsm: Db, d: Meters) -> Dbm {
    received_power_head(pt, gt, gr, freq, rcs_dbsm) - spreading_loss(d)
}

/// The range-independent head of [`received_power`]'s left fold,
/// `pt + gt + gr + λ² + σ − (4π)³`: everything before `− d⁴`. A caller
/// that evaluates many ranges against one link computes it once and
/// subtracts [`spreading_loss_db`] per range, which is bit-identical to
/// the whole fold because the fold's order is unchanged.
fn received_power_head(pt: Dbm, gt: Db, gr: Db, freq: Hertz, rcs_dbsm: Db) -> Dbm {
    let lambda = freq.wavelength();
    // λ² is an amplitude-like length entering as an even power:
    // 20·log₁₀(λ) on the dB scale.
    let lambda_sq = DbAmplitude::from_ratio(lambda.value()).as_power();
    let four_pi_cubed = 3.0 * DbPower::from_ratio(4.0 * std::f64::consts::PI);
    pt + gt + gr + lambda_sq + rcs_dbsm - four_pi_cubed
}

/// The radar equation's two-way spreading term `d⁴`, 40·log₁₀(d) on
/// the dB scale (twice the amplitude-like 20·log₁₀(d)).
fn spreading_loss(d: Meters) -> Db {
    2.0 * DbAmplitude::from_ratio(d.value()).as_power()
}

/// Raw-`f64` form of the `d⁴` spreading term (metres in, dB out):
/// `RadarLinkBudget::received_power_dbm(σ, d)` equals
/// [`RadarLinkBudget::received_power_head_dbm`]`(σ) − spreading_loss_db(d)`
/// bit for bit.
pub fn spreading_loss_db(d_m: f64) -> f64 {
    spreading_loss(Meters::new(d_m)).value()
}

/// Raw-`f64` form of [`received_power`] (all dB-family values on the
/// 10·log₁₀ scale, distance in metres, frequency in Hz).
pub fn received_power_dbm(
    pt_dbm: f64,
    gt_gain: Db,
    gr_gain: Db,
    freq_hz: f64,
    rcs_dbsm: f64,
    d_m: f64,
) -> f64 {
    received_power(
        Dbm::new(pt_dbm),
        gt_gain,
        gr_gain,
        Hertz::new(freq_hz),
        Db::new(rcs_dbsm),
        Meters::new(d_m),
    )
    .value()
}

/// A complete monostatic radar link budget in the paper's §5.3 form.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadarLinkBudget {
    /// Transmit power + Tx antenna gain (EIRP) \[dBm\].
    pub eirp_dbm: f64,
    /// Receive antenna gain G_ra \[dB\].
    pub rx_antenna_gain_db: f64,
    /// Rx processing gain from combining antennas/chirps, G_rs \[dB\].
    pub rx_processing_gain_db: f64,
    /// Additional Rx gain G_ri (LNA / mixer chain) \[dB\].
    pub rx_chain_gain_db: f64,
    /// Receiver noise figure N_F \[dB\].
    pub noise_figure_db: f64,
    /// Intermediate-frequency bandwidth B_IF \[Hz\].
    pub if_bandwidth_hz: f64,
    /// Carrier frequency \[Hz\].
    pub freq_hz: f64,
}

impl RadarLinkBudget {
    /// The TI IWR1443 evaluation radar used in the paper (§5.3):
    /// EIRP 21 dBm, G_ra = 9 dB, G_ri = 34 dB, G_rs = 12 dB (4 Rx),
    /// N_F = 15 dB, B_IF = 37.5 MHz at 79 GHz.
    pub fn ti_eval() -> Self {
        RadarLinkBudget {
            eirp_dbm: 21.0,
            rx_antenna_gain_db: 9.0,
            rx_processing_gain_db: 12.0,
            rx_chain_gain_db: 34.0,
            noise_figure_db: 15.0,
            if_bandwidth_hz: 37.5e6,
            freq_hz: crate::constants::F_CENTER_HZ,
        }
    }

    /// A commercial automotive radar (§8): N_F = 9 dB, EIRP = 50 dBm.
    pub fn commercial() -> Self {
        RadarLinkBudget {
            eirp_dbm: 50.0,
            noise_figure_db: 9.0,
            ..Self::ti_eval()
        }
    }

    /// EIRP on the typed layer.
    pub(crate) fn eirp(&self) -> Dbm {
        Dbm::new(self.eirp_dbm)
    }

    /// Carrier frequency on the typed layer.
    pub fn freq(&self) -> Hertz {
        Hertz::new(self.freq_hz)
    }

    /// Total receive gain G_r = G_ra + G_ri + G_rs (§5.3 gives 55 dB
    /// for the TI radar).
    pub(crate) fn total_rx_gain(&self) -> Db {
        Db::new(self.rx_antenna_gain_db)
            + Db::new(self.rx_chain_gain_db)
            + Db::new(self.rx_processing_gain_db)
    }

    /// The decoder-referred noise floor.
    ///
    /// §5.3: `L₀ = c₀ · N_F · B_IF · G_ra · G_rs` (all factors multiply,
    /// i.e. add on the dB scale), which evaluates to −62 dBm for the TI
    /// preset. The decode condition is `P_r > L₀` with `P_r` computed
    /// at the full receive gain ([`Self::received_power`]).
    pub(crate) fn noise_floor(&self) -> Dbm {
        Dbm::new(THERMAL_NOISE_DBM_PER_HZ)
            + Db::new(self.noise_figure_db)
            + DbPower::from_ratio(self.if_bandwidth_hz)
            + Db::new(self.rx_antenna_gain_db)
            + Db::new(self.rx_processing_gain_db)
    }

    /// Raw-`f64` form of [`Self::noise_floor`] \[dBm\].
    pub fn noise_floor_dbm(&self) -> f64 {
        self.noise_floor().value()
    }

    /// Received power for a target of RCS `rcs` at distance `d`, at
    /// the full receive gain `G_r = G_ra + G_ri + G_rs` (§5.3 uses
    /// G_r = 55 dB for the TI radar).
    pub fn received_power(&self, rcs: Db, d: Meters) -> Dbm {
        received_power(
            self.eirp(),
            Db::ZERO,
            self.total_rx_gain(),
            self.freq(),
            rcs,
            d,
        )
    }

    /// Raw-`f64` form of [`Self::received_power`] (dBsm and metres in,
    /// dBm out).
    pub fn received_power_dbm(&self, rcs_dbsm: f64, d_m: f64) -> f64 {
        self.received_power(Db::new(rcs_dbsm), Meters::new(d_m))
            .value()
    }

    /// The range-independent head of [`Self::received_power_dbm`] for
    /// a target of RCS `rcs_dbsm` \[dBm\]: subtracting
    /// [`spreading_loss_db`]`(d)` gives `received_power_dbm(rcs_dbsm, d)`
    /// bit for bit, so a caller that evaluates many ranges against one
    /// budget pays for the head's two `log₁₀` once.
    pub fn received_power_head_dbm(&self, rcs_dbsm: f64) -> f64 {
        received_power_head(
            self.eirp(),
            Db::ZERO,
            self.total_rx_gain(),
            self.freq(),
            Db::new(rcs_dbsm),
        )
        .value()
    }

    /// Raw-`f64` form of [`Self::snr`] (dBsm and metres in, dB out).
    pub fn snr_db(&self, rcs_dbsm: f64, d_m: f64) -> f64 {
        self.received_power_dbm(rcs_dbsm, d_m) - self.noise_floor_dbm()
    }

    /// Maximum range at which a target of RCS `rcs` stays above the
    /// noise floor.
    ///
    /// Solves `P_r(d) = L₀` for `d` in closed form (`P_r ∝ d⁻⁴`).
    pub fn max_range(&self, rcs: Db) -> Meters {
        let pr_at_1m = self.received_power(rcs, Meters::new(1.0));
        let margin = Db::new(pr_at_1m.value() - self.noise_floor_dbm());
        Meters::new((margin / 4.0).ratio())
    }

    /// Raw-`f64` form of [`Self::max_range`] (dBsm in, metres out).
    pub fn max_range_m(&self, rcs_dbsm: f64) -> f64 {
        self.max_range(Db::new(rcs_dbsm)).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radar_equation_scales_as_d_minus_4() {
        let p1 = received_power_dbm(21.0, Db::ZERO, Db::new(9.0), 79e9, -23.0, 2.0);
        let p2 = received_power_dbm(21.0, Db::ZERO, Db::new(9.0), 79e9, -23.0, 4.0);
        // Doubling range costs 12.04 dB.
        assert!((p1 - p2 - 12.04).abs() < 0.01);
    }

    #[test]
    fn radar_equation_linear_in_rcs() {
        let p1 = received_power_dbm(21.0, Db::ZERO, Db::new(9.0), 79e9, -23.0, 3.0);
        let p2 = received_power_dbm(21.0, Db::ZERO, Db::new(9.0), 79e9, -17.0, 3.0);
        assert!((p2 - p1 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn typed_and_raw_forms_agree() {
        let typed = received_power(
            Dbm::new(21.0),
            Db::ZERO,
            Db::new(9.0),
            Hertz::new(79e9),
            Db::new(-23.0),
            Meters::new(3.0),
        );
        let raw = received_power_dbm(21.0, Db::ZERO, Db::new(9.0), 79e9, -23.0, 3.0);
        assert!((typed.value() - raw).abs() < 1e-12);
    }

    #[test]
    fn ti_noise_floor_matches_paper() {
        // §5.3: minimum RSS level is −62 dBm for the TI radar.
        let b = RadarLinkBudget::ti_eval();
        let floor = b.noise_floor_dbm();
        assert!((floor - (-62.0)).abs() < 0.6, "floor {floor}");
        assert!((b.total_rx_gain().value() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn ti_max_range_matches_paper() {
        // §5.3: σ = −23 dBsm tag ⇒ d ≈ 6.9 m with the TI radar.
        let b = RadarLinkBudget::ti_eval();
        let d = b.max_range(Db::new(-23.0));
        assert!(
            (d.value() - 6.9).abs() < 0.5,
            "expected ≈6.9 m from the paper, got {d}"
        );
    }

    #[test]
    fn commercial_radar_reaches_52m() {
        // §8: N_F = 9 dB, EIRP = 50 dBm ⇒ ≈52 m.
        let b = RadarLinkBudget::commercial();
        let d = b.max_range_m(-23.0);
        assert!(
            (d - 52.0).abs() < 4.0,
            "expected ≈52 m from the paper, got {d:.2} m"
        );
    }

    #[test]
    fn snr_positive_inside_max_range() {
        let b = RadarLinkBudget::ti_eval();
        let d_max = b.max_range_m(-23.0);
        assert!(b.snr_db(-23.0, d_max * 0.9) > 0.0);
        assert!(b.snr_db(-23.0, d_max * 1.1) < 0.0);
    }
}
