//! The scene↔radar interface.

use ros_em::atten::{fog_round_trip_db, FogLevel};
use ros_em::jones::Polarization;
use ros_em::radar_eq::RadarLinkBudget;
use ros_em::{Complex64, Vec3};

/// One scatterer's return (mirrors `ros_radar::Echo`; duplicated here
/// so the scene layer does not depend on the radar crate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SceneEcho {
    /// Absolute scatterer position \[m\].
    pub pos: Vec3,
    /// Complex received amplitude \[√mW\] at the reference antenna.
    pub amp: Complex64,
}

/// Shared context for echo computation.
#[derive(Clone, Copy, Debug)]
pub struct EchoContext {
    /// The interrogating radar's link budget.
    pub budget: RadarLinkBudget,
    /// Current weather.
    pub fog: FogLevel,
    /// Ground-bounce (two-ray) reflection coefficient; `None` disables
    /// the multipath model. Asphalt at 79 GHz and grazing incidence is
    /// ≈ −0.3…−0.8 (amplitude, with the sign of the phase flip).
    pub ground_coeff: Option<f64>,
}

impl EchoContext {
    /// TI-radar context in clear weather.
    pub fn ti_clear() -> Self {
        EchoContext {
            budget: RadarLinkBudget::ti_eval(),
            fog: FogLevel::Clear,
            ground_coeff: None,
        }
    }

    /// Enables the two-ray ground-bounce model with the given
    /// amplitude reflection coefficient (e.g. −0.5 for asphalt).
    pub fn with_ground(mut self, coeff: f64) -> Self {
        self.ground_coeff = Some(coeff);
        self
    }

    /// Received field amplitude \[√mW\] for a scatterer of complex RCS
    /// amplitude `f` \[√m²\] at distance `d_m`, including round-trip
    /// propagation phase and fog loss.
    pub fn echo_amplitude(&self, f: Complex64, d_m: f64) -> Complex64 {
        if d_m <= 0.0 {
            return Complex64::ZERO;
        }
        // Radar equation with σ = 1 m² gives the per-√σ scale factor.
        let p_unit_dbm = self.budget.received_power_dbm(0.0, d_m);
        let fog_db = fog_round_trip_db(self.fog, d_m);
        let scale = ros_em::db::db_to_lin(p_unit_dbm - fog_db);
        let lambda = ros_em::constants::wavelength(self.budget.freq_hz);
        let phase = -2.0 * std::f64::consts::TAU * d_m / lambda; // −4πd/λ
        f * Complex64::from_polar(scale, phase)
    }
}

impl EchoContext {
    /// Received field amplitude including the two-ray ground bounce
    /// when enabled: the direct round trip plus the round trip via the
    /// scatterer's ground image (one bounce each way is the dominant
    /// multipath term at roadside geometries).
    pub fn echo_amplitude_at(
        &self,
        f: Complex64,
        radar_pos: Vec3,
        scatterer_pos: Vec3,
    ) -> Complex64 {
        two_ray(self, f, radar_pos, scatterer_pos, |f, d| {
            self.echo_amplitude(f, d)
        })
    }
}

/// An [`EchoContext`] with its range-independent terms evaluated once:
/// the radar equation's head at σ = 1 m² (everything before `− d⁴`,
/// which costs two `log₁₀`) and the carrier wavelength. A pass builds
/// one and reuses it for every echo, so each echo pays for its own
/// `d⁴` and fog loss alone. Its amplitudes equal
/// [`EchoContext::echo_amplitude_at`]'s bit for bit: the radar
/// equation's left fold keeps its order, split where the range enters.
#[derive(Clone, Copy, Debug)]
pub struct EchoLink {
    ctx: EchoContext,
    unit_head_dbm: f64,
    lambda_m: f64,
}

impl EchoLink {
    /// Evaluates `ctx`'s range-independent terms.
    pub fn new(ctx: EchoContext) -> Self {
        EchoLink {
            ctx,
            unit_head_dbm: ctx.budget.received_power_head_dbm(0.0),
            lambda_m: ros_em::constants::wavelength(ctx.budget.freq_hz),
        }
    }

    /// [`EchoContext::echo_amplitude`] with the hoisted terms.
    fn echo_amplitude(&self, f: Complex64, d_m: f64) -> Complex64 {
        if d_m <= 0.0 {
            return Complex64::ZERO;
        }
        let p_unit_dbm = self.unit_head_dbm - ros_em::radar_eq::spreading_loss_db(d_m);
        let fog_db = fog_round_trip_db(self.ctx.fog, d_m);
        let scale = ros_em::db::db_to_lin(p_unit_dbm - fog_db);
        let phase = -2.0 * std::f64::consts::TAU * d_m / self.lambda_m; // −4πd/λ
        f * Complex64::from_polar(scale, phase)
    }

    /// [`EchoContext::echo_amplitude_at`] with the hoisted terms.
    pub fn echo_amplitude_at(
        &self,
        f: Complex64,
        radar_pos: Vec3,
        scatterer_pos: Vec3,
    ) -> Complex64 {
        two_ray(&self.ctx, f, radar_pos, scatterer_pos, |f, d| {
            self.echo_amplitude(f, d)
        })
    }
}

/// The two-ray composition behind both `echo_amplitude_at` forms, with
/// `one_way(f, d)` the round-trip amplitude over mean path `d`.
fn two_ray(
    ctx: &EchoContext,
    f: Complex64,
    radar_pos: Vec3,
    scatterer_pos: Vec3,
    one_way: impl Fn(Complex64, f64) -> Complex64,
) -> Complex64 {
    let d_direct = radar_pos.distance(scatterer_pos);
    let direct = one_way(f, d_direct);
    match ctx.ground_coeff {
        None => direct,
        Some(gamma) => {
            // Image of the scatterer below the road plane (z = 0).
            let image = Vec3::new(scatterer_pos.x, scatterer_pos.y, -scatterer_pos.z);
            let d_bounce = radar_pos.distance(image);
            // One-way direct + one-way bounced, both directions:
            // two cross terms of amplitude γ and one double-bounce
            // of γ². Each uses the mean path for the spreading loss.
            let cross_path = (d_direct + d_bounce) / 2.0;
            let cross = one_way(f, cross_path)
                * Complex64::from_polar(
                    gamma.abs(),
                    if gamma < 0.0 {
                        std::f64::consts::PI
                    } else {
                        0.0
                    },
                )
                * phase_for_extra_path(d_bounce - d_direct, ctx.budget.freq_hz);
            let double = one_way(f, d_bounce)
                * Complex64::real(gamma * gamma)
                * phase_for_extra_path(2.0 * (d_bounce - d_direct), ctx.budget.freq_hz);
            direct + cross * 2.0 + double
        }
    }
}

/// Round-trip phase factor for `extra_m` of additional one-way path.
fn phase_for_extra_path(extra_m: f64, freq_hz: f64) -> Complex64 {
    let lambda = ros_em::constants::wavelength(freq_hz);
    Complex64::cis(-std::f64::consts::TAU * extra_m / lambda)
}

/// Anything in the scene that reflects radar energy.
pub trait Reflector {
    /// Echoes produced for a radar at `radar_pos` transmitting with
    /// polarization `tx` and receiving with `rx`.
    fn echoes(
        &self,
        radar_pos: Vec3,
        tx: Polarization,
        rx: Polarization,
        ctx: &EchoContext,
    ) -> Vec<SceneEcho>;

    /// Nominal centre of the reflector \[m\] (for ground truth and
    /// cluster association in experiments).
    fn center(&self) -> Vec3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_amplitude_matches_radar_equation() {
        let ctx = EchoContext::ti_clear();
        // σ = −23 dBsm at 3 m.
        let f = Complex64::real(10f64.powf(-23.0 / 20.0));
        let amp = ctx.echo_amplitude(f, 3.0);
        let p_dbm = 20.0 * amp.abs().log10();
        let expected = ctx.budget.received_power_dbm(-23.0, 3.0);
        assert!((p_dbm - expected).abs() < 1e-9, "{p_dbm} vs {expected}");
    }

    #[test]
    fn echo_phase_tracks_range() {
        let ctx = EchoContext::ti_clear();
        let f = Complex64::ONE;
        let lambda = ros_em::constants::wavelength(ctx.budget.freq_hz);
        let a1 = ctx.echo_amplitude(f, 3.0);
        let a2 = ctx.echo_amplitude(f, 3.0 + lambda / 4.0);
        // λ/4 of extra range = π of extra round-trip phase.
        let dphi = ros_em::geom::wrap_angle(a2.arg() - a1.arg());
        assert!((dphi.abs() - std::f64::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn fog_attenuates() {
        let mut ctx = EchoContext::ti_clear();
        let f = Complex64::ONE;
        let clear = ctx.echo_amplitude(f, 6.0).abs();
        ctx.fog = FogLevel::Heavy;
        let foggy = ctx.echo_amplitude(f, 6.0).abs();
        assert!(foggy < clear);
        let loss_db = 20.0 * (clear / foggy).log10();
        assert!(loss_db > 0.5 && loss_db < 2.0, "fog loss {loss_db}");
    }

    #[test]
    fn ground_bounce_modulates_with_height() {
        // Two-ray interference: sweeping the scatterer height changes
        // the direct/bounce phase relation, rippling the amplitude.
        let ctx = EchoContext::ti_clear().with_ground(-0.6);
        let radar = Vec3::new(0.0, 0.0, 0.5);
        let f = Complex64::ONE;
        let mut amps = Vec::new();
        for i in 0..40 {
            let z = 0.3 + i as f64 * 0.01;
            let a = ctx
                .echo_amplitude_at(f, radar, Vec3::new(0.0, 4.0, z))
                .abs();
            amps.push(a);
        }
        let max = amps.iter().cloned().fold(0.0_f64, f64::max);
        let min = amps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 1.5, "two-ray ripple missing: {min}..{max}");
    }

    #[test]
    fn no_ground_matches_direct_path() {
        let ctx = EchoContext::ti_clear();
        let radar = Vec3::new(0.0, 0.0, 1.0);
        let target = Vec3::new(0.0, 3.0, 1.0);
        let via_at = ctx.echo_amplitude_at(Complex64::ONE, radar, target);
        let direct = ctx.echo_amplitude(Complex64::ONE, radar.distance(target));
        assert!((via_at - direct).abs() < 1e-15);
    }

    #[test]
    fn echo_link_matches_context_bit_for_bit() {
        // Distances from the zero guard through sub-metre, the unit
        // range and far field, every fog level, ground bounce off and
        // on: the hoisted amplitude must equal the per-echo one.
        let radar = Vec3::new(0.1, -0.2, 0.7);
        let f = Complex64::from_polar(0.3, 1.1);
        for fog in FogLevel::ALL {
            for ground in [None, Some(-0.6), Some(0.4)] {
                let ctx = EchoContext {
                    fog,
                    ground_coeff: ground,
                    ..EchoContext::ti_clear()
                };
                let link = EchoLink::new(ctx);
                for i in 0..400 {
                    let t = f64::from(i);
                    let target = Vec3::new(0.37 * t.sin(), 0.05 * t - 0.2, 0.02 * t);
                    let want = ctx.echo_amplitude_at(f, radar, target);
                    let got = link.echo_amplitude_at(f, radar, target);
                    assert_eq!(
                        (want.re.to_bits(), want.im.to_bits()),
                        (got.re.to_bits(), got.im.to_bits()),
                        "{fog:?}, ground {ground:?}, target {target:?}"
                    );
                }
                let at_radar = link.echo_amplitude_at(f, radar, radar);
                assert_eq!(at_radar, ctx.echo_amplitude_at(f, radar, radar));
            }
        }
    }

    #[test]
    fn zero_distance_is_silent() {
        let ctx = EchoContext::ti_clear();
        assert_eq!(ctx.echo_amplitude(Complex64::ONE, 0.0), Complex64::ZERO);
    }
}
