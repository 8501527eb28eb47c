//! Vehicle trajectories.
//!
//! The paper's field tests (§7.1) move the radar along straight
//! trajectories passing the tag — on a cart for micro-benchmarks, on a
//! sedan at 10–30 mph for the speed experiments (Fig. 18). A
//! [`Trajectory`] yields the radar pose at each frame instant.

use ros_em::units::cast::{self, AsF64};
use ros_em::Vec3;

/// A constant-velocity straight-line pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Trajectory {
    /// Position at `t = 0` \[m\].
    pub start: Vec3,
    /// Velocity \[m/s\].
    pub velocity: Vec3,
    /// Total duration \[s\].
    pub duration_s: f64,
}

impl Trajectory {
    /// A pass along +x at `speed_mps`, lateral standoff `standoff_m`
    /// from the roadside line (y = 0), radar height `height_m`,
    /// spanning x ∈ \[−half_span, +half_span\].
    ///
    /// The tag convention places the tag near the origin on the y = 0
    /// roadside, so the radar drives by at y = −standoff... no: the
    /// radar is side-looking toward +y, so the *tag* sits at
    /// y = +standoff relative to the radar lane. We keep the radar lane
    /// on y = 0 and scene objects at y = standoff.
    pub fn drive_by(speed_mps: f64, half_span_m: f64, height_m: f64) -> Self {
        assert!(speed_mps > 0.0 && half_span_m > 0.0);
        Trajectory {
            start: Vec3::new(-half_span_m, 0.0, height_m),
            velocity: Vec3::new(speed_mps, 0.0, 0.0),
            duration_s: 2.0 * half_span_m / speed_mps,
        }
    }

    /// Position at time `t` \[s\] (clamped to the duration).
    pub fn position_at(&self, t: f64) -> Vec3 {
        let tc = t.clamp(0.0, self.duration_s);
        self.start + self.velocity * tc
    }

    /// Speed \[m/s\].
    pub fn speed_mps(&self) -> f64 {
        self.velocity.norm()
    }

    /// Frame instants for a radar at `frame_rate_hz`, optionally
    /// keeping only every `stride`-th frame (simulation economy: the
    /// paper's 1 kHz rate heavily oversamples slow passes).
    pub fn frame_times(&self, frame_rate_hz: f64, stride: usize) -> Vec<f64> {
        assert!(frame_rate_hz > 0.0 && stride > 0);
        let n = cast::floor_usize(self.duration_s * frame_rate_hz);
        (0..=n)
            .step_by(stride)
            .map(|i| i.as_f64() / frame_rate_hz)
            .collect()
    }

    /// Positions at the given frame instants.
    pub fn positions(&self, times: &[f64]) -> Vec<Vec3> {
        times.iter().map(|&t| self.position_at(t)).collect()
    }
}

/// A trajectory with heading changes: piecewise description of real
/// manoeuvres near a tag (lane changes, gentle curves). Positions are
/// integrated from a lateral-offset profile over the straight baseline.
#[derive(Clone, Debug)]
pub struct ManoeuvreTrajectory {
    /// Straight-line baseline.
    pub base: Trajectory,
    /// Lateral (y) offset as a function of normalized progress
    /// `t/duration ∈ [0, 1]`.
    pub profile: LateralProfile,
}

/// Supported lateral manoeuvre profiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LateralProfile {
    /// No lateral motion (plain drive-by).
    Straight,
    /// Smooth lane change of `offset_m` centred mid-pass (raised-cosine
    /// blend).
    LaneChange {
        /// Total lateral displacement \[m\] (positive = toward the tag).
        offset_m: f64,
    },
    /// Constant-radius curve bowing toward/away from the roadside.
    Curve {
        /// Maximum lateral bow at mid-pass \[m\].
        sagitta_m: f64,
    },
}

impl ManoeuvreTrajectory {
    /// Wraps a straight drive-by with a lateral profile.
    pub fn new(base: Trajectory, profile: LateralProfile) -> Self {
        ManoeuvreTrajectory { base, profile }
    }

    /// Position at time `t` \[s\].
    pub fn position_at(&self, t: f64) -> Vec3 {
        let p = self.base.position_at(t);
        let u = (t / self.base.duration_s).clamp(0.0, 1.0);
        let dy = match self.profile {
            LateralProfile::Straight => 0.0,
            LateralProfile::LaneChange { offset_m } => {
                // Raised-cosine blend from 0 to offset.
                offset_m * 0.5 * (1.0 - (std::f64::consts::PI * u).cos())
            }
            LateralProfile::Curve { sagitta_m } => {
                // Parabolic bow, zero at the ends.
                sagitta_m * 4.0 * u * (1.0 - u)
            }
        };
        Vec3::new(p.x, p.y + dy, p.z)
    }

    /// Positions at the given frame instants.
    pub fn positions(&self, times: &[f64]) -> Vec<Vec3> {
        times.iter().map(|&t| self.position_at(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_by_geometry() {
        let t = Trajectory::drive_by(4.47, 3.0, 0.5); // 10 mph
        assert_eq!(t.position_at(0.0), Vec3::new(-3.0, 0.0, 0.5));
        let end = t.position_at(t.duration_s);
        assert!((end.x - 3.0).abs() < 1e-9);
        assert!((t.speed_mps() - 4.47).abs() < 1e-12);
    }

    #[test]
    fn position_clamps_beyond_duration() {
        let t = Trajectory::drive_by(1.0, 2.0, 0.0);
        assert_eq!(t.position_at(100.0), t.position_at(t.duration_s));
        assert_eq!(t.position_at(-5.0), t.start);
    }

    #[test]
    fn frame_times_spacing() {
        let t = Trajectory::drive_by(2.0, 1.0, 0.0); // 1 s pass
        let times = t.frame_times(1000.0, 1);
        assert_eq!(times.len(), 1001);
        assert!((times[1] - times[0] - 1e-3).abs() < 1e-12);
        let strided = t.frame_times(1000.0, 10);
        assert_eq!(strided.len(), 101);
    }

    #[test]
    fn positions_track_times() {
        let t = Trajectory::drive_by(2.0, 1.0, 0.3);
        let times = t.frame_times(100.0, 1);
        let pos = t.positions(&times);
        assert_eq!(pos.len(), times.len());
        assert!((pos[50].x - (-1.0 + 2.0 * 0.5)).abs() < 1e-9);
        assert!(pos.iter().all(|p| (p.z - 0.3).abs() < 1e-12));
    }

    #[test]
    #[should_panic]
    fn zero_speed_rejected() {
        Trajectory::drive_by(0.0, 1.0, 0.0);
    }

    #[test]
    fn straight_manoeuvre_matches_base() {
        let base = Trajectory::drive_by(2.0, 3.0, 1.0);
        let m = ManoeuvreTrajectory::new(base, LateralProfile::Straight);
        for t in [0.0, 0.7, base.duration_s] {
            assert_eq!(m.position_at(t), base.position_at(t));
        }
    }

    #[test]
    fn lane_change_reaches_offset() {
        let base = Trajectory::drive_by(2.0, 3.0, 1.0);
        let m = ManoeuvreTrajectory::new(base, LateralProfile::LaneChange { offset_m: 1.5 });
        assert!((m.position_at(0.0).y - 0.0).abs() < 1e-12);
        let end = m.position_at(base.duration_s);
        assert!((end.y - 1.5).abs() < 1e-9);
        // Mid-pass: half the offset.
        let mid = m.position_at(base.duration_s / 2.0);
        assert!((mid.y - 0.75).abs() < 1e-9);
    }

    #[test]
    fn curve_bows_and_returns() {
        let base = Trajectory::drive_by(2.0, 3.0, 1.0);
        let m = ManoeuvreTrajectory::new(base, LateralProfile::Curve { sagitta_m: 0.8 });
        assert!((m.position_at(0.0).y).abs() < 1e-12);
        assert!((m.position_at(base.duration_s).y).abs() < 1e-9);
        let mid = m.position_at(base.duration_s / 2.0);
        assert!((mid.y - 0.8).abs() < 1e-9);
    }
}
