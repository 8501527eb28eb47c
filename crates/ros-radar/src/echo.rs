//! The interface between scene and radar: scatterer echoes.

use ros_em::{Complex64, Vec3};

/// One scatterer's return as seen at the radar's reference antenna.
///
/// Produced by the scene layer, consumed by the radar front-end. The
/// amplitude convention is √mW at full Rx gain: `|amp|²` equals the
/// received power P_r from the radar equation, and `amp.arg()` carries
/// the round-trip propagation phase `−4πd/λ` plus any scatterer phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Echo {
    /// Absolute scatterer position \[m\] (world frame).
    pub pos: Vec3,
    /// Complex received amplitude \[√mW\].
    pub amp: Complex64,
}

impl Echo {
    /// Creates an echo.
    pub fn new(pos: Vec3, amp: Complex64) -> Self {
        Echo { pos, amp }
    }
}

/// The radar's pose: position plus boresight direction.
///
/// The RoS radar is side-looking: boresight is world +y by convention,
/// and azimuth is measured from boresight toward +x. `Pose` still
/// carries an explicit yaw offset for completeness (vehicle pitch/roll
/// are neglected as the paper does).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pose {
    /// Radar phase-centre position \[m\].
    pub pos: Vec3,
    /// Boresight rotation from +y, positive toward +x \[rad\].
    pub yaw: f64,
}

impl Pose {
    /// A side-looking pose at `pos` with boresight exactly +y.
    pub fn side_looking(pos: Vec3) -> Self {
        Pose { pos, yaw: 0.0 }
    }

    /// Azimuth of `target` from boresight \[rad\], positive toward +x.
    pub fn azimuth_to(&self, target: Vec3) -> f64 {
        let dx = target.x - self.pos.x;
        let dy = target.y - self.pos.y;
        dx.atan2(dy) - self.yaw
    }

    /// Elevation of `target` above the radar's horizontal plane \[rad\].
    pub fn elevation_to(&self, target: Vec3) -> f64 {
        self.pos.elevation_to(target)
    }

    /// Slant range to `target` \[m\].
    pub fn range_to(&self, target: Vec3) -> f64 {
        self.pos.distance(target)
    }
}

/// The values one pose derives from a tag column's azimuth, kept for
/// the last column evaluated.
///
/// The rows of one tag stack share their world `x` and `y` bit for bit
/// and differ only in `z`, and [`Pose::azimuth_to`] reads only `x`, `y`
/// and the pose, so every value computed from the azimuth alone is the
/// same for each row of the column. The memo keys a column on the bits
/// of `x` and `y`, never on float equality: a bowed column (rows that
/// differ in `x` or `y`), or a column one ulp from the last, evaluates
/// afresh. A reused value is the output of the same deterministic call
/// on the same input bits, so memoizing changes no bit. One memo
/// serves one pose: start a new one (`default()`, which has seen no
/// column) when the pose changes.
#[derive(Clone, Debug, Default)]
pub struct ColumnMemo<T> {
    last: Option<(u64, u64, T)>,
}

impl<T: Copy> ColumnMemo<T> {
    /// The value for the column through `pos`: the kept one when
    /// `pos.x` and `pos.y` have the last column's bits, else `eval()`,
    /// which is then kept.
    #[inline]
    pub fn get_or_eval(&mut self, pos: Vec3, eval: impl FnOnce() -> T) -> T {
        let key = (pos.x.to_bits(), pos.y.to_bits());
        match self.last {
            Some((x, y, v)) if (x, y) == key => v,
            _ => {
                let v = eval();
                self.last = Some((key.0, key.1, v));
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_memo_reuses_only_on_equal_xy_bits() {
        let mut memo = ColumnMemo::default();
        let mut evals = 0;
        let mut at = |x: f64, y: f64, z: f64| {
            memo.get_or_eval(Vec3::new(x, y, z), || {
                evals += 1;
                (x, y)
            })
        };
        // Rows of one column: one evaluation.
        assert_eq!(at(0.4, 3.0, 0.0), (0.4, 3.0));
        assert_eq!(at(0.4, 3.0, 0.1), (0.4, 3.0));
        // One ulp apart in x, then in y; the same x at another y.
        let up = |v: f64| f64::from_bits(v.to_bits() + 1);
        assert_eq!(at(up(0.4), 3.0, 0.2), (up(0.4), 3.0));
        assert_eq!(at(up(0.4), up(3.0), 0.2), (up(0.4), up(3.0)));
        assert_eq!(at(up(0.4), 2.0, 0.2), (up(0.4), 2.0));
        // +0 and −0 compare equal as floats but are other bits.
        assert_eq!(at(0.0, 1.0, 0.0).0.to_bits(), 0.0f64.to_bits());
        assert_eq!(at(-0.0, 1.0, 0.0).0.to_bits(), (-0.0f64).to_bits());
        // Only the last column is kept.
        assert_eq!(at(0.4, 3.0, 0.0), (0.4, 3.0));
        drop(at);
        assert_eq!(evals, 7);
    }

    #[test]
    fn pose_azimuth_conventions() {
        let p = Pose::side_looking(Vec3::ZERO);
        // Straight ahead (boresight, +y): azimuth 0.
        assert!((p.azimuth_to(Vec3::new(0.0, 3.0, 0.0))).abs() < 1e-12);
        // Toward +x (direction of travel): positive azimuth.
        assert!(p.azimuth_to(Vec3::new(1.0, 1.0, 0.0)) > 0.0);
        // Toward −x: negative.
        assert!(p.azimuth_to(Vec3::new(-1.0, 1.0, 0.0)) < 0.0);
        // 45°.
        let az = p.azimuth_to(Vec3::new(2.0, 2.0, 0.0));
        assert!((az - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn pose_yaw_shifts_azimuth() {
        let p = Pose {
            pos: Vec3::ZERO,
            yaw: 0.1,
        };
        let az = p.azimuth_to(Vec3::new(0.0, 5.0, 0.0));
        assert!((az + 0.1).abs() < 1e-12);
    }

    #[test]
    fn pose_range_and_elevation() {
        let p = Pose::side_looking(Vec3::new(0.0, 0.0, 1.0));
        let t = Vec3::new(0.0, 3.0, 1.0);
        assert!((p.range_to(t) - 3.0).abs() < 1e-12);
        assert!((p.elevation_to(t)).abs() < 1e-12);
        let above = Vec3::new(0.0, 3.0, 4.0);
        assert!((p.elevation_to(above) - 0.7853981633974483).abs() < 1e-9);
    }
}
