//! Self-tracking error injection (Fig. 16d).
//!
//! The decoder needs the radar's position at every frame to map RSS
//! samples onto the `u = cos θ` axis. Real vehicles estimate their
//! pose from IMU + speedometer dead reckoning, which accumulates
//! *relative drift* — §7.3 evaluates "relative drifting errors from 2%
//! to 10%" of the travelled distance. This module perturbs ground-truth
//! tracks the same way: the believed travel distance is scaled by
//! `(1 + drift)` plus an optional random-walk jitter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ros_em::Vec3;

/// A tracking-error model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrackingError {
    /// Relative drift of travelled distance (0.02 = 2%).
    pub drift: f64,
    /// Standard deviation of per-frame random-walk jitter \[m\].
    pub jitter_m: f64,
    /// RNG seed for the jitter realization.
    pub seed: u64,
}

impl TrackingError {
    /// Perfect tracking.
    pub fn none() -> Self {
        TrackingError {
            drift: 0.0,
            jitter_m: 0.0,
            seed: 0,
        }
    }

    /// Pure relative drift of the given fraction.
    pub fn drift(fraction: f64) -> Self {
        TrackingError {
            drift: fraction,
            jitter_m: 0.0,
            seed: 0,
        }
    }

    /// Applies the model to a ground-truth track, returning the
    /// believed positions.
    ///
    /// Drift scales each position's displacement from the track start;
    /// jitter adds an integrated random walk. Equivalent to driving a
    /// [`TrackingStream`] over the track (this is literally how it is
    /// implemented, so the two can never diverge).
    pub fn apply(&self, truth: &[Vec3]) -> Vec<Vec3> {
        let mut stream = TrackingStream::new(*self);
        truth.iter().map(|&p| stream.advance(p)).collect()
    }
}

/// Incremental realization of a [`TrackingError`]: yields believed
/// positions one ground-truth frame at a time in O(1) memory.
///
/// The RNG stream, origin anchoring, and evaluation order are exactly
/// those of [`TrackingError::apply`] (which is implemented on top of
/// this), so a streamed track is bit-identical to the whole-track
/// method at every frame. The streaming reader uses this so an
/// arbitrarily long drive never materializes its track.
#[derive(Clone, Debug)]
pub struct TrackingStream {
    err: TrackingError,
    rng: StdRng,
    walk: Vec3,
    origin: Option<Vec3>,
}

impl TrackingStream {
    /// Starts a fresh realization of `err`; the first position fed to
    /// [`TrackingStream::advance`] anchors the track origin.
    pub fn new(err: TrackingError) -> Self {
        TrackingStream {
            err,
            rng: StdRng::seed_from_u64(err.seed ^ 0x7ac4_11e5),
            walk: Vec3::ZERO,
            origin: None,
        }
    }

    /// The believed position for the next ground-truth position.
    pub fn advance(&mut self, truth: Vec3) -> Vec3 {
        let origin = *self.origin.get_or_insert(truth);
        if self.err.jitter_m > 0.0 {
            self.walk += Vec3::new(
                (self.rng.gen::<f64>() - 0.5) * 2.0 * self.err.jitter_m,
                (self.rng.gen::<f64>() - 0.5) * 2.0 * self.err.jitter_m,
                0.0,
            );
        }
        origin + (truth - origin) * (1.0 + self.err.drift) + self.walk
    }
}

/// Applies transient per-frame spike offsets to a believed track in
/// place — the tracking-error seam the fault-injection layer
/// (`ros-fault` `TrackingSpike`) perturbs through. Unlike
/// [`TrackingError`]'s drift/jitter (slow, integrated errors), a spike
/// displaces a *single* frame's believed pose: a GNSS multipath hit or
/// a dead-reckoning glitch. Out-of-range indices are ignored, so a
/// schedule longer than the track is harmless.
pub fn apply_spikes<I>(believed: &mut [Vec3], spikes: I)
where
    I: IntoIterator<Item = (usize, Vec3)>,
{
    for (i, offset) in spikes {
        if let Some(p) = believed.get_mut(i) {
            *p += offset;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight_track(n: usize, step: f64) -> Vec<Vec3> {
        (0..n)
            .map(|i| Vec3::new(i as f64 * step, 0.0, 0.0))
            .collect()
    }

    #[test]
    fn no_error_is_identity() {
        let t = straight_track(10, 0.5);
        let b = TrackingError::none().apply(&t);
        assert_eq!(b, t);
    }

    #[test]
    fn drift_scales_displacement() {
        let t = straight_track(11, 1.0); // 10 m of travel
        let b = TrackingError::drift(0.05).apply(&t);
        // Start pinned, end overshoots by 5%.
        assert_eq!(b[0], t[0]);
        assert!((b[10].x - 10.5).abs() < 1e-12);
    }

    #[test]
    fn jitter_deterministic_per_seed() {
        let t = straight_track(50, 0.1);
        let e = TrackingError {
            drift: 0.0,
            jitter_m: 0.01,
            seed: 3,
        };
        let a = e.apply(&t);
        let b = e.apply(&t);
        assert_eq!(a, b);
        // And the walk actually moves.
        assert!(a.iter().zip(&t).any(|(x, y)| x.distance(*y) > 1e-4));
    }

    #[test]
    fn empty_track() {
        assert!(TrackingError::drift(0.1).apply(&[]).is_empty());
    }

    #[test]
    fn stream_bit_identical_to_apply() {
        let t: Vec<Vec3> = (0..200)
            .map(|i| Vec3::new(i as f64 * 0.05, (i as f64 * 0.11).sin(), 1.0))
            .collect();
        let e = TrackingError {
            drift: 0.04,
            jitter_m: 0.02,
            seed: 17,
        };
        let whole = e.apply(&t);
        let mut stream = TrackingStream::new(e);
        for (i, (&truth, want)) in t.iter().zip(&whole).enumerate() {
            let got = stream.advance(truth);
            assert_eq!(got.x.to_bits(), want.x.to_bits(), "frame {i}");
            assert_eq!(got.y.to_bits(), want.y.to_bits(), "frame {i}");
            assert_eq!(got.z.to_bits(), want.z.to_bits(), "frame {i}");
        }
    }

    #[test]
    fn spikes_displace_only_their_frames() {
        let mut track = straight_track(5, 1.0);
        apply_spikes(
            &mut track,
            [
                (1, Vec3::new(0.3, -0.2, 0.0)),
                (99, Vec3::new(9.0, 9.0, 9.0)),
            ],
        );
        assert_eq!(track[0], Vec3::new(0.0, 0.0, 0.0));
        assert_eq!(track[1], Vec3::new(1.3, -0.2, 0.0));
        assert_eq!(track[2], Vec3::new(2.0, 0.0, 0.0));
    }
}
