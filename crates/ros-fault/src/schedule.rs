//! Realized fault schedules: per-frame decisions and magnitude draws.

use crate::plan::CorruptionMode;
use ros_exec::ParSeed;
use ros_obs::names;

/// Maps a 64-bit draw onto \[0, 1): the top 53 bits scaled by 2⁻⁵³,
/// the standard exact-mantissa construction.
#[expect(
    clippy::as_conversions,
    reason = "a 53-bit value is exactly representable in f64"
)]
pub(crate) fn unit01(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// A believed-pose spike for one frame \[m\].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpikeDraw {
    /// Along-road offset \[m\].
    pub dx_m: f64,
    /// Lateral offset \[m\].
    pub dy_m: f64,
}

/// One frame's interference burst: the declared excess power plus a
/// private seed for its waveform draws.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstDraw {
    /// Interferer power over the thermal floor \[dB\].
    pub excess_db: f64,
    seed: u64,
}

impl BurstDraw {
    pub(crate) fn new(excess_db: f64, seed: u64) -> Self {
        BurstDraw { excess_db, seed }
    }

    /// The `k`-th unit draw of this burst in \[0, 1) — deterministic in
    /// `(burst, k)`, so consumers can shape the interferer (position,
    /// phase, per-sample noise) without owning an RNG.
    pub fn unit(&self, k: u64) -> f64 {
        unit01(ParSeed::new(self.seed).stream(k))
    }

    /// The `k`-th standard-Gaussian pair (Box–Muller over two unit
    /// draws) — for complex interference amplitudes.
    pub fn gaussian_pair(&self, k: u64) -> (f64, f64) {
        let s = ParSeed::new(self.seed);
        let u1 = unit01(s.substream(1, k)).max(1e-300);
        let u2 = unit01(s.substream(2, k));
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
        (r * cos, r * sin)
    }
}

/// One frame's point-cloud corruption: the mode plus a private seed
/// for per-point draws.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorruptDraw {
    /// How the returns are mangled.
    pub mode: CorruptionMode,
    seed: u64,
}

impl CorruptDraw {
    pub(crate) fn new(mode: CorruptionMode, seed: u64) -> Self {
        CorruptDraw { mode, seed }
    }

    /// The `k`-th unit draw in \[0, 1) (outlier displacement shapes).
    pub fn unit(&self, k: u64) -> f64 {
        unit01(ParSeed::new(self.seed).stream(k))
    }
}

/// Every fault that hits one frame. The clean value injects nothing.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct FrameFaults {
    /// The frame never arrives.
    pub dropped: bool,
    /// The frame is delivered twice.
    pub duplicated: bool,
    /// I/Q hard-clip level \[√mW\], when the ADC saturates.
    pub saturation: Option<f64>,
    /// Burst interference, when an interferer fires.
    pub burst: Option<BurstDraw>,
    /// Point-cloud corruption, when returns are mangled.
    pub corruption: Option<CorruptDraw>,
    /// Believed-pose spike, when tracking glitches.
    pub spike: Option<SpikeDraw>,
}

/// A frame with no faults (what out-of-schedule lookups return).
const CLEAN: FrameFaults = FrameFaults {
    dropped: false,
    duplicated: false,
    saturation: None,
    burst: None,
    corruption: None,
    spike: None,
};

impl FrameFaults {
    /// No faults.
    pub fn clean() -> Self {
        CLEAN
    }

    /// True when nothing is injected into this frame.
    pub fn is_clean(&self) -> bool {
        *self == CLEAN
    }

    /// Emits one `ros-obs` `fault.*` counter per active fault.
    /// `corrupted_points` is the number of point returns actually
    /// mangled (0 when the consumer has no point cloud, e.g. the fast
    /// reader). Call from serial code only, like every other summary
    /// emission, so traces stay bit-identical across thread counts.
    pub fn record(&self, corrupted_points: usize) {
        if self.dropped {
            ros_obs::count(names::FAULT_FRAMES_DROPPED, 1);
        }
        if self.duplicated {
            ros_obs::count(names::FAULT_FRAMES_DUPLICATED, 1);
        }
        if self.saturation.is_some() {
            ros_obs::count(names::FAULT_FRAMES_SATURATED, 1);
        }
        if self.burst.is_some() {
            ros_obs::count(names::FAULT_BURSTS_INJECTED, 1);
        }
        if corrupted_points > 0 {
            ros_obs::count(names::FAULT_POINTS_CORRUPTED, corrupted_points);
        }
        if self.spike.is_some() {
            ros_obs::count(names::FAULT_TRACKING_SPIKES, 1);
        }
    }
}

/// A realized plan: one [`FrameFaults`] per frame of the pass.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSchedule {
    /// Per-frame faults, indexed by frame number.
    pub frames: Vec<FrameFaults>,
}

impl FaultSchedule {
    /// An all-clean schedule of `n` frames.
    pub fn clean(n: usize) -> Self {
        FaultSchedule {
            frames: vec![FrameFaults::clean(); n],
        }
    }

    /// The faults of frame `i` (clean beyond the scheduled range, so
    /// consumers never index out of bounds on ragged frame counts).
    pub fn get(&self, i: usize) -> &FrameFaults {
        self.frames.get(i).unwrap_or(&CLEAN)
    }

    /// Number of frames with at least one fault.
    pub fn injected(&self) -> usize {
        self.frames.iter().filter(|f| !f.is_clean()).count()
    }

    /// Iterator over `(frame index, spike)` pairs — the shape
    /// `ros_scene::tracking::apply_spikes` consumes.
    pub fn spikes(&self) -> impl Iterator<Item = (usize, SpikeDraw)> + '_ {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.spike.map(|s| (i, s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit01_is_in_range_and_spread() {
        let s = ParSeed::new(0xfeed);
        let mut lo = false;
        let mut hi = false;
        for i in 0..10_000 {
            let u = unit01(s.stream(i));
            assert!((0.0..1.0).contains(&u));
            lo |= u < 0.1;
            hi |= u > 0.9;
        }
        assert!(lo && hi, "draws must cover the unit interval");
    }

    #[test]
    fn clean_frame_roundtrip() {
        assert!(FrameFaults::clean().is_clean());
        let mut f = FrameFaults::clean();
        f.dropped = true;
        assert!(!f.is_clean());
    }

    #[test]
    fn out_of_range_lookup_is_clean() {
        let s = FaultSchedule::clean(3);
        assert!(s.get(2).is_clean());
        assert!(s.get(999).is_clean());
    }

    #[test]
    fn gaussian_pairs_are_deterministic_and_plausible() {
        let b = BurstDraw::new(20.0, 12345);
        assert_eq!(b.gaussian_pair(7), b.gaussian_pair(7));
        // Sample mean near 0, variance near 1 over many draws.
        let n = 4000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for k in 0..n {
            let (a, bb) = b.gaussian_pair(k);
            sum += a + bb;
            sq += a * a + bb * bb;
        }
        let count = (2 * n) as f64;
        let mean = sum / count;
        let var = sq / count - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn record_counts_every_active_fault() {
        let f = FrameFaults {
            dropped: true,
            duplicated: true,
            saturation: Some(1e-3),
            burst: Some(BurstDraw::new(10.0, 1)),
            corruption: Some(CorruptDraw::new(CorruptionMode::NaN, 2)),
            spike: Some(SpikeDraw {
                dx_m: 0.1,
                dy_m: 0.0,
            }),
        };
        let ((), lines) = ros_obs::capture_scope(ros_obs::Level::Summary, || {
            f.record(17);
            ros_obs::flush();
        });
        let lines = lines.join("\n");
        for name in [
            "fault.frames_dropped",
            "fault.frames_duplicated",
            "fault.frames_saturated",
            "fault.bursts_injected",
            "fault.points_corrupted",
            "fault.tracking_spikes",
        ] {
            assert!(lines.contains(name), "missing counter {name}");
        }
        assert!(
            lines.contains("\"name\":\"fault.points_corrupted\",\"kind\":\"counter\",\"value\":17")
        );
    }

    #[test]
    fn spikes_iterator_pairs_indices() {
        let mut s = FaultSchedule::clean(4);
        s.frames[2].spike = Some(SpikeDraw {
            dx_m: 0.3,
            dy_m: -0.1,
        });
        let got: Vec<(usize, SpikeDraw)> = s.spikes().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 2);
    }
}
