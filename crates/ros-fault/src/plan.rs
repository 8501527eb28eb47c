//! Fault declarations: what to inject, how often, and when.

use crate::schedule::{unit01, BurstDraw, CorruptDraw, FaultSchedule, FrameFaults, SpikeDraw};
use ros_exec::ParSeed;

/// How a corrupted point-cloud return is mangled (ahead of DBSCAN).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CorruptionMode {
    /// Ranges become NaN — the classic "propagated through a mean"
    /// poison value.
    NaN,
    /// Ranges become +∞ (a stuck range gate).
    Inf,
    /// Ranges are displaced by up to ±`offset_m` (ghost reflections /
    /// multipath outliers).
    Outlier {
        /// Maximum displacement magnitude \[m\].
        offset_m: f64,
    },
}

impl CorruptionMode {
    /// Short stable name (CSV / obs payloads).
    pub fn name(&self) -> &'static str {
        match self {
            CorruptionMode::NaN => "nan",
            CorruptionMode::Inf => "inf",
            CorruptionMode::Outlier { .. } => "outlier",
        }
    }
}

/// One kind of injectable fault, with its kind-specific magnitude.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The frame never arrives (radar hiccup, bus overrun).
    FrameDrop,
    /// The frame is delivered twice (retransmission glitch).
    FrameDuplicate,
    /// The chirp ADC saturates: I/Q rails hard-clip at ±`full_scale`
    /// \[√mW\] (a strong nearby reflector overdriving the front end).
    AdcSaturation {
        /// Clip level per I/Q rail \[√mW\].
        full_scale: f64,
    },
    /// A burst interferer `excess_db` above the thermal noise floor is
    /// injected into the echo synthesis for this frame (an adjacent
    /// radar sweeping through the band, §7.4-style).
    InterferenceBurst {
        /// Interferer power over the thermal floor \[dB\].
        excess_db: f64,
    },
    /// Every point the radar returns for this frame is corrupted ahead
    /// of DBSCAN.
    PointCorruption {
        /// How the returns are mangled.
        mode: CorruptionMode,
    },
    /// The believed radar pose spikes by up to `magnitude_m` for this
    /// frame (GNSS multipath / dead-reckoning glitch).
    TrackingSpike {
        /// Maximum spike magnitude per axis \[m\].
        magnitude_m: f64,
    },
}

impl FaultKind {
    /// Short stable name (CSV / obs payloads).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::FrameDrop => "frame_drop",
            FaultKind::FrameDuplicate => "frame_duplicate",
            FaultKind::AdcSaturation { .. } => "adc_saturation",
            FaultKind::InterferenceBurst { .. } => "interference_burst",
            FaultKind::PointCorruption { .. } => "point_corruption",
            FaultKind::TrackingSpike { .. } => "tracking_spike",
        }
    }
}

/// The pass interval a spec is active in \[s\].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeWindow {
    /// Window start \[s\] into the pass.
    pub t_start_s: f64,
    /// Window end \[s\].
    pub t_end_s: f64,
}

impl TimeWindow {
    /// The whole pass.
    pub const ALWAYS: TimeWindow = TimeWindow {
        t_start_s: f64::NEG_INFINITY,
        t_end_s: f64::INFINITY,
    };

    /// True when `t` falls inside the window (inclusive).
    pub fn contains(&self, t: f64) -> bool {
        t >= self.t_start_s && t <= self.t_end_s
    }
}

/// One fault stream: a kind, its per-frame firing rate, and the time
/// window it is active in.
#[derive(Clone, Copy, Debug, PartialEq)]
// lint: allow-dead-pub(element of FaultPlan::specs, built through FaultPlan::with; callers never write the name)
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Per-frame Bernoulli firing probability in \[0, 1\].
    pub rate: f64,
    /// When the spec is live.
    pub window: TimeWindow,
}

/// A declarative fault-injection plan: a master seed plus any number
/// of fault streams. Plans are inert data until [`FaultPlan::schedule`]
/// realizes them against a concrete frame timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed all per-frame draws derive from.
    pub seed: u64,
    /// The fault streams.
    pub specs: Vec<FaultSpec>,
}

/// Substream tags partitioning the plan's seed space: decision draws
/// and each kind's magnitude draws must never collide at equal frame
/// indices.
const TAG_MAGNITUDE: u64 = 0x00ff;

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// A single-stream plan.
    pub fn single(seed: u64, kind: FaultKind, rate: f64) -> Self {
        FaultPlan::new(seed).with(kind, rate)
    }

    /// Adds a stream active over the whole pass.
    pub fn with(self, kind: FaultKind, rate: f64) -> Self {
        self.with_windowed(kind, rate, TimeWindow::ALWAYS)
    }

    /// Adds a stream active inside `window` only.
    pub fn with_windowed(mut self, kind: FaultKind, rate: f64, window: TimeWindow) -> Self {
        self.specs.push(FaultSpec { kind, rate, window });
        self
    }

    /// True when the plan has no streams.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The canonical conformance matrix: every fault kind at three
    /// rates, plus one windowed and one composite plan. This is the
    /// fixed set the determinism suite and `bench faults` sweep, so
    /// "bit-identical at 1/2/8 threads" is checked against the same
    /// plans everywhere.
    pub fn canonical_matrix(seed: u64) -> Vec<FaultPlan> {
        const RATES: [f64; 3] = [0.05, 0.2, 0.5];
        let kinds = [
            FaultKind::FrameDrop,
            FaultKind::FrameDuplicate,
            FaultKind::AdcSaturation { full_scale: 2e-3 },
            FaultKind::InterferenceBurst { excess_db: 20.0 },
            FaultKind::PointCorruption {
                mode: CorruptionMode::NaN,
            },
            FaultKind::TrackingSpike { magnitude_m: 0.5 },
        ];
        let mut plans = Vec::new();
        for (ki, kind) in kinds.iter().enumerate() {
            for (ri, rate) in RATES.iter().enumerate() {
                #[expect(clippy::as_conversions, reason = "matrix indices widen losslessly")]
                let plan_seed = ParSeed::new(seed).substream(ki as u64, ri as u64);
                plans.push(FaultPlan::single(plan_seed, *kind, *rate));
            }
        }
        // A mid-pass burst window…
        plans.push(FaultPlan::new(seed ^ 0x51).with_windowed(
            FaultKind::InterferenceBurst { excess_db: 25.0 },
            0.8,
            TimeWindow {
                t_start_s: 0.5,
                t_end_s: 1.5,
            },
        ));
        // …and a composite storm: several streams at once.
        plans.push(
            FaultPlan::new(seed ^ 0xc0)
                .with(FaultKind::FrameDrop, 0.1)
                .with(FaultKind::AdcSaturation { full_scale: 2e-3 }, 0.1)
                .with(
                    FaultKind::PointCorruption {
                        mode: CorruptionMode::Outlier { offset_m: 4.0 },
                    },
                    0.2,
                )
                .with(FaultKind::TrackingSpike { magnitude_m: 0.3 }, 0.05),
        );
        plans
    }

    /// Realizes the plan against a frame timeline: one [`FrameFaults`]
    /// per frame, every decision and magnitude drawn serially from
    /// `(seed, spec index, frame index)` substreams. Pure and
    /// thread-independent — calling this from any context yields the
    /// same schedule bit for bit.
    pub fn schedule(&self, frame_times: &[f64]) -> FaultSchedule {
        let seeds = ParSeed::new(self.seed);
        let mut frames = Vec::with_capacity(frame_times.len());
        for (i, &t) in frame_times.iter().enumerate() {
            let mut ff = FrameFaults::clean();
            for (s, spec) in self.specs.iter().enumerate() {
                if !spec.window.contains(t) {
                    continue;
                }
                #[expect(clippy::as_conversions, reason = "spec/frame indices widen losslessly")]
                let fires = unit01(seeds.substream(s as u64, i as u64)) < spec.rate;
                if !fires {
                    continue;
                }
                // Kind-specific magnitudes draw from a disjoint tag so
                // adding a spec never perturbs another spec's stream.
                #[expect(clippy::as_conversions, reason = "spec/frame indices widen losslessly")]
                let mag_seed = seeds.substream(TAG_MAGNITUDE ^ (s as u64), i as u64);
                match spec.kind {
                    FaultKind::FrameDrop => ff.dropped = true,
                    FaultKind::FrameDuplicate => ff.duplicated = true,
                    FaultKind::AdcSaturation { full_scale } => {
                        // Compose conservatively: the tighter clip wins.
                        ff.saturation = Some(match ff.saturation {
                            Some(fs) => fs.min(full_scale),
                            None => full_scale,
                        });
                    }
                    FaultKind::InterferenceBurst { excess_db } => {
                        ff.burst = Some(BurstDraw::new(excess_db, mag_seed));
                    }
                    FaultKind::PointCorruption { mode } => {
                        ff.corruption = Some(CorruptDraw::new(mode, mag_seed));
                    }
                    FaultKind::TrackingSpike { magnitude_m } => {
                        let s2 = ParSeed::new(mag_seed);
                        ff.spike = Some(SpikeDraw {
                            dx_m: (2.0 * unit01(s2.stream(0)) - 1.0) * magnitude_m,
                            dy_m: (2.0 * unit01(s2.stream(1)) - 1.0) * magnitude_m,
                        });
                    }
                }
            }
            frames.push(ff);
        }
        FaultSchedule { frames }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 * 1e-3).collect()
    }

    #[test]
    fn schedule_output_order_is_bit_stable() {
        // Regression for hash-ordered containers (clippy now bans
        // HashMap/HashSet in library code): scheduling the canonical
        // matrix twice must yield identical per-frame fault sequences —
        // no hash-ordered structure may reach the realized schedule.
        let ts = times(64);
        for plan in FaultPlan::canonical_matrix(0xfa17) {
            assert_eq!(plan.schedule(&ts), plan.schedule(&ts), "seed {}", plan.seed);
        }
    }

    #[test]
    fn empty_plan_is_all_clean() {
        let s = FaultPlan::new(1).schedule(&times(50));
        assert_eq!(s.frames.len(), 50);
        assert!(s.frames.iter().all(|f| f.is_clean()));
        assert_eq!(s.injected(), 0);
    }

    #[test]
    fn schedule_is_deterministic() {
        let plan = FaultPlan::new(42)
            .with(FaultKind::FrameDrop, 0.3)
            .with(FaultKind::InterferenceBurst { excess_db: 15.0 }, 0.2);
        let t = times(200);
        assert_eq!(plan.schedule(&t), plan.schedule(&t));
    }

    #[test]
    fn rates_hit_their_target_roughly() {
        for rate in [0.1, 0.5, 0.9] {
            let plan = FaultPlan::single(9, FaultKind::FrameDrop, rate);
            let s = plan.schedule(&times(2000));
            let hits = s.frames.iter().filter(|f| f.dropped).count();
            let got = hits as f64 / 2000.0;
            assert!(
                (got - rate).abs() < 0.05,
                "rate {rate} realized as {got}"
            );
        }
    }

    #[test]
    fn rate_zero_never_fires_rate_one_always_fires() {
        let never = FaultPlan::single(3, FaultKind::FrameDrop, 0.0).schedule(&times(100));
        assert!(never.frames.iter().all(|f| !f.dropped));
        let always = FaultPlan::single(3, FaultKind::FrameDrop, 1.0).schedule(&times(100));
        assert!(always.frames.iter().all(|f| f.dropped));
    }

    #[test]
    fn window_gates_injection() {
        let plan = FaultPlan::new(5).with_windowed(
            FaultKind::FrameDrop,
            1.0,
            TimeWindow {
                t_start_s: 0.010,
                t_end_s: 0.020,
            },
        );
        let s = plan.schedule(&times(50));
        for (i, f) in s.frames.iter().enumerate() {
            let t = i as f64 * 1e-3;
            assert_eq!(f.dropped, (0.010..=0.020).contains(&t), "frame {i}");
        }
    }

    #[test]
    fn seeds_decorrelate_plans() {
        let t = times(500);
        let a = FaultPlan::single(1, FaultKind::FrameDrop, 0.5).schedule(&t);
        let b = FaultPlan::single(2, FaultKind::FrameDrop, 0.5).schedule(&t);
        assert_ne!(a, b);
    }

    #[test]
    fn adding_a_spec_does_not_perturb_earlier_streams() {
        // Stream draws are keyed by spec index, so appending a new
        // spec leaves every earlier stream's decisions untouched.
        let t = times(300);
        let base = FaultPlan::single(77, FaultKind::FrameDrop, 0.3);
        let extended = base
            .clone()
            .with(FaultKind::TrackingSpike { magnitude_m: 0.2 }, 0.3);
        let a = base.schedule(&t);
        let b = extended.schedule(&t);
        for (fa, fb) in a.frames.iter().zip(&b.frames) {
            assert_eq!(fa.dropped, fb.dropped);
        }
    }

    #[test]
    fn composed_saturation_takes_tighter_clip() {
        let plan = FaultPlan::new(4)
            .with(FaultKind::AdcSaturation { full_scale: 1e-2 }, 1.0)
            .with(FaultKind::AdcSaturation { full_scale: 1e-4 }, 1.0);
        let s = plan.schedule(&times(3));
        for f in &s.frames {
            assert_eq!(f.saturation, Some(1e-4));
        }
    }

    #[test]
    fn spike_draws_are_bounded_and_spread() {
        let plan = FaultPlan::single(8, FaultKind::TrackingSpike { magnitude_m: 0.4 }, 1.0);
        let s = plan.schedule(&times(200));
        let mut distinct = std::collections::BTreeSet::new();
        for f in &s.frames {
            let sp = f.spike.expect("rate 1.0 fires every frame");
            assert!(sp.dx_m.abs() <= 0.4 && sp.dy_m.abs() <= 0.4);
            distinct.insert((sp.dx_m.to_bits(), sp.dy_m.to_bits()));
        }
        assert!(distinct.len() > 150, "spikes must vary per frame");
    }

    #[test]
    fn canonical_matrix_covers_every_kind_and_rate() {
        let plans = FaultPlan::canonical_matrix(0xfa17);
        assert!(plans.len() >= 18, "6 kinds × 3 rates + extras");
        let names: std::collections::BTreeSet<&str> = plans
            .iter()
            .flat_map(|p| p.specs.iter().map(|s| s.kind.name()))
            .collect();
        for kind in [
            "frame_drop",
            "frame_duplicate",
            "adc_saturation",
            "interference_burst",
            "point_corruption",
            "tracking_spike",
        ] {
            assert!(names.contains(kind), "matrix missing {kind}");
        }
    }
}
