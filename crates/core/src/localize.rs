//! Vehicle self-localization from RoS tags.
//!
//! The paper's related work (Caraoke) localizes vehicles with roadside
//! RF infrastructure; RoS tags enable the same trick for free. A tag's
//! surveyed position is part of the map (it is a road sign); once the
//! radar has range/azimuth observations of a detected tag across a
//! pass, the vehicle can solve for the *bias of its own dead-reckoned
//! track* — the tracking drift of Fig. 16d — by least squares.
//!
//! Model: believed position = true position + constant offset `b`
//! (over a short pass, the drift is locally constant). Each frame's
//! radar measurement gives the tag's position in the *vehicle* frame;
//! mapping it through the believed pose yields a tag estimate that is
//! displaced by the same `b`. The ML estimate of `b` is then the mean
//! discrepancy to the surveyed position, and the corrected track is
//! `believed − b̂`.

use ros_em::Vec3;

/// One tag observation: where the (believed-pose-projected) detection
/// landed versus the surveyed map position of that tag.
#[derive(Clone, Copy, Debug)]
pub struct TagObservation {
    /// Tag position estimated from the radar + believed track \[m\].
    pub observed: Vec3,
    /// Surveyed (map) tag position \[m\].
    pub surveyed: Vec3,
    /// Measurement weight (e.g. cluster point count or decode SNR).
    pub weight: f64,
}

/// The estimated track correction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrackCorrection {
    /// Estimated track bias `b̂` \[m\] (subtract from believed poses).
    pub bias: Vec3,
    /// Root-weighted-mean-square residual after correction \[m\].
    pub residual_m: f64,
    /// Observations used.
    pub n_observations: usize,
}

/// Typed localization failure: degenerate observation sets are
/// reported, not panicked on — a pass with zero detected tags is a
/// normal outcome under faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalizeError {
    /// No tag observations at all (nothing detected this pass).
    NoObservations,
    /// Observations exist but every weight is zero (or negative).
    ZeroWeights,
}

impl std::fmt::Display for LocalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalizeError::NoObservations => write!(f, "no tag observations"),
            LocalizeError::ZeroWeights => write!(f, "all observation weights are zero"),
        }
    }
}

impl std::error::Error for LocalizeError {}

/// Estimates the track bias from tag observations (weighted least
/// squares; closed form for the constant-offset model).
///
/// # Errors
/// [`LocalizeError::NoObservations`] for an empty set,
/// [`LocalizeError::ZeroWeights`] when no observation carries weight.
pub fn estimate_correction(
    observations: &[TagObservation],
) -> Result<TrackCorrection, LocalizeError> {
    if observations.is_empty() {
        return Err(LocalizeError::NoObservations);
    }
    let wsum: f64 = observations.iter().map(|o| o.weight).sum();
    #[expect(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "`!(> 0)` also rejects a NaN weight sum"
    )]
    let no_weight = !(wsum > 0.0);
    if no_weight {
        return Err(LocalizeError::ZeroWeights);
    }

    let mut bias = Vec3::ZERO;
    for o in observations {
        bias += (o.observed - o.surveyed) * o.weight;
    }
    bias = bias / wsum;

    let mut rss = 0.0;
    for o in observations {
        let r = o.observed - o.surveyed - bias;
        rss += o.weight * r.norm_sqr();
    }
    Ok(TrackCorrection {
        bias,
        residual_m: (rss / wsum).sqrt(),
        n_observations: observations.len(),
    })
}

/// Applies a correction to a believed track.
pub fn correct_track(believed: &[Vec3], correction: &TrackCorrection) -> Vec<Vec3> {
    believed.iter().map(|&p| p - correction.bias).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(ox: f64, oy: f64, sx: f64, sy: f64, w: f64) -> TagObservation {
        TagObservation {
            observed: Vec3::new(ox, oy, 0.0),
            surveyed: Vec3::new(sx, sy, 0.0),
            weight: w,
        }
    }

    #[test]
    fn recovers_pure_offset() {
        // Two tags, both observed displaced by (0.4, −0.2).
        let observations = [obs(0.4, 2.8, 0.0, 3.0, 1.0), obs(5.4, 2.8, 5.0, 3.0, 1.0)];
        let c = estimate_correction(&observations).unwrap();
        assert!((c.bias.x - 0.4).abs() < 1e-12);
        assert!((c.bias.y + 0.2).abs() < 1e-12);
        assert!(c.residual_m < 1e-12);
    }

    #[test]
    fn weights_bias_toward_confident_tags() {
        let observations = [
            obs(1.0, 3.0, 0.0, 3.0, 9.0), // offset 1.0, strong
            obs(5.0, 3.0, 5.0, 3.0, 1.0), // offset 0.0, weak
        ];
        let c = estimate_correction(&observations).unwrap();
        assert!((c.bias.x - 0.9).abs() < 1e-12);
    }

    #[test]
    fn corrected_track_aligns() {
        let believed = vec![Vec3::new(0.3, 0.1, 1.0), Vec3::new(1.3, 0.1, 1.0)];
        let c = TrackCorrection {
            bias: Vec3::new(0.3, 0.1, 0.0),
            residual_m: 0.0,
            n_observations: 2,
        };
        let out = correct_track(&believed, &c);
        assert_eq!(out[0], Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(out[1], Vec3::new(1.0, 0.0, 1.0));
    }

    #[test]
    fn residual_reports_inconsistency() {
        // Inconsistent offsets can't be explained by one bias.
        let observations = [obs(0.5, 3.0, 0.0, 3.0, 1.0), obs(4.5, 3.0, 5.0, 3.0, 1.0)];
        let c = estimate_correction(&observations).unwrap();
        assert!(c.bias.x.abs() < 1e-12); // offsets cancel
        assert!(c.residual_m > 0.4);
    }

    #[test]
    fn degenerate_observation_sets_are_typed_errors() {
        assert_eq!(estimate_correction(&[]), Err(LocalizeError::NoObservations));
        assert_eq!(
            estimate_correction(&[obs(0.0, 0.0, 0.0, 0.0, 0.0)]),
            Err(LocalizeError::ZeroWeights)
        );
        assert_eq!(
            estimate_correction(&[obs(0.0, 0.0, 0.0, 0.0, f64::NAN)]),
            Err(LocalizeError::ZeroWeights)
        );
    }

    #[test]
    fn end_to_end_against_drifted_pipeline() {
        // Full-pipeline detection under a constant believed-track bias:
        // the detected tag centre inherits the bias; one tag is enough
        // to recover it.
        use crate::encode::SpatialCode;
        use crate::reader::{DriveBy, ReaderConfig};
        use ros_scene::tracking::TrackingError;

        let tag = SpatialCode::paper_4bit()
            .encode(&[true; 4])
            .unwrap()
            .with_column_bow(0.0004, 3);
        let surveyed = Vec3::new(0.0, 3.0, 0.0);
        // A pure jitter-free lateral bias via a tiny drift over a
        // short pass ≈ constant offset.
        let mut drive = DriveBy::new(tag, 3.0)
            .with_tracking(TrackingError {
                drift: 0.06,
                jitter_m: 0.0,
                seed: 0,
            })
            .with_seed(11211);
        drive.half_span_m = 3.0;
        let mut cfg = ReaderConfig::full();
        cfg.frame_stride = 8;
        let outcome = drive.run(&cfg);
        let center = outcome.detected_center.expect("tag detected");

        let c = estimate_correction(&[TagObservation {
            observed: Vec3::new(center.x, center.y, 0.0),
            surveyed,
            weight: 1.0,
        }])
        .unwrap();
        // The drift stretches the ±3 m track by 6%; the detected tag
        // centre shifts accordingly and the correction recovers a
        // same-magnitude bias.
        assert!(c.bias.norm() < 0.4, "implausible bias {:?}", c.bias);
        // Applying the correction moves the detected centre onto the
        // survey within a few centimetres.
        let corrected = Vec3::new(center.x, center.y, 0.0) - c.bias;
        assert!(corrected.distance(surveyed) < 0.05);
    }
}
