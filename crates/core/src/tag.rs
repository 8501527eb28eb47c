//! The physical RoS tag: PSVAA stacks placed by a spatial code.
//!
//! A [`Tag`] owns its stack layout (horizontal positions relative to
//! the reference stack) and the per-stack [`PsvaaStack`] geometry. It
//! implements the scene's [`Reflector`] trait by exporting every PSVAA
//! row as a point scatterer with the full antenna physics — azimuth
//! retro-response, elevation pattern, beam-shaping phase weights — so
//! near-field effects emerge from the exact spherical-wave sum rather
//! than a far-field formula.

use crate::encode::SpatialCode;
use ros_antenna::shaping;
use ros_antenna::stack::PsvaaStack;
use ros_antenna::vaa::{ArrayKind, VanAttaArray};
use ros_cache::GeomCache;
use ros_em::jones::Polarization;
use ros_em::units::cast::{self, AsF64};
use ros_em::{Complex64, Vec3};
use ros_scene::reflector::{EchoContext, Reflector, SceneEcho};
use std::sync::Arc;

/// One mounted PSVAA stack of a tag.
#[derive(Clone, Debug)]
// lint: allow-dead-pub(returned by Tag::stacks; callers bind fields, never the name)
pub struct TagStack {
    /// Horizontal position relative to the reference stack \[m\].
    pub x_m: f64,
    /// The stack geometry (row count may differ per stack for ASK
    /// modulation, §8).
    pub stack: PsvaaStack,
}

/// A fabricated, mounted RoS tag.
#[derive(Clone, Debug)]
pub struct Tag {
    code: SpatialCode,
    /// Horizontal stack positions relative to the reference stack \[m\]
    /// (reference first) — cached from `stacks`.
    positions_m: Vec<f64>,
    bits: Vec<bool>,
    stacks: Vec<TagStack>,
    /// World position of the reference stack's centre.
    mount: Vec3,
    /// Tag boresight azimuth rotation from −y (0 = facing the road
    /// squarely) \[rad\].
    yaw: f64,
    /// Maximum column bow deflection \[m\] (§7.2 attributes the
    /// 32-row tags' extra RSS/SNR variation to "bending of long coding
    /// columns" and wind sway; 0 = perfectly rigid).
    bow_m: f64,
    /// Seed for the per-column bow realization.
    bow_seed: u64,
    /// Injected geometry/EM memo store; when present, per-frame
    /// scatterer exports read shared cached tables instead of
    /// recomputing (bit-identical either way). Never a global —
    /// attached explicitly from a composition root.
    cache: Option<GeomCache>,
}

impl Tag {
    /// Builds a tag from stack positions (used by
    /// [`SpatialCode::encode`]).
    pub fn new(code: SpatialCode, positions_m: Vec<f64>, bits: Vec<bool>) -> Self {
        let stack = if code.beam_shaped {
            shaping::shaped_stack(code.rows_per_stack)
        } else {
            PsvaaStack::uniform(code.rows_per_stack)
        };
        Tag::from_shared_stack(code, stack, positions_m, bits)
    }

    /// [`Tag::new`] with the stack geometry resolved through an
    /// injected cache: the DE-optimized shaping profile for
    /// `code.rows_per_stack` builds once per cache, and the returned
    /// tag keeps the cache handle so per-frame scatterer exports read
    /// shared tables. The physics are bit-identical to [`Tag::new`].
    pub(crate) fn new_with(
        cache: &GeomCache,
        code: SpatialCode,
        positions_m: Vec<f64>,
        bits: Vec<bool>,
    ) -> Self {
        let stack = if code.beam_shaped {
            shaping::shaped_stack_in(cache, code.rows_per_stack)
        } else {
            PsvaaStack::uniform(code.rows_per_stack)
        };
        Tag::from_shared_stack(code, stack, positions_m, bits).with_table_cache(cache)
    }

    fn from_shared_stack(
        code: SpatialCode,
        stack: PsvaaStack,
        positions_m: Vec<f64>,
        bits: Vec<bool>,
    ) -> Self {
        let stacks = positions_m
            .iter()
            .map(|&x| TagStack {
                x_m: x,
                stack: stack.clone(),
            })
            .collect();
        Tag {
            code,
            positions_m,
            bits,
            stacks,
            mount: Vec3::ZERO,
            yaw: 0.0,
            bow_m: 0.0,
            bow_seed: 0,
            cache: None,
        }
    }

    /// Attaches an injected table cache: subsequent scatterer exports
    /// memoize their per-(layout, frequency) row tables in it. Results
    /// are bit-identical with or without a cache attached.
    pub(crate) fn with_table_cache(mut self, cache: &GeomCache) -> Self {
        self.cache = Some(cache.clone());
        self
    }

    /// Builds a tag from heterogeneous stacks (per-slot row counts —
    /// the §8 ASK-modulation extension). The first stack is the
    /// reference and must sit at `x_m = 0`.
    ///
    /// # Panics
    /// Panics when `stacks` is empty or the first stack is off-origin.
    pub(crate) fn from_stacks(code: SpatialCode, stacks: Vec<TagStack>, bits: Vec<bool>) -> Self {
        assert!(!stacks.is_empty(), "a tag needs at least the reference stack");
        assert!(
            stacks[0].x_m.abs() < 1e-12,
            "the reference stack must sit at the origin"
        );
        let positions_m = stacks.iter().map(|s| s.x_m).collect();
        Tag {
            code,
            positions_m,
            bits,
            stacks,
            mount: Vec3::ZERO,
            yaw: 0.0,
            bow_m: 0.0,
            bow_seed: 0,
            cache: None,
        }
    }

    /// Adds mechanical column bow: each coding column bends toward or
    /// away from the road by a random parabolic deflection of up to
    /// `bow_m` at its centre. Long (32-row) columns in the paper's
    /// outdoor tests bend and sway (§7.2); this models that imperfection.
    pub fn with_column_bow(mut self, bow_m: f64, seed: u64) -> Self {
        assert!(bow_m >= 0.0);
        self.bow_m = bow_m;
        self.bow_seed = seed;
        self
    }

    /// The tag's spatial code.
    pub fn code(&self) -> &SpatialCode {
        &self.code
    }

    /// The encoded bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Stack positions relative to the reference stack \[m\].
    pub fn stack_positions_m(&self) -> &[f64] {
        &self.positions_m
    }

    /// The reference stack's geometry.
    pub fn stack(&self) -> &PsvaaStack {
        &self.stacks[0].stack
    }

    /// All mounted stacks (reference first).
    pub fn stacks(&self) -> &[TagStack] {
        &self.stacks
    }

    /// Mounts the tag at a world position (reference-stack centre).
    pub fn mounted_at(mut self, pos: Vec3) -> Self {
        self.mount = pos;
        self
    }

    /// Rotates the tag's boresight away from −y by `yaw` \[rad\].
    pub fn with_yaw(mut self, yaw: f64) -> Self {
        self.yaw = yaw;
        self
    }

    /// World mount position.
    pub fn mount(&self) -> Vec3 {
        self.mount
    }

    /// Tallest stack height \[m\].
    pub fn height_m(&self) -> f64 {
        self.stacks
            .iter()
            .map(|s| s.stack.height_m())
            .fold(0.0, f64::max)
    }

    /// Azimuth of `radar_pos` from the tag's boresight \[rad\].
    ///
    /// The tag faces −y (toward the road); positive azimuth toward +x.
    pub fn azimuth_from_boresight(&self, radar_pos: Vec3) -> f64 {
        let dx = radar_pos.x - self.mount.x;
        let dy = radar_pos.y - self.mount.y;
        dx.atan2(-dy) - self.yaw
    }

    /// Exports every PSVAA row of every stack as a scatterer:
    /// `(world position, complex RCS amplitude √m²)` for the given
    /// radar position and polarizations.
    pub fn scatterers(
        &self,
        radar_pos: Vec3,
        tx: Polarization,
        rx: Polarization,
        freq_hz: f64,
    ) -> Vec<(Vec3, Complex64)> {
        let az = self.azimuth_from_boresight(radar_pos);
        // Shared azimuth retro-response of a single PSVAA row.
        let row = VanAttaArray::new(ArrayKind::Psvaa, 3);
        let row_field = row.monostatic_field(az, freq_hz, tx, rx);
        if row_field == Complex64::ZERO {
            return Vec::new();
        }

        // Stack x-axis runs along the road (+x) when yaw = 0.
        let (sin_y, cos_y) = self.yaw.sin_cos();

        let mut out = Vec::new();
        for (si, ts) in self.stacks.iter().enumerate() {
            let xs = ts.x_m;
            let rows: Arc<Vec<(f64, Complex64)>> = match &self.cache {
                Some(cache) => ts.stack.row_scatterers_table_in(cache, freq_hz),
                None => Arc::new(ts.stack.row_scatterers(freq_hz)),
            };
            let z_center = ts.stack.center_z_m();
            let half_h = (ts.stack.height_m() / 2.0).max(1e-9);
            // Per-column bow: deterministic pseudo-random deflection.
            let bow = if self.bow_m > 0.0 {
                let h = self
                    .bow_seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(cast::u64_from_usize(si))
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let unit = (h >> 11).as_f64() / (1u64 << 53).as_f64(); // [0,1)
                (2.0 * unit - 1.0) * self.bow_m
            } else {
                0.0
            };
            for &(z, w) in rows.iter() {
                let zc = z - z_center;
                // Parabolic deflection toward/away from the road,
                // maximal at the column centre, zero at the clamped ends.
                let dy = bow * (1.0 - (zc / half_h).powi(2));
                let pos = self.mount
                    + Vec3::new(xs * cos_y - dy * sin_y, xs * sin_y - dy * cos_y, zc);
                let el = pos.elevation_to(radar_pos);
                let g_el = ros_antenna::patch::elevation_pattern(el);
                out.push((pos, row_field * w * g_el));
            }
        }
        out
    }

    /// Far-field RCS of the whole tag at azimuth `az` from boresight
    /// \[dBsm\], at the stack boresight elevation — the quantity the
    /// §5.1 analytic model approximates.
    pub fn rcs_dbsm(&self, az: f64, freq_hz: f64, tx: Polarization, rx: Polarization) -> f64 {
        let k = std::f64::consts::TAU / ros_em::constants::wavelength(freq_hz);
        let row = VanAttaArray::new(ArrayKind::Psvaa, 3);
        let row_field = row.monostatic_field(az, freq_hz, tx, rx);
        let u = az.sin();
        let total: Complex64 = self
            .stacks
            .iter()
            .map(|ts| {
                ts.stack.elevation_array_factor(0.0, freq_hz)
                    * Complex64::cis(2.0 * k * ts.x_m * u)
            })
            .sum();
        let sigma = (row_field * total).norm_sqr();
        10.0 * sigma.max(1e-30).log10()
    }
}

/// Co-polarized RSS excess of the tag over its cross-polarized retro
/// return \[dB\] — §7.2/Fig. 13a: the tag's median polarization RSS
/// loss is ≈13 dB (board strips, frame and edge scattering reflect
/// co-polarized energy that the PSVAAs do not switch).
pub(crate) const BOARD_COPOL_EXCESS_DB: f64 = 11.0;

impl Tag {
    /// The tag's structural co-polarized ("board") echoes: wide-angle
    /// scattering from the PCB strips and mounting frame, one scatter
    /// centre per stack. Total RCS sits [`BOARD_COPOL_EXCESS_DB`] above
    /// the tag's fringe-averaged cross-pol retro RCS.
    fn board_echoes(&self, radar_pos: Vec3, ctx: &EchoContext) -> Vec<SceneEcho> {
        let az = self.azimuth_from_boresight(radar_pos);
        if az.cos() <= 0.0 {
            return Vec::new();
        }
        let cross_avg_dbsm = crate::capacity::estimated_tag_rcs_dbsm(
            self.positions_m.len(),
            self.code.rows_per_stack,
            self.code.beam_shaped,
        ) + 10.0 * (self.positions_m.len().as_f64()).log10();
        let board_dbsm = cross_avg_dbsm + BOARD_COPOL_EXCESS_DB;
        let per_stack_amp =
            ros_em::db::db_to_lin(board_dbsm) / (self.positions_m.len().as_f64()).sqrt();
        let (sin_y, cos_y) = self.yaw.sin_cos();
        // Mild angular rolloff (frame scattering is wide-angle).
        let g = az.cos().powf(0.5);
        self.positions_m
            .iter()
            .enumerate()
            .map(|(i, &xs)| {
                let pos = self.mount + Vec3::new(xs * cos_y, xs * sin_y, 0.0);
                // Static speckle phase per stack.
                let phase = (i.as_f64() * 2.399963).rem_euclid(std::f64::consts::TAU);
                let f = Complex64::from_polar(per_stack_amp * g, phase);
                SceneEcho {
                    pos,
                    amp: ctx.echo_amplitude_at(f, radar_pos, pos),
                }
            })
            .collect()
    }
}

impl Reflector for Tag {
    fn echoes(
        &self,
        radar_pos: Vec3,
        tx: Polarization,
        rx: Polarization,
        ctx: &EchoContext,
    ) -> Vec<SceneEcho> {
        let mut echoes: Vec<SceneEcho> = self
            .scatterers(radar_pos, tx, rx, ctx.budget.freq_hz)
            .into_iter()
            .map(|(pos, f)| SceneEcho {
                pos,
                amp: ctx.echo_amplitude_at(f, radar_pos, pos),
            })
            .collect();
        // Structural (co-polarized) board scattering.
        if tx == rx {
            echoes.extend(self.board_echoes(radar_pos, ctx));
        }
        echoes
    }

    fn center(&self) -> Vec3 {
        self.mount
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_em::constants::{F_CENTER_HZ, LAMBDA_CENTER_M};
    use ros_em::geom::deg_to_rad;

    fn small_tag(bits: &[bool]) -> Tag {
        let code = SpatialCode {
            rows_per_stack: 8,
            ..SpatialCode::paper_4bit()
        };
        code.encode(bits).unwrap()
    }

    #[test]
    fn scatterer_count() {
        let tag = small_tag(&[true, true, true, true]);
        let radar = Vec3::new(0.0, -3.0, 0.0);
        let sc = tag.scatterers(radar, Polarization::H, Polarization::V, F_CENTER_HZ);
        // 5 stacks × 8 rows.
        assert_eq!(sc.len(), 40);
    }

    #[test]
    fn boresight_azimuth_convention() {
        let tag = small_tag(&[true; 4]).mounted_at(Vec3::new(0.0, 2.0, 0.0));
        // Radar on the road directly in front: azimuth 0.
        assert!((tag.azimuth_from_boresight(Vec3::new(0.0, 0.0, 0.0))).abs() < 1e-12);
        // Radar down-road (+x): positive azimuth.
        assert!(tag.azimuth_from_boresight(Vec3::new(2.0, 0.0, 0.0)) > 0.0);
    }

    #[test]
    fn cross_pol_dominates_co_pol() {
        // The tag is a polarization switcher: cross-pol scatterer
        // amplitudes far exceed co-pol ones away from broadside.
        let tag = small_tag(&[true; 4]).mounted_at(Vec3::new(0.0, 3.0, 0.0));
        let radar = Vec3::new(1.5, 0.0, 0.0);
        let cross = tag.scatterers(radar, Polarization::H, Polarization::V, F_CENTER_HZ);
        let co = tag.scatterers(radar, Polarization::V, Polarization::V, F_CENTER_HZ);
        let p_cross: f64 = cross.iter().map(|(_, f)| f.norm_sqr()).sum();
        let p_co: f64 = co.iter().map(|(_, f)| f.norm_sqr()).sum();
        assert!(
            p_cross > 5.0 * p_co,
            "cross {p_cross:.3e} vs co {p_co:.3e}"
        );
    }

    #[test]
    fn rcs_shows_coding_structure() {
        // The far-field RCS versus u must oscillate with the coding
        // spacings — sample two azimuths a quarter-fringe apart for the
        // 6λ stack and check they differ.
        let tag = small_tag(&[true, false, false, false]);
        let lam = LAMBDA_CENTER_M;
        // Fringe period in u for 6λ spacing: λ/(2·6λ) = 1/12.
        let u1: f64 = 0.0;
        let u2: f64 = 1.0 / 24.0; // half period → destructive vs constructive
        let r1 = tag.rcs_dbsm(u1.asin(), F_CENTER_HZ, Polarization::H, Polarization::V);
        let r2 = tag.rcs_dbsm(u2.asin(), F_CENTER_HZ, Polarization::H, Polarization::V);
        assert!((r1 - r2).abs() > 3.0, "no fringe contrast: {r1} vs {r2}");
        let _ = lam;
    }

    #[test]
    fn tag_total_rcs_magnitude_plausible() {
        // §5.3: the 32-row, 5-stack tag has σ ≈ −23 dBsm. Our model
        // should land within a few dB at a constructive azimuth.
        let code = SpatialCode::paper_4bit(); // 32 rows
        let tag = code.encode(&[true; 4]).unwrap();
        // The multi-stack RCS fringes between 0 and M²× the per-stack
        // level; the paper's −23 dBsm corresponds to the per-stack
        // (fringe-averaged) level, so the azimuth-average should land
        // near −23 + 10·log10(M) ≈ −16 dBsm and the constructive peaks
        // up to ≈ −9 dBsm.
        let mut acc = 0.0;
        let mut peak = f64::NEG_INFINITY;
        let n = 120;
        for i in 0..n {
            let az = deg_to_rad(-15.0 + 30.0 * i as f64 / (n - 1) as f64);
            let r = tag.rcs_dbsm(az, F_CENTER_HZ, Polarization::H, Polarization::V);
            acc += 10f64.powf(r / 10.0);
            peak = peak.max(r);
        }
        let avg = 10.0 * (acc / n as f64).log10();
        assert!(
            (avg - (-16.0)).abs() < 5.0,
            "average tag RCS {avg:.1} dBsm (expected ≈ −16)"
        );
        assert!(peak < -5.0 && peak > -20.0, "peak {peak:.1} dBsm");
    }

    #[test]
    fn echoes_through_reflector_trait() {
        let tag = small_tag(&[true; 4]).mounted_at(Vec3::new(0.0, 3.0, 0.5));
        let ctx = EchoContext::ti_clear();
        let echoes = tag.echoes(
            Vec3::new(0.0, 0.0, 0.5),
            Polarization::H,
            Polarization::V,
            &ctx,
        );
        assert_eq!(echoes.len(), 40);
        let total_mw: f64 = echoes.iter().map(|e| e.amp.norm_sqr()).sum();
        // Within detection range, the tag is well above the −62 dBm
        // floor (coherent combination raises it further).
        assert!(10.0 * total_mw.log10() > -62.0);
    }

    #[test]
    fn behind_tag_is_silent() {
        let tag = small_tag(&[true; 4]).mounted_at(Vec3::new(0.0, 3.0, 0.0));
        let sc = tag.scatterers(
            Vec3::new(0.0, 10.0, 0.0), // behind the tag face
            Polarization::H,
            Polarization::V,
            F_CENTER_HZ,
        );
        let p: f64 = sc.iter().map(|(_, f)| f.norm_sqr()).sum();
        assert!(p < 1e-12);
    }

    #[test]
    fn yaw_rotates_boresight() {
        let tag = small_tag(&[true; 4])
            .mounted_at(Vec3::new(0.0, 2.0, 0.0))
            .with_yaw(deg_to_rad(10.0));
        let az = tag.azimuth_from_boresight(Vec3::new(0.0, 0.0, 0.0));
        assert!((az + deg_to_rad(10.0)).abs() < 1e-12);
    }
}
