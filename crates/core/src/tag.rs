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
use ros_scene::reflector::{EchoContext, EchoLink, Reflector, SceneEcho};
use std::sync::Arc;

/// One mounted PSVAA stack of a tag.
#[derive(Clone, Debug)]
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
    /// Injected geometry/EM memo store; when present, each resolve
    /// ([`Tag::resolved_at`]) reads shared cached row tables instead
    /// of recomputing them (bit-identical either way). Never a global —
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
    /// tag keeps the cache handle so each resolve reads shared row
    /// tables. The physics are bit-identical to [`Tag::new`].
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

    /// Attaches an injected table cache: subsequent resolves memoize
    /// their per-(layout, frequency) row tables in it. Results
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
        assert!(
            !stacks.is_empty(),
            "a tag needs at least the reference stack"
        );
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

    /// Exports every PSVAA row of every stack as a scatterer:
    /// `(world position, complex RCS amplitude √m²)` for the given
    /// radar position and polarizations.
    ///
    /// One implementation: this resolves the tag at `freq_hz`, then
    /// exports the rows for `radar_pos`. The frame loops take the same
    /// two steps with the resolve hoisted out to once per pass, so
    /// their echoes carry the same bits as a call here.
    pub fn scatterers(
        &self,
        radar_pos: Vec3,
        tx: Polarization,
        rx: Polarization,
        freq_hz: f64,
    ) -> Vec<(Vec3, Complex64)> {
        let mut out = Vec::new();
        self.resolved_at(freq_hz)
            .scatterers(radar_pos, tx, rx, &mut |pos, f| out.push((pos, f)));
        out
    }

    /// Resolves everything the tag's echoes need that does not depend
    /// on the radar position, at carrier `freq_hz`: each row's world
    /// position and complex weight (stack-major, in table order), the
    /// PSVAA row array, and the board scatter centres. A frame loop
    /// calls this once per pass; with a cache attached, each stack's
    /// row table is one cache lookup per call.
    pub(crate) fn resolved_at(&self, freq_hz: f64) -> ResolvedTag {
        // Stack x-axis runs along the road (+x) when yaw = 0.
        let (sin_y, cos_y) = self.yaw.sin_cos();

        let mut rows = Vec::new();
        for (si, ts) in self.stacks.iter().enumerate() {
            let xs = ts.x_m;
            let table: Arc<Vec<(f64, Complex64)>> = match &self.cache {
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
            for &(z, w) in table.iter() {
                let zc = z - z_center;
                // Parabolic deflection toward/away from the road,
                // maximal at the column centre, zero at the clamped ends.
                let dy = bow * (1.0 - (zc / half_h).powi(2));
                let pos =
                    self.mount + Vec3::new(xs * cos_y - dy * sin_y, xs * sin_y - dy * cos_y, zc);
                rows.push((pos, w));
            }
        }

        // Structural board scattering: total RCS sits
        // [`BOARD_COPOL_EXCESS_DB`] above the tag's fringe-averaged
        // cross-pol retro RCS, split over one scatter centre per stack.
        let n_stacks = self.positions_m.len().as_f64();
        let cross_avg_dbsm = crate::capacity::estimated_tag_rcs_dbsm(
            self.positions_m.len(),
            self.code.rows_per_stack,
            self.code.beam_shaped,
        ) + 10.0 * n_stacks.log10();
        let board_dbsm = cross_avg_dbsm + BOARD_COPOL_EXCESS_DB;
        let board = self
            .positions_m
            .iter()
            .enumerate()
            .map(|(i, &xs)| {
                let pos = self.mount + Vec3::new(xs * cos_y, xs * sin_y, 0.0);
                // Static speckle phase per stack.
                let phase = (i.as_f64() * 2.399963).rem_euclid(std::f64::consts::TAU);
                (pos, phase)
            })
            .collect();

        ResolvedTag {
            mount: self.mount,
            yaw: self.yaw,
            freq_hz,
            row: VanAttaArray::new(ArrayKind::Psvaa, 3),
            rows,
            board,
            board_amp: ros_em::db::db_to_lin(board_dbsm) / n_stacks.sqrt(),
        }
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
                ts.stack.elevation_array_factor(0.0, freq_hz) * Complex64::cis(2.0 * k * ts.x_m * u)
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

/// Azimuth of `radar_pos` from the boresight of a tag mounted at
/// `mount` with yaw `yaw` \[rad\].
fn boresight_azimuth(mount: Vec3, yaw: f64, radar_pos: Vec3) -> f64 {
    let dx = radar_pos.x - mount.x;
    let dy = radar_pos.y - mount.y;
    dx.atan2(-dy) - yaw
}

/// A [`Tag`] resolved at one carrier frequency ([`Tag::resolved_at`]):
/// the radar-independent part of its echoes. Exporting it for a radar
/// position computes only what depends on that position — the
/// azimuth, the row array's retro-response, each row's elevation
/// pattern and the board echoes' angular rolloff — so a frame loop
/// that resolves once per pass emits bit-identical echoes to a
/// per-frame [`Tag::scatterers`] or [`Reflector::echoes`] call.
pub(crate) struct ResolvedTag {
    mount: Vec3,
    yaw: f64,
    freq_hz: f64,
    /// The PSVAA row whose azimuth retro-response every row shares.
    row: VanAttaArray,
    /// Every row of every stack, stack-major: world position and
    /// complex weight.
    rows: Vec<(Vec3, Complex64)>,
    /// The co-polarized board scatter centres, one per stack: world
    /// position and static speckle phase \[rad\].
    board: Vec<(Vec3, f64)>,
    /// Boresight RCS amplitude of one board scatter centre \[√m²\].
    board_amp: f64,
}

impl ResolvedTag {
    /// The most echoes [`ResolvedTag::echoes`] emits for one radar
    /// position: every row and every board scatter centre.
    pub(crate) fn max_echoes(&self) -> usize {
        self.rows.len() + self.board.len()
    }

    /// Calls `each(world position, complex RCS amplitude √m²)` for
    /// every row, in row order, as seen from `radar_pos` with azimuth
    /// `az` from boresight. Behind the tag (zero retro-response) no
    /// row is exported.
    fn rows_at(
        &self,
        radar_pos: Vec3,
        az: f64,
        tx: Polarization,
        rx: Polarization,
        each: &mut impl FnMut(Vec3, Complex64),
    ) {
        // The row array's retro-response, shared by every row.
        let row_field = self.row.monostatic_field(az, self.freq_hz, tx, rx);
        if row_field != Complex64::ZERO {
            self.export_rows(row_field, radar_pos, each);
        }
    }

    /// The per-frame row export: `each(position, row_field · weight ·
    /// elevation gain)` for every row, in row order.
    fn export_rows(
        &self,
        row_field: Complex64,
        radar_pos: Vec3,
        each: &mut impl FnMut(Vec3, Complex64),
    ) {
        for &(pos, w) in &self.rows {
            let el = pos.elevation_to(radar_pos);
            let g_el = ros_antenna::patch::elevation_pattern(el);
            each(pos, row_field * w * g_el);
        }
    }

    /// The rows as point scatterers for a radar at `radar_pos`:
    /// `each(world position, complex RCS amplitude √m²)`.
    pub(crate) fn scatterers(
        &self,
        radar_pos: Vec3,
        tx: Polarization,
        rx: Polarization,
        each: &mut impl FnMut(Vec3, Complex64),
    ) {
        let az = boresight_azimuth(self.mount, self.yaw, radar_pos);
        self.rows_at(radar_pos, az, tx, rx, each);
    }

    /// The tag's echoes for a radar at `radar_pos`, in emission order:
    /// every row, then — co-polarized (`tx == rx`) and in front of the
    /// tag only — one structural board echo per stack (wide-angle
    /// scattering from the PCB strips and mounting frame).
    pub(crate) fn echoes(
        &self,
        radar_pos: Vec3,
        tx: Polarization,
        rx: Polarization,
        link: &EchoLink,
        each: &mut impl FnMut(SceneEcho),
    ) {
        let az = boresight_azimuth(self.mount, self.yaw, radar_pos);
        self.rows_at(radar_pos, az, tx, rx, &mut |pos, f| {
            each(SceneEcho {
                pos,
                amp: link.echo_amplitude_at(f, radar_pos, pos),
            });
        });
        if tx != rx || az.cos() <= 0.0 {
            return;
        }
        // Mild angular rolloff (frame scattering is wide-angle).
        let g = az.cos().powf(0.5);
        for &(pos, phase) in &self.board {
            let f = Complex64::from_polar(self.board_amp * g, phase);
            each(SceneEcho {
                pos,
                amp: link.echo_amplitude_at(f, radar_pos, pos),
            });
        }
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
        let mut echoes = Vec::new();
        self.resolved_at(ctx.budget.freq_hz).echoes(
            radar_pos,
            tx,
            rx,
            &EchoLink::new(*ctx),
            &mut |e| echoes.push(e),
        );
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
        assert!((boresight_azimuth(tag.mount, tag.yaw, Vec3::new(0.0, 0.0, 0.0))).abs() < 1e-12);
        // Radar down-road (+x): positive azimuth.
        assert!(boresight_azimuth(tag.mount, tag.yaw, Vec3::new(2.0, 0.0, 0.0)) > 0.0);
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
        assert!(p_cross > 5.0 * p_co, "cross {p_cross:.3e} vs co {p_co:.3e}");
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

    /// The per-frame tag export that [`Tag::resolved_at`] split into
    /// a per-pass and a per-frame part, kept verbatim as the oracle:
    /// every row (row table, bow and mount recomputed per call), then,
    /// co-polarized only, the board echoes.
    fn per_frame_tag_echoes(
        tag: &Tag,
        radar_pos: Vec3,
        tx: Polarization,
        rx: Polarization,
        ctx: &EchoContext,
    ) -> Vec<SceneEcho> {
        let freq_hz = ctx.budget.freq_hz;
        let az = boresight_azimuth(tag.mount, tag.yaw, radar_pos);
        let (sin_y, cos_y) = tag.yaw.sin_cos();
        let mut out = Vec::new();
        let row = VanAttaArray::new(ArrayKind::Psvaa, 3);
        let row_field = row.monostatic_field(az, freq_hz, tx, rx);
        if row_field != Complex64::ZERO {
            for (si, ts) in tag.stacks.iter().enumerate() {
                let xs = ts.x_m;
                let rows: Arc<Vec<(f64, Complex64)>> = match &tag.cache {
                    Some(cache) => ts.stack.row_scatterers_table_in(cache, freq_hz),
                    None => Arc::new(ts.stack.row_scatterers(freq_hz)),
                };
                let z_center = ts.stack.center_z_m();
                let half_h = (ts.stack.height_m() / 2.0).max(1e-9);
                let bow = if tag.bow_m > 0.0 {
                    let h = tag
                        .bow_seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(cast::u64_from_usize(si))
                        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    let unit = (h >> 11).as_f64() / (1u64 << 53).as_f64();
                    (2.0 * unit - 1.0) * tag.bow_m
                } else {
                    0.0
                };
                for &(z, w) in rows.iter() {
                    let zc = z - z_center;
                    let dy = bow * (1.0 - (zc / half_h).powi(2));
                    let pos =
                        tag.mount + Vec3::new(xs * cos_y - dy * sin_y, xs * sin_y - dy * cos_y, zc);
                    let g_el = ros_antenna::patch::elevation_pattern(pos.elevation_to(radar_pos));
                    let f = row_field * w * g_el;
                    out.push(SceneEcho {
                        pos,
                        amp: ctx.echo_amplitude_at(f, radar_pos, pos),
                    });
                }
            }
        }
        if tx == rx && az.cos() > 0.0 {
            let n = tag.positions_m.len();
            let cross_avg_dbsm = crate::capacity::estimated_tag_rcs_dbsm(
                n,
                tag.code.rows_per_stack,
                tag.code.beam_shaped,
            ) + 10.0 * (n.as_f64()).log10();
            let board_dbsm = cross_avg_dbsm + BOARD_COPOL_EXCESS_DB;
            let per_stack_amp = ros_em::db::db_to_lin(board_dbsm) / (n.as_f64()).sqrt();
            let g = az.cos().powf(0.5);
            for (i, &xs) in tag.positions_m.iter().enumerate() {
                let pos = tag.mount + Vec3::new(xs * cos_y, xs * sin_y, 0.0);
                let phase = (i.as_f64() * 2.399963).rem_euclid(std::f64::consts::TAU);
                let f = Complex64::from_polar(per_stack_amp * g, phase);
                out.push(SceneEcho {
                    pos,
                    amp: ctx.echo_amplitude_at(f, radar_pos, pos),
                });
            }
        }
        out
    }

    /// An echo as the bit patterns of its position and amplitude.
    fn echo_bits(e: &SceneEcho) -> [u64; 5] {
        [
            e.pos.x.to_bits(),
            e.pos.y.to_bits(),
            e.pos.z.to_bits(),
            e.amp.re.to_bits(),
            e.amp.im.to_bits(),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// A pass's resolved scene emits, at every radar position, the
        /// echoes the per-frame export emitted — same sequence, same
        /// bits — in the old reflector order: the tag, the extra tag,
        /// then the clutter through `Reflector::echoes`. Drawn: radar
        /// positions (some behind the tags), tag yaw and column bow,
        /// co- or cross-polarization (board echoes only in co-pol), a
        /// cached or uncached tag, and a `ScenePreset` clutter set.
        /// `Reflector::echoes` on each tag matches the oracle too, and
        /// the scene's echo bound leaves room for an interference burst.
        #[test]
        fn resolved_scene_matches_per_frame_reflectors(
            radars in proptest::prop::collection::vec(
                (-6.0f64..6.0, -1.0f64..3.0, 0.3f64..1.7),
                1..6,
            ),
            yaw_deg in -15.0f64..15.0,
            bow_m in 0.0f64..0.01,
            word in 0u8..16,
            seed in 0u64..1_000_000,
            copol in proptest::prelude::any::<bool>(),
            cached in proptest::prelude::any::<bool>(),
            preset in 0usize..5,
        ) {
            let bits: Vec<bool> = (0..4).map(|b| word >> b & 1 == 1).collect();
            let code = SpatialCode {
                rows_per_stack: 8,
                ..SpatialCode::paper_4bit()
            };
            // One cache for every case, so the shaping profile builds
            // once; an uncached tag drops the handle and recomputes
            // its row tables.
            static CACHE: std::sync::OnceLock<GeomCache> = std::sync::OnceLock::new();
            let cache = CACHE.get_or_init(GeomCache::new);
            let mut tag = code.encode_with(cache, &bits).unwrap();
            if !cached {
                tag.cache = None;
            }
            let extra = code
                .encode_with(cache, &[true, false, false, true])
                .unwrap()
                .mounted_at(Vec3::new(1.5, 2.4, 1.1))
                .with_yaw(deg_to_rad(-yaw_deg / 2.0));
            let drive = crate::reader::DriveBy::new(
                tag.with_yaw(deg_to_rad(yaw_deg)).with_column_bow(bow_m, seed),
                2.0,
            )
            .with_extra_tag(extra)
            .with_scene(ros_scene::scenario::ScenePreset::ALL[preset], seed);
            let (tx, rx) = if copol {
                (Polarization::V, Polarization::V)
            } else {
                (Polarization::H, Polarization::V)
            };
            let ctx = drive.context();
            let scene = crate::reader::EchoScene::new(&drive);
            for &(x, y, z) in &radars {
                let radar = Vec3::new(x, y, z);
                let mut got = Vec::new();
                scene.for_each(radar, tx, rx, |e| got.push(echo_bits(&e)));
                proptest::prop_assert!(got.len() < scene.max_echoes);
                let mut want = Vec::new();
                for t in std::iter::once(&drive.tag).chain(&drive.extra_tags) {
                    let oracle: Vec<[u64; 5]> = per_frame_tag_echoes(t, radar, tx, rx, &ctx)
                        .iter()
                        .map(echo_bits)
                        .collect();
                    let via_trait: Vec<[u64; 5]> =
                        t.echoes(radar, tx, rx, &ctx).iter().map(echo_bits).collect();
                    proptest::prop_assert_eq!(&via_trait, &oracle);
                    want.extend(oracle);
                }
                for c in &drive.clutter {
                    want.extend(c.echoes(radar, tx, rx, &ctx).iter().map(echo_bits));
                }
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn yaw_rotates_boresight() {
        let tag = small_tag(&[true; 4])
            .mounted_at(Vec3::new(0.0, 2.0, 0.0))
            .with_yaw(deg_to_rad(10.0));
        let az = boresight_azimuth(tag.mount, tag.yaw, Vec3::new(0.0, 0.0, 0.0));
        assert!((az + deg_to_rad(10.0)).abs() < 1e-12);
    }
}
