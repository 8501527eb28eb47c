//! Roadside clutter objects (Fig. 11, Fig. 13).
//!
//! Each object is an extended scatterer: a cloud of point reflectors
//! with per-point random static phases (speckle) sharing the object's
//! total RCS and polarization behaviour. Class parameters encode the
//! paper's Fig. 13 measurements: background objects reject 16–19 dB of
//! cross-polarized energy and span class-dependent point-cloud sizes.

use crate::reflector::{EchoContext, EchoLink, Reflector, SceneEcho};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ros_em::jones::{JonesMatrix, Polarization};
use ros_em::units::cast::AsF64;
use ros_em::units::Db;
use ros_em::{Complex64, Vec3};

/// Clutter object classes evaluated in §7.2.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ObjectClass {
    /// Camera/radar tripod (the Fig. 11 second object).
    Tripod,
    /// Parking meter.
    ParkingMeter,
    /// Street lamp pole.
    StreetLamp,
    /// Conventional metal road sign.
    RoadSign,
    /// Pedestrian.
    Pedestrian,
    /// Tree (trunk + canopy).
    Tree,
    /// Highway guardrail segment (long, strong, co-polarized).
    Guardrail,
    /// Parked car (very strong, extended).
    ParkedCar,
}

impl ObjectClass {
    /// The classes evaluated in the paper's Fig. 13, in x-axis order
    /// (minus the tag).
    pub const ALL: [ObjectClass; 6] = [
        ObjectClass::Tripod,
        ObjectClass::ParkingMeter,
        ObjectClass::StreetLamp,
        ObjectClass::RoadSign,
        ObjectClass::Pedestrian,
        ObjectClass::Tree,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ObjectClass::Tripod => "Tripod",
            ObjectClass::ParkingMeter => "Meter",
            ObjectClass::StreetLamp => "Lamp",
            ObjectClass::RoadSign => "Sign",
            ObjectClass::Pedestrian => "Human",
            ObjectClass::Tree => "Tree",
            ObjectClass::Guardrail => "Guardrail",
            ObjectClass::ParkedCar => "ParkedCar",
        }
    }

    /// Total RCS \[dBsm\] — order-of-magnitude values for 79 GHz.
    pub fn rcs_dbsm(self) -> f64 {
        match self {
            ObjectClass::Tripod => -12.0,
            ObjectClass::ParkingMeter => -8.0,
            ObjectClass::StreetLamp => -2.0,
            ObjectClass::RoadSign => 2.0,
            ObjectClass::Pedestrian => -6.0,
            ObjectClass::Tree => 0.0,
            ObjectClass::Guardrail => 5.0,
            ObjectClass::ParkedCar => 10.0,
        }
    }

    /// Median cross-polarization rejection \[dB\] (§7.2: background
    /// objects reject a median of 16–19 dB).
    pub fn polarization_rejection_db(self) -> f64 {
        match self {
            ObjectClass::Tripod => 18.0,
            ObjectClass::ParkingMeter => 19.0,
            ObjectClass::StreetLamp => 18.0,
            ObjectClass::RoadSign => 18.5,
            ObjectClass::Pedestrian => 17.0,
            ObjectClass::Tree => 17.5,
            ObjectClass::Guardrail => 19.0,
            ObjectClass::ParkedCar => 18.5,
        }
    }

    /// Plan-view spatial extent (x-extent, y-extent) \[m\] controlling
    /// the Fig. 13b point-cloud size.
    pub fn extent_m(self) -> (f64, f64) {
        match self {
            ObjectClass::Tripod => (0.25, 0.25),
            ObjectClass::ParkingMeter => (0.25, 0.2),
            ObjectClass::StreetLamp => (0.3, 0.3),
            ObjectClass::RoadSign => (0.45, 0.15),
            ObjectClass::Pedestrian => (0.3, 0.25),
            ObjectClass::Tree => (0.5, 0.5),
            ObjectClass::Guardrail => (3.0, 0.1),
            ObjectClass::ParkedCar => (4.2, 1.7),
        }
    }

    /// Number of point scatterers modelling the object.
    pub fn n_scatterers(self) -> usize {
        match self {
            ObjectClass::Tripod => 6,
            ObjectClass::ParkingMeter => 6,
            ObjectClass::StreetLamp => 8,
            ObjectClass::RoadSign => 10,
            ObjectClass::Pedestrian => 8,
            ObjectClass::Tree => 14,
            ObjectClass::Guardrail => 20,
            ObjectClass::ParkedCar => 24,
        }
    }
}

/// A placed clutter object.
#[derive(Clone, Debug)]
pub struct ClutterObject {
    class: ObjectClass,
    center: Vec3,
    /// Scatterer offsets from the centre.
    offsets: Vec<Vec3>,
    /// Per-scatterer static speckle phases \[rad\].
    phases: Vec<f64>,
    jones: JonesMatrix,
}

impl ClutterObject {
    /// Places an object of `class` at `center`; `seed` fixes its
    /// speckle realization (same seed = same "physical" object).
    pub fn new(class: ObjectClass, center: Vec3, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc1u64.wrapping_mul(31));
        let (ex, ey) = class.extent_m();
        let n = class.n_scatterers();
        let offsets: Vec<Vec3> = (0..n)
            .map(|_| {
                Vec3::new(
                    (rng.gen::<f64>() - 0.5) * ex,
                    (rng.gen::<f64>() - 0.5) * ey,
                    (rng.gen::<f64>() - 0.5) * 0.5,
                )
            })
            .collect();
        let phases: Vec<f64> = (0..n)
            .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
            .collect();
        ClutterObject {
            class,
            center,
            offsets,
            phases,
            jones: JonesMatrix::clutter(Db::new(class.polarization_rejection_db())),
        }
    }

    /// The object class.
    pub fn class(&self) -> ObjectClass {
        self.class
    }

    /// Calls `each` for every scatterer's echo for a radar at
    /// `radar_pos`, in scatterer order, with `link`'s per-pass terms
    /// (what [`Reflector::echoes`] collects, without the `Vec`).
    pub fn for_each_echo(
        &self,
        radar_pos: Vec3,
        tx: Polarization,
        rx: Polarization,
        link: &EchoLink,
        mut each: impl FnMut(SceneEcho),
    ) {
        // Split the total RCS across the scatterers (power split).
        let sigma_total = ros_em::db::db_to_pow(self.class.rcs_dbsm());
        let per_point_amp = (sigma_total / self.offsets.len().as_f64()).sqrt();
        let chan = self.jones.channel(tx, rx);

        for (off, &phi) in self.offsets.iter().zip(&self.phases) {
            let pos = self.center + *off;
            let f = chan * Complex64::from_polar(per_point_amp, phi);
            each(SceneEcho {
                pos,
                amp: link.echo_amplitude_at(f, radar_pos, pos),
            });
        }
    }
}

impl Reflector for ClutterObject {
    fn echoes(
        &self,
        radar_pos: Vec3,
        tx: Polarization,
        rx: Polarization,
        ctx: &EchoContext,
    ) -> Vec<SceneEcho> {
        let mut echoes = Vec::with_capacity(self.offsets.len());
        self.for_each_echo(radar_pos, tx, rx, &EchoLink::new(*ctx), |e| echoes.push(e));
        echoes
    }

    fn center(&self) -> Vec3 {
        self.center
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = ClutterObject::new(ObjectClass::Tree, Vec3::ZERO, 7);
        let b = ClutterObject::new(ObjectClass::Tree, Vec3::ZERO, 7);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.phases, b.phases);
        let c = ClutterObject::new(ObjectClass::Tree, Vec3::ZERO, 8);
        assert_ne!(a.offsets, c.offsets);
    }

    #[test]
    fn echo_count_matches_scatterers() {
        let ctx = EchoContext::ti_clear();
        for class in ObjectClass::ALL {
            let o = ClutterObject::new(class, Vec3::new(0.0, 3.0, 0.0), 1);
            let e = o.echoes(Vec3::ZERO, Polarization::V, Polarization::V, &ctx);
            assert_eq!(e.len(), class.n_scatterers());
        }
    }

    #[test]
    fn copol_total_power_near_class_rcs() {
        // Incoherent sum of the per-point powers equals the class RCS
        // through the radar equation.
        let ctx = EchoContext::ti_clear();
        let d = 4.0;
        let o = ClutterObject::new(ObjectClass::RoadSign, Vec3::new(0.0, d, 0.0), 3);
        let echoes = o.echoes(Vec3::ZERO, Polarization::V, Polarization::V, &ctx);
        let total_mw: f64 = echoes.iter().map(|e| e.amp.norm_sqr()).sum();
        let total_dbm = 10.0 * total_mw.log10();
        let expected = ctx
            .budget
            .received_power_dbm(ObjectClass::RoadSign.rcs_dbsm(), d);
        // Points sit at slightly different ranges: small spread allowed.
        assert!(
            (total_dbm - expected).abs() < 1.0,
            "{total_dbm} vs {expected}"
        );
    }

    #[test]
    fn cross_pol_suppressed_16_to_19_db() {
        let ctx = EchoContext::ti_clear();
        for class in ObjectClass::ALL {
            let o = ClutterObject::new(class, Vec3::new(0.0, 3.0, 0.0), 5);
            let co: f64 = o
                .echoes(Vec3::ZERO, Polarization::V, Polarization::V, &ctx)
                .iter()
                .map(|e| e.amp.norm_sqr())
                .sum();
            let cross: f64 = o
                .echoes(Vec3::ZERO, Polarization::H, Polarization::V, &ctx)
                .iter()
                .map(|e| e.amp.norm_sqr())
                .sum();
            let rejection = 10.0 * (co / cross).log10();
            assert!(
                (rejection - class.polarization_rejection_db()).abs() < 0.5,
                "{class:?}: {rejection} dB"
            );
        }
    }

    #[test]
    fn extent_bounds_offsets() {
        let o = ClutterObject::new(ObjectClass::Pedestrian, Vec3::ZERO, 11);
        let (ex, ey) = ObjectClass::Pedestrian.extent_m();
        for off in &o.offsets {
            assert!(off.x.abs() <= ex / 2.0 + 1e-12);
            assert!(off.y.abs() <= ey / 2.0 + 1e-12);
        }
    }

    #[test]
    fn labels_unique() {
        let extended = [ObjectClass::Guardrail, ObjectClass::ParkedCar];
        let mut labels: Vec<&str> = ObjectClass::ALL
            .iter()
            .chain(&extended)
            .map(|c| c.label())
            .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn extended_objects_are_large_and_strong() {
        // Guardrails and parked cars dwarf the tag in both detector
        // features — they should never classify as tags.
        for class in [ObjectClass::Guardrail, ObjectClass::ParkedCar] {
            let (ex, _) = class.extent_m();
            assert!(ex >= 3.0);
            assert!(class.rcs_dbsm() >= 5.0);
            assert!(class.polarization_rejection_db() >= 18.0);
        }
    }

    #[test]
    fn center_accessor() {
        let c = Vec3::new(1.0, 2.0, 0.3);
        let o = ClutterObject::new(ObjectClass::StreetLamp, c, 2);
        assert_eq!(o.center(), c);
        assert_eq!(o.class(), ObjectClass::StreetLamp);
    }
}
