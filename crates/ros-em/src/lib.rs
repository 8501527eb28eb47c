//! # ros-em — electromagnetics substrate for RoS
//!
//! Foundational electromagnetic and mathematical building blocks used by
//! every other crate in the RoS workspace:
//!
//! * [`Complex64`] — complex arithmetic (phasors, baseband samples),
//! * [`Vec3`] and angle utilities — scene geometry,
//! * [`jones`] — Jones-calculus polarization states and operators,
//! * [`circular`] — circular-polarization basis and reflection
//!   operators (the paper's §8 range-extension path),
//! * [`radar_eq`] — the monostatic radar equation and link budgets,
//! * [`atten`] — atmospheric (fog / rain) attenuation at mmWave,
//! * [`db`] — decibel conversions,
//! * [`special`] — `erfc` for the OOK bit-error-rate model and the
//!   `dirichlet` array-factor kernel.
//!
//! The crate is deliberately dependency-free: it contains only `std`
//! numerics so that the physics layer stays auditable.
//!
//! ## Conventions
//!
//! * Frequencies in Hz, distances in metres, angles in radians unless a
//!   function name says otherwise (`*_deg`).
//! * Phasors use the engineering convention `exp(+j ω t)`; a wave
//!   travelling a distance `d` accrues phase `−2π d / λ`.
//! * Power quantities suffixed `_db`, `_dbm`, `_dbsm` are logarithmic;
//!   bare names are linear.

pub mod atten;
pub mod circular;
pub(crate) mod complex;
pub mod constants;
pub mod db;
pub mod geom;
pub mod jones;
pub mod radar_eq;
pub mod special;
pub mod units;

pub use complex::Complex64;
pub use geom::Vec3;

/// Commonly used items, glob-importable as `use ros_em::prelude::*`.
pub mod prelude {
    pub use crate::complex::Complex64;
    pub use crate::constants::*;
    pub use crate::db::{db_to_lin, db_to_pow, lin_to_db, pow_to_db};
    pub use crate::geom::{deg_to_rad, rad_to_deg, Vec3};
    pub use crate::jones::{JonesMatrix, JonesVector, Polarization};
    pub use crate::units::cast::AsF64;
    pub use crate::units::{Db, DbAmplitude, DbPower, Dbm, Degrees, Hertz, Meters, Radians, Watts};
}
