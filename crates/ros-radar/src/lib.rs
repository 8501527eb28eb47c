//! # ros-radar — FMCW automotive radar simulator
//!
//! A software model of the TI IWR1443-class evaluation radar the paper
//! uses (§3.2, §7.1): it synthesizes the dechirped intermediate-
//! frequency (IF) samples every scatterer in the scene would produce,
//! adds link-budget-derived thermal noise, and implements the standard
//! processing chain — range FFT, angle-of-arrival beamforming, CFAR
//! detection — plus the "spotlight" beamforming RSS measurement the
//! RoS decoder relies on (§6).
//!
//! ## Signal conventions
//!
//! * An [`Echo`] carries the absolute scatterer position and the
//!   complex received *amplitude* at the reference antenna, in √mW:
//!   `|amp|²` is the received power in mW at full Rx gain, as computed
//!   by the scene layer from the radar equation. The propagation phase
//!   `e^{−j4πd/λ}` is included by the scene.
//! * The radar adds only what the antenna array geometry contributes:
//!   the beat frequency from range and the per-antenna phase from the
//!   angle of arrival (paper Eq. 2).
//! * The radar is **side-looking**: boresight is world +y, and azimuth
//!   is measured from boresight, positive toward +x (the direction of
//!   vehicle travel).

pub mod array;
pub mod chirp;
pub mod echo;
pub mod frontend;
pub mod impairments;
pub mod pointcloud;
pub mod processing;
pub mod radar;

pub use array::RadarArray;
pub use chirp::ChirpConfig;
pub use echo::Echo;
pub use pointcloud::{PointCloud, RadarPoint};
pub use radar::{FmcwRadar, RadarMode};
