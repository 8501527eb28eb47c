//! # ros-antenna — antenna substrate for RoS
//!
//! The analytic electromagnetics of the RoS tag (§4 of the paper),
//! replacing the authors' Ansys HFSS simulations with array-theory
//! models of the same physics:
//!
//! * [`patch`] — the aperture-coupled patch element (Fig. 7a): element
//!   power pattern and return-loss model over the 76–81 GHz band,
//! * [`tl`] — strip-line transmission lines: guided-wavelength
//!   dispersion and conductor/dielectric loss (the two effects that cap
//!   the useful Van Atta pair count at 3, §4.1),
//! * [`vaa`] — the retroreflective Van Atta array engine: bistatic
//!   complex response with polarization bookkeeping; covers the classic
//!   VAA, the polarization-switching PSVAA, and the specular ULA
//!   baseline (Figs. 3–6),
//! * [`stack`] — vertical stacks of PSVAAs with per-row phase weights:
//!   elevation patterns, near-field scatterer export (§4.3),
//! * [`shaping`] — DE-GA elevation beam shaping to a flat-top (Fig. 8),
//! * [`design`] — closed-form design rules (§4.1 pair-count rule,
//!   Eq. 5 beamwidth, §5.3 far-field distance).
//!
//! ## Calibration
//!
//! Absolute RCS levels are anchored to the paper's reported values
//! (−37 dBsm for the 3-pair VAA at broadside, hence −43 dBsm for the
//! PSVAA after its 6 dB polarization-switching penalty). All pattern
//! *shapes* emerge from the physics.

pub mod design;
pub mod patch;
pub mod shaping;
pub mod stack;
pub mod tl;
pub mod vaa;

pub use stack::PsvaaStack;
pub use tl::TransmissionLine;
pub use vaa::{ArrayKind, VanAttaArray};
