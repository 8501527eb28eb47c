//! # ros-optim — differential evolution for RoS beam shaping
//!
//! §4.3 of the paper: *"we use a differential evolution genetic
//! algorithm (DE-GA) as a meta-optimization scheme to search for the
//! phase weights and vertical positions of the PSVAAs, in order to
//! achieve a desired wide elevation beamwidth."*
//!
//! The coupling that forces a meta-optimizer is physical: applying a
//! phase weight to a PSVAA lengthens its transmission lines, which
//! makes the PSVAA taller, which moves every PSVAA above it, which
//! changes *their* effective phases. No closed form exists, but the
//! objective (flatness of the elevation pattern over a target
//! beamwidth) is cheap to evaluate — exactly DE's sweet spot.
//!
//! This crate is a small, self-contained DE implementation (Storn &
//! Price 1997) with bound constraints and a couple of mutation
//! strategies, tested on standard benchmark functions.

mod de;
mod pso;
#[cfg(test)]
mod testfn;

pub use de::{minimize, DeConfig, DeResult, Strategy};
pub use pso::{minimize_pso, PsoConfig};
