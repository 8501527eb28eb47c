//! # ros-dsp — signal-processing substrate for RoS
//!
//! Everything the radar pipeline needs to turn raw IF samples into
//! decoded bits:
//!
//! * [`goertzel`] — single-bin (fractional-frequency) DFT used by the
//!   spotlight beamformer,
//! * [`fft`] — iterative radix-2 complex FFT/IFFT with zero-padding
//!   helpers (range processing, RCS frequency spectra),
//! * [`window`] — tapers for sidelobe control,
//! * [`peaks`] — local-maximum detection with prominence and
//!   minimum-separation rules (coding-peak extraction),
//! * [`cfar`] — cell-averaging CFAR detection on range profiles,
//! * [`mod@dbscan`] — the density-based clustering the paper uses (§6) to
//!   group multi-frame point clouds into objects,
//! * [`eig`] / [`music`] — Hermitian eigendecomposition and MUSIC
//!   super-resolution angle estimation (packs tags tighter than the
//!   §5.3 beamwidth bound),
//! * [`resample`] — linear resampling of non-uniform samples onto a
//!   uniform grid (the RCS trace is sampled at the vehicle's positions,
//!   non-uniform in `u = cos θ`),
//! * [`stats`] — summary statistics for the evaluation harness.
//!
//! All routines are allocation-conscious, pure `std`, and extensively
//! unit- and property-tested.

pub mod cfar;
pub mod dbscan;
pub mod eig;
pub mod fft;
pub mod goertzel;
pub mod music;
pub mod peaks;
pub mod plan;
pub mod resample;
pub mod stats;
pub mod window;

pub use dbscan::{dbscan, DbscanParams};
pub use fft::{fft_in_place, ifft_in_place, spectrum_padded, FftPlan};
pub use peaks::{find_peaks, Peak, PeakParams};
pub use plan::PlanCache;
