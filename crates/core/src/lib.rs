//! # ros-core — the RoS passive smart surface
//!
//! The paper's primary contribution: a fully passive, chipless,
//! mechanically reconfigurable mmWave tag that encodes bits in the
//! geometrical layout of PSVAA stacks, plus the radar-side pipeline
//! that detects and decodes it.
//!
//! * [`encode`] — the §5.2 spatial coding scheme: bits ↔ stack layout,
//! * [`tag`] — the physical tag: stacks of beam-shaped PSVAAs placed by
//!   the code, with near-field scatterer export,
//! * [`rcs_model`] — the analytic §5.1 multi-stack RCS model (Eqs. 6–7)
//!   and RCS frequency spectrum,
//! * [`decode`] — RSS-trace → spectrum → coding peaks → bits → SNR/BER,
//! * [`nearfield`] — matched-filter decoding that works inside the
//!   far-field bound (the §8 NFFA direction, implemented radar-side),
//! * [`detector`] — the §6 pipeline: multi-frame point cloud, DBSCAN,
//!   two-feature tag discrimination,
//! * [`reader`] — the end-to-end drive-by reader tying scene, radar and
//!   decoder together,
//! * [`capacity`] — §5.3 design-tradeoff calculators (tag width, far
//!   field, speed bound, link budget),
//! * [`ask`] — the §8 multi-level (ASK) coding extension: 2 bits per
//!   slot via per-stack row counts,
//! * [`fec`] — Hamming(7,4) error protection over RoS messages (§8).
//!
//! ## Quick start
//!
//! ```
//! use ros_core::encode::SpatialCode;
//! use ros_core::reader::{DriveBy, ReaderConfig};
//!
//! // Encode 4 bits on a tag with 8-row beam-shaped stacks.
//! let code = SpatialCode::paper_4bit();
//! let tag = code.encode(&[true, true, true, true]).unwrap();
//!
//! // Drive past it with a TI-class radar at 2 m standoff and decode.
//! let drive = DriveBy::new(tag, 2.0);
//! let outcome = drive.run(&ReaderConfig::fast());
//! assert_eq!(outcome.bits(), vec![true, true, true, true]);
//! ```

pub mod ask;
pub mod capacity;
pub mod decode;
pub(crate) mod detector;
pub mod encode;
pub mod fec;
pub mod nearfield;
pub mod rcs_model;
pub mod reader;
pub mod stream;
pub mod tag;

pub use encode::SpatialCode;
pub use tag::Tag;
