//! # ros-scene — roadside scene simulator for RoS
//!
//! Everything around the tag: the clutter objects of Fig. 11/13
//! (tripod, parking meter, street lamp, road sign, pedestrian, tree),
//! vehicle trajectories, self-tracking error injection (Fig. 16d), and
//! weather (Fig. 16c).
//!
//! The crate defines the [`Reflector`] trait — "given the radar
//! position and Tx/Rx polarizations, what echoes do you produce?" —
//! implemented here for clutter objects and in `ros-core` for the tag
//! itself (which needs the antenna physics).

pub mod objects;
pub mod reflector;
pub mod scenario;
pub mod tracking;
pub mod trajectory;
pub mod weather;

pub use objects::{ClutterObject, ObjectClass};
pub use reflector::{EchoContext, Reflector};
pub use scenario::ScenePreset;
pub use tracking::TrackingError;
pub use trajectory::Trajectory;
pub use weather::FogLevel;
