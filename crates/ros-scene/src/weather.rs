//! Weather conditions (Fig. 16c): the `ros-em` fog levels, re-exported
//! for scene and reader configuration.

pub use ros_em::atten::FogLevel;
