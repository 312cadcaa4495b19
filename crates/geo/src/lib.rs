//! Geodesy and planar-geometry primitives for the `aircal` workspace.
//!
//! Everything in the simulation ultimately reduces to geometry: where an
//! aircraft is relative to a sensor, which bearing a cellular tower sits at,
//! whether the straight-line path from an emitter to a receiver crosses a
//! building footprint. This crate provides those primitives:
//!
//! * [`LatLon`] — WGS-84 latitude/longitude with spherical-earth distance,
//!   bearing and destination-point math (sufficient for the ≤100 km ranges
//!   the paper works at; errors vs. full ellipsoidal geodesics are <0.5%).
//! * [`Enu`] — a local east-north-up frame anchored at a sensor site, used
//!   for metric geometry (building footprints, ray casting).
//! * [`angle`] — bearing/angle arithmetic on the circle, plus [`angle::Sector`]
//!   for describing angular fields of view.
//! * [`polygon`] — planar polygons, segment intersection and ray casting,
//!   used by the environment model for obstruction tests.
//!
//! All angles at API boundaries are in **degrees** (like aviation and RF
//! practice); radians appear only inside computations. Distances are in
//! **meters** unless a name says otherwise.

pub mod aabb;
pub mod angle;
pub mod coord;
pub mod polygon;

pub use aabb::Aabb2;
pub use angle::{normalize_bearing, normalize_signed, Sector};
pub use coord::{Course, Ecef, Enu, EnuFrame, LatLon, Look, Observer, EARTH_RADIUS_M};
pub use polygon::{Point2, Polygon2, Segment2};
