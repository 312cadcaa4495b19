//! Air-traffic simulation: flights, transponder schedules, and a
//! FlightRadar24-style ground-truth service.
//!
//! The paper's directional survey needs two things from the sky:
//!
//! 1. **RF emissions** — every airborne aircraft broadcasts position and
//!    velocity extended squitters "at least two times per second"
//!    ([`transponder`]); the sensor under test tries to receive them.
//! 2. **Ground truth** — an independent flight-tracking service
//!    ([`ground_truth`]) reporting all aircraft within a query radius,
//!    with the ~10 s latency the paper measured for FlightRadar24.
//!
//! [`generator`] populates a 100 km disc with a realistic mix of airliners
//! and general-aviation traffic; [`flight`] propagates each along a
//! constant-track great-circle path (fine over the ≤2-minute windows the
//! calibration uses).

pub mod flight;
pub mod generator;
pub mod ground_truth;
pub mod transponder;

pub use flight::{Flight, Trajectory};
pub use generator::{TrafficConfig, TrafficSim};
pub use ground_truth::{GroundTruthAircraft, GroundTruthService};
pub use transponder::{Emission, TransponderSchedule};
