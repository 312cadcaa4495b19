//! Environment model: buildings, sensor sites, and the geometry →
//! [`aircal_rfprop::PathProfile`] bridge.
//!
//! The paper evaluates three installations of the same sensor around one
//! Berkeley apartment building:
//!
//! 1. **Rooftop** (6th floor) — open field of view to the west, rooftop
//!    structures obscuring the other directions;
//! 2. **Behind a window** (5th floor, facing southeast) — a slim aperture
//!    between neighboring buildings;
//! 3. **Inside the building** (5th floor, ≥8 m from windows) — no field of
//!    view at all.
//!
//! [`scenarios`] reconstructs those worlds; [`World::path_profile`] answers
//! the question every measurement chain asks: *given this emitter and this
//! sensor, what does the path look like?* — by ray-casting through building
//! footprints, comparing ray height against building heights, and choosing
//! the cheaper of over-the-roof diffraction and through-the-walls
//! penetration.

pub mod building;
pub mod index;
pub mod scenarios;
pub mod site;
pub mod world;

pub use building::Building;
pub use index::{GeoAccel, GeoScratch, GeoStats, PathCache, WorldIndex};
pub use scenarios::{all_scenarios, paper_scenarios, Scenario, ScenarioKind};
pub use site::{Enclosure, SensorSite};
pub use world::{SiteView, World};
