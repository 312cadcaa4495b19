//! `aircal-core`: automatic calibration of crowd-sourced spectrum sensors
//! via signals of opportunity — the primary contribution of *"Automatic
//! Calibration in Crowd-sourced Network of Spectrum Sensors"* (HotNets '23).
//!
//! The library answers two questions about a sensor node, without touching
//! it and without any cooperating transmitter:
//!
//! 1. **Where can it hear?** ([`survey`], [`fov`]) — run a 30 s ADS-B
//!    capture, match decoded ICAO addresses against a flight-tracking
//!    ground truth, and estimate the angular field of view from which
//!    aircraft were (not) received.
//! 2. **At which frequencies?** ([`freqprofile`]) — measure known cellular
//!    and broadcast-TV sources across the claimed band and compare against
//!    the unobstructed expectation.
//!
//! On top of those sit the paper's §3.2/§5 derived capabilities:
//! indoor/outdoor classification ([`classifier`]), trust scoring and
//! fabrication detection ([`trust`]), measurement scheduling
//! ([`scheduler`]), whole-fleet auditing ([`fleet`]), and serializable
//! reports ([`report`]).
//!
//! # Quickstart
//!
//! ```
//! use aircal_core::engine::Calibrator;
//! use aircal_env::{Scenario, ScenarioKind};
//!
//! let scenario = Scenario::build(ScenarioKind::Rooftop);
//! let report = Calibrator::quick().calibrate(&scenario.world, &scenario.site, 42);
//! assert!(report.fov.estimated.width_deg > 0.0);
//! ```

pub mod classifier;
pub mod engine;
pub mod fleet;
pub mod fov;
pub mod freqprofile;
pub mod repeat;
pub mod report;
pub mod robust;
pub mod scheduler;
pub mod survey;
pub mod trust;
pub mod wal;

pub use engine::Calibrator;
pub use fov::{FovEstimate, FovEstimator};
pub use report::CalibrationReport;
pub use survey::{run_survey, SurveyConfig, SurveyPoint, SurveyResult};
pub use wal::{Journal, OpenReport, WalError, WalRecord};
