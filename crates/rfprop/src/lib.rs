//! RF propagation models for the `aircal` simulation.
//!
//! The paper's physical testbed is replaced by these standard models; each
//! headline effect in the paper maps onto one of them:
//!
//! * open-sector ADS-B reception out to ~95 km — free-space path loss
//!   ([`pathloss`]) against the link budget ([`linkbudget`]);
//! * blocked sectors losing only *distant* aircraft — knife-edge diffraction
//!   ([`diffraction`]) and building penetration ([`materials`]), which add
//!   tens of dB, an amount close aircraft can absorb but distant ones cannot;
//! * short-range reception "regardless of direction, likely due to a
//!   combination of multipath reflections and penetrating walls" — Rician
//!   fading and wall losses ([`fading`], [`materials`]);
//! * 700 MHz cellular penetrating indoors while 2 GHz does not — the
//!   frequency-dependent material attenuation in [`materials`];
//! * the receiver sensitivity limit that turns weak signals into "missing
//!   bars" — thermal noise and noise figure in [`noise`].
//!
//! Conventions: frequencies in Hz, distances in meters, powers in dBm,
//! losses/gains in dB. All random processes draw from a caller-provided
//! seeded RNG; the models themselves are pure functions.

pub mod antenna;
pub mod diffraction;
pub mod fading;
pub mod linkbudget;
pub mod materials;
pub mod noise;
pub mod pathloss;

pub use antenna::AntennaPattern;
pub use diffraction::knife_edge_loss_db;
pub use fading::{RicianFading, Shadowing};
pub use linkbudget::{LinkBudget, PathProfile};
pub use materials::Material;
pub use noise::{noise_floor_dbm, snr_db};
pub use pathloss::{free_space_path_loss_db, log_distance_path_loss_db};

/// Speed of light in m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Wavelength in meters for a frequency in Hz.
pub fn wavelength_m(freq_hz: f64) -> f64 {
    SPEED_OF_LIGHT / freq_hz
}
