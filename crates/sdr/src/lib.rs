//! SDR front-end simulation: the bridge from "received power in dBm" to
//! "IQ samples in full-scale units".
//!
//! The paper's sensor is a BladeRF xA9 at fixed gain. What matters for the
//! calibration pipeline is the front end's *transfer behaviour*:
//!
//! * a full-scale reference (which input power hits 0 dBFS at the
//!   configured gain) — this defines the dBFS axis of Figure 4;
//! * the noise floor (kTB + noise figure over the capture bandwidth) —
//!   this decides which ADS-B bursts decode and which cellular cells sync;
//! * impairments (CFO, DC offset, IQ imbalance, quantization) — small but
//!   present, and useful for robustness testing;
//! * faults ([`faults`]) — the mis-installations the paper wants to catch
//!   automatically: lossy cables, band-limited (deaf) antennas, dead
//!   front ends.
//!
//! IQ is synthesized **per burst** ([`Frontend::render_burst`]): the
//! simulation never materializes 30 s × 2 Msps of mostly-noise samples,
//! only the windows around transmissions plus the noise statistics.

pub mod capture;
pub mod faults;
pub mod frontend;

pub use capture::{BurstPlan, CaptureRenderer, ChipMask, RenderedWindow};
pub use faults::FrontendFault;
pub use frontend::{Frontend, FrontendConfig};
