//! Mode S / ADS-B (1090 MHz extended squitter): frames, CPR positions,
//! CRC-24, PPM modulation and a dump1090-style decoder.
//!
//! The paper receives ADS-B with the `dump1090` program; this crate is the
//! equivalent implementation the simulation decodes with, built from the
//! DO-260B framing rules (via Junzi Sun's *1090 MHz Riddle*, the paper's
//! ref \[34\]):
//!
//! * **Frames** ([`crc`], [`frame`]): the 112-bit DF17 extended squitter —
//!   `DF(5) CA(3) ICAO(24) ME(56) PI(24)`, PI being CRC-24 parity over the
//!   first 88 bits — and the 56-bit DF11 acquisition squitter every Mode S
//!   transponder emits.
//! * **ME payloads** ([`me`]): airborne position (TC 9–18, CPR-encoded),
//!   surface position (TC 5–8, movement/track fields), airborne velocity
//!   (TC 19 subtype 1), aircraft identification (TC 1–4).
//! * **CPR** ([`cpr`]): the compact position reporting scheme — airborne
//!   and surface grids, global (even/odd pair) and local decoding.
//! * **PHY** ([`ppm`], [`decoder`]): 2 Msps pulse-position modulation, the
//!   16-sample preamble, energy-based bit slicing with per-bit confidence,
//!   and a scanning decoder that finds and decodes bursts in raw IQ.
//!
//! Everything round-trips: `encode → modulate → (channel) → demodulate →
//! decode` is exercised end-to-end by the integration tests and by every
//! simulated survey in `aircal-core`.

pub mod altitude;
pub mod bits;
pub mod cpr;
pub mod crc;
pub mod decoder;
pub mod frame;
pub mod icao;
pub mod me;
pub mod ppm;

pub use cpr::{CprFormat, CprPair};
pub use decoder::{DecodeScratch, DecodedMessage, Decoder, DecoderConfig, PEAK_SEPARATION};
pub use frame::{AdsbFrame, FRAME_BITS, FRAME_BYTES};
pub use icao::IcaoAddress;
pub use me::MePayload;

/// The 1090ES downlink carrier frequency, Hz.
pub const ADSB_FREQ_HZ: f64 = 1.090e9;
/// The UAT alternative frequency (978 MHz), Hz — mentioned by the paper but
/// not modeled beyond the constant.
pub const UAT_FREQ_HZ: f64 = 0.978e9;
/// Native sample rate of the PPM waveform (half-microsecond chips), Hz.
pub const SAMPLE_RATE_HZ: f64 = 2.0e6;

/// Errors produced while decoding ADS-B data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdsbError {
    /// CRC parity check failed (corrupted or truncated frame).
    BadParity,
    /// The downlink format is not 17 (not an extended squitter).
    UnsupportedFormat(u8),
    /// ME payload has an unknown/unsupported type code.
    UnsupportedTypeCode(u8),
    /// A field held an out-of-range value (message explains which).
    InvalidField(&'static str),
    /// Global CPR decode failed (e.g. frames straddle a zone boundary).
    CprDecodeFailed,
}

impl core::fmt::Display for AdsbError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdsbError::BadParity => write!(f, "CRC-24 parity check failed"),
            AdsbError::UnsupportedFormat(df) => write!(f, "unsupported downlink format {df}"),
            AdsbError::UnsupportedTypeCode(tc) => write!(f, "unsupported ME type code {tc}"),
            AdsbError::InvalidField(what) => write!(f, "invalid field: {what}"),
            AdsbError::CprDecodeFailed => write!(f, "global CPR decode failed"),
        }
    }
}

impl std::error::Error for AdsbError {}
