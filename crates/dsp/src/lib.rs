//! Signal-processing substrate for the `aircal` workspace.
//!
//! The paper's measurement chains are classic SDR DSP:
//!
//! * the broadcast-TV probe is "bandpass filter the desired ATSC channel,
//!   then apply Parseval's identity by running the magnitude-squared
//!   time-domain samples through a very long moving average" — that chain is
//!   [`power::BandPowerMeter`];
//! * the ADS-B demodulator needs preamble correlation and sample-domain
//!   energy detection ([`corr`], [`power`]);
//! * the 8VSB-like TV synthesis needs PRBS sequences ([`prbs`]) and filters
//!   ([`fir`]).
//!
//! Everything is implemented from scratch on a minimal complex type
//! ([`Cplx`]); no external DSP dependencies.

pub mod corr;
pub mod cplx;
pub mod fft;
pub mod fir;
pub mod normal;
pub mod par;
pub mod power;
pub mod prbs;
pub mod psd;
pub mod scratch;
pub mod simd;
pub mod window;

pub use cplx::Cplx;
pub use fft::{fft, fft_in_place, Direction, FftPlanner};
pub use fir::{FastFirFilter, FirFilter};
pub use par::{derive_stream_seed, par_map, par_map_with, resolve_parallelism};
pub use power::{db_to_lin, lin_to_db, BandPowerMeter, MovingAverage};
pub use prbs::Lfsr;
pub use scratch::DspScratch;
pub use simd::{dispatch_label, kernels, Kernels};

/// Errors produced by DSP routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DspError {
    /// FFT length was not a power of two.
    NotPowerOfTwo(usize),
    /// A filter or buffer was configured with an invalid length.
    EmptyDesign,
    /// Parameter out of the valid domain (message explains which).
    InvalidParameter(&'static str),
}

impl core::fmt::Display for DspError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DspError::NotPowerOfTwo(n) => write!(f, "FFT length {n} is not a power of two"),
            DspError::EmptyDesign => write!(f, "filter design produced no taps"),
            DspError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for DspError {}
