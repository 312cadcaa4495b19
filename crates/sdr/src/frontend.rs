//! The front-end model: power ↔ full-scale conversion, noise, impairments.

use crate::faults::FrontendFault;
use aircal_dsp::simd::AdcNoise;
use aircal_dsp::{kernels, Cplx, Kernels};
use aircal_rfprop::noise::noise_floor_dbm;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Samples per [`Frontend::finalize`] chunk: the words of one chunk stay
/// on the stack.
const CHUNK: usize = 64;

/// Static configuration of a simulated SDR front end at a fixed gain.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FrontendConfig {
    /// Tuned center frequency, Hz.
    pub center_freq_hz: f64,
    /// Complex sample rate, Hz (also the modeled noise bandwidth).
    pub sample_rate_hz: f64,
    /// Antenna-port power (dBm) of a CW tone that reaches exactly 0 dBFS
    /// at the configured gain. Fixes the dBFS axis.
    pub full_scale_dbm: f64,
    /// Receiver noise figure, dB.
    pub noise_figure_db: f64,
    /// ADC resolution in bits (BladeRF xA9: 12).
    pub adc_bits: u32,
    /// Residual carrier frequency offset after tuning, Hz.
    pub cfo_hz: f64,
    /// DC offset added to every sample (full-scale units).
    pub dc_offset: f64,
    /// IQ gain imbalance, dB (Q relative to I).
    pub iq_imbalance_db: f64,
    /// Installed fault, if any.
    pub fault: FrontendFault,
}

impl FrontendConfig {
    /// A BladeRF xA9 profile at a fixed gain suitable for the given band —
    /// matching the paper's hardware ("BladeRF xA9 … fixed gain to prevent
    /// measurement differences from automatic gain control").
    pub fn bladerf_xa9(center_freq_hz: f64, sample_rate_hz: f64) -> Self {
        Self {
            center_freq_hz,
            sample_rate_hz,
            full_scale_dbm: -30.0,
            noise_figure_db: 7.0,
            adc_bits: 12,
            cfo_hz: 0.0,
            dc_offset: 0.0,
            iq_imbalance_db: 0.0,
            fault: FrontendFault::None,
        }
    }
}

/// A running front end: converts antenna-port powers into IQ.
#[derive(Debug, Clone)]
pub struct Frontend {
    /// The static configuration.
    pub config: FrontendConfig,
}

impl Frontend {
    /// Create a front end.
    pub fn new(config: FrontendConfig) -> Self {
        Self { config }
    }

    /// Effective received power after the front-end fault, dBm.
    pub fn effective_power_dbm(&self, rx_power_dbm: f64) -> f64 {
        rx_power_dbm - self.config.fault.loss_db(self.config.center_freq_hz)
    }

    /// Full-scale-relative *voltage* amplitude for an antenna-port power in
    /// dBm (after fault loss).
    pub fn amplitude_fs(&self, rx_power_dbm: f64) -> f64 {
        10f64.powf((self.effective_power_dbm(rx_power_dbm) - self.config.full_scale_dbm) / 20.0)
    }

    /// Noise floor power at the antenna port over the capture bandwidth, dBm.
    pub fn noise_floor_dbm(&self) -> f64 {
        noise_floor_dbm(self.config.sample_rate_hz, self.config.noise_figure_db)
    }

    /// Per-component (I or Q) noise standard deviation in full-scale units.
    pub fn noise_sigma_fs(&self) -> f64 {
        let noise_power_fs =
            10f64.powf((self.noise_floor_dbm() - self.config.full_scale_dbm) / 10.0);
        (noise_power_fs / 2.0).sqrt()
    }

    /// Signal-to-noise ratio a burst at `rx_power_dbm` sees, dB.
    pub fn snr_db(&self, rx_power_dbm: f64) -> f64 {
        self.effective_power_dbm(rx_power_dbm) - self.noise_floor_dbm()
    }

    /// Scale a unit-amplitude waveform arriving at `rx_power_dbm` into
    /// full-scale units and apply the deterministic impairments (carrier
    /// phase, CFO ramp, IQ imbalance). No noise, no quantization — used to
    /// superimpose multiple bursts into one window before finalizing.
    /// `sample_offset` positions the CFO phase ramp within the capture.
    pub fn scale_and_impair(
        &self,
        waveform: &[Cplx],
        rx_power_dbm: f64,
        phase0: f64,
        sample_offset: usize,
    ) -> Vec<Cplx> {
        let mut out = Vec::with_capacity(waveform.len());
        self.scale_and_impair_into(waveform, rx_power_dbm, phase0, sample_offset, &mut out);
        out
    }

    /// [`Frontend::scale_and_impair`] into a caller-owned buffer (cleared
    /// first); reusing `out` keeps the per-burst render loop allocation-free.
    pub fn scale_and_impair_into(
        &self,
        waveform: &[Cplx],
        rx_power_dbm: f64,
        phase0: f64,
        sample_offset: usize,
        out: &mut Vec<Cplx>,
    ) {
        let imp = self.impairment(rx_power_dbm, phase0);
        out.clear();
        if imp.dphi == 0.0 {
            // No CFO: every ramp argument `dphi·k` (k ≥ 0) is a zero with
            // the sign of `dphi`, so one phasor serves the whole capture.
            let ramp = imp.ramp(0);
            out.extend(waveform.iter().map(|&s| imp.apply(s, ramp)));
        } else {
            out.extend(
                waveform
                    .iter()
                    .enumerate()
                    .map(|(n, &s)| imp.apply(s, imp.ramp(sample_offset + n))),
            );
        }
    }

    /// The deterministic impairment chain of one burst arriving at
    /// `rx_power_dbm` with carrier phase `phase0`.
    pub(crate) fn impairment(&self, rx_power_dbm: f64, phase0: f64) -> Impairment {
        Impairment {
            amp: self.amplitude_fs(rx_power_dbm),
            dphi: core::f64::consts::TAU * self.config.cfo_hz / self.config.sample_rate_hz,
            q_gain: 10f64.powf(self.config.iq_imbalance_db / 20.0),
            rot0: Cplx::phasor(phase0),
        }
    }

    /// Add thermal noise + DC offset to a signal buffer and quantize it to
    /// the ADC grid, in place — the last stage of every capture.
    ///
    /// Runs in 64-sample chunks: bulk words from
    /// [`ChaCha8Rng::fill_u64`], two per sample on the stack, then the
    /// dispatched [`aircal_dsp::Kernels::noise_quantize`], which maps them
    /// to the uniforms `gen_range(ε..1.0)` and `gen_range(0.0..1.0)` would
    /// give and applies the portable Box–Muller sampler of
    /// [`aircal_dsp::normal`] and a round-half-away quantizer, with the
    /// same bits on every arm.
    pub fn finalize(&self, buffer: &mut [Cplx], rng: &mut ChaCha8Rng) {
        self.finalize_with(kernels(), buffer, rng);
    }

    /// [`Frontend::finalize`] on the given kernel arm, so one process can
    /// time or compare the arms.
    pub fn finalize_with(&self, arm: &Kernels, buffer: &mut [Cplx], rng: &mut ChaCha8Rng) {
        let adc = AdcNoise::new(self.noise_sigma_fs(), self.config.dc_offset, self.levels());
        let mut words = [0u64; 2 * CHUNK];
        for block in buffer.chunks_mut(CHUNK) {
            let words = &mut words[..2 * block.len()];
            rng.fill_u64(words);
            (arm.noise_quantize)(words, &adc, block);
        }
    }

    /// Render a unit-amplitude waveform arriving at `rx_power_dbm` into IQ:
    /// scale to full-scale units, apply CFO/DC/IQ-imbalance, add thermal
    /// noise, and quantize to the ADC grid. `phase0` is the carrier phase
    /// at the first sample.
    pub fn render_burst(
        &self,
        waveform: &[Cplx],
        rx_power_dbm: f64,
        phase0: f64,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Cplx> {
        let mut buf = self.scale_and_impair(waveform, rx_power_dbm, phase0, 0);
        self.finalize(&mut buf, rng);
        buf
    }

    /// ADC steps per unit full scale: `2^(adc_bits − 1)`.
    fn levels(&self) -> f64 {
        (1u64 << self.config.adc_bits) as f64 / 2.0
    }
}

/// Carrier phase, CFO ramp, full-scale amplitude and IQ imbalance for one
/// burst: [`Frontend::scale_and_impair`] sample by sample.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Impairment {
    amp: f64,
    /// CFO phase step per sample, radians.
    pub(crate) dphi: f64,
    q_gain: f64,
    rot0: Cplx,
}

impl Impairment {
    /// The CFO ramp phasor at capture sample `n`.
    pub(crate) fn ramp(&self, n: usize) -> Cplx {
        Cplx::phasor(self.dphi * n as f64)
    }

    /// Waveform sample `s` after the chain, with CFO ramp `ramp`.
    #[inline]
    pub(crate) fn apply(&self, s: Cplx, ramp: Cplx) -> Cplx {
        let mut x = (s * self.rot0 * ramp).scale(self.amp);
        x.im *= self.q_gain;
        x
    }
}

/// Deterministic RNG helper for capture rendering.
pub fn capture_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_dsp::cplx::mean_power;

    fn fe() -> Frontend {
        Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6))
    }

    #[test]
    fn full_scale_reference_power() {
        let f = fe();
        assert!((f.amplitude_fs(-30.0) - 1.0).abs() < 1e-12);
        assert!((f.amplitude_fs(-50.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn noise_floor_matches_first_principles() {
        let f = fe();
        // 2 MHz, NF 7: ≈ −104 dBm.
        assert!((f.noise_floor_dbm() - (-104.0)).abs() < 0.5);
        // −74 dBFS noise → sigma ≈ sqrt(10^-7.4 / 2).
        let expect = (10f64.powf(-7.4) / 2.0).sqrt();
        assert!((f.noise_sigma_fs() - expect).abs() < expect * 0.05);
    }

    #[test]
    fn rendered_noise_has_expected_power() {
        let f = fe();
        let mut rng = capture_rng(1);
        let mut n = vec![Cplx::ZERO; 50_000];
        f.finalize(&mut n, &mut rng);
        let measured = mean_power(&n);
        let expected = 10f64.powf((f.noise_floor_dbm() - f.config.full_scale_dbm) / 10.0);
        assert!(
            (measured / expected - 1.0).abs() < 0.1,
            "measured {measured:e} vs expected {expected:e}"
        );
    }

    #[test]
    fn rendered_burst_preserves_snr() {
        let f = fe();
        let mut rng = capture_rng(2);
        let tone: Vec<Cplx> = vec![Cplx::ONE; 20_000];
        let rx_dbm = -80.0; // SNR ≈ 24 dB
        let burst = f.render_burst(&tone, rx_dbm, 0.3, &mut rng);
        let p = mean_power(&burst);
        let expect = 10f64.powf((rx_dbm - f.config.full_scale_dbm) / 10.0);
        // Within 1 dB (noise adds a little).
        assert!(
            (10.0 * (p / expect).log10()).abs() < 1.0,
            "power off by {} dB",
            10.0 * (p / expect).log10()
        );
    }

    #[test]
    fn fault_reduces_effective_power() {
        let mut cfg = FrontendConfig::bladerf_xa9(1.09e9, 2e6);
        cfg.fault = FrontendFault::CableLoss { db: 10.0 };
        let f = Frontend::new(cfg);
        assert_eq!(f.effective_power_dbm(-70.0), -80.0);
        assert!((f.snr_db(-70.0) - fe().snr_db(-80.0)).abs() < 1e-9);
    }

    #[test]
    fn quantization_grid() {
        let f = fe();
        let mut rng = capture_rng(3);
        let burst = f.render_burst(
            &[Cplx::new(0.123456789, -0.987654321)],
            -31.0,
            0.0,
            &mut rng,
        );
        let levels = 2048.0;
        for s in burst {
            assert!((s.re * levels - (s.re * levels).round()).abs() < 1e-9);
            assert!((s.im * levels - (s.im * levels).round()).abs() < 1e-9);
            assert!(s.re.abs() <= 1.0 && s.im.abs() <= 1.0);
        }
    }

    #[test]
    fn clipping_at_full_scale() {
        let f = fe();
        let mut rng = capture_rng(4);
        // +20 dB above full scale must clip, not explode.
        let burst = f.render_burst(&[Cplx::ONE; 100], -10.0, 0.0, &mut rng);
        assert!(burst.iter().all(|s| s.re.abs() <= 1.0 && s.im.abs() <= 1.0));
    }

    #[test]
    fn cfo_rotates_phase_across_burst() {
        let mut cfg = FrontendConfig::bladerf_xa9(1.09e9, 2e6);
        cfg.cfo_hz = 10_000.0;
        cfg.noise_figure_db = 0.0; // keep it clean for the phase check
        let f = Frontend::new(cfg);
        let mut rng = capture_rng(5);
        let burst = f.render_burst(&[Cplx::ONE; 50], -40.0, 0.0, &mut rng);
        let dphi = (burst[11] * burst[10].conj()).arg();
        let expect = core::f64::consts::TAU * 10_000.0 / 2e6;
        assert!((dphi - expect).abs() < 0.05, "dphi {dphi} vs {expect}");
    }

    /// With a zero CFO of either sign, the hoisted ramp phasor gives the
    /// bits of the per-sample `phasor(dphi·k)`, at any sample offset.
    #[test]
    fn zero_cfo_impair_matches_per_sample_ramp() {
        let wave: Vec<Cplx> = (0..37)
            .map(|i| Cplx::new((0.3 * i as f64).sin(), -(0.7 * i as f64).cos()))
            .chain([Cplx::new(-0.0, 0.0), Cplx::new(0.0, -0.0)])
            .collect();
        for cfo_hz in [0.0, -0.0] {
            let mut cfg = FrontendConfig::bladerf_xa9(1.09e9, 2e6);
            cfg.cfo_hz = cfo_hz;
            cfg.iq_imbalance_db = 0.7;
            let f = Frontend::new(cfg);
            let dphi = core::f64::consts::TAU * cfo_hz / 2e6;
            let (amp, q_gain) = (f.amplitude_fs(-50.0), 10f64.powf(0.7 / 20.0));
            for offset in [0usize, 1, 1_000] {
                let got = f.scale_and_impair(&wave, -50.0, 0.3, offset);
                for (n, (&s, g)) in wave.iter().zip(&got).enumerate() {
                    let ramp = Cplx::phasor(dphi * (offset + n) as f64);
                    let mut want = (s * Cplx::phasor(0.3) * ramp).scale(amp);
                    want.im *= q_gain;
                    assert_eq!(
                        (want.re.to_bits(), want.im.to_bits()),
                        (g.re.to_bits(), g.im.to_bits()),
                        "cfo {cfo_hz:?}, offset {offset}, sample {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let f = fe();
        let a = f.render_burst(&[Cplx::ONE; 64], -80.0, 0.1, &mut capture_rng(9));
        let b = f.render_burst(&[Cplx::ONE; 64], -80.0, 0.1, &mut capture_rng(9));
        assert_eq!(a, b);
    }
}
