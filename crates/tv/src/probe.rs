//! The paper's GNU-Radio-style band-power probe, end to end through IQ.
//!
//! For each channel: tune the simulated front end to the channel center at
//! fixed gain, synthesize the 8VSB signal as received through the
//! environment's path profile, and push the IQ through
//! [`aircal_dsp::BandPowerMeter`] (bandpass → |x|² → very long moving
//! average). The result is dBFS — the y-axis of Figure 4.
//!
//! The reading is the average at the capture's last sample, so each
//! capture is exactly what the meter reads: the filter warm-up plus the
//! averaging window ([`TvProbeConfig::capture_len`]).

use crate::synth::synthesize_8vsb_shared;
use crate::towers::TvTower;
use crate::OCCUPIED_BANDWIDTH_HZ;
use aircal_dsp::{BandPowerMeter, Cplx};
use aircal_env::{GeoAccel, SensorSite, World};
use aircal_rfprop::{LinkBudget, PathProfile};
use aircal_sdr::{Frontend, FrontendConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Probe configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TvProbeConfig {
    /// Capture sample rate, Hz (one channel per capture).
    pub sample_rate_hz: f64,
    /// Bandpass filter taps.
    pub filter_taps: usize,
    /// Moving-average length ("very long" per the paper).
    pub average_len: usize,
    /// Full-scale reference of the fixed-gain front end, dBm.
    pub full_scale_dbm: f64,
    /// Worker threads for the channel sweep (`0` = all cores). Each
    /// channel is seeded independently, so results are identical for
    /// every value.
    pub parallelism: usize,
    /// Front-end fault at the sensor.
    pub fault: aircal_sdr::FrontendFault,
}

impl Default for TvProbeConfig {
    fn default() -> Self {
        Self {
            sample_rate_hz: 8e6,
            filter_taps: 129,
            average_len: 16_384,
            full_scale_dbm: -25.0,
            parallelism: 0,
            fault: aircal_sdr::FrontendFault::None,
        }
    }
}

impl TvProbeConfig {
    /// Capture length in samples: the meter's filter warm-up (one filter
    /// length of outputs, discarded) plus its averaging window. The
    /// reading is the average at the capture's last sample, so a longer
    /// capture would only synthesise and filter samples that are pushed
    /// out of the window before they are read, and a shorter one would
    /// average fewer than `average_len` powers.
    pub fn capture_len(&self) -> usize {
        self.filter_taps + self.average_len
    }
}

/// One channel measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TvMeasurement {
    /// Station name.
    pub station: String,
    /// RF channel number.
    pub rf_channel: u8,
    /// Channel center, Hz.
    pub center_hz: f64,
    /// Band power through the full DSP chain, dBFS.
    pub power_dbfs: f64,
    /// Analytic prediction (received power − full scale), dBFS — used to
    /// validate the DSP chain; a real receiver doesn't have this.
    pub predicted_dbfs: f64,
    /// Deterministic obstruction on the path, dB (diagnostic).
    pub obstruction_db: f64,
}

/// Reusable working memory for [`TvPowerProbe::measure_with_path`]: the
/// band-power meter (filter design + FFT plan, reset bit-identically
/// between channels) and the rendered IQ buffer. One instance per worker;
/// a scratch is tied to the probe config that first used it.
#[derive(Debug, Default)]
pub struct TvScratch {
    meter: Option<BandPowerMeter>,
    iq: Vec<Cplx>,
}

/// The probe.
#[derive(Debug, Clone, Default)]
pub struct TvPowerProbe {
    /// Configuration.
    pub config: TvProbeConfig,
}

impl TvPowerProbe {
    /// Create a probe.
    pub fn new(config: TvProbeConfig) -> Self {
        Self { config }
    }

    /// The unit-power 8VSB capture waveform the probe measures against.
    /// It is deterministic and channel-independent, so it is synthesized
    /// once per process (see [`synthesize_8vsb_shared`]) and shared
    /// read-only across sweeps and workers.
    pub fn reference_waveform(&self) -> Arc<[Cplx]> {
        synthesize_8vsb_shared(self.config.capture_len(), self.config.sample_rate_hz)
    }

    /// The link budget from `tower` to the antenna at `site`, and the front
    /// end tuned to the tower's channel at fixed gain.
    fn channel_link(&self, site: &SensorSite, tower: &TvTower) -> (LinkBudget, Frontend) {
        let cfg = &self.config;
        let bearing = site.position.bearing_deg(&tower.position);
        let elevation = site.position.elevation_deg(&tower.position);
        let rx_gain = site.antenna.gain_dbi(bearing, elevation);
        let budget = LinkBudget::new(tower.erp_dbm, 0.0, rx_gain);

        let mut fe_cfg = FrontendConfig::bladerf_xa9(tower.channel.center_hz(), cfg.sample_rate_hz);
        fe_cfg.full_scale_dbm = cfg.full_scale_dbm;
        fe_cfg.noise_figure_db = site.noise_figure_db;
        fe_cfg.fault = cfg.fault;
        (budget, Frontend::new(fe_cfg))
    }

    /// The band-power meter of this configuration: bandpass over the
    /// channel at the capture center, then the averaging window.
    fn meter(&self) -> BandPowerMeter {
        let cfg = &self.config;
        BandPowerMeter::new(
            0.0,
            OCCUPIED_BANDWIDTH_HZ,
            cfg.sample_rate_hz,
            cfg.filter_taps,
            cfg.average_len,
        )
        .expect("probe configuration valid")
    }

    /// Measure one station over its propagation `path`, with a shared
    /// pre-synthesized waveform (see [`TvPowerProbe::reference_waveform`])
    /// and caller-owned working memory. Once the scratch's meter and IQ
    /// buffer are warm, repeated measurements are allocation-free apart
    /// from the station-name string in the result.
    pub fn measure_with_path(
        &self,
        path: &PathProfile,
        site: &SensorSite,
        tower: &TvTower,
        seed: u64,
        waveform: &[Cplx],
        scratch: &mut TvScratch,
    ) -> TvMeasurement {
        let _span = aircal_obs::span!("tv_channel");
        let (budget, fe) = self.channel_link(site, tower);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ tower.channel.number() as u64);
        // Slow fading/shadowing: one draw for the whole capture (the
        // channel is static over milliseconds).
        let rx_dbm = budget.sample_rx_dbm(path, &mut rng);

        // Same math as `Frontend::render_burst`, into the reused buffer.
        fe.scale_and_impair_into(waveform, rx_dbm, 0.4, 0, &mut scratch.iq);
        fe.finalize(&mut scratch.iq, &mut rng);

        // The paper's measurement chain; the meter (filter design + FFT
        // plan) is built once per scratch and reset bit-identically.
        let meter = scratch.meter.get_or_insert_with(|| self.meter());
        meter.reset();
        let power_dbfs = meter
            .measure_dbfs(&scratch.iq)
            .expect("capture longer than filter warm-up");

        TvMeasurement {
            station: tower.name.clone(),
            rf_channel: tower.channel.number(),
            center_hz: tower.channel.center_hz(),
            power_dbfs,
            predicted_dbfs: fe.effective_power_dbm(rx_dbm) - self.config.full_scale_dbm,
            obstruction_db: path.diffraction_db + path.penetration_db,
        }
    }

    /// Measure every station (one retune per channel, like the paper's
    /// sweep). Channels fan out over `config.parallelism` workers; each
    /// channel's RNG is already independent (`seed ^ channel`), so the
    /// sweep is identical for any thread count.
    pub fn sweep(
        &self,
        world: &World,
        site: &SensorSite,
        towers: &[TvTower],
        seed: u64,
    ) -> Vec<TvMeasurement> {
        let mut accel = world.accel();
        self.sweep_with_geo(world, &mut accel, site, towers, seed)
    }

    /// [`TvPowerProbe::sweep`] with a caller-owned [`GeoAccel`]: a
    /// long-lived holder (network node, calibration engine) amortizes the
    /// index build and serves repeat sweeps of the static towers from the
    /// propagation memo. Bit-identical to `sweep` for an accelerator
    /// built from `world`.
    pub fn sweep_with_geo(
        &self,
        world: &World,
        accel: &mut GeoAccel,
        site: &SensorSite,
        towers: &[TvTower],
        seed: u64,
    ) -> Vec<TvMeasurement> {
        let _span = aircal_obs::span!("tv_sweep");
        let threads = aircal_dsp::resolve_parallelism(self.config.parallelism);
        // Towers are static emitters: resolve every path serially through
        // the index + memo (all hits after the first sweep), then fan the
        // PHY chain out across workers.
        let paths: Vec<PathProfile> = towers
            .iter()
            .map(|t| accel.profile(world, site, &t.position, t.channel.center_hz()))
            .collect();
        // The 8VSB reference is channel-independent and memoised: share
        // it read-only; each worker reuses its own meter + IQ buffer.
        let waveform = self.reference_waveform();
        let mut scratches: Vec<TvScratch> =
            (0..threads.max(1)).map(|_| TvScratch::default()).collect();
        let (mut slots, mut out) = (Vec::new(), Vec::new());
        aircal_dsp::par_map_with(
            towers,
            threads,
            &mut scratches,
            &mut slots,
            &mut out,
            |i, t, scratch| self.measure_with_path(&paths[i], site, t, seed, &waveform, scratch),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize_8vsb;
    use crate::towers::paper_tv_towers;
    use aircal_env::{all_scenarios, paper_scenarios, Scenario, ScenarioKind};

    fn sweep(s: &Scenario) -> Vec<TvMeasurement> {
        let towers = paper_tv_towers(&s.world.origin);
        TvPowerProbe::default().sweep(&s.world, &s.site, &towers, 1)
    }

    /// The DSP chain agrees with the analytic link budget to ~1 dB in
    /// every world, wherever the signal is well above the noise floor.
    #[test]
    fn dsp_chain_matches_link_budget() {
        for s in all_scenarios() {
            for m in sweep(&s) {
                if m.predicted_dbfs > -50.0 {
                    assert!(
                        (m.power_dbfs - m.predicted_dbfs).abs() < 1.5,
                        "{} at {}: measured {} vs predicted {}",
                        m.station,
                        s.site.name,
                        m.power_dbfs,
                        m.predicted_dbfs
                    );
                }
            }
        }
    }

    /// The capture is the meter's warm-up plus its window: no sample the
    /// probe renders is pushed out of the average before the reading (a
    /// meter with twice the window reads the same bits), and
    /// `meter_reads_exactly_its_window` in `aircal-dsp` shows the window
    /// is full on the last sample.
    #[test]
    fn capture_is_warm_up_plus_window() {
        let probe = TvPowerProbe::default();
        let cfg = probe.config;
        assert_eq!(cfg.capture_len(), cfg.filter_taps + cfg.average_len);
        let wave = probe.reference_waveform();
        assert_eq!(wave.len(), cfg.capture_len());
        let reading = probe.meter().measure_dbfs(&wave).unwrap();
        let wide = TvPowerProbe::new(TvProbeConfig {
            average_len: 2 * cfg.average_len,
            ..cfg
        })
        .meter()
        .measure_dbfs(&wave)
        .unwrap();
        assert_eq!(reading.to_bits(), wide.to_bits());
    }

    /// Cutting the capture to warm-up plus window moves no reading by more
    /// than 0.1 dB against a 40 000-sample capture of the same channel
    /// (same link draw, front end and meter; the window then averages
    /// later samples of the waveform and other noise).
    #[test]
    fn reading_matches_a_long_capture() {
        let long_wave = synthesize_8vsb(40_000, TvProbeConfig::default().sample_rate_hz);
        for s in paper_scenarios() {
            let towers = paper_tv_towers(&s.world.origin);
            let probe = TvPowerProbe::default();
            for seed in [1u64, 2, 3] {
                for (m, t) in probe
                    .sweep(&s.world, &s.site, &towers, seed)
                    .iter()
                    .zip(&towers)
                {
                    let path = s
                        .world
                        .path_profile(&s.site, &t.position, t.channel.center_hz());
                    let (budget, fe) = probe.channel_link(&s.site, t);
                    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ t.channel.number() as u64);
                    let rx_dbm = budget.sample_rx_dbm(&path, &mut rng);
                    let iq = fe.render_burst(&long_wave, rx_dbm, 0.4, &mut rng);
                    let long = probe.meter().measure_dbfs(&iq).unwrap();
                    assert!(
                        (m.power_dbfs - long).abs() <= 0.1,
                        "{} at {} seed {seed}: {} dBFS vs {long} from 40 000 samples",
                        m.station,
                        s.site.name,
                        m.power_dbfs
                    );
                }
            }
        }
    }

    /// Figure 4 shape: every location retains measurable sub-600 MHz
    /// signal ("despite some attenuation at locations ② and ③ they can be
    /// used for sub-600 MHz spectrum measurements").
    #[test]
    fn all_locations_retain_signal() {
        for s in paper_scenarios() {
            for m in sweep(&s) {
                assert!(
                    m.power_dbfs > -60.0,
                    "{} at {}: {} dBFS too weak",
                    m.station,
                    s.site.name,
                    m.power_dbfs
                );
            }
        }
    }

    /// Figure 4's outlier: at 521 MHz the window location measures nearly
    /// as strong as (or stronger than) the rooftop, because the transmitter
    /// sits in the window's field of view.
    #[test]
    fn window_521_outlier() {
        let scenarios = paper_scenarios();
        let roof = sweep(&scenarios[0]);
        let window = sweep(&scenarios[1]);
        let idx = roof.iter().position(|m| m.rf_channel == 22).unwrap();
        assert!(
            window[idx].power_dbfs >= roof[idx].power_dbfs - 3.0,
            "window 521 MHz {} should rival rooftop {}",
            window[idx].power_dbfs,
            roof[idx].power_dbfs
        );
        // And for the *other* channels the window is clearly weaker.
        let other_delta: f64 = roof
            .iter()
            .zip(&window)
            .filter(|(r, _)| r.rf_channel != 22)
            .map(|(r, w)| r.power_dbfs - w.power_dbfs)
            .sum::<f64>()
            / 5.0;
        assert!(other_delta > 5.0, "mean non-outlier delta {other_delta}");
    }

    /// Rooftop ≥ window ≥ indoor on the western (non-outlier) stations.
    #[test]
    fn ordering_on_western_stations() {
        let scenarios = paper_scenarios();
        let roof = sweep(&scenarios[0]);
        let window = sweep(&scenarios[1]);
        let indoor = sweep(&scenarios[2]);
        for i in 0..roof.len() {
            if roof[i].rf_channel == 22 {
                continue;
            }
            assert!(
                roof[i].power_dbfs > indoor[i].power_dbfs,
                "ch {}: roof {} !> indoor {}",
                roof[i].rf_channel,
                roof[i].power_dbfs,
                indoor[i].power_dbfs
            );
            assert!(
                window[i].power_dbfs > indoor[i].power_dbfs - 3.0,
                "ch {}: window {} vs indoor {}",
                roof[i].rf_channel,
                window[i].power_dbfs,
                indoor[i].power_dbfs
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let s = Scenario::build(ScenarioKind::Rooftop);
        let towers = paper_tv_towers(&s.world.origin);
        let a = TvPowerProbe::default().sweep(&s.world, &s.site, &towers, 3);
        let b = TvPowerProbe::default().sweep(&s.world, &s.site, &towers, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let s = Scenario::build(ScenarioKind::Indoor);
        let towers = paper_tv_towers(&s.world.origin);
        let probe_with = |parallelism| {
            TvPowerProbe::new(TvProbeConfig {
                parallelism,
                ..TvProbeConfig::default()
            })
        };
        let serial = probe_with(1).sweep(&s.world, &s.site, &towers, 5);
        for threads in [2usize, 8] {
            assert_eq!(
                serial,
                probe_with(threads).sweep(&s.world, &s.site, &towers, 5)
            );
        }
    }
}
