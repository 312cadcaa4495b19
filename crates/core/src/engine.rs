//! The calibration engine: one call runs the paper's full §3 pipeline.

use crate::classifier::{IndoorOutdoorClassifier, InstallFeatures};
use crate::fov::{FovEstimator, FovMethod};
use crate::freqprofile::FrequencyProfiler;
use crate::report::{CalibrationReport, SurveySummary};
use crate::survey::{run_survey_indexed, SurveyConfig};
use crate::trust::TrustAuditor;
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_cellular::paper_towers;
use aircal_env::{GeoAccel, SensorSite, World};
use aircal_obs::Obs;
use aircal_tv::paper_tv_towers;

/// Orchestrates survey → FoV estimate → frequency profile → classification
/// → trust audit for a node.
#[derive(Debug, Clone)]
pub struct Calibrator {
    /// Directional-survey configuration.
    pub survey: SurveyConfig,
    /// FoV estimation method.
    pub fov_method: FovMethod,
    /// Frequency profiler (cellular + TV).
    pub profiler: FrequencyProfiler,
    /// Indoor/outdoor model.
    pub classifier: IndoorOutdoorClassifier,
    /// Trust auditor.
    pub auditor: TrustAuditor,
    /// Aircraft to simulate in the survey disc.
    pub traffic_count: usize,
    /// Observability handle: counters, gauges and per-stage latency
    /// histograms. Disabled (free) by default; see [`Calibrator::with_obs`].
    pub obs: Obs,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self {
            survey: SurveyConfig::default(),
            fov_method: FovMethod::default_histogram(),
            profiler: FrequencyProfiler::default(),
            classifier: IndoorOutdoorClassifier::default(),
            auditor: TrustAuditor::default(),
            traffic_count: 60,
            obs: Obs::disabled(),
        }
    }
}

impl Calibrator {
    /// A fast preset for tests and examples: 10 s survey, 40 aircraft.
    pub fn quick() -> Self {
        Self {
            survey: SurveyConfig::quick(),
            traffic_count: 40,
            ..Self::default()
        }
    }

    /// Inject a front-end fault into *every* measurement chain (ADS-B,
    /// cellular, TV) — a hardware fault is band-agnostic at the port.
    pub fn with_fault(mut self, fault: aircal_sdr::FrontendFault) -> Self {
        self.survey.fault = fault;
        self.profiler.scanner.config.fault = fault;
        self.profiler.tv_probe.config.fault = fault;
        self
    }

    /// Set the worker-thread count for every parallelizable stage (survey
    /// burst pipeline, TV sweep). `0` = all available cores. Results are
    /// bit-identical for every value.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.survey.parallelism = parallelism;
        self.profiler.tv_probe.config.parallelism = parallelism;
        self
    }

    /// Publish metrics into `obs`: pipeline counters (`survey.*`,
    /// `profile.*`), a `trust.score` gauge, and per-stage latency
    /// histograms (`stage.*`). Observing never changes the report —
    /// results stay bit-identical to an unobserved run.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Calibrate a node. The world's origin anchors the opportunistic
    /// sources (paper tower layouts); `seed` fixes traffic and channel
    /// randomness.
    pub fn calibrate(&self, world: &World, site: &SensorSite, seed: u64) -> CalibrationReport {
        let _span = aircal_obs::span!("calibrate");
        // One spatial index + path memo serves every stage below; building
        // it is O(buildings) and the accelerated paths are bit-identical
        // to brute force, so the report cannot change.
        let mut geo = self.obs.time("stage.geo_index", || world.accel());
        // Traffic + directional survey (§3.1).
        let traffic = self.obs.time("stage.traffic", || {
            TrafficSim::generate(
                TrafficConfig {
                    count: self.traffic_count,
                    ..TrafficConfig::paper_default(site.position)
                },
                seed,
            )
        });
        let survey = self.obs.time("stage.survey", || {
            run_survey_indexed(world, &geo.index, site, &traffic, &self.survey, seed)
        });
        publish_survey_metrics(&self.obs, &survey);

        // Field of view.
        let fov = self.obs.time("stage.fov", || {
            FovEstimator::new(self.fov_method).estimate(&survey.points)
        });

        // Frequency response (§3.2).
        let cells = paper_towers(&world.origin);
        let tv = paper_tv_towers(&world.origin);
        let frequency = self.obs.time("stage.profile", || {
            self.profiler
                .profile_with_geo(world, &mut geo, site, &cells, &tv, seed ^ 0xF00D)
        });
        publish_profile_metrics(&self.obs, &frequency);
        publish_geometry_metrics(&self.obs, &mut geo);

        // Derived inferences.
        let features = InstallFeatures::extract(&survey, &fov, &frequency);
        let install = self
            .obs
            .time("stage.classify", || self.classifier.classify(&features));
        let trust = self.obs.time("stage.trust", || {
            self.auditor
                .audit(&survey, &frequency, &traffic, fov.open_fraction())
        });
        self.obs.incr("calibrate.runs", 1);
        self.obs
            .incr("classify.outdoor", u64::from(install.outdoor));
        self.obs.set_gauge("trust.score", trust.score);
        // Record which DSP dispatch arm produced this report's numbers.
        // The arms are bit-identical, so this is purely diagnostic — it
        // lets a fleet operator confirm a node is on its vector path.
        self.obs.incr(aircal_dsp::kernels().counter, 1);

        CalibrationReport {
            site_name: site.name.clone(),
            survey: SurveySummary {
                aircraft_total: survey.points.len(),
                aircraft_observed: survey.points.iter().filter(|p| p.observed).count(),
                messages: survey.total_messages,
                max_observed_range_m: survey.max_observed_range_m(),
            },
            fov,
            frequency,
            features,
            install,
            trust,
        }
    }
}

/// Publish the paper's survey telemetry (decode counts, SNR-gate skips,
/// observation coverage) into `obs`. Also used by the cloud when it
/// judges a commissioned survey reported over the wire.
pub fn publish_survey_metrics(obs: &Obs, survey: &crate::survey::SurveyResult) {
    obs.incr("survey.messages", survey.total_messages as u64);
    obs.incr(
        "survey.unmatched_messages",
        survey.unmatched_messages as u64,
    );
    obs.incr("survey.skipped_low_snr", survey.skipped_low_snr as u64);
    obs.incr(
        "survey.positions_decoded",
        survey.decoded_positions.len() as u64,
    );
    obs.incr("survey.aircraft_total", survey.points.len() as u64);
    obs.incr(
        "survey.aircraft_observed",
        survey.points.iter().filter(|p| p.observed).count() as u64,
    );
}

/// Publish geometry-acceleration telemetry into `obs`: path-memo hit/miss
/// deltas and spatial-index work counters. Draining the deltas here keeps
/// the obs counters monotone even when the same accelerator serves many
/// calibrations.
pub fn publish_geometry_metrics(obs: &Obs, geo: &mut GeoAccel) {
    let (hits, misses) = geo.cache.take_delta();
    obs.incr("geom.path_cache.hits", hits);
    obs.incr("geom.path_cache.misses", misses);
    let stats = geo.scratch.stats.take();
    obs.incr("geom.index.queries", stats.queries);
    obs.incr("geom.index.aabb_tests", stats.aabb_tests);
    obs.incr("geom.index.candidates", stats.candidates);
}

/// Publish frequency-profile telemetry (per-source band counts) into `obs`.
pub fn publish_profile_metrics(obs: &Obs, profile: &crate::freqprofile::FrequencyProfile) {
    use crate::freqprofile::SourceKind;
    obs.incr("profile.bands", profile.bands.len() as u64);
    for (name, kind) in [
        ("profile.cell_bands", SourceKind::Cellular),
        ("profile.tv_bands", SourceKind::BroadcastTv),
    ] {
        obs.incr(
            name,
            profile.bands.iter().filter(|b| b.source == kind).count() as u64,
        );
    }
    obs.incr(
        "profile.missing_sources",
        profile.missing_sources.len() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_env::{Scenario, ScenarioKind};

    #[test]
    fn rooftop_report_end_to_end() {
        let s = Scenario::build(ScenarioKind::Rooftop);
        let r = Calibrator::quick().calibrate(&s.world, &s.site, 42);
        // FoV roughly west.
        assert!(
            r.fov.iou(&s.expected_fov) > 0.4,
            "rooftop FoV IoU {} (estimated {:?})",
            r.fov.iou(&s.expected_fov),
            r.fov.estimated
        );
        // All bands measurable; classified outdoor; trustworthy.
        assert_eq!(r.frequency.usable_fraction(), 1.0);
        assert!(
            r.install.outdoor,
            "p_outdoor {}",
            r.install.probability_outdoor
        );
        assert!(r.trust.score > 60.0, "trust {}", r.trust.score);
    }

    #[test]
    fn indoor_report_end_to_end() {
        let s = Scenario::build(ScenarioKind::Indoor);
        let r = Calibrator::quick().calibrate(&s.world, &s.site, 43);
        assert!(r.fov.estimated.width_deg < 90.0, "{:?}", r.fov.estimated);
        assert!(
            !r.install.outdoor,
            "p_outdoor {}",
            r.install.probability_outdoor
        );
        assert!(r.frequency.usable_fraction() < 1.0);
        assert!(r.survey.max_observed_range_m < 35_000.0);
    }

    #[test]
    fn window_report_narrow_fov_indoor() {
        let s = Scenario::build(ScenarioKind::BehindWindow);
        let r = Calibrator::quick().calibrate(&s.world, &s.site, 44);
        // Narrow aperture: open fraction well below half.
        assert!(
            r.fov.open_fraction() < 0.5,
            "open {}",
            r.fov.open_fraction()
        );
        assert!(!r.install.outdoor);
        // The aperture supports long-range reception.
        assert!(r.survey.max_observed_range_m > 40_000.0);
    }

    /// The engine publishes geometry-acceleration counters, and observing
    /// them never changes the report.
    #[test]
    fn geometry_metrics_published() {
        let s = Scenario::build(ScenarioKind::Rooftop);
        let obs = Obs::recording();
        let observed = Calibrator::quick()
            .with_obs(obs.clone())
            .calibrate(&s.world, &s.site, 42);
        let silent = Calibrator::quick().calibrate(&s.world, &s.site, 42);
        assert_eq!(observed.to_json(), silent.to_json());
        assert!(obs.counter("geom.index.queries") > 0);
        // 5 cell towers + 6 TV stations, each profiled exactly once.
        assert_eq!(obs.counter("geom.path_cache.misses"), 11);
        assert_eq!(obs.counter("geom.path_cache.hits"), 0);
    }

    #[test]
    fn report_headline_and_json() {
        let s = Scenario::build(ScenarioKind::OpenField);
        let r = Calibrator::quick().calibrate(&s.world, &s.site, 45);
        assert!(r.headline().contains("open-field"));
        let back = CalibrationReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.site_name, "open-field");
    }
}
