//! Measurement scheduling (§5 "End-to-end system").
//!
//! "An end-to-end system must decide when to perform ADS-B measurements to
//! gain as much information as possible, as flight schedules vary over
//! time." The scheduler models the diurnal air-traffic density and greedily
//! picks capture windows that maximize expected information, with
//! diminishing returns for captures close together in time (the same
//! flights would be re-observed).

use serde::{Deserialize, Serialize};

/// A diurnal traffic-density model: expected aircraft within the survey
/// disc as a function of local hour.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficDensityModel {
    /// Density multiplier per hour of day, 24 entries (index = hour).
    pub hourly: [f64; 24],
    /// Peak aircraft count within the disc.
    pub peak_count: f64,
}

impl Default for TrafficDensityModel {
    /// A typical continental-US diurnal curve: near-dead 02:00–05:00,
    /// morning and evening bank peaks.
    fn default() -> Self {
        let hourly = [
            0.25, 0.15, 0.08, 0.06, 0.08, 0.20, 0.45, 0.75, 0.90, 0.95, 0.90, 0.85, 0.85, 0.90,
            0.95, 1.00, 0.95, 0.90, 0.85, 0.75, 0.60, 0.50, 0.40, 0.30,
        ];
        Self {
            hourly,
            peak_count: 70.0,
        }
    }
}

impl TrafficDensityModel {
    /// Expected aircraft in the disc at a time (hours since local
    /// midnight; fractional hours interpolate linearly).
    pub fn expected_aircraft(&self, hour: f64) -> f64 {
        let h = hour.rem_euclid(24.0);
        let i = h.floor() as usize % 24;
        let j = (i + 1) % 24;
        let frac = h - h.floor();
        self.peak_count * (self.hourly[i] * (1.0 - frac) + self.hourly[j] * frac)
    }
}

/// A planned capture window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedCapture {
    /// Start time, hours since local midnight.
    pub start_hour: f64,
    /// Expected aircraft during the capture.
    pub expected_aircraft: f64,
    /// Marginal information value assigned by the planner.
    pub marginal_value: f64,
}

/// Greedy capture planner.
#[derive(Debug, Clone)]
pub struct MeasurementScheduler {
    /// Traffic model.
    pub density: TrafficDensityModel,
    /// Candidate grid resolution, hours.
    pub grid_hours: f64,
    /// Correlation time: captures closer than this see mostly the same
    /// flights, hours.
    pub decorrelation_hours: f64,
}

impl Default for MeasurementScheduler {
    fn default() -> Self {
        Self {
            density: TrafficDensityModel::default(),
            grid_hours: 0.5,
            decorrelation_hours: 2.0,
        }
    }
}

impl MeasurementScheduler {
    /// Plan `n` capture windows within a 24 h horizon, maximizing total
    /// discounted information. The value of a candidate is its expected
    /// aircraft count times a penalty `min(Δt/decorrelation, 1)` to its
    /// nearest already-planned capture.
    pub fn plan(&self, n: usize) -> Vec<PlannedCapture> {
        let mut chosen: Vec<PlannedCapture> = Vec::new();
        let steps = (24.0 / self.grid_hours).round() as usize;
        for _ in 0..n {
            let mut best: Option<PlannedCapture> = None;
            for k in 0..steps {
                let hour = k as f64 * self.grid_hours;
                if chosen.iter().any(|c| (c.start_hour - hour).abs() < 1e-9) {
                    continue;
                }
                let expected = self.density.expected_aircraft(hour);
                let penalty = chosen
                    .iter()
                    .map(|c| {
                        let dt = circular_hour_gap(c.start_hour, hour);
                        (dt / self.decorrelation_hours).min(1.0)
                    })
                    .fold(1.0, f64::min);
                let value = expected * penalty;
                if best.map(|b| value > b.marginal_value).unwrap_or(true) {
                    best = Some(PlannedCapture {
                        start_hour: hour,
                        expected_aircraft: expected,
                        marginal_value: value,
                    });
                }
            }
            match best {
                Some(b) => chosen.push(b),
                None => break,
            }
        }
        chosen.sort_by(|a, b| a.start_hour.partial_cmp(&b.start_hour).unwrap());
        chosen
    }
}

/// Gap between two hours on the 24 h circle.
fn circular_hour_gap(a: f64, b: f64) -> f64 {
    let d = (a - b).abs() % 24.0;
    d.min(24.0 - d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_peaks_in_afternoon_dies_at_night() {
        let m = TrafficDensityModel::default();
        assert!(m.expected_aircraft(15.0) > m.expected_aircraft(3.0) * 8.0);
        assert!((m.expected_aircraft(15.0) - 70.0).abs() < 1.0);
    }

    #[test]
    fn density_interpolates_and_wraps() {
        let m = TrafficDensityModel::default();
        let a = m.expected_aircraft(6.0);
        let b = m.expected_aircraft(7.0);
        let mid = m.expected_aircraft(6.5);
        assert!((mid - (a + b) / 2.0).abs() < 1e-9);
        assert_eq!(m.expected_aircraft(0.0), m.expected_aircraft(24.0));
        assert_eq!(m.expected_aircraft(-1.0), m.expected_aircraft(23.0));
    }

    #[test]
    fn first_pick_is_the_peak() {
        let s = MeasurementScheduler::default();
        let plan = s.plan(1);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].start_hour, 15.0);
    }

    #[test]
    fn picks_spread_across_the_day() {
        let s = MeasurementScheduler::default();
        let plan = s.plan(4);
        assert_eq!(plan.len(), 4);
        for w in plan.windows(2) {
            assert!(
                circular_hour_gap(w[0].start_hour, w[1].start_hour) >= s.decorrelation_hours * 0.5,
                "captures too close: {} and {}",
                w[0].start_hour,
                w[1].start_hour
            );
        }
    }

    #[test]
    fn avoids_dead_of_night_until_forced() {
        let s = MeasurementScheduler::default();
        let plan = s.plan(6);
        // With 6 picks and a 2 h decorrelation there is still no reason to
        // measure at 03:00 (density 0.06).
        assert!(plan
            .iter()
            .all(|c| c.start_hour < 2.0 || c.start_hour > 5.0));
    }

    #[test]
    fn plan_is_deterministic_and_sorted() {
        let s = MeasurementScheduler::default();
        let a = s.plan(5);
        let b = s.plan(5);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].start_hour < w[1].start_hour);
        }
    }

    #[test]
    fn more_picks_than_grid_slots_saturates() {
        let s = MeasurementScheduler {
            grid_hours: 8.0,
            ..Default::default()
        };
        let plan = s.plan(10);
        assert_eq!(plan.len(), 3); // only 3 grid slots exist
    }
}
