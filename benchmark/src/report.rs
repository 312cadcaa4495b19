//! What one run prints: timing statistics, the run record, and the final
//! result line the benchmark contract reads.

use std::fmt::Write as _;

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted and operations that failed, in the
    /// workload's own unit (calibrations, audit steps, sim events).
    pub attempted: u64,
    pub failed: u64,
    /// Measured values by metric name; units come from the metric lists
    /// in `main`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Context printed on the run-record line (not metrics).
    pub record: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.record.push((key, value.to_string()));
    }
}

/// Median of `xs` (the mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest percentile that still has at least ten samples above it,
/// as `(value, percentile, samples)`. Below twenty samples that
/// percentile would not even reach the median, so the maximum (p100) is
/// returned instead.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 100.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n < 20 {
        return (v[n - 1], 100.0, n);
    }
    // The (n-10)-th smallest value: exactly ten samples lie above it.
    let k = n - 10;
    (v[k - 1], 100.0 * k as f64 / n as f64, n)
}

/// Peak resident set of this process, MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (a ratio over an empty layer) print as 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The run-record line: workload, seed, host and build context.
pub fn record_line(record: &[(&'static str, String)]) -> String {
    let fields: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{\"run_record\": {{{}}}}}", fields.join(", "))
}

/// The final result line: `correct`, `attempted`, `failed`, and each
/// `(name, value, unit)` metric in order.
pub fn result_line(o: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_above() {
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        let (v, p, n) = tail(&xs);
        assert_eq!(n, 50);
        assert_eq!(v, 40.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 80.0).abs() < 1e-12);
        // Too few samples for a percentile above the median: the maximum.
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0, 3));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), (19.0, 100.0, 19));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 7,
            ..Outcome::default()
        };
        let line = result_line(
            &o,
            &[("ops_per_s", 4.25, "1/s"), ("ratio", f64::NAN, "ratio")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 4.25, \"unit\": \"1/s\"}, \
             \"ratio\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
