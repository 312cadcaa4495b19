//! End-to-end benchmark of the aircal stack.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload calibrate --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `calibrate`, `cloud_audit`, `fleet_campaign`,
//! `fleet_recovery` (see `metadata.json` for why each exists). With
//! `--trace 0` a run prints the end-to-end metrics; with `--trace 1` it
//! prints the per-layer metrics from a separate traced pass. The last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the line before it is the run record.

mod calibrate;
mod cloud_audit;
mod fleet;
mod report;
mod spans;

use report::{median, peak_rss_mib, record_line, result_line, tail, Outcome};
use std::time::Instant;

/// End-to-end metrics and units, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and units, printed by every traced run. A layer the
/// workload never enters reads 0. Times are ms per workload operation
/// (calibration, `audit_all` round); counts are per operation (campaign
/// for the fleet workloads).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("env.geo_index_ms", "ms"),
    ("aircraft.traffic_ms", "ms"),
    ("core.survey_ms", "ms"),
    ("survey.messages", "count"),
    ("survey.skipped_low_snr", "count"),
    ("sdr.render_windows_ms", "ms"),
    ("core.decode_windows_ms", "ms"),
    ("adsb.preamble_scans", "count"),
    ("cellular.scan_ms", "ms"),
    ("tv.sweep_ms", "ms"),
    ("core.fov_ms", "ms"),
    ("core.infer_ms", "ms"),
    ("geom.path_cache.hit_ratio", "ratio"),
    ("geom.index.aabb_tests", "count"),
    ("net.node_service_ms.survey", "ms"),
    ("net.node_service_ms.cells", "ms"),
    ("net.node_service_ms.tv", "ms"),
    ("net.link_call_ms", "ms"),
    ("net.transport_ms", "ms"),
    ("wire.attempts", "count"),
    ("wire.retries", "count"),
    ("net.judge_ms", "ms"),
    ("net.judge_overhead_ms", "ms"),
    ("net.round_commit_ms", "ms"),
    ("audit.anomalies", "count"),
    ("audit.evictions", "count"),
    ("wal.append", "count"),
    ("wal.sync", "count"),
    ("wal.bytes_per_round", "bytes"),
    ("sim.events", "count"),
    ("sim.dispatches", "count"),
    ("sim.delivery_ratio", "ratio"),
    ("sim.task.completed", "count"),
    ("sim.audit.rounds", "count"),
    ("sim.obs_overhead_ratio", "ratio"),
    ("wal.appends", "count"),
    ("wal.syncs", "count"),
    ("wal.replay", "count"),
    ("sim.recoveries", "count"),
    ("sim.dedup.dropped", "count"),
    ("sim.partition.backlogged", "count"),
    ("harness_share", "ratio"),
    ("layer_coverage", "ratio"),
    ("trace_overhead_ratio", "ratio"),
];

pub const WORKLOADS: &[&str] = &[
    "calibrate",
    "cloud_audit",
    "fleet_campaign",
    "fleet_recovery",
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// How many times each run repeats its set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Run `setup` [`SETUP_REPEATS`] times and return the median wall time
/// with the last result. Earlier results are dropped outside the timing.
pub fn setup_median<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("set-up ran"))
}

/// Run `f`, adding its wall time in seconds to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Throughput, median and tail of per-operation wall times, and the
/// set-up time.
pub fn timing_metrics(o: &mut Outcome, ops_per_s: f64, op_secs: &[f64], setup_s: f64, op: &str) {
    let (tail_s, percentile, samples) = tail(op_secs);
    o.metric("ops_per_s", ops_per_s);
    o.metric("op_p50_ms", 1e3 * median(op_secs));
    o.metric("op_tail_ms", 1e3 * tail_s);
    o.metric("setup_s", setup_s);
    o.note("op", op);
    o.note("op_tail_percentile", format!("{percentile:.1}"));
    o.note("op_samples", samples);
    let all: Vec<String> = op_secs.iter().map(|s| format!("{:.1}", 1e3 * s)).collect();
    o.note("op_ms", all.join(" "));
}

fn run(args: &Args) -> Outcome {
    let recovery = args.workload == "fleet_recovery";
    match (args.workload.as_str(), args.trace) {
        ("calibrate", false) => calibrate::run(args),
        ("calibrate", true) => calibrate::run_traced(args),
        ("cloud_audit", false) => cloud_audit::run(args),
        ("cloud_audit", true) => cloud_audit::run_traced(args),
        (_, false) => fleet::run_workload(args, recovery),
        (_, true) => fleet::run_traced(args, recovery),
    }
}

/// Pair each listed metric with its measured value (0 for a layer the
/// workload never entered). A value under an unlisted name is a bug.
fn listed(
    o: &Outcome,
    list: &[(&'static str, &'static str)],
) -> Vec<(&'static str, f64, &'static str)> {
    for (name, _) in &o.metrics {
        assert!(
            list.iter().any(|(n, _)| n == name),
            "metric {name} is not in the benchmark's metric list"
        );
    }
    list.iter()
        .map(|&(name, unit)| {
            let value = o
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |m| m.1);
            (name, value, unit)
        })
        .collect()
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aircal-e2e-bench: {e}");
            eprintln!(
                "usage: aircal-e2e-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut o = run(&args);
    let metrics = if args.trace {
        listed(&o, PER_LAYER)
    } else {
        o.metric("peak_rss_mb", peak_rss_mib());
        listed(&o, END_TO_END)
    };
    let mut record = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", aircal::dsp::resolve_parallelism(0).to_string()),
        ("simd", aircal::dsp::dispatch_label().to_string()),
        (
            "force_scalar",
            std::env::var("AIRCAL_FORCE_SCALAR").unwrap_or_default(),
        ),
        ("parallelism", "1".to_string()),
    ];
    record.append(&mut o.record);
    println!("{}", record_line(&record));
    println!("{}", result_line(&o, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "cloud_audit",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("cloud_audit", 7, 12.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "calibrate", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "calibrate", "--seconds"]).is_err());
    }

    fn json(path: &str) -> serde::Value {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
        let text = std::fs::read_to_string(&path).expect("benchmark description exists");
        serde_json::from_str(&text).expect("benchmark description is JSON")
    }

    fn text(v: Option<&serde::Value>) -> String {
        match v {
            Some(serde::Value::Str(s)) => s.clone(),
            other => panic!("expected a string, found {other:?}"),
        }
    }

    fn keys(v: Option<&serde::Value>) -> Vec<String> {
        let entries = v.and_then(|v| v.as_object()).expect("an object");
        entries.iter().map(|(k, _)| k.clone()).collect()
    }

    fn names(list: &[(&str, &str)]) -> Vec<String> {
        list.iter().map(|(n, _)| n.to_string()).collect()
    }

    /// `BENCHMARK.json`, `metadata.json` and the lists in this file name
    /// the same workloads and metrics, with the same units and reasons.
    #[test]
    fn metric_lists_match_benchmark_json_and_metadata() {
        let bench = json("../BENCHMARK.json");
        let meta = json("metadata.json");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = bench
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric array")
                .iter()
                .map(|m| (text(m.get("name")), text(m.get("unit"))))
                .collect();
            let listed: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, listed, "{key}");
            assert_eq!(keys(meta.get(key)), names(list), "metadata {key}");
        }
        let workloads = bench
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads");
        let declared: Vec<String> = workloads.iter().map(|w| text(w.get("name"))).collect();
        assert_eq!(declared, WORKLOADS);
        assert_eq!(keys(meta.get("workloads")), WORKLOADS);
        for w in workloads {
            let name = text(w.get("name"));
            let why = meta
                .get("workloads")
                .and_then(|m| m.get(&name))
                .and_then(|m| m.get("why"));
            assert_eq!(text(w.get("why")), text(why), "{name}");
        }
        let per_layer = meta
            .get("per_layer")
            .and_then(|v| v.as_object())
            .expect("per_layer");
        for (metric, entry) in per_layer {
            for (moved, on) in entry
                .get("moves")
                .and_then(|m| m.as_object())
                .expect("moves")
            {
                assert!(
                    END_TO_END.iter().any(|(n, _)| n == moved),
                    "{metric} moves {moved}"
                );
                for w in on.as_array().expect("workload list") {
                    assert!(
                        WORKLOADS.contains(&text(Some(w)).as_str()),
                        "{metric}: {w:?}"
                    );
                }
            }
        }
    }
}
