//! Pipeline performance report: times the survey→profile hot path and
//! writes `BENCH_PIPELINE.json` at the repo root.
//!
//! ```sh
//! cargo run --release -p aircal-bench --bin perfreport \
//!     [-- --quick] [--seed N] [--threads N] [--check]
//! ```
//!
//! `--check` enforces every section of `scripts/budgets.json` after the
//! report is written and exits non-zero when any bound is missed.
//!
//! Sections:
//!
//! * **kernels** — the runtime-selected DSP dispatch arm
//!   (`scalar`/`sse2`/`avx2`/`neon`) and per-kernel scalar-vs-dispatched
//!   throughput with a bit-identity cross-check. `--check` enforces the
//!   simd-vs-scalar speedup floor when a vector ISA is dispatched. A
//!   separate `finalize` row times the front end's noise-and-quantize
//!   stage against its per-sample libm reference (ns/sample, exact-path
//!   fallback rate), and an `fft` row times a 2048-point
//!   `FftPlanner` transform (the TV bandpass's overlap-save block) on the
//!   scalar and the dispatched butterfly arm; `--check` requires both
//!   rows bit-identical but counts neither toward the kernel speedup
//!   floor;
//! * **adsb_decode** — decoder throughput over a rendered capture,
//!   Msamples/s;
//! * **preamble_scan** — power-gated preamble correlation vs the exact
//!   ungated scan (identical peaks, fewer FLOPs);
//! * **fir** — overlap-save [`FastFirFilter`] vs direct [`FirFilter`]
//!   at 63/255/1023 taps (the TV bandpass shapes);
//! * **survey / tv_sweep / calibrator** — wall clock at 1/2/4/8 worker
//!   threads, clamped to what the host actually has (bit-identical
//!   outputs; the knob trades time only). `--threads N` overrides the
//!   clamp, so a single-core CI box can still emit the full sweep;
//! * **geometry** — dense synthetic downtown: brute-force `path_profile`
//!   vs the spatial index vs the index + path memo, all three bit-compared,
//!   with speedup and hit-rate floors in the `perf` budget section;
//! * **allocations** — steady-state allocator round-trips per burst on
//!   the survey, TV-channel, and cellular hot paths: allocating calls vs
//!   the reused-scratch pipeline, counted by a wrapping global allocator,
//!   with per-path ceilings in the `alloc` budget section;
//! * **stage_latency / span_summary** — one traced calibration run:
//!   per-stage latency histograms (fixed `aircal-obs` bucket bounds)
//!   and aggregated span wall times for the instrumented kernels;
//! * **robustness** — an adversarial audit campaign (6 honest nodes,
//!   one node per adversary kind, 8 rounds): per-adversary first-anomaly
//!   and eviction rounds plus aggregate detection rate, false-quarantine
//!   rate, and worst-case detection latency; the `robustness` budget
//!   section fails the run when an adversary survives or an honest node
//!   is quarantined;
//! * **scale** — the discrete-event campaign engine at 100/1000/5000
//!   nodes: events processed, wall clock, events/s, plus a cheap
//!   parallelism-invariance cross-check (the workers=2 digest must
//!   match the timed serial run), with a throughput floor in the `scale`
//!   budget section;
//! * **recovery** — a crash-recovery drill plus a journal-replay
//!   micro-benchmark, bounded by the `recovery` budget section.
//!
//! All numbers are wall-clock on whatever host runs this; `host_cores`
//! records how much hardware parallelism was actually available.

use aircal::net::{spawn_node, AdversaryKind, Cloud, NodeAgent, NodeBehavior, NodeHealth, RetryPolicy};
use aircal_adsb::decoder::gated_preamble_correlation;
use aircal_adsb::{cpr, me::MePayload, AdsbFrame, DecodeScratch, Decoder, IcaoAddress};
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_bench::{parse_args, paper_traffic, AllocSnapshot, CountingAllocator};
use aircal_cellular::{paper_towers, CellScanner};
use aircal_core::engine::Calibrator;
use aircal_core::survey::{run_survey, SurveyConfig};
use aircal_dsp::corr::{find_peaks, normalized_correlation};
use aircal_dsp::fir::design_bandpass;
use aircal_dsp::window::Window;
use aircal_dsp::{derive_stream_seed, Cplx, Direction, DspScratch, FastFirFilter, FftPlanner, FirFilter};
use aircal_env::scenarios::{dense_city, testbed_origin};
use aircal_env::{GeoScratch, PathCache, Scenario, ScenarioKind};
use std::sync::Arc;
use aircal_sdr::{BurstPlan, CaptureRenderer, Frontend, FrontendConfig};
use aircal_tv::synth::synthesize_8vsb;
use aircal_tv::{paper_tv_towers, TvPowerProbe, TvProbeConfig, TvScratch, TvTower};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[derive(Serialize)]
struct ThreadTiming {
    threads: usize,
    seconds: f64,
    speedup_vs_serial: f64,
}

/// A 1/2/4/8-thread wall-clock sweep plus an explicit record of the
/// clamp that shaped it: on a single-core host the 2/4/8 rows are
/// skipped, and without this annotation the one-row table is
/// indistinguishable from a scaling failure.
#[derive(Serialize)]
struct ThreadSweep {
    /// True when the clamp removed at least one requested thread count.
    clamped: bool,
    /// The effective cap (host cores, or the `--threads` override).
    thread_cap: usize,
    host_cores: usize,
    /// Requested thread counts the clamp skipped.
    skipped_threads: Vec<usize>,
    rows: Vec<ThreadTiming>,
}

#[derive(Serialize)]
struct FirTiming {
    taps: usize,
    input_len: usize,
    direct_seconds: f64,
    overlap_save_seconds: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct DecodeTiming {
    samples: usize,
    messages: usize,
    seconds: f64,
    msamples_per_s: f64,
}

#[derive(Serialize)]
struct CorrTiming {
    samples: usize,
    ungated_seconds: f64,
    gated_seconds: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct StageLatency {
    stage: String,
    histogram: aircal_obs::Histogram,
}

#[derive(Serialize)]
struct AllocStats {
    bursts: usize,
    allocs_per_burst: f64,
    bytes_per_burst: f64,
}

#[derive(Serialize)]
struct AllocComparison {
    path: &'static str,
    allocating: AllocStats,
    scratch: AllocStats,
    /// Allocating/scratch allocation ratio. When the scratch path made
    /// zero allocations this is the allocating per-burst count itself —
    /// a finite "at least ×N" lower bound instead of infinity.
    reduction: f64,
}

/// Dense-world geometry acceleration: one obstruction sweep timed three
/// ways. All three must agree bit for bit — the index and memo are pure
/// accelerators, never approximations.
#[derive(Serialize)]
struct GeometryTiming {
    buildings: usize,
    rays: usize,
    index_build_seconds: f64,
    brute_seconds: f64,
    indexed_seconds: f64,
    cached_seconds: f64,
    indexed_speedup: f64,
    cached_speedup: f64,
    cache_hit_rate: f64,
    bit_identical: bool,
}

/// One DSP kernel timed on both reduction arms. `bit_identical` is the
/// checksum cross-check for this specific workload; the exhaustive proof
/// lives in the `simd_equivalence` proptest suite.
#[derive(Serialize)]
struct KernelTiming {
    kernel: &'static str,
    elements: usize,
    scalar_msamples_per_s: f64,
    dispatched_msamples_per_s: f64,
    speedup: f64,
    bit_identical: bool,
}

/// `Frontend::finalize` (bulk words, the dispatched `noise_quantize`,
/// libm for the reported samples) against `Frontend::finalize_reference`
/// (per-sample draws and libm) on one capture. `fallback_rate` is the
/// share of samples the kernel handed to the exact path.
#[derive(Serialize)]
struct FinalizeTiming {
    samples: usize,
    reference_ns_per_sample: f64,
    dispatched_ns_per_sample: f64,
    speedup: f64,
    fallback_rate: f64,
    bit_identical: bool,
}

/// `FftPlanner::process` on one transform length, forward then inverse,
/// with the butterflies on the scalar arm and on the dispatched arm;
/// `bit_identical` compares both spectra and both round trips.
#[derive(Serialize)]
struct FftTiming {
    points: usize,
    scalar_ns_per_transform: f64,
    dispatched_ns_per_transform: f64,
    speedup: f64,
    bit_identical: bool,
}

/// The `kernels` section: the runtime-selected dispatch arm
/// (`scalar`/`sse2`/`avx2`/`neon`) and per-kernel scalar-vs-dispatched
/// throughput on an L1-resident workload, plus the front-end `finalize`
/// and `fft` rows.
#[derive(Serialize)]
struct KernelsReport {
    dispatch: &'static str,
    kernels: Vec<KernelTiming>,
    finalize: FinalizeTiming,
    fft: FftTiming,
}

/// One adversary's trip down the quarantine ladder during the campaign.
#[derive(Serialize)]
struct AdversaryOutcome {
    kind: &'static str,
    node: &'static str,
    /// First round the consistency pass flagged this node (0-based).
    first_anomaly_round: Option<u64>,
    /// Round the ladder reached `Evicted` (0-based).
    eviction_round: Option<u64>,
    evicted: bool,
}

/// Detection quality of the robust-aggregation layer under a standing
/// f < n/2 adversarial fleet.
#[derive(Serialize)]
struct RobustnessReport {
    rounds: u64,
    honest_nodes: usize,
    adversary_nodes: usize,
    adversaries: Vec<AdversaryOutcome>,
    /// Fraction of adversaries evicted by the end of the campaign.
    detection_rate: f64,
    /// Honest nodes that ever reached Quarantined or worse.
    false_quarantine_count: usize,
    false_quarantine_rate: f64,
    /// Worst-case rounds-to-eviction (eviction round + 1; the full
    /// campaign length + 1 when an adversary survived).
    max_detection_latency_rounds: u64,
    campaign_seconds: f64,
}

/// One fleet size through the discrete-event campaign engine. The timed
/// run is serial (workers=1) so the throughput number measures the
/// engine, not the host's core count; a second untimed run at workers=2
/// cross-checks the parallelism-invariance contract via the digest.
#[derive(Serialize)]
struct ScaleTiming {
    nodes: usize,
    events: u64,
    seconds: f64,
    events_per_sec: f64,
    coverage90_tick: Option<u64>,
    digest: String,
    parallel_digest_matches: bool,
}

/// The campaign engine at each paper-regime fleet size. Fault pressure
/// matches the fleet_sim suite (lossy 0.3 / drop 0.5) so the events/s
/// here reflect a chaotic fleet, not an idle one. All three sizes run
/// even under `--quick` — the 5000-node campaign is sub-second in
/// release, and the scale gate is only meaningful at scale.
fn scale_campaigns(seed: u64) -> Vec<ScaleTiming> {
    use aircal::sim::{run, CampaignConfig};
    [100usize, 1000, 5000]
        .iter()
        .map(|&nodes| {
            let mut cfg = CampaignConfig::paper_default(nodes, seed);
            cfg.faults.lossy_fraction = 0.3;
            cfg.faults.drop_probability = 0.5;
            cfg.workers = 1;
            let t0 = Instant::now();
            let result = run(&cfg);
            let seconds = t0.elapsed().as_secs_f64();
            cfg.workers = 2;
            let parallel = run(&cfg);
            ScaleTiming {
                nodes,
                events: result.events,
                seconds,
                events_per_sec: result.events as f64 / seconds,
                coverage90_tick: result.coverage90_tick,
                parallel_digest_matches: parallel.digest == result.digest,
                digest: result.digest,
            }
        })
        .collect()
}

/// Crash-recovery drill: a 1000-node campaign through the engine with
/// periodic cloud crashes, duplicate/reorder delivery faults, and a
/// fault-free twin to diff the final cloud digest against, plus a
/// journal-replay micro-benchmark (records/s through
/// [`aircal::core::wal::Journal::open`]) that prices the recovery path
/// itself.
#[derive(Serialize)]
struct RecoverySection {
    nodes: usize,
    crashes: u64,
    wal_appends: u64,
    wal_syncs: u64,
    replayed_records: u64,
    recovery_ticks: u64,
    deduped_reports: u64,
    duplicated_deliveries: u64,
    reordered_deliveries: u64,
    campaign_seconds: f64,
    /// Final cloud digest of the faulted campaign equals the fault-free
    /// twin's, bit for bit.
    bit_identical: bool,
    invariant_violations: usize,
    journal_replay_records: u64,
    journal_replay_seconds: f64,
    journal_replay_records_per_sec: f64,
}

fn recovery_drill(seed: u64, reps: usize) -> RecoverySection {
    use aircal::core::wal::{Journal, WalRecord};
    use aircal::sim::{run, CampaignConfig};

    let nodes = 1000usize;
    let mut cfg = CampaignConfig::paper_default(nodes, seed);
    cfg.recovery.crash_ticks = (1..cfg.max_ticks / 120).map(|i| i * 120).collect();
    cfg.recovery.duplicate_fraction = 0.3;
    cfg.recovery.reorder_fraction = 0.3;
    let t0 = Instant::now();
    let faulted = run(&cfg);
    let campaign_seconds = t0.elapsed().as_secs_f64();
    let clean = run(&CampaignConfig::paper_default(nodes, seed));
    let bit_identical = faulted.state_digest == clean.state_digest
        && faulted.trust_table == clean.trust_table;

    // Journal replay micro-benchmark: a synced journal of dispatch +
    // report frames, reopened cold — the dominant cost of a real
    // recovery is exactly this scan.
    let replay_records = 200_000u64;
    let mut journal = Journal::new(1 << 20);
    for i in 0..replay_records / 2 {
        journal.append(&WalRecord::Dispatch {
            node: i % nodes as u64,
            kind: (i % 3) as u8,
            seq: i,
            tick: i,
        });
        journal.append(&WalRecord::ReportApplied {
            node: i % nodes as u64,
            kind: (i % 3) as u8,
            seq: i,
            value_bits: (i as f64).to_bits(),
            tick: i + 1,
        });
    }
    journal.sync();
    let bytes = journal.to_bytes();
    let journal_replay_seconds = time_best(reps, || {
        let (j, report) = Journal::open(&bytes, 1 << 20);
        assert_eq!(report.recovered, replay_records);
        std::hint::black_box(j.len_bytes())
    });

    RecoverySection {
        nodes,
        crashes: faulted.recoveries,
        wal_appends: faulted.wal_appends,
        wal_syncs: faulted.wal_syncs,
        replayed_records: faulted.replayed_records,
        recovery_ticks: faulted.recovery_ticks,
        deduped_reports: faulted.deduped_reports,
        duplicated_deliveries: faulted.duplicated_deliveries,
        reordered_deliveries: faulted.reordered_deliveries,
        campaign_seconds,
        bit_identical,
        invariant_violations: faulted.invariant_violations.len(),
        journal_replay_records: replay_records,
        journal_replay_seconds,
        journal_replay_records_per_sec: replay_records as f64 / journal_replay_seconds,
    }
}

#[derive(Serialize)]
struct PipelineReport {
    quick: bool,
    host_cores: usize,
    /// `--threads N` cap used for the thread sweeps instead of
    /// `host_cores` (`null` when the host clamp applied).
    threads_override: Option<usize>,
    geometry: GeometryTiming,
    kernels: KernelsReport,
    adsb_decode: DecodeTiming,
    preamble_scan: CorrTiming,
    fir: Vec<FirTiming>,
    survey: ThreadSweep,
    tv_sweep: ThreadSweep,
    calibrator: ThreadSweep,
    allocations: Vec<AllocComparison>,
    stage_latency: Vec<StageLatency>,
    span_summary: Vec<aircal_obs::SpanSummary>,
    robustness: RobustnessReport,
    scale: Vec<ScaleTiming>,
    recovery: RecoverySection,
}

/// The same f < n/2 fleet the byzantine integration suite pins down: six
/// honest installations and one node per adversary kind, audited for
/// eight rounds with a fresh commission seed each round. Fully seeded,
/// so the outcome table is a regression surface, not a flaky benchmark.
/// `(node name, installation, Some((kind tag, adversary)))` campaign row.
type CampaignRow = (&'static str, ScenarioKind, Option<(&'static str, AdversaryKind)>);

fn robustness_campaign() -> RobustnessReport {
    const ROUNDS: u64 = 8;
    let fleet: [CampaignRow; 11] = [
        ("adv-frozen", ScenarioKind::Rooftop, Some(("frozen", AdversaryKind::FrozenFrontend))),
        ("adv-gain", ScenarioKind::OpenField, Some(("gain", AdversaryKind::GainInflate { db: 25.0 }))),
        (
            "adv-poison",
            ScenarioKind::OpenField,
            Some(("poison", AdversaryKind::CalibrationPoison { db_per_round: 2.5 })),
        ),
        ("adv-replay", ScenarioKind::Rooftop, Some(("replay", AdversaryKind::ReplayStale))),
        ("adv-spoof", ScenarioKind::OpenField, Some(("spoof", AdversaryKind::SpoofAdsb { ghosts: 24 }))),
        ("h-canyon", ScenarioKind::UrbanCanyon, None),
        ("h-field-a", ScenarioKind::OpenField, None),
        ("h-field-b", ScenarioKind::OpenField, None),
        ("h-roof-a", ScenarioKind::Rooftop, None),
        ("h-roof-b", ScenarioKind::Rooftop, None),
        ("h-window", ScenarioKind::BehindWindow, None),
    ];
    let sky = Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 40,
            ..TrafficConfig::paper_default(testbed_origin())
        },
        4242,
    ));
    let mut cloud = Cloud::new(sky.clone());
    cloud.retry_policy = RetryPolicy::quick();
    for (i, (name, kind, adv)) in fleet.iter().enumerate() {
        let scenario = Scenario::build(*kind);
        let mut agent = match adv {
            Some((_, kind)) => {
                NodeAgent::with_adversary(scenario, sky.clone(), *kind, 0xBAD5_EED0 + i as u64)
            }
            None => NodeAgent::new(scenario, NodeBehavior::Honest, sky.clone()),
        };
        agent.claims.name = name.to_string();
        cloud
            .register(spawn_node(agent, 0.0, 7000 + i as u64))
            .expect("campaign registration");
    }

    let mut first_anomaly: Vec<Option<u64>> = vec![None; fleet.len()];
    let mut evicted_at: Vec<Option<u64>> = vec![None; fleet.len()];
    let mut false_quarantined: Vec<bool> = vec![false; fleet.len()];
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        // Fresh commission seed per round: replayed or frozen reports
        // only become evidence under a seed the node has not seen.
        cloud.audit_all(2000 + round);
        let health = cloud.health_report();
        let anomalies = cloud.anomaly_report();
        for (i, (name, _, adv)) in fleet.iter().enumerate() {
            let h = health
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, h, _)| *h)
                .expect("registered node reports health");
            let run = anomalies
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, run, _)| *run)
                .unwrap_or(0);
            if run > 0 && first_anomaly[i].is_none() {
                first_anomaly[i] = Some(round);
            }
            if matches!(h, NodeHealth::Evicted) && evicted_at[i].is_none() {
                evicted_at[i] = Some(round);
            }
            if adv.is_none() && matches!(h, NodeHealth::Quarantined | NodeHealth::Evicted) {
                false_quarantined[i] = true;
            }
        }
    }
    let campaign_seconds = t0.elapsed().as_secs_f64();
    cloud.shutdown();

    let adversaries: Vec<AdversaryOutcome> = fleet
        .iter()
        .enumerate()
        .filter_map(|(i, (name, _, adv))| {
            adv.map(|(kind, _)| AdversaryOutcome {
                kind,
                node: name,
                first_anomaly_round: first_anomaly[i],
                eviction_round: evicted_at[i],
                evicted: evicted_at[i].is_some(),
            })
        })
        .collect();
    let honest_nodes = fleet.iter().filter(|(_, _, adv)| adv.is_none()).count();
    let adversary_nodes = adversaries.len();
    let detection_rate =
        adversaries.iter().filter(|a| a.evicted).count() as f64 / adversary_nodes.max(1) as f64;
    let false_quarantine_count = false_quarantined.iter().filter(|&&q| q).count();
    let max_detection_latency_rounds = adversaries
        .iter()
        .map(|a| a.eviction_round.map_or(ROUNDS + 1, |r| r + 1))
        .max()
        .unwrap_or(0);
    RobustnessReport {
        rounds: ROUNDS,
        honest_nodes,
        adversary_nodes,
        adversaries,
        detection_rate,
        false_quarantine_count,
        false_quarantine_rate: false_quarantine_count as f64 / honest_nodes.max(1) as f64,
        max_detection_latency_rounds,
        campaign_seconds,
    }
}

/// One fully observed calibration run: stage timers feed fixed-bucket
/// histograms, the global tracer records kernel spans. Runs after all
/// timed sections so tracing overhead cannot touch their numbers.
fn traced_calibration(quick: bool, s: &Scenario, seed: u64) -> (Vec<StageLatency>, Vec<aircal_obs::SpanSummary>) {
    let obs = aircal_obs::Obs::recording();
    aircal_obs::trace::enable();
    let cal = if quick { Calibrator::quick() } else { Calibrator::default() }
        .with_obs(obs.clone());
    std::hint::black_box(cal.calibrate(&s.world, &s.site, seed));
    aircal_obs::trace::disable();
    let spans = aircal_obs::trace::drain();
    let stage_latency = obs
        .snapshot()
        .histograms
        .into_iter()
        .map(|(stage, histogram)| StageLatency { stage, histogram })
        .collect();
    (stage_latency, aircal_obs::trace::summarize(&spans))
}

/// Time one kernel on both arms. The closures return a bit checksum of
/// the kernel's result so the optimizer cannot elide the call and the
/// two arms can be cross-checked.
fn bench_kernel(
    reps: usize,
    inner: usize,
    elements: usize,
    kernel: &'static str,
    mut scalar_call: impl FnMut() -> u64,
    mut dispatched_call: impl FnMut() -> u64,
) -> KernelTiming {
    let bit_identical = scalar_call() == dispatched_call();
    let scalar_seconds = time_best(reps, || {
        let mut acc = 0u64;
        for _ in 0..inner {
            acc ^= scalar_call();
        }
        acc
    });
    let dispatched_seconds = time_best(reps, || {
        let mut acc = 0u64;
        for _ in 0..inner {
            acc ^= dispatched_call();
        }
        acc
    });
    let work = (elements * inner) as f64;
    KernelTiming {
        kernel,
        elements,
        scalar_msamples_per_s: work / scalar_seconds / 1e6,
        dispatched_msamples_per_s: work / dispatched_seconds / 1e6,
        speedup: scalar_seconds / dispatched_seconds,
        bit_identical,
    }
}

/// Throughput of the deterministic-lane kernels on an L1-resident 4096-
/// element workload, scalar arm vs the runtime-detected arm. Both arms
/// share the canonical 8-lane reduction order, so the dispatched column
/// is the same math issued wider — any checksum divergence is a bug.
fn kernel_timings(reps: usize) -> KernelsReport {
    use aircal_dsp::simd::Kernels;
    const N: usize = 4096;
    let xs: Vec<f64> = (0..N).map(|i| (0.73 * i as f64).sin()).collect();
    let za: Vec<Cplx> = (0..N).map(|i| Cplx::phasor(0.37 * i as f64)).collect();
    let zb: Vec<Cplx> = (0..N).map(|i| Cplx::phasor(0.11 * i as f64 + 0.5)).collect();
    let taps: Vec<f64> = (0..N).map(|i| 0.5 - 0.5 * (0.002 * i as f64).cos()).collect();
    let scalar = Kernels::scalar();
    // The env-aware dispatch table, so the dispatched column always
    // describes the arm this process actually runs (an
    // `AIRCAL_FORCE_SCALAR=1` run reports scalar-vs-scalar, ~1.0x).
    let detected = aircal_dsp::kernels();
    let inner = 1000;
    let cplx_bits = |z: Cplx| z.re.to_bits() ^ z.im.to_bits().rotate_left(1);

    let mut kernels = vec![
        bench_kernel(
            reps,
            inner,
            N,
            "sum_f64",
            || (scalar.sum_f64)(&xs).to_bits(),
            || (detected.sum_f64)(&xs).to_bits(),
        ),
        bench_kernel(
            reps,
            inner,
            N,
            "energy",
            || (scalar.energy)(&za).to_bits(),
            || (detected.energy)(&za).to_bits(),
        ),
        bench_kernel(
            reps,
            inner,
            N,
            "cdot",
            || cplx_bits((scalar.cdot)(&za, &zb)),
            || cplx_bits((detected.cdot)(&za, &zb)),
        ),
        bench_kernel(
            reps,
            inner,
            N,
            "cdot_conj",
            || cplx_bits((scalar.cdot_conj)(&za, &zb)),
            || cplx_bits((detected.cdot_conj)(&za, &zb)),
        ),
    ];
    let mut mags_s = vec![0.0f64; N];
    let mut mags_d = vec![0.0f64; N];
    kernels.push(bench_kernel(
        reps,
        inner,
        N,
        "norm_sq_map",
        || {
            (scalar.norm_sq_map)(&za, &mut mags_s);
            mags_s[0].to_bits() ^ mags_s[N - 1].to_bits().rotate_left(1)
        },
        || {
            (detected.norm_sq_map)(&za, &mut mags_d);
            mags_d[0].to_bits() ^ mags_d[N - 1].to_bits().rotate_left(1)
        },
    ));
    let mut win_s = vec![Cplx::ZERO; N];
    let mut win_d = vec![Cplx::ZERO; N];
    kernels.push(bench_kernel(
        reps,
        inner,
        N,
        "scale_map",
        || {
            (scalar.scale_map)(&za, &taps, &mut win_s);
            cplx_bits(win_s[0]) ^ cplx_bits(win_s[N - 1]).rotate_left(7)
        },
        || {
            (detected.scale_map)(&za, &taps, &mut win_d);
            cplx_bits(win_d[0]) ^ cplx_bits(win_d[N - 1]).rotate_left(7)
        },
    ));
    KernelsReport {
        dispatch: aircal_dsp::dispatch_label(),
        kernels,
        finalize: finalize_timing(reps, &za),
        fft: fft_timing(reps, &za),
    }
}

/// A 2048-point transform pair (the TV probe's overlap-save block) on the
/// scalar arm vs the env-aware dispatched arm, from the same input.
fn fft_timing(reps: usize, signal: &[Cplx]) -> FftTiming {
    use aircal_dsp::simd::Kernels;
    const POINTS: usize = 2048;
    let plan = FftPlanner::new(POINTS).expect("power-of-two length");
    let input = &signal[..POINTS];
    let inner = 200;
    let mut buf = input.to_vec();
    let hash = |h: u64, buf: &[Cplx]| {
        buf.iter().fold(h, |h, x| h.rotate_left(5) ^ x.re.to_bits() ^ x.im.to_bits())
    };
    let mut run = |arm: &Kernels| {
        buf.copy_from_slice(input);
        plan.process_with(arm, &mut buf, Direction::Forward).expect("plan length");
        let h = hash(0, &buf);
        plan.process_with(arm, &mut buf, Direction::Inverse).expect("plan length");
        hash(h, &buf)
    };
    let (scalar, dispatched) = (Kernels::scalar(), aircal_dsp::kernels());
    let bit_identical = run(scalar) == run(dispatched);
    let scalar_seconds = time_best(reps, || (0..inner).fold(0, |h, _| h ^ run(scalar)));
    let dispatched_seconds = time_best(reps, || (0..inner).fold(0, |h, _| h ^ run(dispatched)));
    let per_transform = 1e9 / (2 * inner) as f64;
    FftTiming {
        points: POINTS,
        scalar_ns_per_transform: scalar_seconds * per_transform,
        dispatched_ns_per_transform: dispatched_seconds * per_transform,
        speedup: scalar_seconds / dispatched_seconds,
        bit_identical,
    }
}

/// The front end's last stage on a 4096-sample capture of a −80 dBm
/// signal (SNR ≈ 24 dB, the ADS-B regime): reference vs dispatched path,
/// both from the same generator state, plus the exact-path share.
fn finalize_timing(reps: usize, signal: &[Cplx]) -> FinalizeTiming {
    let fe = Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6));
    let capture = fe.scale_and_impair(signal, -80.0, 0.3, 0);
    let samples = capture.len();
    let inner = 50;
    let mut buf = capture.clone();
    let mut run = |reference: bool, rng: &mut ChaCha8Rng| {
        buf.copy_from_slice(&capture);
        if reference {
            fe.finalize_reference(&mut buf, rng);
        } else {
            fe.finalize(&mut buf, rng);
        }
        buf.iter().fold(0u64, |h, x| h.rotate_left(5) ^ x.re.to_bits() ^ x.im.to_bits())
    };
    let (mut rng_ref, mut rng_fast) = (ChaCha8Rng::seed_from_u64(3), ChaCha8Rng::seed_from_u64(3));
    let bit_identical = run(true, &mut rng_ref) == run(false, &mut rng_fast) && rng_ref == rng_fast;
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let reference_seconds = time_best(reps, || (0..inner).fold(0, |h, _| h ^ run(true, &mut rng)));
    let dispatched_seconds = time_best(reps, || (0..inner).fold(0, |h, _| h ^ run(false, &mut rng)));

    let fallbacks: usize = (0..inner)
        .map(|_| {
            buf.copy_from_slice(&capture);
            fe.finalize(&mut buf, &mut rng)
        })
        .sum();
    let per_sample = 1e9 / (samples * inner) as f64;
    FinalizeTiming {
        samples,
        reference_ns_per_sample: reference_seconds * per_sample,
        dispatched_ns_per_sample: dispatched_seconds * per_sample,
        speedup: reference_seconds / dispatched_seconds,
        fallback_rate: fallbacks as f64 / (samples * inner) as f64,
        bit_identical,
    }
}

/// Best-of-`reps` wall clock, seconds.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Time `run` at 1/2/4/8 worker threads, skipping counts beyond `cap` —
/// an oversubscribed row measures scheduler noise, not scaling. The cap
/// defaults to the host's core count; `--threads N` raises (or lowers)
/// it explicitly. The serial row always survives the clamp, and the
/// skipped counts are recorded so a one-row table on a one-core host
/// reads as a clamp, not as missing data.
fn thread_sweep(
    reps: usize,
    host_cores: usize,
    cap: usize,
    mut run: impl FnMut(usize),
) -> ThreadSweep {
    let mut rows: Vec<ThreadTiming> = Vec::new();
    let mut skipped_threads: Vec<usize> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        if threads > cap.max(1) {
            skipped_threads.push(threads);
            continue;
        }
        let seconds = time_best(reps, || run(threads));
        let serial = rows.first().map(|t| t.seconds).unwrap_or(seconds);
        rows.push(ThreadTiming {
            threads,
            seconds,
            speedup_vs_serial: serial / seconds,
        });
    }
    ThreadSweep {
        clamped: !skipped_threads.is_empty(),
        thread_cap: cap.max(1),
        host_cores,
        skipped_threads,
        rows,
    }
}

/// Run `f` once to warm pools/plans, then `rounds` more times with the
/// allocator counters bracketed around them.
fn measure_allocs(bursts_per_round: usize, rounds: usize, mut f: impl FnMut()) -> AllocStats {
    f();
    let before = AllocSnapshot::now();
    for _ in 0..rounds.max(1) {
        f();
    }
    let delta = AllocSnapshot::now() - before;
    let bursts = bursts_per_round * rounds.max(1);
    AllocStats {
        bursts,
        allocs_per_burst: delta.allocs as f64 / bursts.max(1) as f64,
        bytes_per_burst: delta.bytes as f64 / bursts.max(1) as f64,
    }
}

fn alloc_reduction(allocating: &AllocStats, scratch: &AllocStats) -> f64 {
    if scratch.allocs_per_burst == 0.0 {
        allocating.allocs_per_burst
    } else {
        allocating.allocs_per_burst / scratch.allocs_per_burst
    }
}

/// Steady-state ADS-B burst loop: render one cluster, scan it, recycle
/// the window buffer. The allocating baseline uses the pre-scratch entry
/// points (`render_seeded` + `scan`); the scratch path must hit zero.
fn survey_burst_allocs(seed: u64) -> AllocComparison {
    let fe = Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6));
    let renderer = CaptureRenderer::new(fe.clone());
    let floor = fe.noise_floor_dbm();
    let plans: Vec<BurstPlan> = (0..32)
        .map(|i| {
            let frame = AdsbFrame::new(
                IcaoAddress::new(0xA00000 + (i as u32 % 16)),
                MePayload::AirbornePosition {
                    altitude_ft: 30_000.0,
                    cpr: cpr::encode(37.9, -122.2, cpr::CprFormat::Even),
                },
            );
            BurstPlan {
                start_s: i as f64 * 2e-3,
                waveform: aircal_adsb::ppm::modulate(&frame.encode(), 1.0, 0.0),
                rx_power_dbm: floor + 8.0 + (i % 10) as f64,
                phase0: i as f64 * 0.37,
            }
        })
        .collect();
    let clusters = renderer.cluster_plans(&plans);
    let decoder = Decoder::default();

    let allocating = measure_allocs(clusters.len(), 4, || {
        let windows = renderer.render_seeded(&plans, seed, 1);
        let msgs: usize = windows
            .iter()
            .map(|w| decoder.scan(&w.samples, w.start_s).len())
            .sum();
        std::hint::black_box(msgs);
    });

    let mut scratch = DspScratch::new();
    let mut dscratch = DecodeScratch::default();
    let mut msgs = Vec::new();
    let scratch_stats = measure_allocs(clusters.len(), 4, || {
        let mut total = 0usize;
        for (ci, cluster) in clusters.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(seed, ci as u64));
            let w = renderer.render_cluster_with(&plans, cluster, &mut rng, &mut scratch);
            decoder.scan_with(&w.samples, w.start_s, &mut dscratch, &mut msgs);
            total += msgs.len();
            w.recycle(&mut scratch);
        }
        std::hint::black_box(total);
    });

    AllocComparison {
        path: "survey_burst",
        reduction: alloc_reduction(&allocating, &scratch_stats),
        allocating,
        scratch: scratch_stats,
    }
}

/// Steady-state TV channel loop over brute-force paths: the allocating
/// baseline re-synthesizes the 8VSB reference (bypassing the memo) and
/// rebuilds the band-power meter per channel; the scratch path shares the
/// memoised waveform and resets one warm meter. The result `station: String` keeps the scratch path at ~1
/// alloc per channel.
fn tv_channel_allocs(seed: u64) -> AllocComparison {
    let s = Scenario::build(ScenarioKind::Rooftop);
    let towers = paper_tv_towers(&s.world.origin);
    let probe = TvPowerProbe::new(TvProbeConfig {
        parallelism: 1,
        ..TvProbeConfig::default()
    });
    let path = |t: &TvTower| s.world.path_profile(&s.site, &t.position, t.channel.center_hz());

    let allocating = measure_allocs(towers.len(), 2, || {
        let acc: f64 = towers
            .iter()
            .map(|t| {
                let cfg = &probe.config;
                let waveform = synthesize_8vsb(cfg.capture_len, cfg.sample_rate_hz);
                let mut scratch = TvScratch::default();
                probe
                    .measure_with_path(&path(t), &s.site, t, seed, &waveform, &mut scratch)
                    .power_dbfs
            })
            .sum();
        std::hint::black_box(acc);
    });

    let waveform = probe.reference_waveform();
    let mut scratch = TvScratch::default();
    let scratch_stats = measure_allocs(towers.len(), 2, || {
        let acc: f64 = towers
            .iter()
            .map(|t| {
                probe
                    .measure_with_path(&path(t), &s.site, t, seed, &waveform, &mut scratch)
                    .power_dbfs
            })
            .sum();
        std::hint::black_box(acc);
    });

    AllocComparison {
        path: "tv_channel",
        reduction: alloc_reduction(&allocating, &scratch_stats),
        allocating,
        scratch: scratch_stats,
    }
}

/// Steady-state cellular sweep: `scan_with_geo` rewrites warm measurement
/// slots (name strings included) through a warm geometry accelerator,
/// so the steady state performs zero allocations per tower.
fn cellular_tower_allocs(seed: u64) -> AllocComparison {
    let s = Scenario::build(ScenarioKind::Rooftop);
    let db = paper_towers(&s.world.origin);
    let scanner = CellScanner::default();
    let n = db.all().len();

    let allocating = measure_allocs(n, 8, || {
        std::hint::black_box(scanner.scan(&s.world, &s.site, &db, seed).len());
    });

    let mut accel = s.world.accel();
    let mut out = Vec::new();
    let scratch_stats = measure_allocs(n, 8, || {
        scanner.scan_with_geo(&s.world, &mut accel, &s.site, &db, seed, &mut out);
        std::hint::black_box(out.len());
    });

    AllocComparison {
        path: "cellular_tower",
        reduction: alloc_reduction(&allocating, &scratch_stats),
        allocating,
        scratch: scratch_stats,
    }
}

/// Time one dense-world obstruction sweep three ways: brute force over
/// every building, through the spatial index, and through index + path
/// memo (warmed, so the timed passes are pure lookups). The three output
/// vectors are compared bit for bit.
fn geometry_timings(quick: bool, reps: usize) -> GeometryTiming {
    let dense = dense_city(if quick { 10 } else { 16 });
    let rays = if quick { 120 } else { 240 };
    let (freq, elev, range) = (1.09e9, 2.0, 50_000.0);

    let t0 = Instant::now();
    let index = dense.world.index();
    let index_build_seconds = t0.elapsed().as_secs_f64();

    let brute = dense
        .world
        .obstruction_profile(&dense.site, freq, elev, range, rays);
    let brute_seconds = time_best(reps, || {
        dense
            .world
            .obstruction_profile(&dense.site, freq, elev, range, rays)
            .len()
    });

    let mut scratch = GeoScratch::new();
    let mut out = Vec::new();
    let indexed_seconds = time_best(reps, || {
        dense.world.obstruction_profile_with(
            &index, None, &dense.site, freq, elev, range, rays, &mut scratch, &mut out,
        );
        out.len()
    });
    let indexed = out.clone();

    let mut cache = PathCache::new();
    dense.world.obstruction_profile_with(
        &index,
        Some(&mut cache),
        &dense.site,
        freq,
        elev,
        range,
        rays,
        &mut scratch,
        &mut out,
    );
    let _ = cache.take_delta(); // warm pass: don't let its misses dilute the rate
    let cached_seconds = time_best(reps, || {
        dense.world.obstruction_profile_with(
            &index,
            Some(&mut cache),
            &dense.site,
            freq,
            elev,
            range,
            rays,
            &mut scratch,
            &mut out,
        );
        out.len()
    });
    let cached = out.clone();
    let (hits, misses) = cache.take_delta();

    let same_bits = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    GeometryTiming {
        buildings: dense.world.buildings.len(),
        rays,
        index_build_seconds,
        brute_seconds,
        indexed_seconds,
        cached_seconds,
        indexed_speedup: brute_seconds / indexed_seconds,
        cached_speedup: brute_seconds / cached_seconds,
        cache_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        bit_identical: same_bits(&brute, &indexed) && same_bits(&brute, &cached),
    }
}

/// `scripts/budgets.json`: one section per gated report section, each
/// mapping a bound's name to its value.
type Budgets = BTreeMap<String, BTreeMap<String, f64>>;

/// Enforce every section of `scripts/budgets.json` against the report,
/// one line per gate. Bit-identity (geometry, kernels, recovery) and
/// parallel invariance (scale) carry no bound: they always hold or fail.
fn check_budgets(r: &PipelineReport) -> bool {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/budgets.json");
    let text = std::fs::read_to_string(path).expect("read scripts/budgets.json");
    let budgets = serde_json::from_str(&text).expect("parse scripts/budgets.json");
    let mut g = Gate { budgets, ok: true };

    for a in &r.allocations {
        g.at_most("alloc", a.path, &format!("{} allocs/burst", a.path), a.scratch.allocs_per_burst);
    }

    let geo = &r.geometry;
    g.at_least("perf", "min_indexed_speedup", "geometry.indexed_speedup", geo.indexed_speedup);
    g.at_least("perf", "min_cached_speedup", "geometry.cached_speedup", geo.cached_speedup);
    g.at_least("perf", "min_cache_hit_rate", "geometry.cache_hit_rate", geo.cache_hit_rate);
    g.require("perf", "geometry outputs bit-identical to brute force", geo.bit_identical);
    let k = &r.kernels;
    for t in &k.kernels {
        let what = format!("kernel {} bit-identical to the scalar arm", t.kernel);
        g.require("perf", &what, t.bit_identical);
    }
    g.require("perf", "finalize bit-identical to its libm reference", k.finalize.bit_identical);
    g.require("perf", "fft bit-identical to its scalar arm", k.fft.bit_identical);
    if k.dispatch == "scalar" {
        eprintln!(
            "# perf budget note: dispatch is scalar (no vector ISA or AIRCAL_FORCE_SCALAR); \
             kernel speedup floor not applicable"
        );
    } else {
        let floor = g.bound("perf", "min_kernel_speedup");
        let fast = k
            .kernels
            .iter()
            .filter(|t| t.bit_identical && t.speedup >= floor)
            .count();
        let what = format!("kernels at >= {floor:.2}x on {}", k.dispatch);
        g.at_least("perf", "min_kernels_at_speedup", &what, fast as f64);
    }

    let rob = &r.robustness;
    g.at_least("robustness", "min_detection_rate", "detection_rate", rob.detection_rate);
    g.at_most(
        "robustness",
        "max_false_quarantine_rate",
        "false_quarantine_rate",
        rob.false_quarantine_rate,
    );
    g.at_most(
        "robustness",
        "max_detection_latency_rounds",
        "max_detection_latency_rounds",
        rob.max_detection_latency_rounds as f64,
    );

    for s in &r.scale {
        let what = format!("{} nodes events/s", s.nodes);
        g.at_least("scale", "min_events_per_sec", &what, s.events_per_sec);
        let what = format!("{} nodes workers=2 digest matches serial", s.nodes);
        g.require("scale", &what, s.parallel_digest_matches);
    }

    let rec = &r.recovery;
    g.at_least("recovery", "min_crashes", "crashes", rec.crashes as f64);
    g.require("recovery", "faulted digest matches fault-free twin", rec.bit_identical);
    g.at_most(
        "recovery",
        "max_invariant_violations",
        "invariant violations",
        rec.invariant_violations as f64,
    );
    g.at_least(
        "recovery",
        "min_replay_records_per_sec",
        "journal replay records/s",
        rec.journal_replay_records_per_sec,
    );
    g.ok
}

/// The running verdict of [`check_budgets`].
struct Gate {
    budgets: Budgets,
    ok: bool,
}

impl Gate {
    fn bound(&self, section: &str, name: &str) -> f64 {
        *self
            .budgets
            .get(section)
            .and_then(|s| s.get(name))
            .unwrap_or_else(|| panic!("scripts/budgets.json has no {section}.{name}"))
    }

    fn at_least(&mut self, section: &str, name: &str, what: &str, value: f64) {
        let floor = self.bound(section, name);
        let line = format!("{what} at {value:.2} (floor {floor:.2})");
        self.require(section, &line, value >= floor);
    }

    fn at_most(&mut self, section: &str, name: &str, what: &str, value: f64) {
        let ceiling = self.bound(section, name);
        let line = format!("{what} at {value:.2} (ceiling {ceiling:.2})");
        self.require(section, &line, value <= ceiling);
    }

    fn require(&mut self, section: &str, what: &str, holds: bool) {
        if holds {
            eprintln!("# {section} budget ok: {what}");
        } else {
            eprintln!("# {} BUDGET EXCEEDED: {what}", section.to_uppercase());
            self.ok = false;
        }
    }
}

fn decode_capture(seed: u64, frames: usize) -> (Vec<aircal_sdr::RenderedWindow>, usize) {
    let fe = Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6));
    let renderer = CaptureRenderer::new(fe.clone());
    let floor = fe.noise_floor_dbm();
    let plans: Vec<BurstPlan> = (0..frames)
        .map(|i| {
            let frame = AdsbFrame::new(
                IcaoAddress::new(0xA00000 + (i as u32 % 64)),
                MePayload::AirbornePosition {
                    altitude_ft: 30_000.0,
                    cpr: cpr::encode(37.9, -122.2, cpr::CprFormat::Even),
                },
            );
            BurstPlan {
                start_s: i as f64 * 2e-3,
                waveform: aircal_adsb::ppm::modulate(&frame.encode(), 1.0, 0.0),
                rx_power_dbm: floor + 6.0 + (i % 12) as f64,
                phase0: i as f64 * 0.37,
            }
        })
        .collect();
    let windows = renderer.render_seeded(&plans, seed, 0);
    let samples = windows.iter().map(|w| w.samples.len()).sum();
    (windows, samples)
}

fn main() {
    let (positional, seed) = parse_args();
    let quick = positional.iter().any(|a| a == "--quick");
    let check = positional.iter().any(|a| a == "--check");
    if let Some(old) = positional.iter().find(|a| a.starts_with("--check-")) {
        eprintln!("perfreport: {old} is gone; --check enforces every budget section");
        std::process::exit(2);
    }
    let mut threads_override: Option<usize> = None;
    let mut args_it = positional.iter();
    while let Some(a) = args_it.next() {
        if a == "--threads" {
            threads_override = args_it.next().and_then(|v| v.parse().ok());
        } else if let Some(v) = a.strip_prefix("--threads=") {
            threads_override = v.parse().ok();
        }
    }
    let reps = if quick { 1 } else { 3 };
    let host_cores = aircal_dsp::resolve_parallelism(0);
    let thread_cap = threads_override.unwrap_or(host_cores).max(1);
    eprintln!(
        "# perfreport: quick={quick} seed={seed} host_cores={host_cores} thread_cap={thread_cap}"
    );

    // --- DSP kernel dispatch (scalar vs vector arm) -----------------------
    let kernels = kernel_timings(reps);
    eprintln!("# kernels: dispatch={}", kernels.dispatch);
    for t in &kernels.kernels {
        eprintln!(
            "# kernel {}: {:.0} -> {:.0} Msamples/s ({:.2}x, bits {})",
            t.kernel,
            t.scalar_msamples_per_s,
            t.dispatched_msamples_per_s,
            t.speedup,
            if t.bit_identical { "identical" } else { "DIVERGED" }
        );
    }
    let f = &kernels.finalize;
    eprintln!(
        "# finalize: {:.1} -> {:.1} ns/sample ({:.2}x, fallback {:.1e}, bits {})",
        f.reference_ns_per_sample,
        f.dispatched_ns_per_sample,
        f.speedup,
        f.fallback_rate,
        if f.bit_identical { "identical" } else { "DIVERGED" }
    );
    let f = &kernels.fft;
    eprintln!(
        "# fft: {} points {:.0} -> {:.0} ns/transform ({:.2}x, bits {})",
        f.points,
        f.scalar_ns_per_transform,
        f.dispatched_ns_per_transform,
        f.speedup,
        if f.bit_identical { "identical" } else { "DIVERGED" }
    );

    // --- ADS-B decode throughput -----------------------------------------
    let (windows, samples) = decode_capture(seed, if quick { 200 } else { 1_000 });
    let decoder = Decoder::default();
    let messages: usize = windows
        .iter()
        .map(|w| decoder.scan(&w.samples, w.start_s).len())
        .sum();
    let seconds = time_best(reps, || {
        windows
            .iter()
            .map(|w| decoder.scan(&w.samples, w.start_s).len())
            .sum::<usize>()
    });
    let adsb_decode = DecodeTiming {
        samples,
        messages,
        seconds,
        msamples_per_s: samples as f64 / seconds / 1e6,
    };
    eprintln!(
        "# adsb_decode: {:.1} Msamples/s ({} msgs from {} samples)",
        adsb_decode.msamples_per_s, messages, samples
    );

    // --- Gated vs ungated preamble scan ----------------------------------
    let flat: Vec<Cplx> = windows.iter().flat_map(|w| w.samples.iter().copied()).collect();
    let threshold = aircal_adsb::DecoderConfig::default().preamble_threshold;
    let template = aircal_adsb::ppm::preamble_template();
    let ungated_seconds = time_best(reps, || {
        let corr = normalized_correlation(&flat, &template);
        find_peaks(&corr, threshold, 64).len()
    });
    let gated_seconds = time_best(reps, || {
        let corr = gated_preamble_correlation(&flat, threshold);
        find_peaks(&corr, threshold, 64).len()
    });
    let preamble_scan = CorrTiming {
        samples: flat.len(),
        ungated_seconds,
        gated_seconds,
        speedup: ungated_seconds / gated_seconds,
    };
    eprintln!("# preamble_scan: gate speedup {:.2}x", preamble_scan.speedup);

    // --- Overlap-save FIR vs direct --------------------------------------
    let input_len = if quick { 40_000 } else { 200_000 };
    let x: Vec<Cplx> = (0..input_len).map(|i| Cplx::phasor(0.123 * i as f64)).collect();
    let mut fir = Vec::new();
    for taps in [63usize, 255, 1023] {
        let h = design_bandpass(0.05, 0.25, taps, Window::Blackman).unwrap();
        let direct = FirFilter::new(h.clone()).unwrap();
        let fast = FastFirFilter::new(h).unwrap();
        let direct_seconds = time_best(reps, || {
            let mut f = direct.clone();
            f.process(&x)
        });
        let overlap_save_seconds = time_best(reps, || {
            let mut f = fast.clone();
            f.process(&x)
        });
        let t = FirTiming {
            taps,
            input_len,
            direct_seconds,
            overlap_save_seconds,
            speedup: direct_seconds / overlap_save_seconds,
        };
        eprintln!("# fir {taps} taps: overlap-save {:.2}x vs direct", t.speedup);
        fir.push(t);
    }

    // --- Survey wall-clock vs threads ------------------------------------
    let s = Scenario::build(ScenarioKind::Rooftop);
    let traffic = paper_traffic(&s, seed);
    let survey_cfg = if quick { SurveyConfig::quick() } else { SurveyConfig::default() };
    let survey = thread_sweep(reps, host_cores, thread_cap, |threads| {
        let cfg = SurveyConfig {
            parallelism: threads,
            ..survey_cfg
        };
        std::hint::black_box(run_survey(&s.world, &s.site, &traffic, &cfg, seed));
    });
    let widest = survey.rows.last().expect("sweep includes serial row");
    eprintln!(
        "# survey: {:.3}s serial, {:.2}x at {} threads{}",
        survey.rows[0].seconds,
        widest.speedup_vs_serial,
        widest.threads,
        if survey.clamped { " (clamped)" } else { "" }
    );

    // --- TV sweep vs threads ---------------------------------------------
    let towers = paper_tv_towers(&s.world.origin);
    let tv_sweep = thread_sweep(reps, host_cores, thread_cap, |threads| {
        let probe = TvPowerProbe::new(TvProbeConfig {
            parallelism: threads,
            ..TvProbeConfig::default()
        });
        std::hint::black_box(probe.sweep(&s.world, &s.site, &towers, seed));
    });
    eprintln!("# tv_sweep: {:.3}s serial", tv_sweep.rows[0].seconds);

    // --- Full calibrator vs threads --------------------------------------
    let calibrator = thread_sweep(if quick { 1 } else { 2 }, host_cores, thread_cap, |threads| {
        let cal = if quick { Calibrator::quick() } else { Calibrator::default() }
            .with_parallelism(threads);
        std::hint::black_box(cal.calibrate(&s.world, &s.site, seed));
    });
    eprintln!("# calibrator: {:.3}s serial", calibrator.rows[0].seconds);

    // --- Geometry acceleration (dense world) -----------------------------
    let geometry = geometry_timings(quick, reps);
    eprintln!(
        "# geometry: {} buildings, index {:.2}x, index+memo {:.2}x, hit rate {:.2}, bits {}",
        geometry.buildings,
        geometry.indexed_speedup,
        geometry.cached_speedup,
        geometry.cache_hit_rate,
        if geometry.bit_identical { "identical" } else { "DIVERGED" }
    );

    // --- Steady-state allocation accounting -------------------------------
    // Runs before the traced calibration so span recording (which does
    // allocate) cannot leak into the per-burst counts.
    let allocations = vec![
        survey_burst_allocs(seed),
        tv_channel_allocs(seed),
        cellular_tower_allocs(seed),
    ];
    for a in &allocations {
        eprintln!(
            "# allocs {}: {:.2}/burst allocating vs {:.2}/burst scratch ({:.0}x)",
            a.path, a.allocating.allocs_per_burst, a.scratch.allocs_per_burst, a.reduction
        );
    }

    // --- Per-stage latency histograms (traced run) ------------------------
    let (stage_latency, span_summary) = traced_calibration(quick, &s, seed);
    eprintln!(
        "# stage_latency: {} stages, {} distinct spans",
        stage_latency.len(),
        span_summary.len()
    );

    // --- Adversarial audit campaign ---------------------------------------
    let robustness = robustness_campaign();
    eprintln!(
        "# robustness: {}/{} adversaries evicted, {} false quarantines, worst latency {} rounds, {:.1}s",
        robustness.adversaries.iter().filter(|a| a.evicted).count(),
        robustness.adversary_nodes,
        robustness.false_quarantine_count,
        robustness.max_detection_latency_rounds,
        robustness.campaign_seconds
    );

    // --- Campaign engine at fleet scale -----------------------------------
    let scale = scale_campaigns(seed);
    for s in &scale {
        eprintln!(
            "# scale {} nodes: {} events in {:.3}s ({:.0} events/s), parallel digest {}",
            s.nodes,
            s.events,
            s.seconds,
            s.events_per_sec,
            if s.parallel_digest_matches { "matches" } else { "DIVERGED" }
        );
    }

    // --- Crash recovery drill ---------------------------------------------
    let recovery = recovery_drill(seed, reps);
    eprintln!(
        "# recovery: {} crashes over {} nodes, {} replayed records, bit_identical={}, replay {:.0} records/s",
        recovery.crashes,
        recovery.nodes,
        recovery.replayed_records,
        recovery.bit_identical,
        recovery.journal_replay_records_per_sec
    );

    let report = PipelineReport {
        quick,
        host_cores,
        threads_override,
        geometry,
        kernels,
        adsb_decode,
        preamble_scan,
        fir,
        survey,
        tv_sweep,
        calibrator,
        allocations,
        stage_latency,
        span_summary,
        robustness,
        scale,
        recovery,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PIPELINE.json");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_PIPELINE.json");
    println!("wrote {path}");

    // Budget checks run last so the report is on disk (and uploadable as
    // a CI artifact) even when a gate trips.
    if check && !check_budgets(&report) {
        std::process::exit(1);
    }
}
