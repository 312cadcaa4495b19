//! Pipeline performance report: times the measurements no test suite
//! and no benchmark workload covers, and writes `BENCH_PIPELINE.json` at
//! the repo root.
//!
//! ```sh
//! cargo run --release -p aircal-bench --bin perfreport \
//!     [-- --quick] [--seed N] [--check]
//! ```
//!
//! `--check` enforces every bound in `scripts/budgets.json` after the
//! report is written and exits non-zero when any bound is missed, or when
//! the file holds a bound that no gate reads.
//!
//! Sections:
//!
//! * **kernels** — the runtime-selected DSP dispatch arm
//!   (`scalar`/`avx2`/`avx512`) and per-kernel scalar-vs-dispatched
//!   throughput with a bit-identity cross-check, best of 3 with the two
//!   arms alternating, `--quick` included. `--check` enforces the
//!   simd-vs-scalar speedup floor when a vector ISA is dispatched
//!   (`noise_quantize`, the portable Box–Muller sampler plus the ADC
//!   quantizer, is one of the kernels it counts). A separate `finalize`
//!   row times the front end's whole noise stage (words, then the kernel)
//!   on every arm the host supports (ns/sample), so a host that
//!   dispatches a wider arm still times and checks the narrower ones, and
//!   an `fft` row times a 2048-point `FftPlanner` transform (the TV
//!   bandpass's overlap-save block) on the scalar and the dispatched
//!   butterfly arm; `--check` requires every `finalize` arm and the `fft`
//!   row bit-identical to the scalar arm but counts neither toward the
//!   kernel speedup floor;
//! * **adsb_decode** — decoder throughput over the windows of one rooftop
//!   survey, rendered at run time from the seed exactly as a calibration
//!   renders them, with one warm `DecodeScratch`, as each survey worker
//!   runs it, Msamples/s;
//! * **preamble_scan** — the decoder's sparse preamble scan
//!   ([`PreambleScan`]) vs its dense reference, `normalized_correlation`
//!   then `find_peaks`, over a flat synthetic capture (peaks must be
//!   identical);
//! * **fir** — overlap-save [`FastFirFilter`] vs direct [`FirFilter`]
//!   at 63/255/1023 taps (the TV bandpass shapes);
//! * **geometry** — dense synthetic downtown: brute-force `path_profile`
//!   vs the spatial index vs the index + path memo, all three bit-compared,
//!   with speedup and hit-rate floors in the `perf` budget section;
//! * **scale** — the discrete-event campaign engine at 100/1000/5000
//!   nodes, serial: events processed, wall clock, events/s, with a
//!   throughput floor in the `scale` budget section;
//! * **recovery** — journal replay through
//!   [`aircal::core::wal::Journal::open`], records/s, with a floor in the
//!   `recovery` budget section.
//!
//! Correctness gates live in the test suites, each in one place: the
//! adversary campaign in `tests/byzantine.rs`, worker-count invariance in
//! `tests/fleet_sim.rs`, the crash-recovery campaign and its crash-free
//! twin in `tests/cloud_recovery.rs`, and the steady-state allocation
//! counts in `crates/bench/tests/allocations.rs`.
//!
//! All numbers are wall-clock on whatever host runs this; `host_cores`
//! records how much hardware parallelism was actually available.

use aircal_adsb::decoder::PreambleScan;
use aircal_adsb::{cpr, me::MePayload, AdsbFrame, DecodeScratch, Decoder, IcaoAddress};
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_bench::parse_args;
use aircal_core::engine::Calibrator;
use aircal_core::survey::{plan_survey, run_survey_indexed};
use aircal_dsp::corr::{find_peaks, normalized_correlation};
use aircal_dsp::fir::design_bandpass;
use aircal_dsp::window::Window;
use aircal_dsp::{Cplx, Direction, FastFirFilter, FftPlanner, FirFilter};
use aircal_env::scenarios::dense_city;
use aircal_env::{GeoScratch, PathCache, Scenario, ScenarioKind};
use aircal_sdr::{BurstPlan, CaptureRenderer, Frontend, FrontendConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

#[derive(Serialize, Default)]
struct FirTiming {
    taps: usize,
    input_len: usize,
    direct_seconds: f64,
    overlap_save_seconds: f64,
    speedup: f64,
}

#[derive(Serialize, Default)]
struct DecodeTiming {
    samples: usize,
    messages: usize,
    seconds: f64,
    msamples_per_s: f64,
}

#[derive(Serialize, Default)]
struct CorrTiming {
    samples: usize,
    dense_seconds: f64,
    sparse_seconds: f64,
    speedup: f64,
    peaks_identical: bool,
}

/// Dense-world geometry acceleration: one obstruction sweep timed three
/// ways. All three must agree bit for bit — the index and memo are pure
/// accelerators, never approximations.
#[derive(Serialize, Default)]
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
#[derive(Serialize, Default)]
struct KernelTiming {
    kernel: &'static str,
    elements: usize,
    scalar_msamples_per_s: f64,
    dispatched_msamples_per_s: f64,
    speedup: f64,
    bit_identical: bool,
}

/// `Frontend::finalize` (bulk words and `noise_quantize`) on one arm:
/// its time per sample, its speedup over the scalar arm and whether its
/// output equals the scalar arm's.
#[derive(Serialize, Default)]
struct FinalizeArm {
    arm: &'static str,
    ns_per_sample: f64,
    speedup: f64,
    bit_identical: bool,
}

/// `Frontend::finalize` on every arm the host supports, scalar first,
/// on one capture.
#[derive(Serialize, Default)]
struct FinalizeTiming {
    samples: usize,
    arms: Vec<FinalizeArm>,
}

/// `FftPlanner::process` on one transform length, forward then inverse,
/// with the butterflies on the scalar arm and on the dispatched arm;
/// `bit_identical` compares both spectra and both round trips.
#[derive(Serialize, Default)]
struct FftTiming {
    points: usize,
    scalar_ns_per_transform: f64,
    dispatched_ns_per_transform: f64,
    speedup: f64,
    bit_identical: bool,
}

/// The `kernels` section: the runtime-selected dispatch arm
/// (`scalar`/`avx2`/`avx512`) and per-kernel scalar-vs-dispatched
/// throughput on an L1-resident workload, plus the front-end `finalize`
/// and `fft` rows.
#[derive(Serialize, Default)]
struct KernelsReport {
    dispatch: &'static str,
    kernels: Vec<KernelTiming>,
    finalize: FinalizeTiming,
    fft: FftTiming,
}

/// One fleet size through the discrete-event campaign engine, serial
/// (workers=1) so the throughput number measures the engine, not the
/// host's core count. Worker-count invariance is `tests/fleet_sim.rs`'s.
#[derive(Serialize, Default)]
struct ScaleTiming {
    nodes: usize,
    events: u64,
    seconds: f64,
    events_per_sec: f64,
    coverage90_tick: Option<u64>,
    digest: String,
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
            ScaleTiming {
                nodes,
                events: result.events,
                seconds,
                events_per_sec: result.events as f64 / seconds,
                coverage90_tick: result.coverage90_tick,
                digest: result.digest,
            }
        })
        .collect()
}

/// Journal-replay micro-benchmark: records/s through
/// [`aircal::core::wal::Journal::open`], the dominant cost of a real
/// recovery. The recovery campaign itself is pinned by
/// `tests/cloud_recovery.rs`.
#[derive(Serialize, Default)]
struct RecoverySection {
    journal_replay_records: u64,
    journal_replay_seconds: f64,
    journal_replay_records_per_sec: f64,
}

/// Time reopening a synced journal of dispatch + report frames for a
/// 1000-node fleet, cold.
fn journal_replay(reps: usize) -> RecoverySection {
    use aircal::core::wal::{Journal, WalRecord};

    let (nodes, replay_records) = (1000u64, 200_000u64);
    let mut journal = Journal::new();
    for i in 0..replay_records / 2 {
        journal.append(&WalRecord::Dispatch {
            node: i % nodes,
            kind: (i % 3) as u8,
            seq: i,
            tick: i,
        });
        journal.append(&WalRecord::ReportApplied {
            node: i % nodes,
            kind: (i % 3) as u8,
            seq: i,
            value_bits: (i as f64).to_bits(),
            tick: i + 1,
        });
    }
    journal.sync();
    let bytes = journal.to_bytes();
    let journal_replay_seconds = time_best(reps, || {
        let (j, report) = Journal::open(&bytes);
        assert_eq!(report.recovered, replay_records);
        std::hint::black_box(j.len_bytes())
    });
    RecoverySection {
        journal_replay_records: replay_records,
        journal_replay_seconds,
        journal_replay_records_per_sec: replay_records as f64 / journal_replay_seconds,
    }
}

#[derive(Serialize, Default)]
struct PipelineReport {
    quick: bool,
    host_cores: usize,
    geometry: GeometryTiming,
    kernels: KernelsReport,
    adsb_decode: DecodeTiming,
    preamble_scan: CorrTiming,
    fir: Vec<FirTiming>,
    scale: Vec<ScaleTiming>,
    recovery: RecoverySection,
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
    fn timed(inner: usize, call: &mut impl FnMut() -> u64) -> f64 {
        time_best(1, || (0..inner).fold(0u64, |acc, _| acc ^ call()))
    }
    let bit_identical = scalar_call() == dispatched_call();
    // Best of `reps` per arm, the arms alternating rep by rep: a slow
    // stretch of a shared host then costs both columns one rep, not one
    // column all of its reps.
    let (mut scalar_seconds, mut dispatched_seconds) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        scalar_seconds = scalar_seconds.min(timed(inner, &mut scalar_call));
        dispatched_seconds = dispatched_seconds.min(timed(inner, &mut dispatched_call));
    }
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
    use aircal_dsp::simd::{AdcNoise, Kernels};
    const N: usize = 4096;
    let xs: Vec<f64> = (0..N).map(|i| (0.73 * i as f64).sin()).collect();
    let za: Vec<Cplx> = (0..N).map(|i| Cplx::phasor(0.37 * i as f64)).collect();
    let zb: Vec<Cplx> = (0..N)
        .map(|i| Cplx::phasor(0.11 * i as f64 + 0.5))
        .collect();
    let taps: Vec<f64> = (0..N)
        .map(|i| 0.5 - 0.5 * (0.002 * i as f64).cos())
        .collect();
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
    // One draw per sample at the BladeRF noise floor (σ ≈ 1.4e-4 full
    // scale, 12-bit ADC) over a weak signal. A tenth of the other
    // kernels' calls: each sample costs ~40 scalar ns, not ~1.
    let adc = AdcNoise::new(1.4e-4, 0.0, 2048.0);
    let mut words = vec![0u64; 2 * N];
    ChaCha8Rng::seed_from_u64(5).fill_u64(&mut words);
    let signal: Vec<Cplx> = za.iter().map(|z| z.scale(3e-3)).collect();
    let (mut noisy_s, mut noisy_d) = (signal.clone(), signal.clone());
    kernels.push(bench_kernel(
        reps,
        inner / 10,
        N,
        "noise_quantize",
        || {
            noisy_s.copy_from_slice(&signal);
            (scalar.noise_quantize)(&words, &adc, &mut noisy_s);
            cplx_bits(noisy_s[0]) ^ cplx_bits(noisy_s[N - 1]).rotate_left(7)
        },
        || {
            noisy_d.copy_from_slice(&signal);
            (detected.noise_quantize)(&words, &adc, &mut noisy_d);
            cplx_bits(noisy_d[0]) ^ cplx_bits(noisy_d[N - 1]).rotate_left(7)
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
        buf.iter()
            .fold(h, |h, x| h.rotate_left(5) ^ x.re.to_bits() ^ x.im.to_bits())
    };
    let mut run = |arm: &Kernels| {
        buf.copy_from_slice(input);
        plan.process_with(arm, &mut buf, Direction::Forward)
            .expect("plan length");
        let h = hash(0, &buf);
        plan.process_with(arm, &mut buf, Direction::Inverse)
            .expect("plan length");
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
/// signal (SNR ≈ 24 dB, the ADS-B regime) on every supported arm, each
/// from the same generator state, the arms alternating rep by rep.
fn finalize_timing(reps: usize, signal: &[Cplx]) -> FinalizeTiming {
    use aircal_dsp::simd::Kernels;
    let fe = Frontend::new(FrontendConfig::bladerf_xa9(1.09e9, 2e6));
    let capture = fe.scale_and_impair(signal, -80.0, 0.3, 0);
    let samples = capture.len();
    let inner = 50;
    let mut buf = capture.clone();
    let mut run = |arm: &Kernels, rng: &mut ChaCha8Rng| {
        buf.copy_from_slice(&capture);
        fe.finalize_with(arm, &mut buf, rng);
        buf.iter().fold(0u64, |h, x| {
            h.rotate_left(5) ^ x.re.to_bits() ^ x.im.to_bits()
        })
    };
    let arms = Kernels::supported();
    let want = run(arms[0], &mut ChaCha8Rng::seed_from_u64(3));
    let bit_identical: Vec<bool> = arms
        .iter()
        .map(|&arm| run(arm, &mut ChaCha8Rng::seed_from_u64(3)) == want)
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut seconds = vec![f64::INFINITY; arms.len()];
    for _ in 0..reps.max(1) {
        for (best, &arm) in seconds.iter_mut().zip(&arms) {
            let t = time_best(1, || (0..inner).fold(0, |h, _| h ^ run(arm, &mut rng)));
            *best = best.min(t);
        }
    }
    let per_sample = 1e9 / (samples * inner) as f64;
    FinalizeTiming {
        samples,
        arms: arms
            .iter()
            .zip(&seconds)
            .zip(bit_identical)
            .map(|((arm, &t), bit_identical)| FinalizeArm {
                arm: arm.label,
                ns_per_sample: t * per_sample,
                speedup: seconds[0] / t,
                bit_identical,
            })
            .collect(),
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
    let mut sweep = |cache: Option<&mut PathCache>, out: &mut Vec<f64>| {
        dense.world.obstruction_profile_with(
            &index,
            cache,
            &dense.site,
            freq,
            elev,
            range,
            rays,
            &mut scratch,
            out,
        );
        out.len()
    };
    let mut out = Vec::new();
    let indexed_seconds = time_best(reps, || sweep(None, &mut out));
    let indexed = out.clone();

    let mut cache = PathCache::new();
    sweep(Some(&mut cache), &mut out);
    let _ = cache.take_delta(); // warm pass: don't let its misses dilute the rate
    let cached_seconds = time_best(reps, || sweep(Some(&mut cache), &mut out));
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

fn committed_budgets() -> Budgets {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/budgets.json");
    let text = std::fs::read_to_string(path).expect("read scripts/budgets.json");
    serde_json::from_str(&text).expect("parse scripts/budgets.json")
}

/// Enforce every bound in `budgets` against the report, one line per
/// gate, and fail on any bound no gate read. Bit-identity (geometry,
/// kernels, preamble peaks) carries no bound: it always holds or fails.
fn check_budgets(r: &PipelineReport, budgets: Budgets) -> bool {
    let mut g = Gate {
        budgets,
        read: BTreeSet::new(),
        ok: true,
    };

    let geo = &r.geometry;
    g.at_least(
        "perf",
        "min_indexed_speedup",
        "geometry.indexed_speedup",
        geo.indexed_speedup,
    );
    g.at_least(
        "perf",
        "min_cached_speedup",
        "geometry.cached_speedup",
        geo.cached_speedup,
    );
    g.at_least(
        "perf",
        "min_cache_hit_rate",
        "geometry.cache_hit_rate",
        geo.cache_hit_rate,
    );
    g.require(
        "perf",
        "geometry outputs bit-identical to brute force",
        geo.bit_identical,
    );
    let k = &r.kernels;
    for t in &k.kernels {
        let what = format!("kernel {} bit-identical to the scalar arm", t.kernel);
        g.require("perf", &what, t.bit_identical);
    }
    for a in &k.finalize.arms {
        let what = format!("finalize on {} bit-identical to the scalar arm", a.arm);
        g.require("perf", &what, a.bit_identical);
    }
    g.require(
        "perf",
        "fft bit-identical to its scalar arm",
        k.fft.bit_identical,
    );
    let what = "sparse preamble peaks identical to the dense scan's";
    g.require("perf", what, r.preamble_scan.peaks_identical);
    let floor = g.bound("perf", "min_kernel_speedup");
    if k.dispatch == "scalar" {
        g.bound("perf", "min_kernels_at_speedup");
        eprintln!(
            "# perf budget note: dispatch is scalar (no vector ISA or AIRCAL_FORCE_SCALAR); \
             kernel speedup floor not applicable"
        );
    } else {
        let fast = k
            .kernels
            .iter()
            .filter(|t| t.bit_identical && t.speedup >= floor)
            .count();
        let what = format!("kernels at >= {floor:.2}x on {}", k.dispatch);
        g.at_least("perf", "min_kernels_at_speedup", &what, fast as f64);
    }

    for s in &r.scale {
        let what = format!("{} nodes events/s", s.nodes);
        g.at_least("scale", "min_events_per_sec", &what, s.events_per_sec);
    }

    g.at_least(
        "recovery",
        "min_replay_records_per_sec",
        "journal replay records/s",
        r.recovery.journal_replay_records_per_sec,
    );
    g.finish()
}

/// The running verdict of [`check_budgets`], and the bounds it has read.
struct Gate {
    budgets: Budgets,
    read: BTreeSet<(String, String)>,
    ok: bool,
}

impl Gate {
    fn bound(&mut self, section: &str, name: &str) -> f64 {
        self.read.insert((section.to_owned(), name.to_owned()));
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

    fn require(&mut self, section: &str, what: &str, holds: bool) {
        if holds {
            eprintln!("# {section} budget ok: {what}");
        } else {
            eprintln!("# {} BUDGET EXCEEDED: {what}", section.to_uppercase());
            self.ok = false;
        }
    }

    /// The verdict, failed by any bound in the budgets that no gate read:
    /// a bound whose section is gone would otherwise gate nothing.
    fn finish(mut self) -> bool {
        for (section, bounds) in &self.budgets {
            for name in bounds.keys() {
                if !self.read.contains(&(section.clone(), name.clone())) {
                    let upper = section.to_uppercase();
                    eprintln!("# {upper} BUDGET ORPHANED: {section}.{name} gates nothing");
                    self.ok = false;
                }
            }
        }
        self.ok
    }
}

/// The windows of one calibration's rooftop survey (the production
/// traffic and survey configuration at `seed`), rendered as the survey
/// renders them, and the number of messages the survey decoded.
fn survey_windows(seed: u64) -> (Vec<aircal_sdr::RenderedWindow>, usize) {
    let s = Scenario::build(ScenarioKind::Rooftop);
    let cal = Calibrator::default().with_parallelism(1);
    let traffic = TrafficSim::generate(
        TrafficConfig {
            count: cal.traffic_count,
            ..TrafficConfig::paper_default(s.site.position)
        },
        seed,
    );
    let index = s.world.index();
    let capture = plan_survey(&s.world, &index, &s.site, &traffic, &cal.survey, seed);
    let result = run_survey_indexed(&s.world, &index, &s.site, &traffic, &cal.survey, seed);
    let windows = capture
        .renderer
        .render_seeded(&capture.plans, capture.noise_seed, 1);
    (windows, result.total_messages)
}

/// A flat synthetic capture of `frames` position bursts, 2 ms apart.
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
                chips: aircal_core::survey::frame_chips(&frame.encode()),
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
    if let Some(bad) = positional
        .iter()
        .find(|a| !matches!(a.as_str(), "--quick" | "--check"))
    {
        eprintln!("perfreport: unknown argument {bad}; usage: [--quick] [--check] [--seed N]");
        std::process::exit(2);
    }
    let quick = positional.iter().any(|a| a == "--quick");
    let check = positional.iter().any(|a| a == "--check");
    let reps = if quick { 1 } else { 3 };
    let host_cores = aircal_dsp::resolve_parallelism(0);
    eprintln!("# perfreport: quick={quick} seed={seed} host_cores={host_cores}");

    // --- DSP kernel dispatch (scalar vs vector arm) -----------------------
    // Best of 3 even under --quick: one rep of a few-ms kernel loop
    // reads host noise, and the speedup floor below gates on it.
    let kernels = kernel_timings(3);
    eprintln!("# kernels: dispatch={}", kernels.dispatch);
    for t in &kernels.kernels {
        eprintln!(
            "# kernel {}: {:.0} -> {:.0} Msamples/s ({:.2}x, bits {})",
            t.kernel,
            t.scalar_msamples_per_s,
            t.dispatched_msamples_per_s,
            t.speedup,
            if t.bit_identical {
                "identical"
            } else {
                "DIVERGED"
            }
        );
    }
    for a in &kernels.finalize.arms {
        eprintln!(
            "# finalize on {}: {:.1} ns/sample ({:.2}x, bits {})",
            a.arm,
            a.ns_per_sample,
            a.speedup,
            if a.bit_identical {
                "identical"
            } else {
                "DIVERGED"
            }
        );
    }
    let f = &kernels.fft;
    eprintln!(
        "# fft: {} points {:.0} -> {:.0} ns/transform ({:.2}x, bits {})",
        f.points,
        f.scalar_ns_per_transform,
        f.dispatched_ns_per_transform,
        f.speedup,
        if f.bit_identical {
            "identical"
        } else {
            "DIVERGED"
        }
    );

    // --- ADS-B decode throughput -----------------------------------------
    // Over what a calibration decodes, not a synthetic capture: bursts
    // as dense, powers and overlaps as the survey plans them.
    let (windows, survey_messages) = survey_windows(seed);
    let decoder = Decoder::default();
    let mut scratch = DecodeScratch::default();
    let mut msgs = Vec::new();
    let mut scan_all = || -> usize {
        windows
            .iter()
            .map(|w| {
                decoder.scan_with(&w.samples, w.start_s, &mut scratch, &mut msgs);
                msgs.len()
            })
            .sum()
    };
    let messages = scan_all();
    assert_eq!(
        messages, survey_messages,
        "the replayed windows decode as the survey did"
    );
    let seconds = time_best(reps, scan_all);
    let samples = windows.iter().map(|w| w.samples.len()).sum();
    let adsb_decode = DecodeTiming {
        samples,
        messages,
        seconds,
        msamples_per_s: samples as f64 / seconds / 1e6,
    };
    eprintln!(
        "# adsb_decode: {:.1} Msamples/s ({} msgs from {} samples in {} survey windows)",
        adsb_decode.msamples_per_s,
        messages,
        samples,
        windows.len()
    );

    // --- Sparse preamble scan vs its dense reference ---------------------
    // Window by window, as the decoder scans a capture.
    let (windows, samples) = decode_capture(seed, if quick { 200 } else { 1_000 });
    let threshold = aircal_adsb::DecoderConfig::default().preamble_threshold;
    let template = aircal_adsb::ppm::preamble_template();
    let dense_peaks = || -> Vec<Vec<usize>> {
        windows
            .iter()
            .map(|w| {
                find_peaks(
                    &normalized_correlation(&w.samples, &template),
                    threshold,
                    64,
                )
            })
            .collect()
    };
    let mut scan = PreambleScan::default();
    let mut sparse_peaks = || -> Vec<Vec<usize>> {
        windows
            .iter()
            .map(|w| {
                scan.run(&w.samples, threshold, 64)
                    .iter()
                    .map(|&(lag, _)| lag)
                    .collect()
            })
            .collect()
    };
    let peaks_identical = dense_peaks() == sparse_peaks();
    let dense_seconds = time_best(reps, dense_peaks);
    let sparse_seconds = time_best(reps, sparse_peaks);
    let preamble_scan = CorrTiming {
        samples,
        dense_seconds,
        sparse_seconds,
        speedup: dense_seconds / sparse_seconds,
        peaks_identical,
    };
    eprintln!(
        "# preamble_scan: sparse scan {:.2}x vs dense, peaks {}",
        preamble_scan.speedup,
        if peaks_identical {
            "identical"
        } else {
            "DIVERGED"
        }
    );

    // --- Overlap-save FIR vs direct --------------------------------------
    let input_len = if quick { 40_000 } else { 200_000 };
    let x: Vec<Cplx> = (0..input_len)
        .map(|i| Cplx::phasor(0.123 * i as f64))
        .collect();
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
        eprintln!(
            "# fir {taps} taps: overlap-save {:.2}x vs direct",
            t.speedup
        );
        fir.push(t);
    }

    // --- Geometry acceleration (dense world) -----------------------------
    let geometry = geometry_timings(quick, reps);
    eprintln!(
        "# geometry: {} buildings, index {:.2}x, index+memo {:.2}x, hit rate {:.2}, bits {}",
        geometry.buildings,
        geometry.indexed_speedup,
        geometry.cached_speedup,
        geometry.cache_hit_rate,
        if geometry.bit_identical {
            "identical"
        } else {
            "DIVERGED"
        }
    );

    // --- Campaign engine at fleet scale -----------------------------------
    let scale = scale_campaigns(seed);
    for s in &scale {
        eprintln!(
            "# scale {} nodes: {} events in {:.3}s ({:.0} events/s)",
            s.nodes, s.events, s.seconds, s.events_per_sec
        );
    }

    // --- Journal replay ----------------------------------------------------
    let recovery = journal_replay(reps);
    eprintln!(
        "# recovery: journal replay {:.0} records/s",
        recovery.journal_replay_records_per_sec
    );

    let report = PipelineReport {
        quick,
        host_cores,
        geometry,
        kernels,
        adsb_decode,
        preamble_scan,
        fir,
        scale,
        recovery,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PIPELINE.json");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_PIPELINE.json");
    println!("wrote {path}");

    // Budget checks run last so the report is on disk (and uploadable as
    // a CI artifact) even when a gate trips.
    if check && !check_budgets(&report, committed_budgets()) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report that clears every committed bound.
    fn passing_report() -> PipelineReport {
        PipelineReport {
            geometry: GeometryTiming {
                indexed_speedup: 10.0,
                cached_speedup: 10.0,
                cache_hit_rate: 1.0,
                bit_identical: true,
                ..GeometryTiming::default()
            },
            kernels: KernelsReport {
                dispatch: "avx512",
                kernels: ["sum_f64", "energy"]
                    .map(|kernel| KernelTiming {
                        kernel,
                        speedup: 4.0,
                        bit_identical: true,
                        ..KernelTiming::default()
                    })
                    .into(),
                finalize: FinalizeTiming {
                    arms: ["scalar", "avx2", "avx512"]
                        .map(|arm| FinalizeArm {
                            arm,
                            bit_identical: true,
                            ..FinalizeArm::default()
                        })
                        .into(),
                    ..FinalizeTiming::default()
                },
                fft: FftTiming {
                    bit_identical: true,
                    ..FftTiming::default()
                },
            },
            preamble_scan: CorrTiming {
                peaks_identical: true,
                ..CorrTiming::default()
            },
            scale: vec![ScaleTiming {
                nodes: 100,
                events_per_sec: 1e9,
                ..ScaleTiming::default()
            }],
            recovery: RecoverySection {
                journal_replay_records_per_sec: 1e9,
                ..RecoverySection::default()
            },
            ..PipelineReport::default()
        }
    }

    #[test]
    fn committed_budgets_pass_a_passing_report_and_fail_a_slow_one() {
        assert!(check_budgets(&passing_report(), committed_budgets()));
        let scalar = PipelineReport {
            kernels: KernelsReport {
                dispatch: "scalar",
                ..passing_report().kernels
            },
            ..passing_report()
        };
        assert!(
            check_budgets(&scalar, committed_budgets()),
            "scalar waives the speedup floor"
        );
        let slow = PipelineReport {
            recovery: RecoverySection::default(),
            ..passing_report()
        };
        assert!(!check_budgets(&slow, committed_budgets()));
        let mut diverged = passing_report();
        diverged.kernels.finalize.arms[1].bit_identical = false;
        assert!(
            !check_budgets(&diverged, committed_budgets()),
            "an arm the host supports but does not dispatch still gates"
        );
    }

    #[test]
    fn a_bound_no_gate_reads_fails_the_check() {
        let mut budgets = committed_budgets();
        budgets
            .get_mut("perf")
            .unwrap()
            .insert("min_unread_speedup".into(), 1.0);
        assert!(!check_budgets(&passing_report(), budgets));

        let mut budgets = committed_budgets();
        let gone = BTreeMap::from([("min_detection_rate".to_owned(), 1.0)]);
        budgets.insert("robustness".into(), gone);
        assert!(!check_budgets(&passing_report(), budgets));
    }
}
