//! Seed-corpus fuzz for the node⇄cloud protocol decoder.
//!
//! A real deployment would feed [`Request`]/[`Response`] decode with
//! bytes from strangers' machines, so decode must be total: malformed,
//! truncated, type-confused, or bit-flipped frames are *errors*, never
//! panics, and anything that does decode must re-encode/re-decode to
//! the same value (otherwise the transport's corrupt-reply detection
//! can be confused by a frame that changes meaning on the second look).
//!
//! The corpus under `tests/corpus/` commits one well-formed frame per
//! message kind plus hand-written adversarial seeds (extreme numbers,
//! wrong types, trailing garbage, truncation, invalid UTF-8), and
//! `wal_`-prefixed binary seeds exercising the write-ahead journal's
//! crash-recovery scan ([`Journal::open`] must be total too). Registry,
//! registry node-state and node-agent snapshots are fuzzed from seeds
//! built in code (snapshot restore must be total as well). Each seed
//! is then pushed through a fixed budget of deterministic mutations —
//! byte flips, truncations, splices, insertions — from a ChaCha8 stream
//! keyed by the file name, so every CI run fuzzes the exact same
//! mutants and a failure is a one-line reproducer, not a flake. The
//! budget keeps the whole suite a bounded tier-1 `cargo test`, per the
//! deterministic-simulation-testing posture of the repo.

use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_core::wal::{crc32, fnv1a, Journal, WalRecord, FNV1A_OFFSET};
use aircal_env::{Scenario, ScenarioKind};
use aircal_net::adversary::AdversaryState;
use aircal_net::{
    snapshot, Adversary, AdversaryKind, HealthLadder, NodeAgent, NodeBehavior, NodeHealth,
    RegistryNodeState, Request, Response, ServiceLedger,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::Arc;

/// Deterministic mutants generated per corpus seed.
const MUTATIONS_PER_SEED: usize = 150;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Every committed corpus file, sorted by name for run-order stability.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir committed")
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).unwrap();
            (name, bytes)
        })
        .collect();
    files.sort();
    assert!(
        files.len() >= 12,
        "corpus went missing: only {} files",
        files.len()
    );
    files
}

/// One deterministic mutation of `seed`: flip, insert, delete, splice,
/// or truncate. Always returns *some* byte string (possibly empty).
fn mutate(seed: &[u8], rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut out = seed.to_vec();
    let ops = 1 + rng.gen_range(0..3u32);
    for _ in 0..ops {
        if out.is_empty() {
            out.push(rng.gen_range(0..=255u32) as u8);
            continue;
        }
        let pos = rng.gen_range(0..out.len() as u64) as usize;
        match rng.gen_range(0..5u32) {
            0 => out[pos] ^= 1 << rng.gen_range(0..8u32), // bit flip
            1 => out.insert(pos, rng.gen_range(0..=255u32) as u8), // insert
            2 => {
                out.remove(pos); // delete
            }
            3 => out.truncate(pos), // truncate
            _ => {
                // Splice: copy a short window from elsewhere in the seed.
                let src = rng.gen_range(0..seed.len() as u64) as usize;
                let len = (rng.gen_range(1..8u32) as usize).min(seed.len() - src);
                let window: Vec<u8> = seed[src..src + len].to_vec();
                let pos = pos.min(out.len());
                for (i, b) in window.into_iter().enumerate() {
                    out.insert(pos + i, b);
                }
            }
        }
    }
    out
}

/// Decode `text` both ways; whatever decodes must round-trip stably.
/// Returns how many decodes succeeded (to prove the fuzz isn't only
/// exercising the error path).
fn check_total_and_stable(name: &str, text: &str) -> u32 {
    let mut hits = 0;
    if let Ok(req) = serde_json::from_str::<Request>(text) {
        hits += 1;
        let re = serde_json::to_string(&req).expect("re-encode decoded request");
        let back: Request = serde_json::from_str(&re)
            .unwrap_or_else(|e| panic!("{name}: re-decode of {re} failed: {e:?}"));
        assert_eq!(
            back, req,
            "{name}: request changed meaning across a round-trip"
        );
    }
    if let Ok(resp) = serde_json::from_str::<Response>(text) {
        hits += 1;
        let re = serde_json::to_string(&resp).expect("re-encode decoded response");
        let back: Response = serde_json::from_str(&re)
            .unwrap_or_else(|e| panic!("{name}: re-decode of {re} failed: {e:?}"));
        // `SurveyResult` has no PartialEq; compare re-encodings instead.
        let re2 = serde_json::to_string(&back).unwrap();
        assert_eq!(
            re, re2,
            "{name}: response changed meaning across a round-trip"
        );
    }
    hits
}

/// The well-formed corpus members must actually decode: a corpus that
/// rots into all-garbage would silently stop exercising the success
/// paths the mutants start from.
#[test]
fn corpus_seeds_decode_as_committed() {
    for (name, bytes) in corpus() {
        let text = String::from_utf8_lossy(&bytes);
        let hits = check_total_and_stable(&name, &text);
        if name.starts_with("req_") || name.starts_with("resp_") {
            assert!(hits > 0, "{name}: committed frame no longer decodes");
        }
    }
}

/// The fuzz proper: a fixed budget of deterministic mutants per seed.
/// Decode must be total (no panic — reaching the end of this test *is*
/// the assertion) and stable on everything that decodes.
#[test]
fn mutated_frames_never_panic_the_decoder() {
    let mut mutants = 0u64;
    let mut decoded = 0u64;
    for (name, bytes) in corpus() {
        // Per-file stream: adding a corpus file never changes the
        // mutants generated for existing files.
        let mut rng = ChaCha8Rng::seed_from_u64(fnv1a(FNV1A_OFFSET, name.as_bytes()));
        for _ in 0..MUTATIONS_PER_SEED {
            let mutant = mutate(&bytes, &mut rng);
            let text = String::from_utf8_lossy(&mutant);
            decoded += check_total_and_stable(&name, &text) as u64;
            mutants += 1;
        }
    }
    assert_eq!(
        mutants,
        corpus().len() as u64 * MUTATIONS_PER_SEED as u64,
        "bounded budget: every seed gets exactly its share"
    );
    assert!(
        decoded >= 25,
        "only {decoded} mutants decoded — mutations too destructive to cover success paths"
    );
}

/// Salt separating the WAL mutation streams from the JSON ones, so the
/// two fuzz tests never share mutants for a same-named seed.
const WAL_STREAM_SALT: u64 = 0x0057_414C; // "WAL"

/// The committed WAL seeds, built in code: a canonical journal holding
/// one record of every kind, a torn-tail copy cut mid-frame, and a copy
/// with one bit flipped in the middle (CRC mismatch partway in).
fn wal_seed_journals() -> Vec<(&'static str, Vec<u8>)> {
    let mut j = Journal::new();
    j.append(&WalRecord::SnapshotTaken {
        tick: 14,
        state_crc: 0x1234_5678,
    });
    j.append(&WalRecord::NodeState {
        state: vec![1, 2, 3, 4, 5],
    });
    j.append(&WalRecord::RoundCompleted { effects: 1 });
    j.append(&WalRecord::Dispatch {
        node: 3,
        kind: 1,
        seq: 9,
        tick: 11,
    });
    j.append(&WalRecord::ReportApplied {
        node: 3,
        kind: 1,
        seq: 9,
        value_bits: (-61.5f64).to_bits(),
        tick: 14,
    });
    j.append(&WalRecord::DeliveryFailed {
        node: 3,
        kind: 2,
        seq: 10,
        tick: 15,
    });
    j.sync();
    let clean = j.to_bytes();

    let mut torn = clean.clone();
    torn.truncate(clean.len() - 5);
    let mut flipped = clean.clone();
    let mid = clean.len() / 2;
    flipped[mid] ^= 0x40;

    vec![
        ("wal_clean_journal.bin", clean),
        ("wal_torn_tail.bin", torn),
        ("wal_bitflip_mid.bin", flipped),
    ]
}

/// The committed `wal_` seeds must match what the in-code builder
/// produces — a codec change that silently re-frames the journal would
/// otherwise leave the corpus fuzzing stale bytes. Regenerate with
/// `UPDATE_CORPUS=1 cargo test -p aircal-net --test protocol_fuzz`.
#[test]
fn wal_corpus_seeds_match_committed() {
    for (name, bytes) in wal_seed_journals() {
        let path = corpus_dir().join(name);
        if std::env::var_os("UPDATE_CORPUS").is_some() {
            std::fs::write(&path, &bytes).unwrap();
            continue;
        }
        let committed = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("{name}: missing committed seed (run UPDATE_CORPUS=1): {e}")
        });
        assert_eq!(
            committed, bytes,
            "{name}: committed WAL seed diverged from the codec"
        );
    }
}

/// WAL crash-recovery fuzz: [`Journal::open`] over every `wal_` seed,
/// every byte-truncation of every seed, and the per-seed mutation
/// budget. It must be total (no panic), recover only frame-boundary
/// prefixes (truncating the input never yields records the full input
/// didn't), and be idempotent (reopening its own recovered bytes loses
/// nothing).
#[test]
fn wal_frames_recover_longest_valid_prefix_and_never_panic() {
    let wal_seeds: Vec<(String, Vec<u8>)> = corpus()
        .into_iter()
        .filter(|(n, _)| n.starts_with("wal_"))
        .collect();
    assert!(
        wal_seeds.len() >= 3,
        "WAL corpus went missing: only {} wal_ seeds",
        wal_seeds.len()
    );

    for (name, bytes) in &wal_seeds {
        let full = Journal::open(bytes).0.records();

        // Every truncation recovers a (monotonically growing) prefix of
        // the full recovery: the scan can only stop earlier, never
        // invent records past a cut.
        let mut prev = 0usize;
        for cut in 0..=bytes.len() {
            let (j, report) = Journal::open(&bytes[..cut]);
            let records = j.records();
            assert_eq!(
                report.recovered as usize,
                records.len(),
                "{name}@{cut}: open report disagrees with the journal it built"
            );
            assert!(
                records.len() >= prev,
                "{name}@{cut}: recovery went backwards as bytes were added"
            );
            assert_eq!(
                records.as_slice(),
                &full[..records.len()],
                "{name}@{cut}: truncated input recovered a non-prefix"
            );
            prev = records.len();
        }
    }

    // The fuzz proper: deterministic mutants, on a stream salted away
    // from the JSON decoder's mutants for the same file names.
    let mut mutants = 0u64;
    let mut recovered_some = 0u64;
    for (name, bytes) in &wal_seeds {
        let seed = fnv1a(FNV1A_OFFSET, name.as_bytes()) ^ WAL_STREAM_SALT;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..MUTATIONS_PER_SEED {
            let mutant = mutate(bytes, &mut rng);
            let (j, report) = Journal::open(&mutant);
            let records = j.records();
            assert_eq!(
                report.recovered as usize,
                records.len(),
                "{name}: open report disagrees with the journal it built"
            );
            // Idempotence: the recovered prefix is itself fully valid.
            let (j2, report2) = Journal::open(&j.to_bytes());
            assert_eq!(
                report2.truncated_bytes, 0,
                "{name}: recovered bytes were not self-clean"
            );
            assert_eq!(j2.records(), records, "{name}: recovery is not idempotent");
            if report.recovered > 0 {
                recovered_some += 1;
            }
            mutants += 1;
        }
    }
    assert_eq!(
        mutants,
        wal_seeds.len() as u64 * MUTATIONS_PER_SEED as u64,
        "bounded budget: every WAL seed gets exactly its share"
    );
    assert!(
        recovered_some >= 25,
        "only {recovered_some} mutants recovered any records — mutations too destructive"
    );
}

/// Salt separating the snapshot mutation streams from the others.
const SNAPSHOT_STREAM_SALT: u64 = 0x4143_534E; // "ACSN"

/// Registry states covering every field shape: empty and non-ASCII
/// names, every health rung, both option tags of every optional field,
/// an empty and a long baseline with non-finite powers, and an eviction
/// reason.
fn registry_seed_states() -> Vec<RegistryNodeState> {
    let base = RegistryNodeState {
        name: "open-field".into(),
        ladder: HealthLadder::default(),
        reachable: true,
        last_seed: Some(777),
        survey_fp: Some(0xDEAD_BEEF),
        cells_fp: None,
        tv_fp: Some(1),
        baseline: vec![(0, "Tower 1".into(), -61.25), (1, "KSE-22".into(), -33.5)],
        attested: Some((12, 0x1234_5678_9ABC_DEF0)),
        eviction_reason: None,
    };
    vec![
        base.clone(),
        RegistryNodeState {
            name: String::new(),
            ladder: HealthLadder {
                consecutive_failures: u32::MAX,
                consecutive_anomalies: 4,
                health: NodeHealth::Evicted,
            },
            reachable: false,
            last_seed: None,
            survey_fp: None,
            tv_fp: None,
            baseline: Vec::new(),
            attested: None,
            eviction_reason: Some("replayed a stale survey".into()),
            ..base.clone()
        },
        RegistryNodeState {
            name: "Zürich-rooftop-✓".into(),
            ladder: HealthLadder {
                health: NodeHealth::Degraded,
                ..HealthLadder::default()
            },
            cells_fp: Some(u64::MAX),
            baseline: (0..12u8)
                .map(|i| {
                    let db = [f64::NAN, f64::INFINITY, -0.0, -120.5][i as usize % 4];
                    (i % 3, format!("band-{i}"), db)
                })
                .collect(),
            ..base
        },
    ]
}

/// `payload` in a snapshot envelope of `kind` with a valid CRC, so a
/// mutated payload reaches the field decoders instead of stopping at the
/// checksum.
fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = snapshot::MAGIC.to_vec();
    out.extend_from_slice(&snapshot::VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Snapshot totality: [`snapshot::restore_registry`] and
/// [`snapshot::decode_node_state`] over every truncation of a valid
/// snapshot and over the mutation budget per seed — raw mutants of the
/// sealed snapshot (which the CRC rejects), mutated payloads re-sealed
/// with a valid CRC, and mutated bare node payloads. None may panic;
/// valid snapshots round-trip byte for byte, and so does every mutant
/// that decodes.
#[test]
fn snapshot_restore_is_total_and_round_trips() {
    let states = registry_seed_states();
    let snap = snapshot::snapshot_registry(&states);
    let restored = snapshot::restore_registry(&snap).expect("valid snapshot restores");
    assert_eq!(restored.len(), states.len());
    // NaN baselines defeat `PartialEq`; the encodings must agree instead.
    assert_eq!(snapshot::snapshot_registry(&restored), snap);
    for s in &states {
        let bytes = snapshot::encode_node_state(s);
        let back = snapshot::decode_node_state(&bytes).expect("valid node state decodes");
        assert_eq!(snapshot::encode_node_state(&back), bytes);
    }
    for cut in 0..snap.len() {
        assert!(
            snapshot::restore_registry(&snap[..cut]).is_err(),
            "truncation at {cut} restored"
        );
    }

    // The registry payload sits between the 11-byte header and the CRC.
    let payload = &snap[11..snap.len() - 4];
    assert_eq!(seal(snapshot::KIND_REGISTRY, payload), snap);
    let mut seeds: Vec<(String, Vec<u8>)> = vec![("registry".into(), payload.to_vec())];
    seeds.extend(
        states
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("node-{i}"), snapshot::encode_node_state(s))),
    );
    let (mut mutants, mut decoded) = (0u64, 0u64);
    for (name, bytes) in &seeds {
        let seed = fnv1a(FNV1A_OFFSET, name.as_bytes()) ^ SNAPSHOT_STREAM_SALT;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..MUTATIONS_PER_SEED {
            let mutant = mutate(bytes, &mut rng);
            // Raw bytes first: mostly a checksum or header error.
            let _ = snapshot::restore_registry(&mutant);
            let _ = snapshot::restore_registry(&mutate(&snap, &mut rng));
            if let Ok(nodes) = snapshot::restore_registry(&seal(snapshot::KIND_REGISTRY, &mutant)) {
                let again = snapshot::snapshot_registry(&nodes);
                let back = snapshot::restore_registry(&again)
                    .unwrap_or_else(|e| panic!("{name}: re-encoded snapshot failed: {e}"));
                assert_eq!(
                    snapshot::snapshot_registry(&back),
                    again,
                    "{name}: unstable"
                );
                decoded += 1;
            }
            if let Ok(node) = snapshot::decode_node_state(&mutant) {
                let again = snapshot::encode_node_state(&node);
                let back = snapshot::decode_node_state(&again)
                    .unwrap_or_else(|e| panic!("{name}: re-encoded node state failed: {e}"));
                assert_eq!(
                    snapshot::encode_node_state(&back),
                    again,
                    "{name}: unstable"
                );
                decoded += 1;
            }
            mutants += 1;
        }
    }
    assert_eq!(mutants, seeds.len() as u64 * MUTATIONS_PER_SEED as u64);
    assert!(
        decoded >= 25,
        "only {decoded} snapshot mutants decoded — mutations too destructive"
    );
}

/// Node agents covering every field of a node snapshot: each behavior,
/// no adversary and every adversary kind (with served counters, a pinned
/// stale seed and non-finite gains), empty and long service ledgers, and
/// claims with a non-ASCII name and non-finite numbers.
fn node_seed_agents(scenario: &Scenario, sky: &Arc<TrafficSim>) -> Vec<NodeAgent> {
    let node = |behavior| NodeAgent::new(scenario.clone(), behavior, sky.clone());
    let mut agents = vec![
        node(NodeBehavior::Honest),
        node(NodeBehavior::Fabricator { ghosts: 50 }),
        node(NodeBehavior::FalseClaims),
    ];
    agents[1].restore_ledger(ServiceLedger::from_hashes(
        (0..40).map(|i| i * 0x9E37).collect(),
    ));
    agents[2].claims.name = "Zürich-rooftop-✓".into();
    agents[2].claims.position.alt_m = f64::NAN;
    agents[2].claims.freq_range_hz = (f64::NEG_INFINITY, -0.0);
    let kinds = [
        AdversaryKind::SpoofAdsb { ghosts: 7 },
        AdversaryKind::ReplayStale,
        AdversaryKind::GainInflate { db: f64::NAN },
        AdversaryKind::FrozenFrontend,
        AdversaryKind::CalibrationPoison { db_per_round: -0.0 },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let mut agent = node(NodeBehavior::Honest);
        let adversary = Adversary::new(kind, u64::MAX - i as u64);
        adversary.restore_state(AdversaryState {
            stale_survey_seed: (i % 2 == 1).then_some(0xFEED),
            surveys_served: i as u64,
            cells_served: 3,
            tv_served: u64::MAX,
        });
        agent.adversary = Some(adversary);
        agent.restore_ledger(ServiceLedger::from_hashes(vec![i as u64; i]));
        agents.push(agent);
    }
    agents
}

/// Node-agent snapshot totality: [`snapshot::restore_node`] over every
/// truncation of each seed agent's snapshot and over the mutation budget
/// per seed — raw mutants of the sealed snapshot (which the CRC rejects)
/// and mutated payloads re-sealed with a valid CRC. None may panic, and
/// every snapshot that restores re-snapshots byte for byte through
/// [`snapshot::snapshot_node`]: a restored node carries no state its
/// snapshot does not show.
#[test]
fn node_snapshot_restore_is_total_and_round_trips() {
    let scenario = Scenario::build(ScenarioKind::OpenField);
    let sky = Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 4,
            ..TrafficConfig::paper_default(scenario.site.position)
        },
        3,
    ));
    let restore = |bytes: &[u8]| snapshot::restore_node(scenario.clone(), sky.clone(), bytes);
    let (mut mutants, mut restored) = (0u64, 0u64);
    for (i, agent) in node_seed_agents(&scenario, &sky).iter().enumerate() {
        let name = format!("agent-{i}");
        let snap = snapshot::snapshot_node(agent);
        let back = restore(&snap).unwrap_or_else(|e| panic!("{name}: valid snapshot failed: {e}"));
        assert_eq!(snapshot::snapshot_node(&back), snap, "{name}: round trip");
        for cut in 0..snap.len() {
            assert!(
                restore(&snap[..cut]).is_err(),
                "{name}: truncation at {cut} restored"
            );
        }
        // The node payload sits between the 11-byte header and the CRC.
        let payload = &snap[11..snap.len() - 4];
        assert_eq!(seal(snapshot::KIND_NODE, payload), snap);
        // A parameterless adversary kind writes a zero word after its tag
        // and before the seed; any other word must not restore.
        if let Some(AdversaryKind::ReplayStale | AdversaryKind::FrozenFrontend) =
            agent.adversary.as_ref().map(|a| a.kind)
        {
            let seed_bytes = agent.adversary.as_ref().unwrap().seed.to_le_bytes();
            let at = payload
                .windows(16)
                .position(|w| w[..8] == [0; 8] && w[8..] == seed_bytes)
                .expect("reserved word before the seed");
            let mut nonzero = payload.to_vec();
            nonzero[at] = 1;
            assert!(
                restore(&seal(snapshot::KIND_NODE, &nonzero)).is_err(),
                "{name}: a non-zero reserved word restored"
            );
        }
        let seed = fnv1a(FNV1A_OFFSET, name.as_bytes()) ^ SNAPSHOT_STREAM_SALT;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..MUTATIONS_PER_SEED {
            let raw = mutate(&snap, &mut rng);
            let resealed = seal(snapshot::KIND_NODE, &mutate(payload, &mut rng));
            for bytes in [raw, resealed] {
                if let Ok(node) = restore(&bytes) {
                    assert_eq!(
                        snapshot::snapshot_node(&node),
                        bytes,
                        "{name}: a restored mutant re-snapshots differently"
                    );
                    restored += 1;
                }
            }
            mutants += 1;
        }
    }
    assert_eq!(mutants, 8 * MUTATIONS_PER_SEED as u64);
    assert!(
        restored >= 25,
        "only {restored} node snapshot mutants restored — mutations too destructive"
    );
}
