//! The campaign engine: fleet state, event application, and the
//! batch-parallel main loop.
//!
//! # How a campaign runs
//!
//! A campaign is seeded with a fleet of synthetic sensor nodes. Each
//! node has a true frequency profile (a fleet-wide base per task kind,
//! plus a small per-node calibration offset; a seeded fraction of nodes
//! are grossly miscalibrated — the paper's careless volunteers), a
//! [`LinkFaults`] chaos plan derived from the campaign seed, and an
//! `aircal-net` [`HealthLadder`] under the threaded registry's
//! [`HealthPolicy`], the same ladder and rule the registry walks.
//! Schedule rounds ask the configured [`Scheduler`] for assignments;
//! every dispatch is judged by [`LinkFaults::attempt_verdict`] (wire) and
//! [`LinkFaults::node_verdict`] (daemon crash/hang) — the *same* fault
//! semantics the threaded transport enforces. Delivered measurements
//! become [`EventKind::TaskComplete`] events after the task's dwell
//! time plus link latency; audit rounds compare fresh profiles against
//! the fleet median, walk each node's [`HealthLadder`], and update a
//! trust score.
//!
//! Everything the cloud process knows is one `SimCloud` value, changed
//! between audits only by `SimCloud::apply`, which the live handlers
//! call after journaling each record and recovery calls over the
//! journal. A cloud crash replaces the whole value with the latest
//! checkpoint's copy and applies the journal to it.
//!
//! # Determinism
//!
//! The main loop pops every event at the earliest virtual tick as one
//! batch (heap order — a pure function of queue contents), computes
//! measurement payloads for the batch's completions in parallel with
//! [`par_map`] (each payload a pure function of `(campaign seed, event
//! id, node truth)`), then applies events sequentially in batch order.
//! All stateful RNG draws happen in the apply phase. Worker count can
//! therefore never reorder anything: `workers = 1` and `workers = 8`
//! produce bit-identical event logs, digests, and trust tables.

use crate::event::{EventKind, EventQueue, SimEvent, TaskKind};
use crate::line::Line;
use crate::scheduler::{FleetView, NodeView, Scheduler, SchedulerKind};
use aircal_core::wal::{fnv1a, Journal, WalRecord, FNV1A_OFFSET};
use aircal_dsp::{derive_stream_seed, par_map};
use aircal_net::{AttemptVerdict, HealthLadder, HealthPolicy, LinkFaults, NodeHealth, NodeVerdict};
use aircal_obs::Obs;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Stream salts: every independent randomness consumer XORs its own
/// salt into the campaign seed before deriving per-item streams, so no
/// two consumers can ever collide on a stream (see the collision-census
/// regression test over `derive_stream_seed`).
const TRUTH_SALT: u64 = 0x5452_5554_4800_0001; // "TRUTH"
const FAULT_SALT: u64 = 0xFA17_C0DE_0000_0001;
const LINK_SALT: u64 = 0x4C49_4E4B_0000_0001; // "LINK"
const MEAS_SALT: u64 = 0x4D45_4153_5552_4531; // "MEASURE1"

/// Stable tie-break key salts (see [`EventQueue::push_keyed`]): every
/// event is keyed by *what it is*, never by creation order, so a run
/// with injected duplicates/replays/backlog re-pushes orders its shared
/// events identically to a fault-free run — the foundation of the
/// exactly-once bit-identity property.
const KEY_SCHED: u64 = 0x5343_4845_4400_0001; // "SCHED"
const KEY_AUDIT: u64 = 0x4155_4449_5400_0001; // "AUDIT"
const KEY_TASK: u64 = 0x5441_534B_0000_0001; // "TASK"
const KEY_REPLAY: u64 = 0x5245_504C_4159_0001; // "REPLAY"
const KEY_BACKLOG: u64 = 0x4241_434B_4C4F_4701; // "BACKLOG"
const KEY_PART: u64 = 0x5041_5254_0000_0001; // "PART"
const KEY_CRASH: u64 = 0x4352_4153_4800_0001; // "CRASH"
const KEY_END: u64 = 0x454E_4400_0000_0001; // "END"

/// Stable identity of one delivered report: a pure hash of `(node,
/// kind, seq)`. Used both as the event's tie-break key and (with
/// [`KEY_REPLAY`]/[`KEY_BACKLOG`] folded in) for its injected copies.
fn task_key(node: u32, kind: TaskKind, seq: u64) -> u64 {
    let mut h = fnv1a(KEY_TASK, &node.to_le_bytes());
    h = fnv1a(h, &[kind.index() as u8]);
    fnv1a(h, &seq.to_le_bytes())
}

/// One measurement report's band powers, dB.
type Payload = [f64; TaskKind::BANDS];

/// A measurement payload: pure function of `(campaign seed, node,
/// dispatch seq, node truth)`. Safe to compute on any worker thread —
/// it derives its own RNG stream from the dispatch identity, so a
/// duplicated or retransmitted delivery of the same `(node, seq)`
/// carries bit-identical data (as a retransmission of one capture
/// does), and injecting extra events never shifts any other payload.
fn measure_payload(meas_seed: u64, node: u32, seq: u64, base: &Payload, offset_db: f64) -> Payload {
    let node_stream = derive_stream_seed(meas_seed, node as u64);
    let mut rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(node_stream, seq));
    // Two words per band, drawn in one `fill_u64` (the words the same
    // number of `gen_range` calls would take).
    let mut words = [0u64; 2 * TaskKind::BANDS];
    rng.fill_u64(&mut words);
    std::array::from_fn(|i| {
        // Sum of two uniforms: triangular, sigma ~ 0.4 dB.
        let noise = rand::uniform_f64(words[2 * i], -0.5, 0.5)
            + rand::uniform_f64(words[2 * i + 1], -0.5, 0.5);
        base[i] + offset_db + noise
    })
}

/// Seed-derived chaos shaping for the whole fleet. Which nodes are
/// lossy, crashy, corrupting, or miscalibrated is drawn per node from
/// the campaign seed, so two runs of the same config face the same
/// fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetFaultsConfig {
    /// Fraction of nodes with a lossy link.
    pub lossy_fraction: f64,
    /// Total drop probability for lossy nodes (split 70/30 between
    /// request and response drops, mirroring where real losses bite).
    pub drop_probability: f64,
    /// Fraction of nodes whose host daemon crashes after a seeded
    /// number of served requests.
    pub crash_fraction: f64,
    /// Fraction of nodes that garble one seeded wire attempt.
    pub corrupt_fraction: f64,
    /// Fraction of nodes with a gross (+8 dB) calibration error — the
    /// installations the audit rounds exist to catch.
    pub miscalibrated_fraction: f64,
    /// One-way delivery latency, in virtual ticks.
    pub latency_ticks: u64,
}

impl Default for FleetFaultsConfig {
    fn default() -> Self {
        Self {
            lossy_fraction: 0.15,
            drop_probability: 0.35,
            crash_fraction: 0.02,
            corrupt_fraction: 0.02,
            miscalibrated_fraction: 0.05,
            latency_ticks: 1,
        }
    }
}

/// One scheduled network partition: the node subset `id % modulus ==
/// remainder` is severed from the cloud between `start_tick` and
/// `heal_tick`. Partitioned nodes are skipped by the scheduler; reports
/// already in flight toward the cloud are backlogged and drain at the
/// heal tick. A node under overlapping specs stays severed until the
/// latest of their heal ticks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionSpec {
    pub start_tick: u64,
    pub heal_tick: u64,
    /// Subset selector modulus (0 is treated as "no nodes").
    pub modulus: u32,
    /// Subset selector remainder.
    pub remainder: u32,
}

/// Cloud-side failure schedule: process crashes, restart delay, and
/// network partitions, plus per-node at-least-once delivery chaos
/// (duplicated frames and stale retransmissions). All empty by default
/// — a config with `RecoveryFaultsConfig::default()` runs exactly the
/// fault profile earlier revisions ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryFaultsConfig {
    /// Virtual ticks at which the cloud process dies and recovers from
    /// snapshot + journal.
    pub crash_ticks: Vec<u64>,
    /// Ticks of downtime before a crashed cloud resumes scheduling and
    /// audits. With 0 the recovery is transparent to the virtual
    /// schedule (the cloud is still replaced by its checkpoint and
    /// rebuilt from the journal, and the safety invariant still checks
    /// recovered ≡ live).
    pub restart_delay_ticks: u64,
    /// Scheduled network partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Fraction of nodes whose link duplicates one seeded delivery
    /// (the report arrives twice; the dedup guard must drop the copy).
    pub duplicate_fraction: f64,
    /// Fraction of nodes whose link retransmits one stale,
    /// already-applied report out of order.
    pub reorder_fraction: f64,
}

impl Default for RecoveryFaultsConfig {
    fn default() -> Self {
        Self {
            crash_ticks: Vec::new(),
            restart_delay_ticks: 0,
            partitions: Vec::new(),
            duplicate_fraction: 0.0,
            reorder_fraction: 0.0,
        }
    }
}

/// Everything that defines a campaign. Two equal configs replay
/// bit-identically; `workers` is explicitly *not* part of the outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    pub nodes: usize,
    pub seed: u64,
    /// Worker threads for the payload compute phase. Never affects
    /// results — only wall-clock.
    pub workers: usize,
    pub scheduler: SchedulerKind,
    /// Dispatches per schedule round.
    pub capacity_per_round: usize,
    /// Ticks between schedule rounds.
    pub schedule_period: u64,
    /// Ticks between audit rounds.
    pub audit_period: u64,
    /// Ticks before an outstanding dispatch is presumed lost.
    pub timeout_ticks: u64,
    /// Campaign horizon.
    pub max_ticks: u64,
    /// Keep the full event log in the result (tests); the digest is
    /// always computed either way.
    pub record_log: bool,
    pub faults: FleetFaultsConfig,
    /// Cloud crash/partition/at-least-once delivery schedule.
    pub recovery: RecoveryFaultsConfig,
    /// Check safety invariants (exactly-once accounting, journal chain
    /// continuity, recovered ≡ live state) during the run; violations
    /// land in [`CampaignResult::invariant_violations`].
    pub monitor_invariants: bool,
}

impl CampaignConfig {
    /// Defaults shaped like the paper's deployment sketch: utility
    /// scheduling, an eighth of the fleet dispatched per round, audits
    /// every 50 ticks.
    pub fn paper_default(nodes: usize, seed: u64) -> Self {
        Self {
            nodes,
            seed,
            workers: 1,
            scheduler: SchedulerKind::UtilityDriven,
            capacity_per_round: (nodes / 8).max(1),
            schedule_period: 5,
            audit_period: 50,
            timeout_ticks: 12,
            max_ticks: 1200,
            record_log: false,
            faults: FleetFaultsConfig::default(),
            recovery: RecoveryFaultsConfig::default(),
            monitor_invariants: true,
        }
    }
}

/// Final state of one campaign. `PartialEq` compares *everything*
/// (trust bits, digest, log) — the determinism property tests lean on
/// that.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    pub nodes: usize,
    pub scheduler: String,
    /// Events applied (== events scheduled; the queue always drains).
    pub events: u64,
    /// Virtual tick of the last applied batch.
    pub final_tick: u64,
    /// FNV-1a chain over every event-log line, then the final trust
    /// table and health states. The campaign's identity.
    pub digest: String,
    /// First tick at which ≥ 90 % of the fleet had every profile kind
    /// measured at least once; `None` if never reached.
    pub coverage90_tick: Option<u64>,
    /// Nodes with all three profile kinds covered at the end.
    pub covered_nodes: usize,
    pub completed_tasks: u64,
    pub dropped_requests: u64,
    pub dropped_responses: u64,
    pub corrupt_deliveries: u64,
    pub crashed_nodes: usize,
    /// Audit rounds that flagged at least one anomalous profile.
    pub anomaly_flags: u64,
    /// FNV-1a digest over the final *cloud-side* state only (trust,
    /// ladders, profiles, dedup high-water marks, scheduler views).
    /// Unlike `digest` it ignores the event log, so a run with injected
    /// duplicates/replays/crashes must match its fault-free twin here
    /// bit-for-bit — the exactly-once acceptance property.
    pub state_digest: String,
    /// Cloud crash/recovery cycles completed.
    pub recoveries: u64,
    /// Journal records replayed across all recoveries.
    pub replayed_records: u64,
    /// Virtual ticks of cloud downtime across all crashes.
    pub recovery_ticks: u64,
    /// Journal appends / sync barriers over the whole campaign.
    pub wal_appends: u64,
    pub wal_syncs: u64,
    /// Reports deferred by a partition or cloud downtime, drained later.
    pub backlogged_reports: u64,
    /// At-least-once re-deliveries dropped by the dedup guard.
    pub deduped_reports: u64,
    /// Deliveries the link layer duplicated / retransmitted stale.
    pub duplicated_deliveries: u64,
    pub reordered_deliveries: u64,
    /// Safety-invariant violations (empty on a correct engine).
    pub invariant_violations: Vec<String>,
    /// Final health state census, keyed by state name.
    pub health_counts: BTreeMap<String, usize>,
    /// Final per-node trust scores as IEEE-754 bit patterns, indexed by
    /// node id — bit-exact across worker counts by construction.
    pub trust_table: Vec<u64>,
    /// Full event log; empty unless [`CampaignConfig::record_log`].
    pub log: Vec<String>,
}

/// The fields [`CampaignResult::summary_json`] renders, in its order.
#[derive(Serialize)]
struct Summary {
    nodes: usize,
    scheduler: String,
    events: u64,
    final_tick: u64,
    digest: String,
    coverage90_tick: Option<u64>,
    covered_nodes: usize,
    completed_tasks: u64,
    dropped_requests: u64,
    dropped_responses: u64,
    corrupt_deliveries: u64,
    crashed_nodes: usize,
    anomaly_flags: u64,
    state_digest: String,
    recoveries: u64,
    deduped_reports: u64,
    health_counts: BTreeMap<String, usize>,
}

impl CampaignResult {
    /// Compact, fixture-friendly summary (excludes the trust table body
    /// and log; the digest already covers both).
    pub fn summary_json(&self) -> String {
        let summary = Summary {
            nodes: self.nodes,
            scheduler: self.scheduler.clone(),
            events: self.events,
            final_tick: self.final_tick,
            digest: self.digest.clone(),
            coverage90_tick: self.coverage90_tick,
            covered_nodes: self.covered_nodes,
            completed_tasks: self.completed_tasks,
            dropped_requests: self.dropped_requests,
            dropped_responses: self.dropped_responses,
            corrupt_deliveries: self.corrupt_deliveries,
            crashed_nodes: self.crashed_nodes,
            anomaly_flags: self.anomaly_flags,
            state_digest: self.state_digest.clone(),
            recoveries: self.recoveries,
            deduped_reports: self.deduped_reports,
            health_counts: self.health_counts.clone(),
        };
        serde_json::to_string_pretty(&summary).expect("a summary always serializes")
    }
}

/// One synthetic sensor node, engine-side: node and network truth only,
/// all of which survives a cloud crash.
struct SimNode {
    faults: LinkFaults,
    /// Draws the wire-fault verdicts; stepped only in the sequential
    /// apply phase.
    link_rng: ChaCha8Rng,
    /// Wire attempts made toward this node (indexes burst/corrupt
    /// schedules).
    attempts: u64,
    /// Requests that reached the node's daemon (indexes hang/crash
    /// schedules) — the served counter the threaded service loop keeps.
    served: u64,
    daemon_alive: bool,
    /// True calibration offset, dB (includes the +8 dB miscalibration
    /// for seeded cheaters).
    offset_db: f64,
    /// Severed from the cloud until this tick, if partitioned: the
    /// latest heal tick of the specs that cover the node.
    partitioned_until: Option<u64>,
}

/// What the cloud holds for one node.
#[derive(Clone, Copy)]
struct CloudNodeState {
    ladder: HealthLadder,
    trust: f64,
    /// Cloud-side latest profile mean per kind.
    profile_mean: [Option<f64>; 3],
    /// Kinds refreshed since the last audit round.
    fresh: [bool; 3],
    dispatched_since_audit: u32,
    completed_since_audit: u32,
    /// Kinds ever completed (coverage accounting).
    covered: [bool; 3],
    /// Cloud-assigned per-node dispatch sequence counter.
    next_seq: u64,
    /// Highest applied sequence number per kind — the dedup high-water
    /// mark that turns at-least-once delivery into exactly-once effects.
    last_applied_seq: [Option<u64>; 3],
    /// Last applied report `(kind, seq)`, the thing a reordering link
    /// retransmits stale.
    last_report: Option<(TaskKind, u64)>,
}

impl CloudNodeState {
    /// What the cloud holds for a node it has never heard from.
    fn unknown() -> Self {
        Self {
            ladder: HealthLadder::default(),
            trust: 0.5,
            profile_mean: [None; 3],
            fresh: [false; 3],
            dispatched_since_audit: 0,
            completed_since_audit: 0,
            covered: [false; 3],
            next_seq: 0,
            last_applied_seq: [None; 3],
            last_report: None,
        }
    }
}

/// Everything the cloud process knows, and exactly what a cloud crash
/// loses: recovery replaces the whole value with the latest
/// checkpoint's copy and applies the journal to it. Link fault
/// schedules, RNG streams, daemon liveness, true offsets and partitions
/// live in `SimNode` and survive.
#[derive(Default)]
struct SimCloud {
    nodes: Vec<CloudNodeState>,
    /// The scheduler's window onto each node.
    views: Vec<NodeView>,
    /// Nodes with every profile kind covered.
    covered_count: usize,
    /// First tick at which ≥ 90 % of the fleet was covered.
    coverage90_tick: Option<u64>,
}

impl SimCloud {
    fn new(nodes: usize) -> Self {
        Self {
            nodes: vec![CloudNodeState::unknown(); nodes],
            views: vec![NodeView::fresh(); nodes],
            covered_count: 0,
            coverage90_tick: None,
        }
    }

    /// Overwrite this value with `source`, reusing both buffers: every
    /// checkpoint and every recovery copies the whole fleet.
    fn copy_from(&mut self, source: &SimCloud) {
        self.nodes.clone_from(&source.nodes);
        self.views.clone_from(&source.views);
        self.covered_count = source.covered_count;
        self.coverage90_tick = source.coverage90_tick;
    }

    /// Apply one journaled effect: the only code that applies a
    /// `Dispatch`, `ReportApplied` or `DeliveryFailed`. The live
    /// handlers call it right after journaling the record, and recovery
    /// calls it over the journal. Audit effects are never journaled:
    /// the checkpoint that closes every round covers them. Returns
    /// whether this record crossed the 90 % coverage mark.
    fn apply(&mut self, record: &WalRecord) -> bool {
        match *record {
            WalRecord::Dispatch {
                node,
                kind,
                seq,
                tick,
            } => {
                self.views[node as usize].in_flight[kind as usize] = Some(tick);
                let n = &mut self.nodes[node as usize];
                n.dispatched_since_audit += 1;
                n.next_seq = seq + 1;
            }
            WalRecord::ReportApplied {
                node,
                kind,
                seq,
                value_bits,
                tick,
            } => {
                let ki = kind as usize;
                let view = &mut self.views[node as usize];
                view.in_flight[ki] = None;
                view.last_update[ki] = Some(tick);
                let n = &mut self.nodes[node as usize];
                n.profile_mean[ki] = Some(f64::from_bits(value_bits));
                n.fresh[ki] = true;
                n.completed_since_audit += 1;
                // The dedup guard admits only a seq above the mark.
                n.last_applied_seq[ki] = Some(seq);
                n.last_report = Some((TaskKind::ALL[ki], seq));
                if !n.covered[ki] {
                    n.covered[ki] = true;
                    if n.covered.iter().all(|&c| c) {
                        self.covered_count += 1;
                        if self.coverage90_tick.is_none()
                            && self.covered_count * 10 >= self.nodes.len() * 9
                        {
                            self.coverage90_tick = Some(tick);
                            return true;
                        }
                    }
                }
            }
            WalRecord::DeliveryFailed { node, kind, .. } => {
                self.views[node as usize].in_flight[kind as usize] = None;
            }
            // The checkpoint marker that opens the journal changes no
            // state; it still extends the hash chain. The engine writes
            // no other kind.
            _ => {}
        }
        false
    }

    /// FNV digest over every cloud-side structure and the scheduler's
    /// cursor — the witness for both the recovery safety check
    /// (recovered ≡ live) and the cross-run exactly-once property
    /// (faulty ≡ fault-free).
    fn digest(&self, scheduler_cursor: u64) -> u64 {
        fn fold_opt_u64(h: u64, v: Option<u64>) -> u64 {
            match v {
                Some(x) => fnv1a(fnv1a(h, &[1]), &x.to_le_bytes()),
                None => fnv1a(h, &[0]),
            }
        }
        let mut h = FNV1A_OFFSET;
        for (n, v) in self.nodes.iter().zip(&self.views) {
            h = fnv1a(h, &n.trust.to_bits().to_le_bytes());
            h = fnv1a(h, &n.ladder.consecutive_failures.to_le_bytes());
            h = fnv1a(h, &n.ladder.consecutive_anomalies.to_le_bytes());
            h = fnv1a(h, &[n.ladder.health.severity()]);
            for ki in 0..3 {
                h = fold_opt_u64(h, n.profile_mean[ki].map(f64::to_bits));
                h = fold_opt_u64(h, n.last_applied_seq[ki]);
                h = fnv1a(h, &[n.fresh[ki] as u8, n.covered[ki] as u8]);
                h = fold_opt_u64(h, v.last_update[ki]);
                h = fold_opt_u64(h, v.in_flight[ki]);
            }
            h = fnv1a(h, &n.dispatched_since_audit.to_le_bytes());
            h = fnv1a(h, &n.completed_since_audit.to_le_bytes());
            h = fnv1a(h, &n.next_seq.to_le_bytes());
            h = match n.last_report {
                Some((k, s)) => fnv1a(fnv1a(h, &[1, k.index() as u8]), &s.to_le_bytes()),
                None => fnv1a(h, &[0]),
            };
            h = fnv1a(h, &[v.alive as u8]);
        }
        h = fnv1a(h, &scheduler_cursor.to_le_bytes());
        h = fnv1a(h, &(self.covered_count as u64).to_le_bytes());
        fold_opt_u64(h, self.coverage90_tick)
    }
}

/// A checkpoint, taken after every audit round and once at campaign
/// start: a copy of the cloud, the scheduler's cursor, and the journal
/// hash chain, which replay must extend to the live chain value.
#[derive(Default)]
struct Checkpoint {
    cloud: SimCloud,
    scheduler_cursor: u64,
    journal_chain: u64,
}

/// Safety monitor: collects invariant violations instead of panicking,
/// so a campaign result can report them and tests/gates can assert the
/// list is empty.
#[derive(Debug, Default)]
struct InvariantMonitor {
    violations: Vec<String>,
}

impl InvariantMonitor {
    fn violation(&mut self, msg: String) {
        if self.violations.len() < 64 {
            self.violations.push(msg);
        }
    }
}

struct Campaign<'a> {
    cfg: &'a CampaignConfig,
    obs: &'a Obs,
    queue: EventQueue,
    scheduler: Box<dyn Scheduler>,
    policy: HealthPolicy,
    base: [Payload; 3],
    nodes: Vec<SimNode>,
    /// The cloud process's state: lost on a cloud crash, rebuilt from
    /// the latest checkpoint plus the journal.
    cloud: SimCloud,
    digest: u64,
    /// The event-log line being written; reused for every line.
    line: Line,
    log: Vec<String>,
    events_applied: u64,
    final_tick: u64,
    ended: bool,
    completed_tasks: u64,
    dropped_requests: u64,
    dropped_responses: u64,
    corrupt_deliveries: u64,
    crashed_nodes: usize,
    anomaly_flags: u64,
    /// Write-ahead journal of cloud-side effects since the last
    /// checkpoint (reset at every snapshot, like a real WAL after a
    /// checkpoint fsync).
    journal: Journal,
    /// Running FNV chain over every record ever appended to the journal.
    journal_chain: u64,
    /// Reused encode buffer: each record is encoded once, then hashed
    /// into the chain and framed into the journal from these bytes.
    wal_buf: Vec<u8>,
    last_checkpoint: Checkpoint,
    /// While `Some(t)`, the cloud is down until tick `t`: scheduling
    /// and audits are skipped and arriving reports are backlogged.
    cloud_down_until: Option<u64>,
    monitor: InvariantMonitor,
    recoveries: u64,
    replayed_records: u64,
    recovery_ticks: u64,
    backlogged_reports: u64,
    deduped_reports: u64,
    duplicated_deliveries: u64,
    reordered_deliveries: u64,
    /// Replay deliveries injected (duplicate copies + stale
    /// retransmissions); every one must be deduped, none applied.
    injected_replays: u64,
    /// Sabotage for the tests: recovery drops the journal's last record,
    /// which the crash check must report.
    #[cfg(test)]
    skip_last_replay: bool,
}

impl<'a> Campaign<'a> {
    fn new(cfg: &'a CampaignConfig, obs: &'a Obs) -> Self {
        let seed = cfg.seed;
        let mut truth_rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(seed ^ TRUTH_SALT, 0));
        let mut base = [[0.0f64; TaskKind::BANDS]; 3];
        for kind in &mut base {
            for band in kind.iter_mut() {
                *band = -85.0 + 45.0 * truth_rng.gen_range(0.0..1.0);
            }
        }

        let f = &cfg.faults;
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes as u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(seed ^ FAULT_SALT, i));
            // Fixed draw order keeps each node's fate a function of its
            // stream alone.
            let offset = rng.gen_range(-1.0..1.0);
            let lossy = rng.gen_range(0.0..1.0) < f.lossy_fraction;
            let crashy = rng.gen_range(0.0..1.0) < f.crash_fraction;
            let corrupting = rng.gen_range(0.0..1.0) < f.corrupt_fraction;
            let miscal = rng.gen_range(0.0..1.0) < f.miscalibrated_fraction;
            let crash_after = 2 + (rng.gen_range(0.0..1.0) * 30.0) as u64;
            let corrupt_idx = (rng.gen_range(0.0..1.0) * 8.0) as u64;
            // At-least-once delivery chaos (drawn after the legacy
            // faults so their streams are untouched): which nodes get a
            // duplicated or stale-retransmitted delivery, and at which
            // wire attempt. Membership checks draw no RNG, so enabling
            // these never shifts any other node's fault verdicts.
            let r = &cfg.recovery;
            let duplicating = rng.gen_range(0.0..1.0) < r.duplicate_fraction;
            let duplicate_idx = (rng.gen_range(0.0..1.0) * 12.0) as u64;
            let reordering = rng.gen_range(0.0..1.0) < r.reorder_fraction;
            let reorder_idx = 1 + (rng.gen_range(0.0..1.0) * 12.0) as u64;
            let faults = LinkFaults {
                request_drop: if lossy { f.drop_probability * 0.7 } else { 0.0 },
                response_drop: if lossy { f.drop_probability * 0.3 } else { 0.0 },
                latency_ms: f.latency_ticks,
                burst_outages: Vec::new(),
                crash_after: if crashy { Some(crash_after) } else { None },
                hang_on: Vec::new(),
                corrupt_on: if corrupting {
                    vec![corrupt_idx]
                } else {
                    Vec::new()
                },
                duplicate_on: if duplicating {
                    vec![duplicate_idx]
                } else {
                    Vec::new()
                },
                reorder_on: if reordering {
                    vec![reorder_idx]
                } else {
                    Vec::new()
                },
            };
            nodes.push(SimNode {
                faults,
                link_rng: ChaCha8Rng::seed_from_u64(derive_stream_seed(seed ^ LINK_SALT, i)),
                attempts: 0,
                served: 0,
                daemon_alive: true,
                offset_db: offset + if miscal { 8.0 } else { 0.0 },
                partitioned_until: None,
            });
        }

        Self {
            cfg,
            obs,
            queue: EventQueue::new(seed),
            scheduler: cfg.scheduler.build(),
            policy: HealthPolicy::default(),
            base,
            nodes,
            cloud: SimCloud::new(cfg.nodes),
            digest: FNV1A_OFFSET,
            line: Line::default(),
            log: Vec::new(),
            events_applied: 0,
            final_tick: 0,
            ended: false,
            completed_tasks: 0,
            dropped_requests: 0,
            dropped_responses: 0,
            corrupt_deliveries: 0,
            crashed_nodes: 0,
            anomaly_flags: 0,
            journal: Journal::new(),
            journal_chain: FNV1A_OFFSET,
            wal_buf: Vec::with_capacity(64),
            // `run` checkpoints the pristine cloud before any event.
            last_checkpoint: Checkpoint::default(),
            cloud_down_until: None,
            monitor: InvariantMonitor::default(),
            recoveries: 0,
            replayed_records: 0,
            recovery_ticks: 0,
            backlogged_reports: 0,
            deduped_reports: 0,
            duplicated_deliveries: 0,
            reordered_deliveries: 0,
            injected_replays: 0,
            #[cfg(test)]
            skip_last_replay: false,
        }
    }

    /// Fold the line just written into `self.line` (and its newline)
    /// into the digest. A `String` is built only when the log is
    /// recorded.
    fn log_line(&mut self) {
        self.digest = fnv1a(self.digest, self.line.end());
        if self.cfg.record_log {
            self.log.push(self.line.recorded());
        }
    }

    /// Append one effect record to the write-ahead journal, extending
    /// the hash chain, and only then apply it to the cloud. Returns
    /// whether it crossed the 90 % coverage mark.
    fn journal_and_apply(&mut self, record: WalRecord) -> bool {
        self.wal_buf.clear();
        record.encode_into(&mut self.wal_buf);
        self.journal_chain = fnv1a(self.journal_chain, &self.wal_buf);
        self.journal.append_encoded(&self.wal_buf);
        self.cloud.apply(&record)
    }

    /// Is the cloud process down (crashed, restart pending) at `now`?
    fn cloud_down(&self, now: u64) -> bool {
        self.cloud_down_until.is_some_and(|t| now < t)
    }

    /// If deliveries from `node` cannot reach a live cloud at `now`,
    /// the tick they should be deferred to.
    fn deferred_until(&self, node: u32, now: u64) -> Option<u64> {
        let partition = self.nodes[node as usize]
            .partitioned_until
            .filter(|&t| now < t);
        let down = self.cloud_down_until.filter(|&t| now < t);
        partition.max(down)
    }

    /// Checkpoint: commit the journal, copy the cloud, and reset the
    /// journal (the copy now covers all of it) — opening the fresh
    /// journal with a `SnapshotTaken` marker.
    fn checkpoint(&mut self, now: u64) {
        self.journal.sync();
        let cp = &mut self.last_checkpoint;
        cp.cloud.copy_from(&self.cloud);
        cp.scheduler_cursor = self.scheduler.cursor_state();
        cp.journal_chain = self.journal_chain;
        self.journal.reset();
        // The marker's CRC field stays 0: the crash check compares the
        // recovered state with the live one, so nothing reads it.
        self.journal_and_apply(WalRecord::SnapshotTaken {
            tick: now,
            state_crc: 0,
        });
        self.journal.sync();
    }

    /// Compute payloads for every `TaskComplete` in the batch, possibly
    /// in parallel. Results are aligned to batch positions; ordering is
    /// fixed by the batch itself, so worker count is invisible. The
    /// closure captures only immutable fleet truth — never the
    /// scheduler or any RNG state.
    fn compute_payloads(&self, batch: &[SimEvent]) -> Vec<Option<Payload>> {
        let completes: Vec<(usize, u32, TaskKind, u64)> = batch
            .iter()
            .enumerate()
            .filter_map(|(i, ev)| match ev.kind {
                // Replay deliveries never need a payload: the dedup
                // guard drops them before the data is looked at.
                EventKind::TaskComplete {
                    node,
                    kind,
                    seq,
                    replay: false,
                } => Some((i, node, kind, seq)),
                _ => None,
            })
            .collect();
        let workers = self.cfg.workers.max(1);
        let meas_seed = self.cfg.seed ^ MEAS_SALT;
        let base = &self.base;
        let nodes = &self.nodes;
        let compute = move |&(bi, node, kind, seq): &(usize, u32, TaskKind, u64)| {
            let payload = measure_payload(
                meas_seed,
                node,
                seq,
                &base[kind.index()],
                nodes[node as usize].offset_db,
            );
            (bi, payload)
        };
        let computed: Vec<(usize, Payload)> = if workers >= 2 && completes.len() >= 2 {
            par_map(&completes, workers, |_, item| compute(item))
        } else {
            completes.iter().map(compute).collect()
        };
        let mut out: Vec<Option<Payload>> = vec![None; batch.len()];
        for (bi, payload) in computed {
            out[bi] = Some(payload);
        }
        out
    }

    fn schedulable(&self, node: usize) -> bool {
        self.nodes[node].daemon_alive
            && self.cloud.nodes[node].ladder.health.severity() < NodeHealth::Quarantined.severity()
    }

    fn apply_schedule_round(&mut self, ev: &SimEvent) {
        let now = ev.time;
        let assignments = {
            let view = FleetView {
                nodes: &self.cloud.views,
                now,
                timeout_ticks: self.cfg.timeout_ticks,
            };
            self.scheduler.assign(&view, self.cfg.capacity_per_round)
        };
        let assigned = assignments.len();
        for (node, kind) in assignments {
            let ni = node as usize;
            let seq = self.cloud.nodes[ni].next_seq;
            // Write-ahead: the dispatch is journaled before any of its
            // effects exist, so a crash mid-round replays it exactly.
            self.journal_and_apply(WalRecord::Dispatch {
                node: node as u64,
                kind: kind.index() as u8,
                seq,
                tick: now,
            });
            let (verdict, daemon_alive) = {
                let n = &mut self.nodes[ni];
                let idx = n.attempts;
                n.attempts += 1;
                (
                    n.faults.attempt_verdict(idx, &mut n.link_rng),
                    n.daemon_alive,
                )
            };
            let outcome: &str;
            match verdict {
                AttemptVerdict::DroppedRequest => {
                    self.dropped_requests += 1;
                    self.obs.incr("sim.dispatch.dropped_request", 1);
                    outcome = "drop_req";
                }
                _ if !daemon_alive => {
                    // Request reached a dead daemon: silence, timeout.
                    self.obs.incr("sim.dispatch.dead_node", 1);
                    outcome = "dead";
                }
                _ => {
                    let (node_verdict, latency) = {
                        let n = &mut self.nodes[ni];
                        let nv = n.faults.node_verdict(n.served);
                        if !matches!(nv, NodeVerdict::Crashed) {
                            // The daemon received the request: its served
                            // counter advances exactly as the threaded
                            // service loop's would.
                            n.served += 1;
                        }
                        (nv, n.faults.latency_ms)
                    };
                    match node_verdict {
                        NodeVerdict::Crashed => {
                            self.nodes[ni].daemon_alive = false;
                            self.cloud.views[ni].alive = false;
                            self.crashed_nodes += 1;
                            self.obs.incr("sim.node.crashed", 1);
                            outcome = "crash";
                        }
                        NodeVerdict::Hang => {
                            self.obs.incr("sim.node.hung", 1);
                            outcome = "hang";
                        }
                        NodeVerdict::Service => {
                            let arrival = now + kind.duration_ticks() + latency;
                            let key = task_key(node, kind, seq);
                            match verdict {
                                AttemptVerdict::Deliver { .. } => {
                                    self.obs.incr("sim.dispatch.delivered", 1);
                                    self.queue.push_keyed(
                                        arrival,
                                        key,
                                        EventKind::TaskComplete {
                                            node,
                                            kind,
                                            seq,
                                            replay: false,
                                        },
                                    );
                                    outcome = "deliver";
                                }
                                AttemptVerdict::Duplicated { .. } => {
                                    // The report arrives intact — twice.
                                    // The copy lands a tick later and
                                    // must die at the dedup guard.
                                    self.obs.incr("sim.dispatch.duplicated", 1);
                                    self.duplicated_deliveries += 1;
                                    self.injected_replays += 1;
                                    self.queue.push_keyed(
                                        arrival,
                                        key,
                                        EventKind::TaskComplete {
                                            node,
                                            kind,
                                            seq,
                                            replay: false,
                                        },
                                    );
                                    self.queue.push_keyed(
                                        arrival + 1,
                                        key ^ KEY_REPLAY,
                                        EventKind::TaskComplete {
                                            node,
                                            kind,
                                            seq,
                                            replay: true,
                                        },
                                    );
                                    outcome = "duplicate";
                                }
                                AttemptVerdict::Reordered { .. } => {
                                    // The fresh report arrives normally,
                                    // but the link also retransmits the
                                    // node's previous (already-applied)
                                    // report out of order behind it.
                                    self.obs.incr("sim.dispatch.reordered", 1);
                                    self.reordered_deliveries += 1;
                                    self.queue.push_keyed(
                                        arrival,
                                        key,
                                        EventKind::TaskComplete {
                                            node,
                                            kind,
                                            seq,
                                            replay: false,
                                        },
                                    );
                                    if let Some((lk, lseq)) = self.cloud.nodes[ni].last_report {
                                        self.injected_replays += 1;
                                        self.queue.push_keyed(
                                            arrival + 1,
                                            task_key(node, lk, lseq) ^ KEY_REPLAY,
                                            EventKind::TaskComplete {
                                                node,
                                                kind: lk,
                                                seq: lseq,
                                                replay: true,
                                            },
                                        );
                                    }
                                    outcome = "reorder";
                                }
                                AttemptVerdict::Corrupted => {
                                    self.queue.push_keyed(
                                        arrival,
                                        key,
                                        EventKind::DeliveryCorrupt { node, kind, seq },
                                    );
                                    outcome = "corrupt";
                                }
                                AttemptVerdict::DroppedResponse => {
                                    // The node did the work; the reply
                                    // vanished on the wire.
                                    self.dropped_responses += 1;
                                    self.obs.incr("sim.dispatch.dropped_response", 1);
                                    outcome = "drop_resp";
                                }
                                AttemptVerdict::DroppedRequest => unreachable!("handled above"),
                            }
                        }
                    }
                }
            }
            self.line
                .begin(now, ev.id, "dispatch")
                .num("node", node.into())
                .text("kind", kind.label())
                .text("out", outcome);
            self.log_line();
        }
        self.obs.incr("sim.dispatches", assigned as u64);
        self.line
            .begin(now, ev.id, "sched")
            .num("assigned", assigned as u64);
        self.log_line();
        let next = now + self.cfg.schedule_period;
        if next < self.cfg.max_ticks {
            self.queue
                .push_keyed(next, KEY_SCHED ^ next, EventKind::ScheduleRound);
        }
    }

    fn apply_task_complete(
        &mut self,
        ev: &SimEvent,
        node: u32,
        kind: TaskKind,
        seq: u64,
        replay: bool,
        payload: Option<Payload>,
    ) {
        let ni = node as usize;
        let ki = kind.index();
        // Dedup guard: the per-(node, kind) high-water mark turns
        // at-least-once delivery into exactly-once effects. The guard
        // judges purely by sequence number — the `replay` flag is only
        // ground truth for the safety monitor, never an input to the
        // decision.
        let stale = self.cloud.nodes[ni].last_applied_seq[ki].is_some_and(|high| seq <= high);
        if stale || replay {
            if replay && !stale {
                // An injected re-delivery slipped past the sequence
                // accounting: the guard would have double-applied it.
                self.monitor.violation(format!(
                    "dedup miss: replay node={} kind={} seq={} not below high-water",
                    node,
                    kind.label(),
                    seq
                ));
            }
            self.deduped_reports += 1;
            self.obs.incr("sim.dedup.dropped", 1);
            self.line
                .begin(ev.time, ev.id, "dedup")
                .num("node", node.into())
                .text("kind", kind.label())
                .num("seq", seq);
            self.log_line();
            return;
        }
        let payload = payload.expect("payload computed for every first delivery");
        let mean = payload.iter().sum::<f64>() / payload.len() as f64;
        // Write-ahead: journal the effect before applying it.
        let coverage90 = self.journal_and_apply(WalRecord::ReportApplied {
            node: node as u64,
            kind: ki as u8,
            seq,
            value_bits: mean.to_bits(),
            tick: ev.time,
        });
        // Fold the payload bits into the digest so the digest witnesses
        // measurement *values*, not just event order.
        let mut fp = FNV1A_OFFSET;
        for v in payload {
            fp = fnv1a(fp, &v.to_bits().to_le_bytes());
        }
        if coverage90 {
            self.line.begin(ev.time, ev.id, "coverage90");
            self.log_line();
        }
        self.completed_tasks += 1;
        self.obs.incr("sim.task.completed", 1);
        self.line
            .begin(ev.time, ev.id, "complete")
            .num("node", node.into())
            .text("kind", kind.label())
            .hex("fp", fp);
        self.log_line();
    }

    fn apply_delivery_corrupt(&mut self, ev: &SimEvent, node: u32, kind: TaskKind, seq: u64) {
        // A garbled reply still tells the cloud the attempt is dead, so
        // the pair is immediately reschedulable — unlike a silent drop,
        // which has to age out through the timeout. Known-dead is cloud
        // state: journal it, or a crash right after would resurrect the
        // dispatch from its `Dispatch` record.
        self.journal_and_apply(WalRecord::DeliveryFailed {
            node: node as u64,
            kind: kind.index() as u8,
            seq,
            tick: ev.time,
        });
        self.corrupt_deliveries += 1;
        self.obs.incr("sim.delivery.corrupt", 1);
        self.line
            .begin(ev.time, ev.id, "corrupt")
            .num("node", node.into())
            .text("kind", kind.label());
        self.log_line();
    }

    fn apply_partition_start(&mut self, ev: &SimEvent, spec: u32) {
        let p = self.cfg.recovery.partitions[spec as usize];
        let mut severed = 0u32;
        for ni in 0..self.nodes.len() {
            if p.modulus != 0 && (ni as u32) % p.modulus == p.remainder {
                // Overlapping specs: the node stays severed until the
                // latest heal among them.
                let until = &mut self.nodes[ni].partitioned_until;
                *until = Some(until.map_or(p.heal_tick, |t| t.max(p.heal_tick)));
                self.cloud.views[ni].partitioned = true;
                severed += 1;
            }
        }
        self.obs.incr("sim.partition.started", 1);
        self.line
            .begin(ev.time, ev.id, "partition")
            .num("spec", spec.into())
            .num("severed", severed.into())
            .num("heal", p.heal_tick);
        self.log_line();
    }

    fn apply_partition_heal(&mut self, ev: &SimEvent, spec: u32) {
        let p = self.cfg.recovery.partitions[spec as usize];
        let mut healed = 0u32;
        for ni in 0..self.nodes.len() {
            // Only the spec holding the node's latest heal tick heals it;
            // an overlapping spec that heals later still severs it.
            if p.modulus != 0
                && (ni as u32) % p.modulus == p.remainder
                && self.nodes[ni].partitioned_until == Some(p.heal_tick)
            {
                self.nodes[ni].partitioned_until = None;
                self.cloud.views[ni].partitioned = false;
                healed += 1;
            }
        }
        self.obs.incr("sim.partition.healed", 1);
        self.line
            .begin(ev.time, ev.id, "heal")
            .num("spec", spec.into())
            .num("healed", healed.into());
        self.log_line();
    }

    /// The cloud process dies and recovers as a real crashed aggregator
    /// would: its whole [`SimCloud`] is replaced by the latest
    /// checkpoint's copy with the journal applied. The safety monitor
    /// then asserts the recovered state and hash chain are bit-identical
    /// to what the live process held at the instant of the crash.
    fn apply_cloud_crash(&mut self, ev: &SimEvent) {
        let now = ev.time;
        let live_digest = self.cloud.digest(self.scheduler.cursor_state());
        let live_chain = self.journal_chain;
        let cp = &self.last_checkpoint;
        self.cloud.copy_from(&cp.cloud);
        self.scheduler = self.cfg.scheduler.build();
        self.scheduler.restore_cursor(cp.scheduler_cursor);
        self.journal_chain = cp.journal_chain;
        // The chain extends over the durable payload bytes themselves,
        // which are exactly what `journal_and_apply` hashed.
        let records = self.journal.payloads();
        #[cfg(test)]
        let records =
            records.take(self.journal.payloads().count() - self.skip_last_replay as usize);
        let mut replayed = 0u64;
        for payload in records {
            self.journal_chain = fnv1a(self.journal_chain, payload);
            let record = WalRecord::decode(payload).expect("the engine journals valid records");
            self.cloud.apply(&record);
            replayed += 1;
        }
        // Liveness knowledge the cloud re-derives on contact rather
        // than from the journal: daemon deaths and active partitions.
        for ni in 0..self.nodes.len() {
            self.cloud.views[ni].alive = self.schedulable(ni);
            self.cloud.views[ni].partitioned =
                self.nodes[ni].partitioned_until.is_some_and(|t| now < t);
        }
        self.obs.incr("wal.replay", replayed);
        self.replayed_records += replayed;
        self.recoveries += 1;
        self.obs.incr("sim.recoveries", 1);
        if self.cfg.monitor_invariants {
            let recovered = self.cloud.digest(self.scheduler.cursor_state());
            if recovered != live_digest {
                self.monitor.violation(format!(
                    "recovery divergence at t={now}: recovered {recovered:016x} != live {live_digest:016x}"
                ));
            }
            if self.journal_chain != live_chain {
                self.monitor.violation(format!(
                    "journal hash chain broken at t={now}: {:016x} != {live_chain:016x}",
                    self.journal_chain
                ));
            }
        }
        let delay = self.cfg.recovery.restart_delay_ticks;
        if delay > 0 {
            let restart = now + delay;
            self.cloud_down_until = Some(restart);
            self.recovery_ticks += delay;
            if restart < self.cfg.max_ticks {
                self.queue
                    .push_keyed(restart, KEY_CRASH ^ restart, EventKind::CloudRestart);
            }
        }
        self.line
            .begin(now, ev.id, "cloud_crash")
            .num("replayed", replayed)
            .num("down_ticks", delay);
        self.log_line();
    }

    fn apply_cloud_restart(&mut self, ev: &SimEvent) {
        self.cloud_down_until = None;
        self.obs.incr("sim.cloud.restarts", 1);
        self.line.begin(ev.time, ev.id, "cloud_restart");
        self.log_line();
    }

    fn apply_audit_round(&mut self, ev: &SimEvent) {
        let now = ev.time;
        // Fused fleet profile per kind: median of the latest means. The
        // cloud has no ground truth; the crowd is its reference, exactly
        // as in the paper's fusion story.
        // Selection, not a sort: values equal under `total_cmp` have
        // equal bits, so the middle element is the sorted one exactly.
        let mut medians = [f64::NAN; 3];
        let mut means: Vec<f64> = Vec::with_capacity(self.nodes.len());
        for (ki, median) in medians.iter_mut().enumerate() {
            means.clear();
            means.extend(self.cloud.nodes.iter().filter_map(|n| n.profile_mean[ki]));
            if !means.is_empty() {
                let mid = means.len() / 2;
                *median = *means.select_nth_unstable_by(mid, f64::total_cmp).1;
            }
        }
        let mut audited = 0u32;
        let mut anomalies = 0u32;
        let mut quarantined_or_worse = 0u32;
        for ni in 0..self.nodes.len() {
            let n = &mut self.cloud.nodes[ni];
            if n.dispatched_since_audit == 0 && n.completed_since_audit == 0 {
                continue;
            }
            // A partitioned node is unreachable through no fault of its
            // own: the cloud severed it (or knows it is severed), so its
            // ladder and trust are left untouched until it heals.
            if self.nodes[ni].partitioned_until.is_some_and(|t| now < t) {
                continue;
            }
            audited += 1;
            let link_ok = n.completed_since_audit > 0;
            let anomalous = link_ok
                && (0..3).any(|ki| {
                    n.fresh[ki]
                        && !medians[ki].is_nan()
                        && (n.profile_mean[ki].expect("fresh implies mean") - medians[ki]).abs()
                            > 3.0
                });
            let health = n.ladder.record(&self.policy, link_ok, anomalous);
            if anomalous {
                anomalies += 1;
                n.trust = (n.trust - 0.15).max(0.0);
            } else if link_ok {
                n.trust = (n.trust + 0.03).min(1.0);
            } else {
                n.trust = (n.trust - 0.05).max(0.0);
            }
            if health.severity() >= NodeHealth::Quarantined.severity() {
                quarantined_or_worse += 1;
            }
            n.dispatched_since_audit = 0;
            n.completed_since_audit = 0;
            n.fresh = [false; 3];
            self.cloud.views[ni].alive = self.schedulable(ni);
        }
        if anomalies > 0 {
            self.anomaly_flags += 1;
        }
        // Audit effects are never journaled: the snapshot right here
        // covers them, so recovery only ever replays dispatch, report
        // and delivery-failure records.
        self.checkpoint(now);
        if self.cfg.monitor_invariants {
            self.check_invariants(now);
        }
        self.obs.incr("sim.audit.rounds", 1);
        self.obs.incr("sim.audit.anomalies", anomalies as u64);
        self.obs.set_gauge(
            "sim.coverage",
            self.cloud.covered_count as f64 / self.cfg.nodes.max(1) as f64,
        );
        self.line
            .begin(now, ev.id, "audit")
            .num("audited", audited.into())
            .num("anomalies", anomalies.into())
            .num("quarantined", quarantined_or_worse.into());
        self.log_line();
        let next = now + self.cfg.audit_period;
        if next < self.cfg.max_ticks {
            self.queue
                .push_keyed(next, KEY_AUDIT ^ next, EventKind::AuditRound);
        }
    }

    /// Per-audit-round safety sweep. Violations accumulate in the
    /// monitor and surface in [`CampaignResult::invariant_violations`].
    fn check_invariants(&mut self, now: u64) {
        for (ni, n) in self.cloud.nodes.iter().enumerate() {
            if !(0.0..=1.0).contains(&n.trust) {
                self.monitor
                    .violation(format!("t={now}: node {ni} trust {} out of [0,1]", n.trust));
            }
            for ki in 0..3 {
                if let Some(high) = n.last_applied_seq[ki] {
                    if high >= n.next_seq {
                        self.monitor.violation(format!(
                            "t={now}: node {ni} kind {ki} applied seq {high} >= next_seq {}",
                            n.next_seq
                        ));
                    }
                }
            }
        }
    }

    /// Defer a delivery that cannot reach a live cloud to `until`
    /// (+1 for replays, preserving original-before-copy order through
    /// the backlog so the dedup high-water mark sees them in sequence).
    fn backlog(
        &mut self,
        ev: &SimEvent,
        node: u32,
        kind: TaskKind,
        seq: u64,
        replay: bool,
        until: u64,
    ) {
        self.backlogged_reports += 1;
        self.obs.incr("sim.partition.backlogged", 1);
        let key = task_key(node, kind, seq) ^ KEY_BACKLOG ^ if replay { KEY_REPLAY } else { 0 };
        let target = until + replay as u64;
        self.queue.push_keyed(
            target,
            key,
            EventKind::TaskComplete {
                node,
                kind,
                seq,
                replay,
            },
        );
        self.line
            .begin(ev.time, ev.id, "backlog")
            .num("node", node.into())
            .text("kind", kind.label())
            .num("seq", seq)
            .num("until", target);
        self.log_line();
    }

    fn apply(&mut self, ev: &SimEvent, payload: Option<Payload>) {
        self.events_applied += 1;
        self.final_tick = ev.time;
        self.obs.incr("sim.events", 1);
        match ev.kind {
            EventKind::ScheduleRound => {
                if self.cloud_down(ev.time) {
                    // The dead cloud schedules nothing; the round
                    // re-arms so cadence resumes after restart.
                    self.obs.incr("sim.sched.skipped", 1);
                    let next = ev.time + self.cfg.schedule_period;
                    if next < self.cfg.max_ticks {
                        self.queue
                            .push_keyed(next, KEY_SCHED ^ next, EventKind::ScheduleRound);
                    }
                } else {
                    self.apply_schedule_round(ev);
                }
            }
            EventKind::TaskComplete {
                node,
                kind,
                seq,
                replay,
            } => {
                if let Some(until) = self.deferred_until(node, ev.time) {
                    self.backlog(ev, node, kind, seq, replay, until);
                } else {
                    self.apply_task_complete(ev, node, kind, seq, replay, payload);
                }
            }
            EventKind::DeliveryCorrupt { node, kind, seq } => {
                if let Some(until) = self.deferred_until(node, ev.time) {
                    self.backlogged_reports += 1;
                    self.obs.incr("sim.partition.backlogged", 1);
                    self.queue.push_keyed(
                        until,
                        task_key(node, kind, seq) ^ KEY_BACKLOG,
                        EventKind::DeliveryCorrupt { node, kind, seq },
                    );
                } else {
                    self.apply_delivery_corrupt(ev, node, kind, seq);
                }
            }
            EventKind::AuditRound => {
                if self.cloud_down(ev.time) {
                    self.obs.incr("sim.audit.skipped", 1);
                    let next = ev.time + self.cfg.audit_period;
                    if next < self.cfg.max_ticks {
                        self.queue
                            .push_keyed(next, KEY_AUDIT ^ next, EventKind::AuditRound);
                    }
                } else {
                    self.apply_audit_round(ev);
                }
            }
            EventKind::PartitionStart { spec } => self.apply_partition_start(ev, spec),
            EventKind::PartitionHeal { spec } => self.apply_partition_heal(ev, spec),
            EventKind::CloudCrash => self.apply_cloud_crash(ev),
            EventKind::CloudRestart => self.apply_cloud_restart(ev),
            EventKind::CampaignEnd => {
                self.ended = true;
                self.line.begin(ev.time, ev.id, "end");
                self.log_line();
            }
        }
    }

    fn finish(mut self) -> CampaignResult {
        // Fold the final trust table and health states into the digest:
        // the digest is the campaign, not just its event order.
        let mut digest = self.digest;
        for (c, n) in self.cloud.nodes.iter().zip(&self.nodes) {
            digest = fnv1a(digest, &c.trust.to_bits().to_le_bytes());
            digest = fnv1a(digest, &[c.ladder.health.severity()]);
            digest = fnv1a(digest, &n.served.to_le_bytes());
        }
        let state_digest = self.cloud.digest(self.scheduler.cursor_state());
        let mut health_counts: BTreeMap<String, usize> = BTreeMap::new();
        for c in &self.cloud.nodes {
            *health_counts
                .entry(format!("{:?}", c.ladder.health))
                .or_insert(0) += 1;
        }
        self.obs
            .set_gauge("wal.appends", self.journal.appends() as f64);
        self.obs.set_gauge("wal.syncs", self.journal.syncs() as f64);
        self.obs
            .set_gauge("recovery_ticks", self.recovery_ticks as f64);
        CampaignResult {
            nodes: self.cfg.nodes,
            scheduler: self.cfg.scheduler.label().to_string(),
            events: self.events_applied,
            final_tick: self.final_tick,
            digest: format!("{digest:016x}"),
            coverage90_tick: self.cloud.coverage90_tick,
            covered_nodes: self.cloud.covered_count,
            completed_tasks: self.completed_tasks,
            dropped_requests: self.dropped_requests,
            dropped_responses: self.dropped_responses,
            corrupt_deliveries: self.corrupt_deliveries,
            crashed_nodes: self.crashed_nodes,
            anomaly_flags: self.anomaly_flags,
            state_digest: format!("{state_digest:016x}"),
            recoveries: self.recoveries,
            replayed_records: self.replayed_records,
            recovery_ticks: self.recovery_ticks,
            wal_appends: self.journal.appends(),
            wal_syncs: self.journal.syncs(),
            backlogged_reports: self.backlogged_reports,
            deduped_reports: self.deduped_reports,
            duplicated_deliveries: self.duplicated_deliveries,
            reordered_deliveries: self.reordered_deliveries,
            invariant_violations: std::mem::take(&mut self.monitor.violations),
            health_counts,
            trust_table: self.cloud.nodes.iter().map(|c| c.trust.to_bits()).collect(),
            log: std::mem::take(&mut self.log),
        }
    }
}

/// Run a campaign with metrics disabled.
pub fn run(config: &CampaignConfig) -> CampaignResult {
    run_with_obs(config, &Obs::disabled())
}

/// Run a campaign, publishing `sim.*` metrics to `obs` and advancing
/// the `aircal-obs` virtual clock to each batch's tick.
pub fn run_with_obs(config: &CampaignConfig, obs: &Obs) -> CampaignResult {
    Campaign::new(config, obs).run()
}

impl Campaign<'_> {
    /// Seed the queue, drain it batch by batch, and report.
    fn run(mut self) -> CampaignResult {
        let config = self.cfg;
        // Checkpoint the pristine cloud before any event fires, so even a
        // crash before the first audit has a snapshot to recover onto.
        self.checkpoint(0);
        self.queue
            .push_keyed(0, KEY_SCHED, EventKind::ScheduleRound);
        if config.audit_period < config.max_ticks {
            self.queue.push_keyed(
                config.audit_period,
                KEY_AUDIT ^ config.audit_period,
                EventKind::AuditRound,
            );
        }
        for (si, p) in config.recovery.partitions.iter().enumerate() {
            if p.start_tick < config.max_ticks && p.heal_tick > p.start_tick {
                self.queue.push_keyed(
                    p.start_tick,
                    KEY_PART ^ (si as u64),
                    EventKind::PartitionStart { spec: si as u32 },
                );
                self.queue.push_keyed(
                    p.heal_tick.min(config.max_ticks),
                    KEY_PART ^ (si as u64) ^ 0x8000_0000_0000_0000,
                    EventKind::PartitionHeal { spec: si as u32 },
                );
            }
        }
        for &t in &config.recovery.crash_ticks {
            if t < config.max_ticks {
                self.queue
                    .push_keyed(t, KEY_CRASH ^ t, EventKind::CloudCrash);
            }
        }
        self.queue
            .push_keyed(config.max_ticks, KEY_END, EventKind::CampaignEnd);

        let mut batch: Vec<SimEvent> = Vec::new();
        while let Some(tick) = self.queue.pop_batch(&mut batch) {
            aircal_obs::trace::advance_clock_to(tick);
            let payloads = self.compute_payloads(&batch);
            for (ev, payload) in batch.iter().zip(payloads) {
                self.apply(ev, payload);
            }
            if self.ended {
                break;
            }
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> CampaignConfig {
        let mut cfg = CampaignConfig::paper_default(24, seed);
        cfg.max_ticks = 300;
        cfg.record_log = true;
        cfg
    }

    #[test]
    fn same_seed_same_workers_or_not_is_bit_identical() {
        let mut a_cfg = small_config(11);
        let mut b_cfg = small_config(11);
        a_cfg.workers = 1;
        b_cfg.workers = 8;
        let a = run(&a_cfg);
        let b = run(&b_cfg);
        assert_eq!(a, b, "worker count must be invisible to the outcome");
        assert!(!a.log.is_empty());
        assert!(a.completed_tasks > 0, "campaign made progress");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run(&small_config(11));
        let b = run(&small_config(12));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn chaos_paths_fire_at_fleet_scale() {
        let mut cfg = CampaignConfig::paper_default(200, 5);
        cfg.max_ticks = 600;
        let r = run(&cfg);
        assert!(r.dropped_requests > 0, "lossy links drop requests");
        assert!(r.dropped_responses > 0, "lossy links drop responses");
        assert!(r.crashed_nodes > 0, "some daemons crash");
        assert!(r.covered_nodes > 150, "most of the fleet still converges");
        assert!(
            r.anomaly_flags > 0,
            "miscalibrated nodes get flagged by audits"
        );
        let evicted_or_quarantined: usize = r
            .health_counts
            .iter()
            .filter(|(k, _)| k.as_str() == "Quarantined" || k.as_str() == "Evicted")
            .map(|(_, v)| *v)
            .sum();
        assert!(
            evicted_or_quarantined > 0,
            "the health ladder bites: {:?}",
            r.health_counts
        );
    }

    #[test]
    fn duplicates_and_reorders_leave_state_bit_identical() {
        // The exactly-once property: injected at-least-once delivery
        // (duplicated frames, stale retransmissions) must not move one
        // bit of cloud state relative to the fault-free twin.
        let mut clean = CampaignConfig::paper_default(64, 0xD0D0);
        clean.max_ticks = 400;
        let mut chaotic = clean.clone();
        chaotic.recovery.duplicate_fraction = 0.5;
        chaotic.recovery.reorder_fraction = 0.5;
        let a = run(&clean);
        let b = run(&chaotic);
        assert!(b.duplicated_deliveries > 0, "duplicates were injected");
        assert!(b.reordered_deliveries > 0, "reorders were injected");
        assert!(b.deduped_reports > 0, "the dedup guard fired");
        assert_eq!(a.deduped_reports, 0, "fault-free run never dedups");
        assert_eq!(a.state_digest, b.state_digest, "exactly-once effects");
        assert_eq!(a.trust_table, b.trust_table);
        assert!(
            b.invariant_violations.is_empty(),
            "{:?}",
            b.invariant_violations
        );
    }

    #[test]
    fn cloud_crashes_recover_bit_identically() {
        let mut clean = CampaignConfig::paper_default(64, 0xC4A5);
        clean.max_ticks = 400;
        let mut crashy = clean.clone();
        crashy.recovery.crash_ticks = vec![77, 233];
        let a = run(&clean);
        let b = run(&crashy);
        assert_eq!(b.recoveries, 2);
        assert!(
            b.replayed_records > 0,
            "mid-round crashes replay the journal"
        );
        assert!(
            b.invariant_violations.is_empty(),
            "{:?}",
            b.invariant_violations
        );
        assert_eq!(
            a.state_digest, b.state_digest,
            "instant recovery is transparent: snapshot + journal rebuild the exact state"
        );
        assert_eq!(a.trust_table, b.trust_table);
    }

    #[test]
    fn a_recovery_that_loses_a_record_is_reported() {
        // The crash check is the only guard on replay (the snapshot
        // marker carries no state CRC), so it must fire when replay is
        // wrong: here recovery drops the journal's last record.
        let mut cfg = CampaignConfig::paper_default(64, 0xC4A5);
        cfg.max_ticks = 400;
        cfg.recovery.crash_ticks = vec![77, 233];
        let obs = Obs::disabled();
        let honest = Campaign::new(&cfg, &obs).run();
        assert!(
            honest.invariant_violations.is_empty(),
            "{:?}",
            honest.invariant_violations
        );
        let mut sabotaged = Campaign::new(&cfg, &obs);
        sabotaged.skip_last_replay = true;
        let r = sabotaged.run();
        assert_eq!(r.recoveries, 2);
        assert!(
            r.invariant_violations
                .iter()
                .any(|v| v.starts_with("recovery divergence at t=77")),
            "{:?}",
            r.invariant_violations
        );
    }

    #[test]
    fn partition_skips_scheduling_and_drains_backlog_after_heal() {
        let mut cfg = CampaignConfig::paper_default(64, 0xBEEF);
        cfg.max_ticks = 600;
        cfg.recovery.partitions = vec![PartitionSpec {
            start_tick: 100,
            heal_tick: 220,
            modulus: 4,
            remainder: 1,
        }];
        let r = run(&cfg);
        assert!(
            r.invariant_violations.is_empty(),
            "{:?}",
            r.invariant_violations
        );
        // Liveness: the campaign still converges to full-fleet coverage
        // despite a quarter of the fleet being severed for 120 ticks.
        assert!(
            r.covered_nodes > 55,
            "coverage survives the partition: {}",
            r.covered_nodes
        );
        assert!(
            r.coverage90_tick.is_some(),
            "90% coverage reached within the horizon"
        );
    }

    #[test]
    fn a_crash_at_every_tick_recovers_to_the_crash_free_state() {
        // Every tick, so every record kind is replayed from every
        // position in its journal through the one apply path.
        let mut clean = CampaignConfig::paper_default(24, 0xC4A5);
        clean.max_ticks = 300;
        let mut crashy = clean.clone();
        crashy.recovery.crash_ticks = (1..clean.max_ticks).collect();
        let a = run(&clean);
        let b = run(&crashy);
        assert_eq!(b.recoveries, clean.max_ticks - 1, "one recovery per crash");
        assert!(b.replayed_records > 0);
        assert!(
            b.invariant_violations.is_empty(),
            "{:?}",
            b.invariant_violations
        );
        assert_eq!(a.state_digest, b.state_digest);
        assert_eq!(a.trust_table, b.trust_table);
    }

    #[test]
    fn overlapping_partitions_hold_until_the_latest_heal() {
        // Spec 0 severs every fourth node over [100, 300); spec 1 severs
        // every second node over [120, 180). A node under both stays
        // severed until 300: the heal at 180 must not reconnect it.
        let mut cfg = CampaignConfig::paper_default(64, 0xBEEF);
        cfg.max_ticks = 500;
        cfg.record_log = true;
        cfg.recovery.partitions = vec![
            PartitionSpec {
                start_tick: 100,
                heal_tick: 300,
                modulus: 4,
                remainder: 0,
            },
            PartitionSpec {
                start_tick: 120,
                heal_tick: 180,
                modulus: 2,
                remainder: 0,
            },
        ];
        let r = run(&cfg);
        assert!(
            r.invariant_violations.is_empty(),
            "{:?}",
            r.invariant_violations
        );
        // (tick, event, node) of every dispatch and completion.
        let field = |line: &str, key: &str| -> Option<String> {
            line.split_whitespace()
                .find_map(|f| f.strip_prefix(key)?.strip_prefix('=').map(str::to_string))
        };
        let events: Vec<(u64, String, Option<u64>)> = r
            .log
            .iter()
            .map(|l| {
                (
                    field(l, "t").unwrap().parse().unwrap(),
                    field(l, "ev").unwrap(),
                    field(l, "node").map(|n| n.parse().unwrap()),
                )
            })
            .collect();
        let heals: Vec<&String> = r.log.iter().filter(|l| l.contains(" ev=heal ")).collect();
        assert_eq!(heals.len(), 2);
        assert!(heals[0].starts_with("t=180 ") && heals[0].ends_with("spec=1 healed=16"));
        assert!(heals[1].starts_with("t=300 ") && heals[1].ends_with("spec=0 healed=16"));
        let contacts = |pick: &dyn Fn(u64) -> bool, from: u64, to: u64| {
            events
                .iter()
                .filter(|(t, ev, node)| {
                    (ev == "dispatch" || ev == "complete")
                        && (from..to).contains(t)
                        && node.is_some_and(pick)
                })
                .count()
        };
        let both = |n: u64| n.is_multiple_of(4);
        let shorter_only = |n: u64| n % 4 == 2;
        assert_eq!(
            contacts(&both, 181, 300),
            0,
            "a node under spec 0 was reached before its heal"
        );
        assert!(
            contacts(&shorter_only, 181, 300) > 0,
            "spec 1's own nodes reconnect at 180"
        );
        assert!(
            contacts(&both, 300, 500) > 0,
            "spec 0's nodes reconnect at 300"
        );
    }

    #[test]
    fn delayed_restart_defers_scheduling_and_still_recovers() {
        let mut cfg = CampaignConfig::paper_default(48, 0x0FF);
        cfg.max_ticks = 500;
        cfg.recovery.crash_ticks = vec![151];
        cfg.recovery.restart_delay_ticks = 40;
        let r = run(&cfg);
        assert_eq!(r.recoveries, 1);
        assert_eq!(r.recovery_ticks, 40);
        assert!(
            r.invariant_violations.is_empty(),
            "{:?}",
            r.invariant_violations
        );
        assert!(
            r.coverage90_tick.is_some(),
            "liveness: coverage still reached despite 40 ticks of downtime"
        );
        // Same seed, same downtime → bit-identical replay of the whole
        // crash-and-recover campaign.
        let again = run(&cfg);
        assert_eq!(r, again);
    }

    #[test]
    fn combined_faults_hold_every_invariant_at_scale() {
        let mut cfg = CampaignConfig::paper_default(200, 0xFEED);
        cfg.max_ticks = 800;
        cfg.recovery.crash_ticks = vec![123, 457];
        cfg.recovery.partitions = vec![PartitionSpec {
            start_tick: 200,
            heal_tick: 320,
            modulus: 5,
            remainder: 2,
        }];
        cfg.recovery.duplicate_fraction = 0.3;
        cfg.recovery.reorder_fraction = 0.3;
        let r = run(&cfg);
        assert!(
            r.invariant_violations.is_empty(),
            "{:?}",
            r.invariant_violations
        );
        assert!(r.deduped_reports > 0);
        assert_eq!(r.recoveries, 2);
        assert!(
            r.covered_nodes > 150,
            "fleet converges: {}",
            r.covered_nodes
        );
        // Worker count stays invisible under every fault class at once.
        let mut wide = cfg.clone();
        wide.workers = 8;
        assert_eq!(run(&wide), r);
    }

    #[test]
    fn trust_separates_honest_from_miscalibrated() {
        let mut cfg = CampaignConfig::paper_default(120, 9);
        cfg.max_ticks = 900;
        let r = run(&cfg);
        // Recover which nodes were seeded miscalibrated by re-deriving
        // the fleet, then check the trust table split.
        let f = &cfg.faults;
        let mut cheat_trust: Vec<f64> = Vec::new();
        let mut honest_trust: Vec<f64> = Vec::new();
        for i in 0..cfg.nodes as u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(cfg.seed ^ FAULT_SALT, i));
            let _offset: f64 = rng.gen_range(-1.0..1.0);
            let lossy = rng.gen_range(0.0..1.0) < f.lossy_fraction;
            let crashy = rng.gen_range(0.0..1.0) < f.crash_fraction;
            let _corrupting = rng.gen_range(0.0..1.0) < f.corrupt_fraction;
            let miscal = rng.gen_range(0.0..1.0) < f.miscalibrated_fraction;
            let trust = f64::from_bits(r.trust_table[i as usize]);
            if miscal {
                cheat_trust.push(trust);
            } else if !lossy && !crashy {
                honest_trust.push(trust);
            }
        }
        assert!(
            !cheat_trust.is_empty(),
            "seed 9 produces miscalibrated nodes"
        );
        let cheat_max = cheat_trust.iter().cloned().fold(f64::MIN, f64::max);
        let honest_mean = honest_trust.iter().sum::<f64>() / honest_trust.len() as f64;
        assert!(
            cheat_max < honest_mean,
            "every miscalibrated node ({cheat_max}) below honest mean ({honest_mean})"
        );
    }
}
