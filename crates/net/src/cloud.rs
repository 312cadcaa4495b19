//! The cloud aggregator: remote calibration, claim verification, and the
//! marketplace gate.
//!
//! The cloud never sees the node's environment — only what comes back
//! over the link: the operator's claims, a survey it *commissioned* (with
//! a seed the operator couldn't predict), and the cross-band sweeps. From
//! those plus its own ground truth (the tracking service and the public
//! tower databases) it independently verifies the claims, which is
//! precisely the paper's end goal: "These deductions can be used to
//! independently verify claims about a node installation."
//!
//! Because the fleet is volunteer-run, audits degrade instead of abort:
//! every step is retried under the [`RetryPolicy`], a step that still
//! fails becomes a typed [`StepFailure`] on the verdict (with the trust
//! score penalized for the missing evidence), and repeated failures move
//! a node through the `Healthy → Degraded → Quarantined` lifecycle with
//! re-admission on the next clean audit.

use crate::protocol::{NodeClaims, Request, Response};
use crate::snapshot::{decode_node_state, encode_node_state, RegistryNodeState, SnapshotError};
use crate::transport::{Link, LinkError, LinkStats, RetryPolicy};
use aircal_aircraft::TrafficSim;
use aircal_cellular::{paper_towers, CellMeasurement, CellScanner};
use aircal_core::classifier::{IndoorOutdoorClassifier, InstallFeatures, InstallVerdict};
use aircal_core::engine::{publish_profile_metrics, publish_survey_metrics};
use aircal_core::fov::{FovEstimate, FovEstimator};
use aircal_core::freqprofile::{FrequencyProfile, SourceKind};
use aircal_core::robust::{self, FusedProfile, FusionRule};
use aircal_core::survey::{SurveyConfig, SurveyResult};
use aircal_core::trust::{TrustAuditor, TrustScore};
use aircal_core::wal::{crc32, fnv1a, Journal, WalRecord, FNV1A_OFFSET, FRAME_HEADER};
use aircal_env::{SensorSite, World};
use aircal_geo::LatLon;
use aircal_obs::{AuditEventKind, Obs};
use aircal_tv::{paper_tv_towers, TvMeasurement, TvPowerProbe};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Outcome of one audit step: the payload, or a typed failure that lets
/// the rest of the audit continue instead of aborting it.
#[derive(Debug, Clone)]
pub enum StepOutcome<T> {
    /// The step completed and returned its payload.
    Complete(T),
    /// The step failed after exhausting the retry budget.
    Failed(StepFailure),
}

/// A failed audit step, as recorded on the verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepFailure {
    /// Which step ("describe", "survey", "cells", "tv").
    pub step: String,
    /// The transport error that exhausted the retry budget.
    pub error: LinkError,
    /// Wire attempts spent on the step.
    pub attempts: u32,
}

/// Node lifecycle state: the quarantine ladder. Two drivers move a node
/// down it — consecutive failed/partial audits (the *link* ladder, PR 2)
/// and consecutive data-plane anomalies (the *Byzantine* ladder); the
/// effective state is whichever driver currently demands the more severe
/// rung. `Evicted` is terminal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeHealth {
    /// Last audit was clean (reachable, every step complete, no
    /// anomalies).
    #[default]
    Healthy,
    /// A data anomaly was detected this round; fully audited, still
    /// rentable, but under scrutiny.
    Suspect,
    /// Recent audits failed, came back partial, or repeated an anomaly;
    /// still fully audited.
    Degraded,
    /// Too many consecutive failures or anomalies: excluded from the
    /// marketplace and probed with a cheap `Describe` before any full
    /// audit budget is spent on it. A clean audit re-admits it.
    Quarantined,
    /// Terminal: the anomaly ladder ran out. Never audited again, never
    /// rentable again.
    Evicted,
}

impl NodeHealth {
    /// Rung on the ladder (0 = healthy … 4 = evicted); also the byte the
    /// registry snapshot stores.
    pub fn severity(&self) -> u8 {
        match self {
            NodeHealth::Healthy => 0,
            NodeHealth::Suspect => 1,
            NodeHealth::Degraded => 2,
            NodeHealth::Quarantined => 3,
            NodeHealth::Evicted => 4,
        }
    }

    /// Inverse of [`NodeHealth::severity`].
    pub fn from_severity(rung: u8) -> Option<NodeHealth> {
        match rung {
            0 => Some(NodeHealth::Healthy),
            1 => Some(NodeHealth::Suspect),
            2 => Some(NodeHealth::Degraded),
            3 => Some(NodeHealth::Quarantined),
            4 => Some(NodeHealth::Evicted),
            _ => None,
        }
    }

    /// The more severe of two rungs.
    pub fn max_severity(self, other: NodeHealth) -> NodeHealth {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

impl core::fmt::Display for NodeHealth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NodeHealth::Healthy => write!(f, "healthy"),
            NodeHealth::Suspect => write!(f, "suspect"),
            NodeHealth::Degraded => write!(f, "degraded"),
            NodeHealth::Quarantined => write!(f, "quarantined"),
            NodeHealth::Evicted => write!(f, "evicted"),
        }
    }
}

/// Thresholds for the health lifecycle.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Consecutive failed/partial audits before `Degraded`.
    pub degraded_after: u32,
    /// Consecutive failed/partial audits before `Quarantined`.
    pub quarantined_after: u32,
    /// Consecutive anomalous audits before `Suspect`.
    pub suspect_anomalies: u32,
    /// Consecutive anomalous audits before `Degraded`.
    pub degraded_anomalies: u32,
    /// Consecutive anomalous audits before `Quarantined`.
    pub quarantined_anomalies: u32,
    /// Consecutive anomalous audits before `Evicted` (terminal).
    pub evicted_anomalies: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            degraded_after: 1,
            quarantined_after: 3,
            suspect_anomalies: 1,
            degraded_anomalies: 2,
            quarantined_anomalies: 3,
            evicted_anomalies: 4,
        }
    }
}

impl HealthPolicy {
    /// The rung the link ladder demands for a given run of consecutive
    /// failed/partial audits.
    fn link_rung(&self, consecutive_failures: u32) -> NodeHealth {
        if consecutive_failures >= self.quarantined_after {
            NodeHealth::Quarantined
        } else if consecutive_failures >= self.degraded_after {
            NodeHealth::Degraded
        } else {
            NodeHealth::Healthy
        }
    }

    /// The rung the Byzantine ladder demands for a given run of
    /// consecutive anomalous audits.
    fn anomaly_rung(&self, consecutive_anomalies: u32) -> NodeHealth {
        if consecutive_anomalies >= self.evicted_anomalies {
            NodeHealth::Evicted
        } else if consecutive_anomalies >= self.quarantined_anomalies {
            NodeHealth::Quarantined
        } else if consecutive_anomalies >= self.degraded_anomalies {
            NodeHealth::Degraded
        } else if consecutive_anomalies >= self.suspect_anomalies {
            NodeHealth::Suspect
        } else {
            NodeHealth::Healthy
        }
    }
}

/// One node's place on the quarantine ladder: a link run and an anomaly
/// run, each mapped to a rung by the [`HealthPolicy`], and the effective
/// rung, which is the more severe of the two (or a floor a history fork
/// imposed). Both cloud drivers walk it: [`Cloud`]'s consistency pass and
/// attestation, and the discrete-event campaign engine (`aircal-sim`).
/// `Evicted` is terminal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthLadder {
    /// Consecutive failed/partial audits (the link ladder).
    pub consecutive_failures: u32,
    /// Consecutive anomalous complete audits (the Byzantine ladder).
    pub consecutive_anomalies: u32,
    /// The node's current effective rung.
    pub health: NodeHealth,
}

impl HealthLadder {
    /// Fold one audit outcome into the ladder and return the node's new
    /// effective health. A failed or partial audit (`complete` false)
    /// charges the link run and leaves the anomaly run as it is, so a
    /// Byzantine node cannot launder its run by dropping one audit; a
    /// complete audit clears the link run, then advances the anomaly run
    /// if `anomalous` ("the data plane looked Byzantine") or resets it.
    pub fn record(&mut self, policy: &HealthPolicy, complete: bool, anomalous: bool) -> NodeHealth {
        if self.health == NodeHealth::Evicted {
            return self.health;
        }
        if complete {
            self.consecutive_failures = 0;
            self.consecutive_anomalies = if anomalous {
                self.consecutive_anomalies.saturating_add(1)
            } else {
                0
            };
        } else {
            self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        }
        self.health = self.rung(policy);
        self.health
    }

    /// Charge a forked service history found by attestation, outside any
    /// audit: the anomaly run advances, the link run is untouched, and a
    /// fork is hard enough evidence to hold the node at `Quarantined` or
    /// a more severe rung, never below the one it stands on.
    pub fn record_fork(&mut self, policy: &HealthPolicy) -> NodeHealth {
        if self.health == NodeHealth::Evicted {
            return self.health;
        }
        self.consecutive_anomalies = self.consecutive_anomalies.saturating_add(1);
        self.health = self
            .health
            .max_severity(NodeHealth::Quarantined)
            .max_severity(self.rung(policy));
        self.health
    }

    /// The more severe of the rungs the two runs demand.
    fn rung(&self, policy: &HealthPolicy) -> NodeHealth {
        policy
            .link_rung(self.consecutive_failures)
            .max_severity(policy.anomaly_rung(self.consecutive_anomalies))
    }
}

/// Thresholds for the cross-sensor consistency checks. Every check is
/// *hard-evidence*: its false-positive rate on honest (if obstructed)
/// installations is negligible, so honest nodes never ride the Byzantine
/// ladder. Soft disagreement (fusion residual) only docks trust.
#[derive(Debug, Clone, Copy)]
pub struct ConsistencyPolicy {
    /// Estimator for the fleet's fused frequency profile.
    pub fusion_rule: FusionRule,
    /// Reported ICAOs spot-checked against ground truth per audit.
    pub spot_check_k: usize,
    /// Minimum unknown ICAOs among the sampled ones to call spoofing.
    pub spot_check_min_unknown: usize,
    /// Minimum unknown *fraction* among the sampled ICAOs.
    pub spot_check_min_frac: f64,
    /// A band measured this far above the clear-sky expectation is
    /// physically implausible (fading upside is single-digit dB).
    pub overshoot_db: f64,
    /// Bands over [`ConsistencyPolicy::overshoot_db`] to call inflation.
    pub overshoot_min_bands: usize,
    /// Mean drift vs the node's own first-clean-audit baseline that
    /// calls calibration poisoning, dB.
    pub drift_db: f64,
    /// Fusion residual beyond which trust is docked (no ladder action).
    pub residual_penalty_db: f64,
}

impl Default for ConsistencyPolicy {
    fn default() -> Self {
        Self {
            fusion_rule: FusionRule::Median,
            spot_check_k: 8,
            spot_check_min_unknown: 2,
            spot_check_min_frac: 0.25,
            overshoot_db: 12.0,
            overshoot_min_bands: 3,
            drift_db: 6.0,
            residual_penalty_db: 35.0,
        }
    }
}

/// FNV-1a fingerprints of a round's completed report payloads (over their
/// canonical JSON). Two rounds commissioned with *different* seeds that
/// produce the *same* fingerprint are hard evidence of a replayed or
/// frozen capture — an honest front end resamples its noise every time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReportFingerprints {
    /// Fingerprint of the survey report (`None` if the step failed).
    pub survey: Option<u64>,
    /// Fingerprint of the cellular sweep (`None` if the step failed).
    pub cells: Option<u64>,
    /// Fingerprint of the TV sweep (`None` if the step failed).
    pub tv: Option<u64>,
}

/// Ground-truth spot-check of the ICAO addresses a node claims to have
/// received: the cloud samples evenly across the sorted roster and asks
/// its own tracking service whether each aircraft exists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpotCheck {
    /// ICAOs sampled from the reported survey.
    pub sampled: usize,
    /// Sampled ICAOs the ground truth has never heard of.
    pub unknown: usize,
    /// Up to four unknown ICAOs, kept as evidence.
    pub examples: Vec<u32>,
}

/// Everything the cloud concluded about one node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerificationVerdict {
    /// What the operator claimed.
    pub claims: NodeClaims,
    /// Field-of-view estimate from the commissioned survey.
    pub fov: FovEstimate,
    /// Cross-band profile assembled from the sweeps (its
    /// `missing_sources` records sweeps that never arrived).
    pub profile: FrequencyProfile,
    /// The classifier's independent indoor/outdoor call.
    pub install: InstallVerdict,
    /// Whether the operator's indoor/outdoor claim survived verification.
    pub outdoor_claim_verified: bool,
    /// Highest frequency with a usable measurement, Hz.
    pub measured_max_freq_hz: Option<f64>,
    /// Trust audit of the reported data (penalized per missing step).
    pub trust: TrustScore,
    /// Admitted to the marketplace?
    pub approved: bool,
    /// Audit steps that failed after retries (empty = complete audit).
    pub failed_steps: Vec<StepFailure>,
    /// Fingerprints of the round's completed report payloads.
    pub fingerprints: ReportFingerprints,
    /// Ground-truth spot-check of reported ICAOs (`None` if the survey
    /// decoded nothing).
    pub spot_check: Option<SpotCheck>,
    /// Mean absolute deviation from the fleet's fused consensus, dB
    /// (`None` until a fleet consistency pass has run).
    pub consensus_residual_db: Option<f64>,
}

impl VerificationVerdict {
    /// Did every audit step deliver its evidence?
    pub fn is_complete(&self) -> bool {
        self.failed_steps.is_empty()
    }
}

/// One row in the cloud's registry.
pub struct NodeRecord {
    /// The node's link.
    pub link: Link,
    /// Last verdict, if audited.
    pub verdict: Option<VerificationVerdict>,
    /// The durable record: health ladder, reachability and cross-audit
    /// evidence, exactly what snapshots and the journal persist.
    pub state: RegistryNodeState,
}

impl NodeRecord {
    /// A freshly registered node: reachable, healthy, no history.
    fn new(name: String, link: Link) -> Self {
        Self {
            link,
            verdict: None,
            state: RegistryNodeState {
                name,
                reachable: true,
                ..RegistryNodeState::default()
            },
        }
    }
}

/// What [`Cloud::recover`] found and did: how much of the journal was
/// readable, how much of a torn tail was discarded, and how many node
/// upserts were replayed onto the snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid journal records recovered (torn tail excluded).
    pub recovered_records: u64,
    /// Bytes discarded from the journal's torn tail.
    pub truncated_bytes: u64,
    /// `NodeState` upserts actually applied to the registry.
    pub applied_upserts: u64,
}

/// The aggregator.
pub struct Cloud {
    /// Ground truth the cloud can consult independently (the tracking
    /// service's view of the sky).
    pub sky: Arc<TrafficSim>,
    /// Survey configuration commissioned from nodes.
    pub survey_config: SurveyConfig,
    /// Classifier used for claim verification.
    pub classifier: IndoorOutdoorClassifier,
    /// Trust auditor.
    pub auditor: TrustAuditor,
    /// Retry/backoff/timeout policy for every node call.
    pub retry_policy: RetryPolicy,
    /// Health lifecycle thresholds.
    pub health_policy: HealthPolicy,
    /// Cross-sensor consistency thresholds (Byzantine detection).
    pub consistency: ConsistencyPolicy,
    /// Observability: wire/audit counters and the structured
    /// [`AuditEvent`](aircal_obs::AuditEvent) log. Disabled by default;
    /// set to [`Obs::recording`] before auditing to collect telemetry.
    /// Everything published here comes from the sequential audit path,
    /// so for a fixed seed the event stream and counters are identical
    /// at any `survey_config.parallelism`.
    pub obs: Obs,
    /// Registered nodes, by name.
    registry: parking_lot::Mutex<std::collections::BTreeMap<String, NodeRecord>>,
    /// The fleet's fused consensus profile from the last audit round.
    fused: parking_lot::Mutex<Option<FusedProfile>>,
    /// Write-ahead journal of registry state. Each audit round and each
    /// attestation pass commits as a whole: one state upsert per node,
    /// a [`WalRecord::RoundCompleted`] marker and a sync barrier, so
    /// [`Cloud::recover`] replays whole rounds onto the latest snapshot
    /// and discards a torn one.
    journal: parking_lot::Mutex<Journal>,
}

/// FNV-1a over a payload's canonical JSON — the report fingerprint used
/// for replay/frozen detection (same basis as the node's service ledger).
fn fingerprint_json<T: serde::Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("report payloads always serialize");
    fnv1a(FNV1A_OFFSET, json.as_bytes())
}

/// Stable tag for a band's source (the key half of baseline entries).
fn source_tag(s: SourceKind) -> u8 {
    match s {
        SourceKind::Cellular => 0,
        SourceKind::BroadcastTv => 1,
    }
}

/// Bands both the node and the fused consensus measured with finite values.
fn common_band_count(profile: &FrequencyProfile, fused: &FusedProfile) -> usize {
    profile
        .bands
        .iter()
        .filter(|b| {
            b.measured_db.is_some_and(|m| m.is_finite())
                && fused.fused_for(&b.label, b.source).is_some()
        })
        .count()
}

/// Per-kind wire-counter deltas between two [`LinkStats`] snapshots, in a
/// fixed publication order.
fn wire_delta(before: &LinkStats, after: &LinkStats) -> [(&'static str, u64); 11] {
    [
        ("attempts", after.attempts - before.attempts),
        ("ok", after.ok - before.ok),
        ("retries", after.retries - before.retries),
        ("gave_up", after.gave_up - before.gave_up),
        ("wrong_kind", after.wrong_kind - before.wrong_kind),
        ("dropped", after.dropped - before.dropped),
        ("timeouts", after.timeouts - before.timeouts),
        ("send_failed", after.send_failed - before.send_failed),
        ("first_try_ok", after.first_try_ok - before.first_try_ok),
        ("retried_ok", after.retried_ok - before.retried_ok),
        ("stale_drained", after.stale_drained - before.stale_drained),
    ]
}

/// Publish a step's wire-counter deltas as `wire.*` metrics, and emit a
/// [`AuditEventKind::FaultObserved`] for each fault kind the link
/// absorbed during the step (whether or not retries recovered it).
fn publish_wire(obs: &Obs, node: &str, step: &str, before: &LinkStats, after: &LinkStats) {
    for (kind, n) in wire_delta(before, after) {
        obs.incr(&format!("wire.{kind}"), n);
        let is_fault = matches!(kind, "wrong_kind" | "dropped" | "timeouts" | "send_failed");
        if is_fault && n > 0 {
            obs.emit(
                node,
                AuditEventKind::FaultObserved {
                    step: step.to_string(),
                    fault: kind.to_string(),
                    count: n,
                },
            );
        }
    }
}

/// Run one audit step with retries and turn its result into a
/// [`StepOutcome`], publishing wire metrics and step events into `obs`
/// (tagged with the node's registry `node` name).
fn step<T>(
    link: &mut Link,
    policy: &RetryPolicy,
    obs: &Obs,
    node: &str,
    name: &str,
    request: Request,
    extract: impl FnOnce(Response) -> Option<T>,
) -> StepOutcome<T> {
    obs.emit(
        node,
        AuditEventKind::StepStarted {
            step: name.to_string(),
        },
    );
    obs.incr("audit.steps_total", 1);
    let before = link.stats();
    let outcome = match link.call_with_retry(request, policy) {
        Ok(resp) => {
            let got = resp.kind();
            match extract(resp) {
                Some(v) => StepOutcome::Complete(v),
                // The transport already kind-checks replies; this arm is
                // defensive against a future extract/kind mismatch.
                None => StepOutcome::Failed(StepFailure {
                    step: name.to_string(),
                    error: LinkError::WrongKind {
                        got: got.to_string(),
                    },
                    attempts: (link.stats().attempts - before.attempts) as u32,
                }),
            }
        }
        Err(error) => StepOutcome::Failed(StepFailure {
            step: name.to_string(),
            error,
            attempts: (link.stats().attempts - before.attempts) as u32,
        }),
    };
    let after = link.stats();
    publish_wire(obs, node, name, &before, &after);
    let wire_attempts = after.attempts - before.attempts;
    match &outcome {
        StepOutcome::Complete(_) => obs.emit(
            node,
            AuditEventKind::StepCompleted {
                step: name.to_string(),
                wire_attempts,
            },
        ),
        StepOutcome::Failed(f) => {
            obs.incr("audit.steps_failed", 1);
            obs.emit(
                node,
                AuditEventKind::StepFailed {
                    step: name.to_string(),
                    error: f.error.to_string(),
                    wire_attempts,
                },
            );
        }
    }
    outcome
}

impl Cloud {
    /// Create a cloud with the given ground-truth sky.
    pub fn new(sky: Arc<TrafficSim>) -> Self {
        Self {
            sky,
            survey_config: SurveyConfig::quick(),
            classifier: IndoorOutdoorClassifier::default(),
            auditor: TrustAuditor::default(),
            retry_policy: RetryPolicy::default(),
            health_policy: HealthPolicy::default(),
            consistency: ConsistencyPolicy::default(),
            obs: Obs::disabled(),
            registry: parking_lot::Mutex::new(std::collections::BTreeMap::new()),
            fused: parking_lot::Mutex::new(None),
            journal: parking_lot::Mutex::new(Journal::new()),
        }
    }

    /// Append one effect record to the write-ahead journal (counted as
    /// `wal.append`).
    fn wal_append(&self, record: WalRecord) {
        self.journal.lock().append(&record);
        self.obs.incr("wal.append", 1);
    }

    /// Issue a journal durability barrier (counted as `wal.sync`).
    fn wal_sync(&self) {
        self.journal.lock().sync();
        self.obs.incr("wal.sync", 1);
    }

    /// The journal as one contiguous byte stream — what a crash leaves
    /// behind for [`Cloud::recover`].
    pub fn journal_bytes(&self) -> Vec<u8> {
        self.journal.lock().to_bytes()
    }

    /// Register a node by asking it to describe itself (with retries).
    /// Returns the claimed name, or `None` if unreachable.
    pub fn register(&self, mut link: Link) -> Option<String> {
        let before = link.stats();
        let claims = match link.call_with_retry(Request::Describe, &self.retry_policy) {
            Ok(Response::Description(c)) => c,
            _ => {
                // Unreachable at registration: dropping the link joins
                // the node thread; the operator can be chased offline.
                self.obs.incr("cloud.registrations_failed", 1);
                return None;
            }
        };
        let name = claims.name.clone();
        publish_wire(&self.obs, &name, "register", &before, &link.stats());
        self.obs.incr("cloud.nodes_registered", 1);
        self.registry
            .lock()
            .insert(name.clone(), NodeRecord::new(name.clone(), link));
        Some(name)
    }

    /// Replace the link of an already-registered node (a restarted daemon
    /// re-attaching) *without* resetting its health, anomaly run, or
    /// forensic history — crash-restart must not launder a bad record.
    /// Returns `false` if the name is unknown.
    pub fn reattach(&self, name: &str, link: Link) -> bool {
        let mut registry = self.registry.lock();
        match registry.get_mut(name) {
            Some(record) => {
                let old = std::mem::replace(&mut record.link, link);
                old.shutdown();
                record.state.reachable = true;
                self.obs.incr("cloud.reattached", 1);
                true
            }
            None => false,
        }
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.registry.lock().len()
    }

    /// Audit every registered node with seeds derived from `base_seed`,
    /// updating each node's health state. Returns verdicts sorted by
    /// name (`None` = identity could not even be established, or the
    /// node is evicted).
    ///
    /// After the per-node audits, a wire-free *consistency pass* fuses
    /// the round's complete profiles ([`aircal_core::robust`]), runs the
    /// hard-evidence anomaly checks (ICAO spot-check, replay/frozen
    /// fingerprints, physics overshoot, baseline drift), and records each
    /// node's round on its [`HealthLadder`]. Evicted nodes are never
    /// audited again.
    pub fn audit_all(&self, base_seed: u64) -> Vec<(String, Option<VerificationVerdict>)> {
        let _span = aircal_obs::span!("audit_all");
        self.obs.incr("audit.rounds", 1);
        let mut registry = self.registry.lock();
        let mut out = Vec::new();
        for (i, (name, record)) in registry.iter_mut().enumerate() {
            // Terminal rung: no probe, no audit budget, no events. The
            // node still consumes its seed index, so its neighbors' seeds
            // do not shift as the fleet shrinks.
            if record.state.ladder.health == NodeHealth::Evicted {
                self.obs.incr("audit.evicted_skipped", 1);
                out.push((name.clone(), None));
                continue;
            }
            let seed = base_seed.wrapping_add(i as u64 * 0x9E37_79B9);
            self.obs.emit(name, AuditEventKind::AuditStarted { seed });
            self.obs.incr("audit.nodes_audited", 1);
            // Quarantined nodes get a cheap probe first: no full audit
            // budget until they at least answer a Describe.
            if record.state.ladder.health == NodeHealth::Quarantined
                && matches!(
                    step(
                        &mut record.link,
                        &self.retry_policy,
                        &self.obs,
                        name,
                        "probe",
                        Request::Describe,
                        |r| match r {
                            Response::Description(c) => Some(c),
                            _ => None,
                        },
                    ),
                    StepOutcome::Failed(_)
                )
            {
                record.state.reachable = false;
                record.verdict = None;
                self.obs.incr("audit.unreachable", 1);
                self.obs.emit(
                    name,
                    AuditEventKind::AuditCompleted {
                        complete: false,
                        approved: false,
                    },
                );
                out.push((name.clone(), None));
                continue;
            }
            let verdict = self.audit_one_named(name, &mut record.link, seed);
            record.state.reachable = verdict.is_some();
            if verdict.is_none() {
                self.obs.incr("audit.unreachable", 1);
            }
            self.obs.emit(
                name,
                AuditEventKind::AuditCompleted {
                    complete: verdict.as_ref().is_some_and(|v| v.is_complete()),
                    approved: verdict.as_ref().is_some_and(|v| v.approved),
                },
            );
            record.verdict = verdict.clone();
            out.push((name.clone(), verdict));
        }
        self.consistency_pass(&mut registry, base_seed, &mut out);
        self.commit_round(&registry);
        out
    }

    /// Round commit: journal every node's post-round registry state as
    /// an upsert, close the round with its [`WalRecord::RoundCompleted`]
    /// marker, then sync. [`Cloud::recover`] applies a round's upserts
    /// only once it reads the marker, so a round torn by a crash is
    /// discarded whole, never half-applied.
    fn commit_round(&self, registry: &std::collections::BTreeMap<String, NodeRecord>) {
        for rec in registry.values() {
            self.wal_append(WalRecord::NodeState {
                state: encode_node_state(&rec.state),
            });
        }
        self.wal_append(WalRecord::RoundCompleted {
            effects: registry.len() as u32,
        });
        self.wal_sync();
    }

    /// The wire-free cross-sensor consistency pass that closes every
    /// audit round: robust fusion, hard-evidence anomaly checks, and the
    /// health-ladder walk. Emits [`AuditEventKind::ConsistencyChecked`],
    /// [`AuditEventKind::AnomalyDetected`], [`AuditEventKind::HealthTransition`],
    /// and [`AuditEventKind::NodeEvicted`] — but never touches a link and
    /// never increments `audit.steps_total`.
    fn consistency_pass(
        &self,
        registry: &mut std::collections::BTreeMap<String, NodeRecord>,
        base_seed: u64,
        out: &mut [(String, Option<VerificationVerdict>)],
    ) {
        // Fuse the complete profiles of nodes still in good standing (as
        // of the previous round's ladder state — a freshly-suspect liar
        // still contributes, which is exactly what the robust estimator
        // is for).
        let eligible: Vec<&FrequencyProfile> = registry
            .values()
            .filter(|r| r.state.ladder.health.severity() < NodeHealth::Quarantined.severity())
            .filter_map(|r| r.verdict.as_ref())
            .filter(|v| v.is_complete())
            .map(|v| &v.profile)
            .collect();
        let fused = (!eligible.is_empty())
            .then(|| robust::fuse_profiles(&eligible, self.consistency.fusion_rule));

        let pol = &self.consistency;
        for (i, (name, record)) in registry.iter_mut().enumerate() {
            if record.state.ladder.health == NodeHealth::Evicted {
                continue;
            }
            let seed = base_seed.wrapping_add(i as u64 * 0x9E37_79B9);
            let complete = record.verdict.as_ref().is_some_and(|v| v.is_complete());
            let mut anomalies: Vec<(String, String)> = Vec::new();
            if complete {
                let verdict = record.verdict.as_mut().expect("complete implies verdict");
                // 1) ADS-B spot-check: reported aircraft the tracking
                //    service has never heard of cannot be a propagation
                //    artifact.
                if let Some(sc) = &verdict.spot_check {
                    if sc.unknown >= pol.spot_check_min_unknown
                        && sc.sampled > 0
                        && sc.unknown as f64 >= pol.spot_check_min_frac * sc.sampled as f64
                    {
                        anomalies.push((
                            "spot-check".to_string(),
                            format!(
                                "{}/{} sampled ICAOs unknown to ground truth (e.g. {:06X})",
                                sc.unknown,
                                sc.sampled,
                                sc.examples.first().copied().unwrap_or(0)
                            ),
                        ));
                    }
                }
                // 2) Replay / frozen capture: a report fingerprint that
                //    repeats under a *different* commission seed. Honest
                //    front ends resample their noise every capture.
                let fp = verdict.fingerprints.clone();
                let seeds_differ = record.state.last_seed.is_some_and(|s| s != seed);
                let survey_rep =
                    seeds_differ && fp.survey.is_some() && fp.survey == record.state.survey_fp;
                let cells_rep =
                    seeds_differ && fp.cells.is_some() && fp.cells == record.state.cells_fp;
                let tv_rep = seeds_differ && fp.tv.is_some() && fp.tv == record.state.tv_fp;
                if survey_rep && cells_rep && tv_rep {
                    anomalies.push((
                        "frozen".to_string(),
                        "identical survey, cells, and tv reports under a fresh commission seed"
                            .to_string(),
                    ));
                } else if survey_rep {
                    anomalies.push((
                        "replay".to_string(),
                        format!(
                            "survey fingerprint {:016x} replayed under a fresh commission seed",
                            fp.survey.unwrap_or(0)
                        ),
                    ));
                }
                // 3) Physics overshoot: measuring well above the
                //    clear-sky expectation at the claimed coordinates is
                //    implausible — obstructions only remove power.
                let over = verdict
                    .profile
                    .bands
                    .iter()
                    .filter(|b| {
                        b.expected_clear_db.is_finite()
                            && b.measured_db.is_some_and(|m| {
                                m.is_finite() && m > b.expected_clear_db + pol.overshoot_db
                            })
                    })
                    .count();
                if over >= pol.overshoot_min_bands {
                    anomalies.push((
                        "overshoot".to_string(),
                        format!(
                            "{over} bands more than {:.0} dB above the clear-sky expectation",
                            pol.overshoot_db
                        ),
                    ));
                }
                // 4) Baseline drift: slow calibration poisoning shows up
                //    as a signed mean shift against the node's own
                //    commissioning baseline.
                if !record.state.baseline.is_empty() {
                    let mut sum = 0.0;
                    let mut n = 0usize;
                    for b in &verdict.profile.bands {
                        let Some(m) = b.measured_db.filter(|m| m.is_finite()) else {
                            continue;
                        };
                        if let Some((_, _, base)) = record
                            .state
                            .baseline
                            .iter()
                            .find(|(t, l, _)| *t == source_tag(b.source) && *l == b.label)
                        {
                            sum += m - base;
                            n += 1;
                        }
                    }
                    if n > 0 {
                        let dev = sum / n as f64;
                        if dev.abs() > pol.drift_db {
                            anomalies.push((
                                "drift".to_string(),
                                format!(
                                    "mean band power drifted {dev:+.1} dB from the commissioning baseline"
                                ),
                            ));
                        }
                    }
                }
                // Residual vs the fused consensus: honest-but-obstructed
                // installations legitimately sit far from the fleet, so
                // this is a *trust* signal, never ladder evidence.
                if let Some(fused) = &fused {
                    if let Some(res) = robust::residual_db(&verdict.profile, fused) {
                        verdict.consensus_residual_db = Some(res);
                        self.obs.emit(
                            name,
                            AuditEventKind::ConsistencyChecked {
                                residual_db: res,
                                bands: common_band_count(&verdict.profile, fused),
                            },
                        );
                        if res > pol.residual_penalty_db {
                            verdict.trust.penalize_fusion_residual(res);
                            verdict.approved =
                                verdict.trust.is_trustworthy() && verdict.outdoor_claim_verified;
                        }
                    }
                }
                // Record this round's evidence for the next one.
                record.state.last_seed = Some(seed);
                record.state.survey_fp = fp.survey;
                record.state.cells_fp = fp.cells;
                record.state.tv_fp = fp.tv;
                if anomalies.is_empty() && record.state.baseline.is_empty() {
                    record.state.baseline = verdict
                        .profile
                        .bands
                        .iter()
                        .filter_map(|b| {
                            b.measured_db
                                .filter(|m| m.is_finite())
                                .map(|m| (source_tag(b.source), b.label.clone(), m))
                        })
                        .collect();
                }
            }
            // The round's one ladder step (anomalies are only ever found
            // on complete rounds).
            let previous = record.state.ladder.health;
            record
                .state
                .ladder
                .record(&self.health_policy, complete, !anomalies.is_empty());
            for (check, evidence) in &anomalies {
                self.obs.incr("audit.anomalies", 1);
                self.obs.emit(
                    name,
                    AuditEventKind::AnomalyDetected {
                        check: check.clone(),
                        evidence: evidence.clone(),
                        consecutive: record.state.ladder.consecutive_anomalies,
                    },
                );
            }
            self.apply_health(name, &mut record.state, previous, || {
                anomalies
                    .first()
                    .map(|(c, e)| format!("{c}: {e}"))
                    .unwrap_or_else(|| "anomaly ladder exhausted".to_string())
            });
            // Residual penalties must reach the caller's copies too.
            if complete {
                if let Some(slot) = out.iter_mut().find(|(n, _)| n == name) {
                    slot.1 = record.verdict.clone();
                }
            }
        }
        *self.fused.lock() = fused;
    }

    /// Emit the transition a ladder step made from `previous`, and — on
    /// the terminal rung — record and emit the eviction with its evidence.
    fn apply_health(
        &self,
        name: &str,
        state: &mut RegistryNodeState,
        previous: NodeHealth,
        eviction_reason: impl FnOnce() -> String,
    ) {
        let ladder = state.ladder;
        if ladder.health == previous {
            return;
        }
        self.obs.incr("health.transitions", 1);
        self.obs.emit(
            name,
            AuditEventKind::HealthTransition {
                from: previous.to_string(),
                to: ladder.health.to_string(),
                consecutive_failures: ladder
                    .consecutive_failures
                    .max(ladder.consecutive_anomalies),
            },
        );
        if ladder.health == NodeHealth::Evicted {
            let reason = eviction_reason();
            state.eviction_reason = Some(reason.clone());
            self.obs.incr("audit.evictions", 1);
            self.obs.emit(
                name,
                AuditEventKind::NodeEvicted {
                    reason,
                    after_audits: ladder.consecutive_anomalies,
                },
            );
        }
    }

    /// Audit one node over its link. Returns `None` only when the node's
    /// identity cannot be established (the `Describe` step fails even
    /// with retries); any later step failure degrades to a partial
    /// verdict instead of aborting the audit.
    pub fn audit_one(&self, link: &mut Link, seed: u64) -> Option<VerificationVerdict> {
        self.audit_one_named("", link, seed)
    }

    /// [`Cloud::audit_one`] with a registry name so the audit's telemetry
    /// (step events, trust deltas, wire counters) is tagged per node.
    fn audit_one_named(
        &self,
        name: &str,
        link: &mut Link,
        seed: u64,
    ) -> Option<VerificationVerdict> {
        let policy = &self.retry_policy;
        let obs = &self.obs;
        let claims = match step(
            link,
            policy,
            obs,
            name,
            "describe",
            Request::Describe,
            |r| match r {
                Response::Description(c) => Some(c),
                _ => None,
            },
        ) {
            StepOutcome::Complete(c) => c,
            StepOutcome::Failed(_) => return None,
        };
        let survey = step(
            link,
            policy,
            obs,
            name,
            "survey",
            Request::RunSurvey {
                config: self.survey_config,
                seed,
            },
            |r| match r {
                Response::Survey(s) => Some(s),
                _ => None,
            },
        );
        let cells = step(
            link,
            policy,
            obs,
            name,
            "cells",
            Request::ScanCells {
                seed: seed ^ 0xCE11,
            },
            |r| match r {
                Response::Cells(c) => Some(c),
                _ => None,
            },
        );
        let tv = step(
            link,
            policy,
            obs,
            name,
            "tv",
            Request::SweepTv {
                seed: seed ^ 0x7E1E,
            },
            |r| match r {
                Response::Tv(t) => Some(t),
                _ => None,
            },
        );
        Some(self.judge_partial_named(name, claims, survey, cells, tv, seed))
    }

    /// Verification when some evidence may be missing: judge whatever
    /// the node delivered, mark the gaps on the profile, and penalize
    /// the trust score once per missing evidence source.
    pub fn judge_partial(
        &self,
        claims: NodeClaims,
        survey: StepOutcome<SurveyResult>,
        cells: StepOutcome<Vec<CellMeasurement>>,
        tv: StepOutcome<Vec<TvMeasurement>>,
        seed: u64,
    ) -> VerificationVerdict {
        self.judge_partial_named("", claims, survey, cells, tv, seed)
    }

    /// [`Cloud::judge_partial`] with a registry name so the round's
    /// [`AuditEventKind::TrustDelta`] is tagged per node.
    fn judge_partial_named(
        &self,
        name: &str,
        claims: NodeClaims,
        survey: StepOutcome<SurveyResult>,
        cells: StepOutcome<Vec<CellMeasurement>>,
        tv: StepOutcome<Vec<TvMeasurement>>,
        seed: u64,
    ) -> VerificationVerdict {
        // Fingerprint the completed payloads exactly as they arrived —
        // replay/frozen detection compares these across rounds.
        let fingerprints = ReportFingerprints {
            survey: match &survey {
                StepOutcome::Complete(s) => {
                    // The config echo carries scheduling knobs (worker
                    // parallelism) that must not affect the fingerprint;
                    // canonicalize it so only the measurement is hashed.
                    let mut canon = s.clone();
                    canon.config.parallelism = 1;
                    Some(fingerprint_json(&canon))
                }
                StepOutcome::Failed(_) => None,
            },
            cells: match &cells {
                StepOutcome::Complete(c) => Some(fingerprint_json(c)),
                StepOutcome::Failed(_) => None,
            },
            tv: match &tv {
                StepOutcome::Complete(t) => Some(fingerprint_json(t)),
                StepOutcome::Failed(_) => None,
            },
        };
        let mut failures = Vec::new();
        let survey = match survey {
            StepOutcome::Complete(s) => s,
            StepOutcome::Failed(f) => {
                failures.push(f);
                // An empty survey: no points, no messages — the trust
                // auditor's "no evidence" branch handles it.
                SurveyResult {
                    points: Vec::new(),
                    total_messages: 0,
                    unmatched_messages: 0,
                    skipped_low_snr: 0,
                    decoded_positions: Vec::new(),
                    config: self.survey_config,
                }
            }
        };
        let (cells, cells_missing) = match cells {
            StepOutcome::Complete(c) => (c, false),
            StepOutcome::Failed(f) => {
                failures.push(f);
                (Vec::new(), true)
            }
        };
        let (tv, tv_missing) = match tv {
            StepOutcome::Complete(t) => (t, false),
            StepOutcome::Failed(f) => {
                failures.push(f);
                (Vec::new(), true)
            }
        };

        publish_survey_metrics(&self.obs, &survey);
        let mut verdict = self.judge(claims, survey, cells, tv, seed);
        verdict.fingerprints = fingerprints;
        if cells_missing {
            verdict.profile.missing_sources.push(SourceKind::Cellular);
        }
        if tv_missing {
            verdict
                .profile
                .missing_sources
                .push(SourceKind::BroadcastTv);
        }
        publish_profile_metrics(&self.obs, &verdict.profile);
        let unpenalized = verdict.trust.score;
        for f in &failures {
            verdict.trust.penalize_missing_evidence(&f.step);
        }
        // Approval must reflect the penalized trust score.
        verdict.approved = verdict.trust.is_trustworthy() && verdict.outdoor_claim_verified;
        self.obs.emit(
            name,
            AuditEventKind::TrustDelta {
                score: verdict.trust.score,
                delta: verdict.trust.score - unpenalized,
                reasons: failures.iter().map(|f| f.step.clone()).collect(),
            },
        );
        verdict.failed_steps = failures;
        verdict
    }

    /// Pure verification logic (no I/O): turn reported measurements into a
    /// verdict. Public so the tests and the example can drive it directly.
    pub fn judge(
        &self,
        claims: NodeClaims,
        survey: SurveyResult,
        cells: Vec<CellMeasurement>,
        tv: Vec<TvMeasurement>,
        seed: u64,
    ) -> VerificationVerdict {
        let fov = FovEstimator::default().estimate(&survey.points);
        let profile = self.assemble_profile(&claims.position, &cells, &tv, seed);
        let features = InstallFeatures::extract(&survey, &fov, &profile);
        let install = self.classifier.classify(&features);
        let trust = self
            .auditor
            .audit(&survey, &profile, &self.sky, fov.open_fraction());
        let outdoor_claim_verified = claims.outdoor == install.outdoor;
        let approved = trust.is_trustworthy() && outdoor_claim_verified;
        let spot_check = self.spot_check_survey(&survey);
        VerificationVerdict {
            measured_max_freq_hz: profile.max_usable_freq_hz(),
            claims,
            fov,
            install,
            outdoor_claim_verified,
            trust,
            approved,
            profile,
            failed_steps: Vec::new(),
            fingerprints: ReportFingerprints::default(),
            spot_check,
            consensus_residual_db: None,
        }
    }

    /// Sample reported ICAOs evenly across the sorted roster and check
    /// each against the cloud's own tracking service. Deterministic (no
    /// RNG), and `None` when the survey decoded nothing.
    fn spot_check_survey(&self, survey: &SurveyResult) -> Option<SpotCheck> {
        let k = self.consistency.spot_check_k;
        if k == 0 || survey.decoded_positions.is_empty() {
            return None;
        }
        let mut icaos: Vec<u32> = survey
            .decoded_positions
            .iter()
            .map(|(icao, _)| icao.value())
            .collect();
        icaos.sort_unstable();
        icaos.dedup();
        let n = icaos.len();
        let take = k.min(n);
        let mut sampled: Vec<u32> = (0..take)
            .map(|j| {
                let idx = if take == 1 {
                    0
                } else {
                    j * (n - 1) / (take - 1)
                };
                icaos[idx]
            })
            .collect();
        sampled.dedup();
        let mut unknown = 0usize;
        let mut examples = Vec::new();
        for icao in &sampled {
            if self
                .sky
                .by_icao(aircal_adsb::IcaoAddress::new(*icao))
                .is_none()
            {
                unknown += 1;
                if examples.len() < 4 {
                    examples.push(*icao);
                }
            }
        }
        Some(SpotCheck {
            sampled: sampled.len(),
            unknown,
            examples,
        })
    }

    /// Build the band profile: reported measurements vs the cloud's own
    /// clear-sky expectation (computed from the public tower databases at
    /// the claimed coordinates — no access to the node's environment).
    fn assemble_profile(
        &self,
        claimed_position: &LatLon,
        cells: &[CellMeasurement],
        tv: &[TvMeasurement],
        seed: u64,
    ) -> FrequencyProfile {
        let mut origin = *claimed_position;
        origin.alt_m = 0.0;
        let clear_world = World::open(origin);
        let clear_site = SensorSite::outdoor("expectation", *claimed_position);
        let cell_db = paper_towers(&origin);
        let tv_db = paper_tv_towers(&origin);
        let clear_cells =
            CellScanner::default().scan(&clear_world, &clear_site, &cell_db, seed ^ 1);
        let clear_tv = TvPowerProbe::default().sweep(&clear_world, &clear_site, &tv_db, seed ^ 1);
        FrequencyProfile::from_sweeps(cells, &clear_cells, tv, &clear_tv)
    }

    /// The marketplace: approved nodes below the quarantine rung,
    /// cheapest first. Quarantined and evicted nodes are never rentable.
    pub fn marketplace(&self) -> Vec<(String, f64, f64)> {
        let registry = self.registry.lock();
        let mut listings: Vec<(String, f64, f64)> = registry
            .iter()
            .filter(|(_, rec)| {
                rec.state.ladder.health.severity() < NodeHealth::Quarantined.severity()
            })
            .filter_map(|(name, rec)| {
                let v = rec.verdict.as_ref()?;
                v.approved
                    .then(|| (name.clone(), v.claims.price_per_hour, v.trust.score))
            })
            .collect();
        listings.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        listings
    }

    /// Health lifecycle snapshot, sorted by name:
    /// `(name, state, consecutive failed/partial audits)`.
    pub fn health_report(&self) -> Vec<(String, NodeHealth, u32)> {
        self.registry
            .lock()
            .iter()
            .map(|(name, rec)| {
                let ladder = rec.state.ladder;
                (name.clone(), ladder.health, ladder.consecutive_failures)
            })
            .collect()
    }

    /// Anomaly-ladder snapshot, sorted by name:
    /// `(name, consecutive anomalous audits, eviction reason if evicted)`.
    pub fn anomaly_report(&self) -> Vec<(String, u32, Option<String>)> {
        self.registry
            .lock()
            .iter()
            .map(|(name, rec)| {
                (
                    name.clone(),
                    rec.state.ladder.consecutive_anomalies,
                    rec.state.eviction_reason.clone(),
                )
            })
            .collect()
    }

    /// The fleet's fused consensus profile from the last audit round.
    pub fn fused_profile(&self) -> Option<FusedProfile> {
        self.fused.lock().clone()
    }

    /// Cross-examine every non-evicted node's service ledger against the
    /// checkpoint recorded at the previous attestation. Returns
    /// `(name, consistent)` per node checked.
    ///
    /// A node whose chain *at the recorded checkpoint length* no longer
    /// matches what the cloud saw — or whose history shrank — has forked
    /// or rolled back its served-request log (e.g. restarted from a stale
    /// snapshot and silently re-served different requests). That is hard
    /// evidence: it rides the anomaly ladder and quarantines on the spot.
    ///
    /// Attestation is reconciliation, not measurement: it bypasses the
    /// audit step machinery (no step events, no `audit.steps_total`), so
    /// audit telemetry totals stay exact.
    pub fn attest_all(&self) -> Vec<(String, bool)> {
        let mut registry = self.registry.lock();
        let mut out = Vec::new();
        for (name, record) in registry.iter_mut() {
            if record.state.ladder.health == NodeHealth::Evicted {
                continue;
            }
            self.obs.incr("attest.checks", 1);
            let before = record.link.stats();
            let upto = record.state.attested.map(|(served, _)| served).unwrap_or(0);
            let resp = record
                .link
                .call_with_retry(Request::Attest { upto }, &self.retry_policy);
            publish_wire(&self.obs, name, "attest", &before, &record.link.stats());
            let ok = match resp {
                Ok(Response::Attestation {
                    served,
                    chain,
                    upto_chain,
                }) => {
                    let consistent = match record.state.attested {
                        Some((prev_served, prev_chain)) => {
                            upto_chain == prev_chain && served >= prev_served
                        }
                        None => true,
                    };
                    if consistent {
                        record.state.attested = Some((served, chain));
                    } else {
                        let (prev_served, prev_chain) =
                            record.state.attested.expect("inconsistent implies prior");
                        let previous = record.state.ladder.health;
                        record.state.ladder.record_fork(&self.health_policy);
                        self.obs.incr("audit.anomalies", 1);
                        let evidence = format!(
                            "service chain at checkpoint {prev_served} is {upto_chain:016x}, cloud recorded {prev_chain:016x} (served {served})"
                        );
                        self.obs.emit(
                            name,
                            AuditEventKind::AnomalyDetected {
                                check: "history-fork".to_string(),
                                evidence: evidence.clone(),
                                consecutive: record.state.ladder.consecutive_anomalies,
                            },
                        );
                        self.apply_health(name, &mut record.state, previous, || {
                            format!("history-fork: {evidence}")
                        });
                    }
                    consistent
                }
                // Unreachable for attestation: the link ladder will
                // charge it at the next audit; nothing to conclude here.
                _ => false,
            };
            out.push((name.clone(), ok));
        }
        // Attestation moves durable state (checkpoints, possibly the
        // anomaly ladder): commit it like an audit round.
        self.commit_round(&registry);
        out
    }

    /// Serialize the registry's durable state (health ladders, forensic
    /// evidence, attestation checkpoints) into a versioned, checksummed
    /// snapshot. Links, links' stats, and in-flight verdicts are not
    /// included — they are reconstructed by re-registering.
    pub fn snapshot_registry(&self) -> Vec<u8> {
        let states: Vec<RegistryNodeState> = self
            .registry
            .lock()
            .values()
            .map(|rec| rec.state.clone())
            .collect();
        crate::snapshot::snapshot_registry(&states)
    }

    /// Overlay a registry snapshot onto the live registry: every snapshot
    /// entry whose name is currently registered gets its health ladders
    /// and forensic history restored (entries for unregistered names are
    /// skipped). Returns how many nodes were restored.
    pub fn restore_registry(&self, bytes: &[u8]) -> Result<usize, SnapshotError> {
        let states = crate::snapshot::restore_registry(bytes)?;
        let mut registry = self.registry.lock();
        let mut applied = 0usize;
        for st in states {
            let Some(rec) = registry.get_mut(&st.name) else {
                continue;
            };
            rec.state = st;
            applied += 1;
        }
        Ok(applied)
    }

    /// Checkpoint: serialize the registry snapshot, reset the journal
    /// (the snapshot now covers everything it recorded), and open the
    /// fresh journal with a [`WalRecord::SnapshotTaken`] record carrying
    /// the snapshot's CRC — chaining journal and snapshot together so
    /// [`Cloud::recover`] can refuse a mismatched pair.
    pub fn checkpoint(&self) -> Vec<u8> {
        let bytes = self.snapshot_registry();
        let crc = crc32(&bytes);
        {
            let mut journal = self.journal.lock();
            journal.reset();
            journal.append(&WalRecord::SnapshotTaken {
                tick: 0,
                state_crc: crc,
            });
            journal.sync();
        }
        self.obs.incr("wal.append", 1);
        self.obs.incr("wal.sync", 1);
        self.obs.incr("wal.checkpoints", 1);
        bytes
    }

    /// FNV-1a digest over every node's durable registry state, in name
    /// order — the bit-identity witness for crash/recovery tests.
    pub fn registry_digest(&self) -> u64 {
        let registry = self.registry.lock();
        let mut h = FNV1A_OFFSET;
        for rec in registry.values() {
            h = fnv1a(h, &encode_node_state(&rec.state));
        }
        h
    }

    /// Simulate a cloud crash: the aggregator process dies, the node
    /// daemons keep running. Consumes the cloud and hands back the still
    /// -live links plus whatever the journal managed to persist — all
    /// in-memory registry state is lost, exactly as in a real crash.
    pub fn crash(self) -> (Vec<(String, Link)>, Vec<u8>) {
        let journal_bytes = self.journal.lock().to_bytes();
        let mut registry = self.registry.into_inner();
        let mut links = Vec::new();
        while let Some((name, record)) = registry.pop_first() {
            links.push((name, record.link));
        }
        (links, journal_bytes)
    }

    /// Rebuild a crashed cloud from the latest checkpoint snapshot plus
    /// the (possibly torn) journal, re-attaching the surviving links.
    /// The journal's tail is truncated at the first invalid frame, and
    /// every round in the valid prefix that reached its
    /// [`WalRecord::RoundCompleted`] marker is replayed onto the
    /// snapshot, each upsert keyed by the node name its state encodes.
    /// That arrives at the exact registry state the crashed cloud had at
    /// its last committed round; a round torn before its marker is
    /// discarded whole, and the recovered cloud journals on from the end
    /// of its last committed record, so the discarded upserts never sit
    /// in front of a later round's marker. Counted as `wal.replay.*` in
    /// `obs`.
    pub fn recover(
        sky: Arc<TrafficSim>,
        snapshot: Option<&[u8]>,
        journal_bytes: &[u8],
        links: Vec<(String, Link)>,
        obs: Obs,
    ) -> Result<(Cloud, RecoveryReport), SnapshotError> {
        let mut cloud = Cloud::new(sky);
        cloud.obs = obs;
        {
            let mut registry = cloud.registry.lock();
            for (name, link) in links {
                registry.insert(name.clone(), NodeRecord::new(name, link));
            }
        }
        if let Some(bytes) = snapshot {
            cloud.restore_registry(bytes)?;
        }
        let (mut journal, open) = Journal::open(journal_bytes);
        // If the journal opens on a checkpoint marker, it must belong to
        // the snapshot we were handed.
        if let (Some(WalRecord::SnapshotTaken { state_crc, .. }), Some(bytes)) =
            (journal.records().first(), snapshot)
        {
            let computed = crc32(bytes);
            if *state_crc != computed {
                return Err(SnapshotError::ChecksumMismatch {
                    stored: *state_crc,
                    computed,
                });
            }
        }
        let mut report = RecoveryReport {
            recovered_records: open.recovered,
            truncated_bytes: open.truncated_bytes,
            applied_upserts: 0,
        };
        // Byte length of the journal through its last committed record:
        // the opening `SnapshotTaken` or a marker that committed a round.
        let mut committed_len = 0;
        {
            let mut registry = cloud.registry.lock();
            // Upserts of the round being read; applied only when its
            // commit marker arrives and counts exactly these.
            let mut round = Vec::new();
            let mut read_len = 0;
            for (payload, record) in journal.payloads().zip(journal.records()) {
                read_len += FRAME_HEADER + payload.len();
                cloud.obs.incr("wal.replay", 1);
                match record {
                    WalRecord::NodeState { state } => round.push(decode_node_state(&state)?),
                    WalRecord::RoundCompleted { effects } if effects as usize == round.len() => {
                        for st in round.drain(..) {
                            if let Some(rec) = registry.get_mut(&st.name) {
                                rec.state = st;
                                report.applied_upserts += 1;
                            }
                        }
                        committed_len = read_len;
                    }
                    // A marker that does not count the upserts before
                    // it commits none of them.
                    WalRecord::RoundCompleted { .. } => round.clear(),
                    WalRecord::SnapshotTaken { .. } => committed_len = read_len,
                    _ => {}
                }
            }
        }
        if committed_len < journal.len_bytes() {
            journal = Journal::open(&journal_bytes[..committed_len]).0;
        }
        cloud.obs.incr("wal.recoveries", 1);
        *cloud.journal.lock() = journal;
        Ok((cloud, report))
    }

    /// Per-node wire counters, sorted by name.
    pub fn link_stats(&self) -> Vec<(String, LinkStats)> {
        self.registry
            .lock()
            .iter()
            .map(|(name, rec)| (name.clone(), rec.link.stats()))
            .collect()
    }

    /// Shut down every registered node.
    pub fn shutdown(self) {
        let mut registry = self.registry.into_inner();
        while let Some((_, record)) = registry.pop_first() {
            record.link.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeAgent, NodeBehavior};
    use crate::transport::{spawn_node, spawn_node_with_faults, LinkFaults};
    use aircal_aircraft::TrafficConfig;
    use aircal_env::{Scenario, ScenarioKind};

    fn sky() -> Arc<TrafficSim> {
        let center = aircal_env::scenarios::testbed_origin();
        Arc::new(TrafficSim::generate(
            TrafficConfig {
                count: 40,
                ..TrafficConfig::paper_default(center)
            },
            500,
        ))
    }

    fn spawn(kind: ScenarioKind, behavior: NodeBehavior, sky: &Arc<TrafficSim>, seed: u64) -> Link {
        spawn_node(
            NodeAgent::new(Scenario::build(kind), behavior, sky.clone()),
            0.0,
            seed,
        )
    }

    #[test]
    fn health_ladder_walks_both_rungs_and_eviction_is_terminal() {
        let policy = HealthPolicy::default();
        let mut ladder = HealthLadder::default();
        assert_eq!(ladder.health, NodeHealth::Healthy);

        // Link ladder: one failure degrades, three quarantine, recovery
        // on the next clean audit — same thresholds as the registry.
        assert_eq!(ladder.record(&policy, false, false), NodeHealth::Degraded);
        ladder.record(&policy, false, false);
        assert_eq!(
            ladder.record(&policy, false, false),
            NodeHealth::Quarantined
        );
        assert_eq!(ladder.record(&policy, true, false), NodeHealth::Healthy);

        // Byzantine ladder runs out at four consecutive anomalies and
        // eviction is terminal: clean audits no longer help. A failed
        // audit between two anomalous ones charges the link run and
        // leaves the anomaly run where it was.
        assert_eq!(ladder.record(&policy, true, true), NodeHealth::Suspect);
        assert_eq!(ladder.record(&policy, false, false), NodeHealth::Degraded);
        assert_eq!(
            (ladder.consecutive_failures, ladder.consecutive_anomalies),
            (1, 1)
        );
        assert_eq!(ladder.record(&policy, true, true), NodeHealth::Degraded);
        assert_eq!(
            (ladder.consecutive_failures, ladder.consecutive_anomalies),
            (0, 2)
        );
        assert_eq!(ladder.record(&policy, true, true), NodeHealth::Quarantined);
        assert_eq!(ladder.record(&policy, true, true), NodeHealth::Evicted);
        assert_eq!(ladder.record(&policy, true, false), NodeHealth::Evicted);
    }

    #[test]
    fn honest_outdoor_node_approved() {
        let sky = sky();
        let cloud = Cloud::new(sky.clone());
        cloud
            .register(spawn(
                ScenarioKind::OpenField,
                NodeBehavior::Honest,
                &sky,
                1,
            ))
            .unwrap();
        let verdicts = cloud.audit_all(600);
        let (_, v) = &verdicts[0];
        let v = v.as_ref().expect("reachable");
        assert!(v.outdoor_claim_verified);
        assert!(v.approved, "verdict {v:?}");
        assert!(v.is_complete());
        assert_eq!(cloud.marketplace().len(), 1);
        let health = cloud.health_report();
        assert_eq!(health[0].1, NodeHealth::Healthy);
        cloud.shutdown();
    }

    #[test]
    fn false_outdoor_claim_caught() {
        let sky = sky();
        let cloud = Cloud::new(sky.clone());
        cloud
            .register(spawn(
                ScenarioKind::Indoor,
                NodeBehavior::FalseClaims,
                &sky,
                2,
            ))
            .unwrap();
        let verdicts = cloud.audit_all(601);
        let v = verdicts[0].1.as_ref().unwrap();
        assert!(v.claims.outdoor, "the lie");
        assert!(!v.install.outdoor, "the independent call");
        assert!(!v.outdoor_claim_verified);
        assert!(!v.approved);
        assert!(cloud.marketplace().is_empty());
        cloud.shutdown();
    }

    #[test]
    fn fabricator_rejected_by_trust() {
        let sky = sky();
        let cloud = Cloud::new(sky.clone());
        cloud
            .register(spawn(
                ScenarioKind::OpenField,
                NodeBehavior::Fabricator { ghosts: 120 },
                &sky,
                3,
            ))
            .unwrap();
        let verdicts = cloud.audit_all(602);
        let v = verdicts[0].1.as_ref().unwrap();
        assert!(!v.trust.flags.is_empty(), "fabrication must be flagged");
        assert!(!v.approved);
        cloud.shutdown();
    }

    #[test]
    fn mixed_fleet_marketplace() {
        let sky = sky();
        let cloud = Cloud::new(sky.clone());
        for (kind, behavior, seed) in [
            (ScenarioKind::OpenField, NodeBehavior::Honest, 10u64),
            (ScenarioKind::Rooftop, NodeBehavior::Honest, 11),
            (ScenarioKind::Indoor, NodeBehavior::Honest, 12),
            (ScenarioKind::BehindWindow, NodeBehavior::FalseClaims, 13),
        ] {
            cloud.register(spawn(kind, behavior, &sky, seed)).unwrap();
        }
        assert_eq!(cloud.node_count(), 4);
        let verdicts = cloud.audit_all(603);
        assert_eq!(verdicts.len(), 4);

        let market = cloud.marketplace();
        let names: Vec<&str> = market.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.contains(&"open-field"), "market {names:?}");
        assert!(names.contains(&"rooftop"), "market {names:?}");
        assert!(
            !names.contains(&"behind-window"),
            "false claimant must be excluded: {names:?}"
        );
        // The honest indoor node is honest about being indoor: the claim
        // verifies; whether it is *approved* depends on its trust score.
        for v in verdicts.iter().filter_map(|(_, v)| v.as_ref()) {
            if v.claims.name == "indoor" {
                assert!(v.outdoor_claim_verified);
            }
        }
        cloud.shutdown();
    }

    #[test]
    fn unreachable_node_reported() {
        let sky = sky();
        let cloud = Cloud::new(sky.clone());
        // The node daemon crashed before ever answering: registration
        // fails fast (SendFailed is not retried) and cleanly.
        let dead_link = spawn_node_with_faults(
            NodeAgent::new(
                Scenario::build(ScenarioKind::OpenField),
                NodeBehavior::Honest,
                sky.clone(),
            ),
            LinkFaults {
                crash_after: Some(0),
                ..LinkFaults::none()
            },
            4,
        );
        assert!(cloud.register(dead_link).is_none());
        assert_eq!(cloud.node_count(), 0);
        cloud.shutdown();
    }

    /// One node's daemon dies mid-audit; its neighbors' audits complete
    /// untouched and the victim still gets a partial verdict.
    #[test]
    fn node_dropping_mid_audit_leaves_neighbors_clean() {
        let sky = sky();
        let mut cloud = Cloud::new(sky.clone());
        cloud.retry_policy = RetryPolicy::quick();
        cloud
            .register(spawn(
                ScenarioKind::OpenField,
                NodeBehavior::Honest,
                &sky,
                20,
            ))
            .unwrap();
        cloud
            .register(spawn(ScenarioKind::Rooftop, NodeBehavior::Honest, &sky, 21))
            .unwrap();
        // Daemon survives registration (1 request) + describe + survey,
        // then crashes: the cells and tv steps fail with SendFailed.
        let crasher = spawn_node_with_faults(
            NodeAgent::new(
                Scenario::build(ScenarioKind::Indoor),
                NodeBehavior::Honest,
                sky.clone(),
            ),
            LinkFaults {
                crash_after: Some(3),
                ..LinkFaults::none()
            },
            22,
        );
        cloud.register(crasher).unwrap();

        let verdicts = cloud.audit_all(604);
        assert_eq!(verdicts.len(), 3);
        for (name, v) in &verdicts {
            let v = v.as_ref().expect("every node answered Describe");
            if name == "indoor" {
                assert!(!v.is_complete(), "crasher must be partial");
                let failed: Vec<&str> = v.failed_steps.iter().map(|f| f.step.as_str()).collect();
                assert_eq!(failed, vec!["cells", "tv"]);
                assert!(v
                    .failed_steps
                    .iter()
                    .all(|f| f.error == LinkError::SendFailed));
                assert!(v.trust.flags.iter().any(|f| f.contains("missing evidence")));
            } else {
                assert!(v.is_complete(), "{name} must be untouched");
            }
        }
        let health = cloud.health_report();
        let by_name = |n: &str| health.iter().find(|(name, _, _)| name == n).unwrap().1;
        assert_eq!(by_name("indoor"), NodeHealth::Degraded);
        assert_eq!(by_name("open-field"), NodeHealth::Healthy);
        assert_eq!(by_name("rooftop"), NodeHealth::Healthy);
        cloud.shutdown();
    }

    /// Repeated failures quarantine a node (and drop it from the
    /// marketplace); a clean audit re-admits it.
    #[test]
    fn quarantine_and_readmission_lifecycle() {
        let sky = sky();
        let mut cloud = Cloud::new(sky.clone());
        // Single attempt + tight tv budget so each hung sweep costs one
        // second, not a full retry ladder (retries are covered by the
        // transport tests; this test is about the lifecycle).
        cloud.retry_policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::quick()
        };
        cloud.retry_policy.budgets.tv = std::time::Duration::from_secs(1);
        // Registration is request 0; audits are 4 node-side requests
        // each (describe, survey, cells, tv). Hang the tv request of the
        // first three audits (indices 4, 8, 12), then behave.
        let flaky = spawn_node_with_faults(
            NodeAgent::new(
                Scenario::build(ScenarioKind::OpenField),
                NodeBehavior::Honest,
                sky.clone(),
            ),
            LinkFaults {
                hang_on: vec![4, 8, 12],
                ..LinkFaults::none()
            },
            30,
        );
        cloud.register(flaky).unwrap();

        for (round, expected) in [
            (1u64, NodeHealth::Degraded),
            (2, NodeHealth::Degraded),
            (3, NodeHealth::Quarantined),
        ] {
            let verdicts = cloud.audit_all(700 + round);
            let v = verdicts[0].1.as_ref().expect("describe still answers");
            assert!(!v.is_complete(), "round {round} must be partial");
            assert_eq!(cloud.health_report()[0].1, expected, "round {round}");
        }
        assert!(
            cloud.marketplace().is_empty(),
            "quarantined nodes are not rentable"
        );
        // Probation: the cheap probe answers, the full audit is clean,
        // and the node is re-admitted.
        let verdicts = cloud.audit_all(704);
        let v = verdicts[0].1.as_ref().expect("re-admitted");
        assert!(v.is_complete());
        let (_, health, failures) = cloud.health_report()[0].clone();
        assert_eq!(health, NodeHealth::Healthy);
        assert_eq!(failures, 0);
        assert!(!cloud.marketplace().is_empty(), "rentable again");
        cloud.shutdown();
    }
}
