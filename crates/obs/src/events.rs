//! The structured audit event log.
//!
//! Every fleet audit appends an ordered stream of [`AuditEvent`]s: which
//! step ran, what it cost on the wire, which faults the link absorbed,
//! how the node's health and trust moved. Serialized as JSON lines the
//! stream is a replayable record of *why* the cloud quarantined (or
//! re-admitted) a node — the per-node telemetry backbone Electrosense-
//! style deployments run on.
//!
//! Events are only ever appended from the cloud's sequential audit path,
//! so for a fixed seed the stream is byte-identical across runs and
//! across worker-pool sizes.

use serde::{Deserialize, Serialize};

/// One entry in the audit log. `seq` is a process-wide ordinal assigned
/// at append time, so the full fleet log has a total order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEvent {
    pub seq: u64,
    /// Registry name of the node the event concerns.
    pub node: String,
    pub kind: AuditEventKind,
}

impl AuditEvent {
    /// One JSON line (externally-tagged kind), no trailing newline.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("audit events always serialize")
    }
}

/// What happened. Externally tagged on serialization:
/// `{"kind": {"StepFailed": {...}}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AuditEventKind {
    /// An audit of this node began with this commission seed.
    AuditStarted {
        seed: u64,
    },
    StepStarted {
        step: String,
    },
    StepCompleted {
        step: String,
        /// Wire attempts the step consumed, retries included.
        wire_attempts: u64,
    },
    StepFailed {
        step: String,
        error: String,
        wire_attempts: u64,
    },
    /// The link layer absorbed `count` faults of one kind during a step
    /// (it may still have completed via retries).
    FaultObserved {
        step: String,
        fault: String,
        count: u64,
    },
    /// The node's health state changed as a result of this audit round.
    HealthTransition {
        from: String,
        to: String,
        consecutive_failures: u32,
    },
    /// Final trust score for the round; `delta` is the penalty applied
    /// on top of the evidence-based score (0 for a complete audit).
    TrustDelta {
        score: f64,
        delta: f64,
        reasons: Vec<String>,
    },
    AuditCompleted {
        complete: bool,
        approved: bool,
    },
    /// Cross-sensor consistency: this node's reported profile vs the
    /// fleet's robustly fused consensus.
    ConsistencyChecked {
        /// Mean absolute deviation from the fused profile, dB.
        residual_db: f64,
        /// Bands both the node and the consensus measured.
        bands: usize,
    },
    /// A data-plane anomaly check fired, with human-readable evidence —
    /// the replayable justification for every demotion on the quarantine
    /// ladder.
    AnomalyDetected {
        /// Which check ("spot-check", "replay", "frozen", "overshoot",
        /// "drift", "history-fork").
        check: String,
        /// What the check saw.
        evidence: String,
        /// Consecutive anomalous audits including this one.
        consecutive: u32,
    },
    /// Terminal rung of the quarantine ladder: the node is permanently
    /// excluded from audits and the marketplace.
    NodeEvicted {
        /// The anomaly evidence that sealed it.
        reason: String,
        /// Consecutive anomalous audits at eviction.
        after_audits: u32,
    },
}

#[derive(Debug, Default)]
pub(crate) struct EventLog {
    next_seq: u64,
    events: Vec<AuditEvent>,
}

impl EventLog {
    pub(crate) fn emit(&mut self, node: &str, kind: AuditEventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(AuditEvent {
            seq,
            node: node.to_string(),
            kind,
        });
    }

    pub(crate) fn events(&self) -> Vec<AuditEvent> {
        self.events.clone()
    }

    pub(crate) fn jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_to_stable_json_lines() {
        let mut log = EventLog::default();
        log.emit("node-a", AuditEventKind::AuditStarted { seed: 7 });
        log.emit(
            "node-a",
            AuditEventKind::StepFailed {
                step: "tv".into(),
                error: "request timed out".into(),
                wire_attempts: 3,
            },
        );
        log.emit(
            "node-a",
            AuditEventKind::HealthTransition {
                from: "healthy".into(),
                to: "degraded".into(),
                consecutive_failures: 1,
            },
        );
        let jsonl = log.jsonl();
        let lines: Vec<&str> = jsonl.trim_end().split('\n').collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            r#"{"seq":0,"node":"node-a","kind":{"AuditStarted":{"seed":7}}}"#
        );
        assert!(lines[1].contains(r#""wire_attempts":3"#));
        // Round-trips through the shim parser.
        let back: AuditEvent = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(back, log.events()[2]);
    }
}
