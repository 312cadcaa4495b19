//! The crowd-sourced sensor network itself.
//!
//! §2 of the paper sketches the deployment the calibration exists for:
//! volunteer-run sensor nodes (SDR + host computer) stream measurements to
//! a cloud; operators "offer virtualized spectrum monitoring resources,
//! which users then rent and pay for"; and the open problem is *trusting*
//! nodes installed by strangers — possibly careless, possibly dishonest.
//!
//! This crate is that deployment, in-process:
//!
//! * [`protocol`] — the node⇄cloud wire messages (serde; a real system
//!   would put them on TLS, we put them on crossbeam channels);
//! * [`node`] — the node agent: owns an installation (a
//!   [`aircal_env::Scenario`]), services measurement requests, and may be
//!   [`node::NodeBehavior::Honest`] or one of the cheater models the paper
//!   worries about;
//! * [`cloud`] — the aggregator: registry, remote calibration driver,
//!   claim verification ("These deductions can be used to independently
//!   verify claims about a node installation"), and the rentable-node
//!   marketplace query;
//! * [`transport`] — the duplex link, with a seeded chaos plan
//!   ([`transport::LinkFaults`]: drops, latency, burst outages, crashes,
//!   hangs, corrupted replies), typed [`transport::LinkError`]s, and a
//!   deterministic retry/backoff policy ([`transport::RetryPolicy`]).
//!
//! The rented *product* is also here: [`protocol::Request::MonitorBand`]
//! makes a node capture a band through its real environment and return a
//! Welch PSD — so renting an obstructed node yields (correctly)
//! pessimistic spectrum data, closing the loop on why calibration is
//! worth paying for.
//!
//! Everything stays deterministic: node work is seeded, threads only add
//! scheduling nondeterminism to *ordering*, and the registry sorts by
//! name before reporting.

pub mod adversary;
pub mod cloud;
pub mod node;
pub mod protocol;
pub mod snapshot;
pub mod transport;

pub use adversary::{Adversary, AdversaryKind};
pub use cloud::{
    Cloud, ConsistencyPolicy, HealthLadder, HealthPolicy, NodeHealth, NodeRecord, RecoveryReport,
    ReportFingerprints, SpotCheck, StepFailure, StepOutcome, VerificationVerdict,
};
pub use node::{NodeAgent, NodeBehavior, ServiceLedger};
pub use protocol::{Envelope, NodeClaims, Request, Response, Sequenced};
pub use snapshot::{RegistryNodeState, SnapshotError};
pub use transport::{
    node_id_for, spawn_node, spawn_node_with_faults, AttemptVerdict, BurstOutage, Link, LinkError,
    LinkFaults, LinkStats, NodeVerdict, RetryPolicy, TimeoutBudgets,
};
