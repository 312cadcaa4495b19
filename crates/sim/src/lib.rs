//! Deterministic discrete-event campaign engine for fleet-scale runs.
//!
//! The paper's future-work section sketches *measurement scheduling*
//! across a crowd-sourced fleet; the ROADMAP north star is a system in
//! the Electrosense regime, where campaigns span thousands of volunteer
//! nodes. The lockstep audit loop in `aircal-net` is faithful but walks
//! every node every round — this crate replaces it for large fleets with
//! a discrete-event simulation:
//!
//! * [`event`] — virtual time, typed events, and the binary-heap queue
//!   keyed by `(virtual_time, tie_break_seed, id)` that drives a run;
//! * [`scheduler`] — the [`scheduler::Scheduler`] trait with round-robin
//!   and utility-driven (stalest-profile-first) policies, the paper's
//!   measurement-scheduling sketch made concrete;
//! * [`engine`] — the campaign engine: per-node measurement tasks
//!   (ADS-B windows, TV sweeps, cell scans), link deliveries judged by
//!   the *real* [`aircal_net::LinkFaults`] chaos plans via
//!   [`aircal_net::LinkFaults::attempt_verdict`], node-side crash/hang
//!   semantics via [`aircal_net::LinkFaults::node_verdict`], and cloud
//!   audit rounds that walk the threaded registry's own
//!   [`aircal_net::HealthLadder`] under its [`aircal_net::HealthPolicy`].
//!
//! # Determinism contract
//!
//! Identical seeds produce bit-identical event orders, event logs,
//! campaign digests, and trust tables at **any** worker count. The
//! engine earns this the same way the DSP pipelines do:
//!
//! 1. every event batch (all events sharing the earliest virtual time)
//!    is popped in heap order, which is a pure function of the queue
//!    contents;
//! 2. the only parallel phase computes measurement payloads, and each
//!    payload is a pure function of `(campaign seed, event id, node
//!    truth)` via [`aircal_dsp::derive_stream_seed`] — results come back
//!    in batch order from [`aircal_dsp::par_map`];
//! 3. every stateful RNG draw (link verdicts) happens in the sequential
//!    apply phase, in batch order.
//!
//! The engine also advances the `aircal-obs` virtual-tick clock
//! ([`aircal_obs::trace::advance_clock_to`]) to each batch's time, so
//! spans and `sim.*` metrics recorded during a run share the campaign's
//! clock.

pub mod engine;
pub mod event;
mod line;
pub mod scheduler;

pub use engine::{
    run, run_with_obs, CampaignConfig, CampaignResult, FleetFaultsConfig, PartitionSpec,
    RecoveryFaultsConfig,
};
pub use event::{EventKind, EventQueue, SimEvent, TaskKind};
pub use scheduler::{
    FleetView, NodeView, RoundRobinScheduler, Scheduler, SchedulerKind, UtilityScheduler,
};
