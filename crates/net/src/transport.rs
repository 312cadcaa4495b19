//! The node ⇄ cloud transport: a duplex crossbeam-channel link plus the
//! node service loop on its own OS thread — with a deterministic failure
//! model and a retry layer on top.
//!
//! A crowd-sourced fleet runs on volunteer links: dropped messages, burst
//! outages, crashed host daemons, wedged threads and garbled replies are
//! the *normal* operating condition, not the exception. [`LinkFaults`]
//! injects all of those from a seeded plan (same seed ⇒ same faults, so
//! every chaos run is reproducible), [`RetryPolicy`] governs how the
//! cloud retries around them, and [`LinkStats`] counts what actually
//! happened on the wire.

use crate::node::NodeAgent;
use crate::protocol::{Envelope, Request, Response, Sequenced};
use aircal_core::wal::{fnv1a, FNV1A_OFFSET};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many accepted sequence numbers the per-node dedup window
/// remembers. Far larger than any reply that could still be in flight
/// (the link is half-duplex: at most one request outstanding).
const DEDUP_WINDOW: usize = 64;

/// Stable node id for the envelope: FNV-1a over the registered name, so
/// the id survives restarts and is identical on every machine.
pub fn node_id_for(name: &str) -> u64 {
    fnv1a(FNV1A_OFFSET, name.as_bytes())
}

/// Why a [`Link::call`] failed. The variants matter to the caller: a dead
/// node thread is permanent, everything else is worth a retry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkError {
    /// The node's service thread is gone (request channel disconnected).
    /// Retrying cannot help; the node must be respawned by its operator.
    SendFailed,
    /// No reply arrived within the timeout budget. The node may be hung
    /// or the reply may still be in flight — retryable.
    Timeout,
    /// The message was swallowed by the (simulated) network, in either
    /// direction — retryable.
    Dropped,
    /// A parseable reply arrived, but of the wrong kind for the request
    /// (garbled frame or misbehaving node) — retryable, counted apart.
    WrongKind {
        /// The kind tag the node actually returned.
        got: String,
    },
}

impl LinkError {
    /// Whether another attempt over the same link could plausibly succeed.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, LinkError::SendFailed)
    }
}

impl core::fmt::Display for LinkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinkError::SendFailed => write!(f, "node thread dead"),
            LinkError::Timeout => write!(f, "timed out"),
            LinkError::Dropped => write!(f, "dropped by the network"),
            LinkError::WrongKind { got } => write!(f, "wrong-kind reply ({got})"),
        }
    }
}

/// Per-link wire counters, updated by every attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Wire attempts made (every send tried, including retries).
    pub attempts: u64,
    /// Attempts that returned the expected reply.
    pub ok: u64,
    /// Re-attempts made by [`Link::call_with_retry`].
    pub retries: u64,
    /// Calls where [`Link::call_with_retry`] exhausted its budget.
    pub gave_up: u64,
    /// Replies of the wrong kind for their request.
    pub wrong_kind: u64,
    /// Messages swallowed by the network (either direction).
    pub dropped: u64,
    /// Attempts that hit the reply deadline.
    pub timeouts: u64,
    /// Attempts that found the node thread dead.
    pub send_failed: u64,
    /// Calls answered on the very first attempt. Split from
    /// [`retried_ok`](Self::retried_ok) so a flaky link that limps
    /// through on retries is distinguishable from a clean one — before
    /// the split, a retry success was indistinguishable from a clean
    /// call and flaky links hid inside healthy `health_report` rows.
    pub first_try_ok: u64,
    /// Calls that failed at least once and then succeeded on a retry.
    pub retried_ok: u64,
    /// Stale replies discarded by the dedup window: duplicated frames,
    /// reordered (late) frames, and replies to attempts that already
    /// timed out. These are *not* wire attempts, so the per-attempt
    /// identity `attempts == ok + dropped + timeouts + send_failed +
    /// wrong_kind` is unaffected.
    pub stale_drained: u64,
}

impl LinkStats {
    /// Calls that completed successfully, however many attempts it took.
    pub fn calls_ok(&self) -> u64 {
        self.first_try_ok + self.retried_ok
    }
}

/// A contiguous run of wire attempts during which the link is down:
/// requests vanish before reaching the node (a last-mile outage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstOutage {
    /// First affected wire-attempt index (0-based, per link).
    pub start: u64,
    /// Number of consecutive attempts affected.
    pub len: u64,
}

impl BurstOutage {
    fn covers(&self, idx: u64) -> bool {
        idx >= self.start && idx < self.start.saturating_add(self.len)
    }
}

/// Deterministic fault plan for one link.
///
/// Probabilistic faults draw from the link's seeded ChaCha stream (same
/// seed ⇒ same faults); scheduled faults key off message counters, so a
/// test can predict exactly which attempts fail. The two sides count
/// differently: [`burst_outages`](Self::burst_outages) and
/// [`corrupt_on`](Self::corrupt_on) index *wire attempts* (cloud side,
/// retries included), while [`hang_on`](Self::hang_on) and
/// [`crash_after`](Self::crash_after) index *requests the node actually
/// received* (attempts minus anything dropped before delivery). The
/// node-side knobs are installed at spawn time; mutating them on a live
/// link's `faults` field has no effect.
#[derive(Debug, Clone, Default)]
pub struct LinkFaults {
    /// Per-attempt probability the request vanishes before the node,
    /// [0, 1). Values ≥ 1 are silently clamped to 0.999 at the draw — a
    /// link that dropped *everything* would turn every call into a
    /// guaranteed timeout and hide the code path under test.
    pub request_drop: f64,
    /// Per-attempt probability the reply vanishes *after* the node did
    /// the work (answer lost, effort wasted), [0, 1); clamped like
    /// `request_drop`.
    pub response_drop: f64,
    /// Extra one-way latency added to every delivered request, ms.
    pub latency_ms: u64,
    /// Scheduled burst outages, by wire-attempt index.
    pub burst_outages: Vec<BurstOutage>,
    /// The node's host daemon crashes (service thread exits) after
    /// servicing this many requests; everything after is `SendFailed`.
    pub crash_after: Option<u64>,
    /// Node-received request indices swallowed mid-service: the node
    /// wedges, never replies, and the cloud eats a timeout.
    pub hang_on: Vec<u64>,
    /// Wire-attempt indices whose reply is replaced with a parseable but
    /// wrong-kind message (garbled frame).
    pub corrupt_on: Vec<u64>,
    /// Wire-attempt indices whose reply is *duplicated*: the matching
    /// copy is delivered normally and a second identical copy arrives
    /// later (drained by the dedup window as stale). Wire-attempt
    /// indexed, cloud side, like `burst_outages`/`corrupt_on`.
    pub duplicate_on: Vec<u64>,
    /// Wire-attempt indices whose reply is *reordered*: it arrives
    /// after the caller's deadline, behind newer traffic. The caller
    /// eats a timeout, retries, and the late original is drained as
    /// stale by the dedup window. Wire-attempt indexed, cloud side.
    /// Note the node *did* service the request — a retried call costs a
    /// second serviced request, exactly like a real at-least-once wire.
    pub reorder_on: Vec<u64>,
}

impl LinkFaults {
    /// A perfectly healthy link.
    pub fn none() -> Self {
        Self::default()
    }

    /// The original single-knob lossy link: requests dropped with the
    /// given probability, nothing else.
    pub fn lossy(request_drop: f64) -> Self {
        Self {
            request_drop,
            ..Self::default()
        }
    }

    /// Offline, event-driven evaluation of this plan for wire attempt
    /// `idx`: what the link does to the attempt, without threads,
    /// channels, or sleeps. Probabilistic faults draw from `rng` in the
    /// same order as the live `Link::attempt` path (request drop, then
    /// response drop), so a fixed seed yields a fixed fault schedule.
    /// The discrete-event campaign engine (`aircal-sim`) turns the
    /// returned verdict into delivery/loss events; node-side faults
    /// (`hang_on`, `crash_after`) are evaluated separately via
    /// [`LinkFaults::node_verdict`] because they key off requests the
    /// node actually *received*.
    pub fn attempt_verdict(&self, idx: u64, rng: &mut ChaCha8Rng) -> AttemptVerdict {
        if self.burst_outages.iter().any(|b| b.covers(idx)) {
            return AttemptVerdict::DroppedRequest;
        }
        let p_req = self.request_drop.clamp(0.0, 0.999);
        if p_req > 0.0 && rng.gen_range(0.0..1.0) < p_req {
            return AttemptVerdict::DroppedRequest;
        }
        let p_resp = self.response_drop.clamp(0.0, 0.999);
        if p_resp > 0.0 && rng.gen_range(0.0..1.0) < p_resp {
            return AttemptVerdict::DroppedResponse;
        }
        if self.corrupt_on.contains(&idx) {
            return AttemptVerdict::Corrupted;
        }
        if self.duplicate_on.contains(&idx) {
            return AttemptVerdict::Duplicated {
                latency_ms: self.latency_ms,
            };
        }
        if self.reorder_on.contains(&idx) {
            return AttemptVerdict::Reordered {
                latency_ms: self.latency_ms,
            };
        }
        AttemptVerdict::Deliver {
            latency_ms: self.latency_ms,
        }
    }

    /// Offline evaluation of the node-side fault knobs for the
    /// `served`-th request the node receives (0-based): does the service
    /// loop answer, wedge, or find the host daemon dead? Mirrors the
    /// [`spawn_node_with_faults`] service-thread semantics exactly.
    pub fn node_verdict(&self, served: u64) -> NodeVerdict {
        if self.crash_after.is_some_and(|n| served >= n) {
            NodeVerdict::Crashed
        } else if self.hang_on.contains(&served) {
            NodeVerdict::Hang
        } else {
            NodeVerdict::Service
        }
    }
}

/// What a fault plan does to one wire attempt, evaluated offline (no
/// threads) by [`LinkFaults::attempt_verdict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptVerdict {
    /// The request reaches the node and (node faults permitting) the
    /// reply comes back after the link's extra one-way latency.
    Deliver {
        /// Extra one-way latency the plan adds, ms.
        latency_ms: u64,
    },
    /// The request vanishes before the node (drop or burst outage): the
    /// node never sees it, the caller eats a timeout.
    DroppedRequest,
    /// The node does the work but the reply vanishes on the way back.
    DroppedResponse,
    /// The reply arrives garbled: parseable, wrong kind.
    Corrupted,
    /// The reply is delivered *and* an identical duplicate copy arrives
    /// one delivery slot later. Only the dedup window stands between the
    /// duplicate and a double-applied report.
    Duplicated {
        /// Extra one-way latency the plan adds, ms.
        latency_ms: u64,
    },
    /// The reply is delivered late, behind newer traffic: by the time it
    /// arrives the caller has timed out and moved on, so it lands as a
    /// stale retransmission of an already-superseded sequence number.
    Reordered {
        /// Extra one-way latency the plan adds, ms.
        latency_ms: u64,
    },
}

/// What the node-side service loop does with a received request,
/// evaluated offline by [`LinkFaults::node_verdict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeVerdict {
    /// Serviced normally.
    Service,
    /// Wedged mid-service: the request is swallowed, no reply ever.
    Hang,
    /// The host daemon is dead; every send fails from now on.
    Crashed,
}

/// Per-request-kind reply deadlines. A commissioned survey renders tens
/// of seconds of virtual signal; a describe is a struct copy — a single
/// global timeout either wedges the cloud for minutes per dead node or
/// kills slow-but-honest sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutBudgets {
    /// `Describe` deadline.
    pub describe: Duration,
    /// `RunSurvey` deadline.
    pub survey: Duration,
    /// `ScanCells` deadline.
    pub cells: Duration,
    /// `SweepTv` deadline.
    pub tv: Duration,
    /// `MonitorBand` deadline.
    pub monitor: Duration,
    /// `Shutdown` deadline.
    pub shutdown: Duration,
}

impl TimeoutBudgets {
    /// The deadline for one request.
    pub fn for_request(&self, request: &Request) -> Duration {
        match request {
            Request::Describe => self.describe,
            Request::RunSurvey { .. } => self.survey,
            Request::ScanCells { .. } => self.cells,
            Request::SweepTv { .. } => self.tv,
            Request::MonitorBand { .. } => self.monitor,
            // An attestation is a struct copy over the node's in-memory
            // ledger — describe-class latency.
            Request::Attest { .. } => self.describe,
            Request::Shutdown => self.shutdown,
        }
    }
}

/// How the cloud calls a flaky node: bounded attempts, deterministic
/// exponential backoff with seeded jitter, per-kind timeout budgets.
///
/// Budgets must sit well above honest compute time: a genuine timeout on
/// a *slow* (rather than hung) node would leave its reply in flight, and
/// although [`Link::call`] drains stale replies before the next send, a
/// reply racing the drain would cost determinism.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
    /// Backoff cap (pre-jitter).
    pub max_backoff: Duration,
    /// Fraction of the capped backoff added as seeded jitter, [0, 1].
    pub jitter: f64,
    /// Reply deadlines by request kind.
    pub budgets: TimeoutBudgets,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(100),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(5),
            jitter: 0.25,
            budgets: TimeoutBudgets {
                describe: Duration::from_secs(10),
                survey: Duration::from_secs(90),
                cells: Duration::from_secs(30),
                tv: Duration::from_secs(30),
                monitor: Duration::from_secs(30),
                shutdown: Duration::from_secs(5),
            },
        }
    }
}

impl RetryPolicy {
    /// Millisecond-scale backoffs and second-scale budgets: generous
    /// against quick-mode compute time, tiny against wall-clock test
    /// budgets.
    pub fn quick() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(20),
            jitter: 0.5,
            budgets: TimeoutBudgets {
                describe: Duration::from_secs(5),
                survey: Duration::from_secs(30),
                cells: Duration::from_secs(10),
                tv: Duration::from_secs(10),
                monitor: Duration::from_secs(10),
                shutdown: Duration::from_secs(2),
            },
        }
    }

    /// Backoff before retry number `retry` (0-based), jitter drawn from
    /// `rng`.
    pub fn backoff(&self, retry: u32, rng: &mut ChaCha8Rng) -> Duration {
        let exp = self.base_backoff.as_secs_f64() * self.multiplier.powi(retry as i32);
        let capped = exp.min(self.max_backoff.as_secs_f64());
        let jitter = if self.jitter > 0.0 {
            capped * self.jitter * rng.gen_range(0.0..1.0)
        } else {
            0.0
        };
        Duration::from_secs_f64(capped + jitter)
    }
}

/// The cloud's handle to one node.
pub struct Link {
    /// `None` once a clean [`Link::shutdown`] has closed the channel.
    tx: Option<Sender<Sequenced<Request>>>,
    rx: Receiver<Sequenced<Response>>,
    /// Cloud-side fault plan (drops, bursts, latency, corruption). The
    /// node-side knobs (`hang_on`, `crash_after`) were cloned into the
    /// service thread at spawn time.
    pub faults: LinkFaults,
    /// Fallback reply deadline for bare [`Link::call`]; retry paths use
    /// the policy's per-kind budgets instead.
    pub timeout: Duration,
    /// Envelope node id (FNV-1a of the node name), stamped on every
    /// request.
    node_id: u64,
    rng: ChaCha8Rng,
    handle: Option<JoinHandle<()>>,
    sent: u64,
    stats: LinkStats,
    /// Replies the fault plan held back (duplicates, reordered frames);
    /// they "arrive" at the next attempt and are drained as stale.
    stale_pending: Vec<Sequenced<Response>>,
    /// Per-node dedup window: the most recent sequence numbers whose
    /// reply was accepted. A reply whose seq is not the one in flight —
    /// or is already in this window — is stale and never reaches a
    /// cloud handler, which is what makes every handler idempotent
    /// under at-least-once delivery.
    accepted: VecDeque<u64>,
}

impl Link {
    /// One wire attempt: send the request and wait for the matching
    /// reply, using the link's default [`timeout`](Self::timeout).
    pub fn call(&mut self, request: Request) -> Result<Response, LinkError> {
        let timeout = self.timeout;
        let out = self.attempt(request, timeout);
        if out.is_ok() {
            self.stats.first_try_ok += 1;
        }
        out
    }

    /// Call with retries under `policy`: per-kind timeout budget,
    /// exponential backoff with seeded jitter between attempts. A
    /// [`LinkError::SendFailed`] is returned immediately — there is no
    /// point retrying a dead thread.
    pub fn call_with_retry(
        &mut self,
        request: Request,
        policy: &RetryPolicy,
    ) -> Result<Response, LinkError> {
        let _span = aircal_obs::span!("link_call");
        let timeout = policy.budgets.for_request(&request);
        let mut last = LinkError::Timeout;
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                self.stats.retries += 1;
                let pause = policy.backoff(attempt - 1, &mut self.rng);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            match self.attempt(request.clone(), timeout) {
                Ok(resp) => {
                    if attempt == 0 {
                        self.stats.first_try_ok += 1;
                    } else {
                        self.stats.retried_ok += 1;
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    let retryable = e.is_retryable();
                    last = e;
                    if !retryable {
                        break;
                    }
                }
            }
        }
        self.stats.gave_up += 1;
        Err(last)
    }

    /// Record a seq as accepted in the bounded dedup window.
    fn mark_accepted(&mut self, seq: u64) {
        self.accepted.push_back(seq);
        while self.accepted.len() > DEDUP_WINDOW {
            self.accepted.pop_front();
        }
    }

    fn attempt(&mut self, request: Request, timeout: Duration) -> Result<Response, LinkError> {
        let idx = self.sent;
        self.sent += 1;
        self.stats.attempts += 1;
        // Drain the dedup window's backlog: duplicated or reordered
        // replies the fault plan held back, plus anything still sitting
        // in the channel from an attempt that timed out. Every discard
        // is counted — these are exactly the frames that would have
        // double-applied effects without the envelope.
        self.stats.stale_drained += self.stale_pending.drain(..).count() as u64;
        while self.rx.try_recv().is_ok() {
            self.stats.stale_drained += 1;
        }
        let expected = request.expected_response_kind();

        if self.faults.burst_outages.iter().any(|b| b.covers(idx)) {
            self.stats.dropped += 1;
            return Err(LinkError::Dropped);
        }
        let p_req = self.faults.request_drop.clamp(0.0, 0.999);
        if p_req > 0.0 && self.rng.gen_range(0.0..1.0) < p_req {
            self.stats.dropped += 1;
            return Err(LinkError::Dropped);
        }
        if self.faults.latency_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.faults.latency_ms));
        }
        let env = Envelope {
            node_id: self.node_id,
            seq: idx,
        };
        let tx = self.tx.as_ref().expect("link still open");
        if tx.send(Sequenced { env, body: request }).is_err() {
            self.stats.send_failed += 1;
            return Err(LinkError::SendFailed);
        }
        // Wait for the reply whose envelope matches this attempt's seq;
        // anything else that arrives inside the deadline is stale
        // (late reply to an earlier attempt) and is drained, counted,
        // and never surfaced to a handler.
        let deadline = Instant::now() + timeout;
        let sequenced = loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(r) => {
                    if r.env.seq != idx || self.accepted.contains(&r.env.seq) {
                        self.stats.stale_drained += 1;
                        continue;
                    }
                    break r;
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.stats.timeouts += 1;
                    return Err(LinkError::Timeout);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // The node thread died between our send and its reply.
                    self.stats.send_failed += 1;
                    return Err(LinkError::SendFailed);
                }
            }
        };
        let p_resp = self.faults.response_drop.clamp(0.0, 0.999);
        if p_resp > 0.0 && self.rng.gen_range(0.0..1.0) < p_resp {
            self.stats.dropped += 1;
            return Err(LinkError::Dropped);
        }
        // Fault priority mirrors the offline `attempt_verdict`: corrupt,
        // then duplicate, then reorder.
        if !self.faults.corrupt_on.contains(&idx) {
            if self.faults.duplicate_on.contains(&idx) {
                // The wire delivers the reply twice; the second copy
                // lands at the next attempt and is drained as stale.
                self.stale_pending.push(sequenced.clone());
            } else if self.faults.reorder_on.contains(&idx) {
                // The reply exists but is stuck behind newer traffic: it
                // misses this attempt's deadline and resurfaces — stale —
                // at the next one. The node serviced the request, so a
                // retried call costs a second serviced request, exactly
                // as on a real at-least-once wire.
                self.stale_pending.push(sequenced);
                self.stats.timeouts += 1;
                return Err(LinkError::Timeout);
            }
        }
        let resp = if self.faults.corrupt_on.contains(&idx) {
            garble(sequenced.body)
        } else {
            sequenced.body
        };
        if resp.kind() != expected {
            self.stats.wrong_kind += 1;
            return Err(LinkError::WrongKind {
                got: resp.kind().to_string(),
            });
        }
        self.mark_accepted(idx);
        self.stats.ok += 1;
        Ok(resp)
    }

    /// Snapshot of the wire counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The envelope node id this link stamps on requests.
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// Shut the node down cleanly and join its thread. After this, the
    /// `Drop` impl has nothing left to do (the request channel is closed
    /// and the thread joined here).
    pub fn shutdown(mut self) {
        if let Some(tx) = &self.tx {
            let env = Envelope {
                node_id: self.node_id,
                seq: self.sent,
            };
            let _ = tx.send(Sequenced {
                env,
                body: Request::Shutdown,
            });
        }
        // Drain the Bye; capped so a node that swallowed the Shutdown (a
        // hang fault) cannot wedge us for the full call timeout.
        let _ = self
            .rx
            .recv_timeout(self.timeout.min(Duration::from_secs(2)));
        // Close the request channel: a node that never saw the Shutdown
        // still observes the disconnect and exits its service loop.
        self.tx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        // After a clean `shutdown()` both the handle and the sender are
        // gone and this is a no-op.
        let Some(h) = self.handle.take() else { return };
        if let Some(tx) = self.tx.take() {
            let env = Envelope {
                node_id: self.node_id,
                seq: self.sent,
            };
            let _ = tx.send(Sequenced {
                env,
                body: Request::Shutdown,
            });
            // Dropping `tx` disconnects the channel, so the node exits
            // even if a fault swallowed the Shutdown request.
        }
        let _ = h.join();
    }
}

/// Replace a reply with a parseable message of the wrong kind — the
/// in-process stand-in for a garbled frame that still deserializes.
fn garble(resp: Response) -> Response {
    match resp {
        Response::Bye => Response::Cells(Vec::new()),
        _ => Response::Bye,
    }
}

/// Start a node agent on its own thread under a fault plan and return
/// the cloud-side link.
pub fn spawn_node_with_faults(agent: NodeAgent, faults: LinkFaults, link_seed: u64) -> Link {
    let (req_tx, req_rx) = bounded::<Sequenced<Request>>(4);
    let (resp_tx, resp_rx) = bounded::<Sequenced<Response>>(4);
    let node_id = node_id_for(&agent.claims.name);
    let node_faults = faults.clone();
    let handle = std::thread::Builder::new()
        .name(format!("node-{}", agent.claims.name))
        .spawn(move || {
            let mut served: u64 = 0;
            while let Ok(req) = req_rx.recv() {
                let verdict = node_faults.node_verdict(served);
                if verdict == NodeVerdict::Crashed {
                    break; // host daemon crash: exit without replying
                }
                served += 1;
                if verdict == NodeVerdict::Hang {
                    continue; // wedged mid-request: swallow, never reply
                }
                let shutdown = matches!(req.body, Request::Shutdown);
                let resp = agent.handle(&req.body);
                // Echo the request envelope verbatim: the cloud matches
                // replies to attempts by seq.
                let sequenced = Sequenced {
                    env: req.env,
                    body: resp,
                };
                if resp_tx.send(sequenced).is_err() || shutdown {
                    break;
                }
            }
        })
        .expect("spawn node thread");
    Link {
        tx: Some(req_tx),
        rx: resp_rx,
        faults,
        timeout: Duration::from_secs(120),
        node_id,
        rng: ChaCha8Rng::seed_from_u64(link_seed),
        handle: Some(handle),
        sent: 0,
        stats: LinkStats::default(),
        stale_pending: Vec::new(),
        accepted: VecDeque::new(),
    }
}

/// Start a node over a request-drop-only link (the original single-knob
/// fault model).
pub fn spawn_node(agent: NodeAgent, drop_probability: f64, link_seed: u64) -> Link {
    spawn_node_with_faults(agent, LinkFaults::lossy(drop_probability), link_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeBehavior;
    use aircal_aircraft::{TrafficConfig, TrafficSim};
    use aircal_env::{Scenario, ScenarioKind};
    use std::sync::Arc;

    fn agent(kind: ScenarioKind) -> NodeAgent {
        let s = Scenario::build(kind);
        let sky = Arc::new(TrafficSim::generate(
            TrafficConfig {
                count: 20,
                ..TrafficConfig::paper_default(s.site.position)
            },
            11,
        ));
        NodeAgent::new(s, NodeBehavior::Honest, sky)
    }

    #[test]
    fn request_reply_over_thread() {
        let mut link = spawn_node(agent(ScenarioKind::OpenField), 0.0, 1);
        let resp = link.call(Request::Describe).expect("reply");
        assert_eq!(resp.kind(), "description");
        assert_eq!(link.stats().ok, 1);
        link.shutdown();
    }

    #[test]
    fn lossy_link_sometimes_swallows() {
        let mut link = spawn_node(agent(ScenarioKind::OpenField), 0.7, 2);
        let mut answered = 0;
        for _ in 0..30 {
            if link.call(Request::Describe).is_ok() {
                answered += 1;
            }
        }
        assert!(answered > 0, "some requests should get through");
        assert!(answered < 30, "a 70% lossy link cannot answer everything");
        let stats = link.stats();
        assert_eq!(stats.attempts, 30);
        assert_eq!(stats.ok + stats.dropped, 30);
        link.shutdown();
    }

    #[test]
    fn multiple_nodes_run_concurrently() {
        let mut links: Vec<Link> = [
            ScenarioKind::Rooftop,
            ScenarioKind::Indoor,
            ScenarioKind::OpenField,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, k)| spawn_node(agent(k), 0.0, i as u64))
        .collect();
        let mut names = Vec::new();
        for link in &mut links {
            if let Ok(Response::Description(c)) = link.call(Request::Describe) {
                names.push(c.name);
            }
        }
        names.sort();
        assert_eq!(names, vec!["indoor", "open-field", "rooftop"]);
        for link in links {
            link.shutdown();
        }
    }

    #[test]
    fn drop_is_graceful_without_shutdown_call() {
        let link = spawn_node(agent(ScenarioKind::OpenField), 0.0, 3);
        drop(link); // Drop impl must join without hanging.
    }

    #[test]
    fn retry_recovers_from_burst_outage() {
        let faults = LinkFaults {
            burst_outages: vec![BurstOutage { start: 0, len: 2 }],
            ..LinkFaults::none()
        };
        let mut link = spawn_node_with_faults(agent(ScenarioKind::OpenField), faults, 4);
        let policy = RetryPolicy::quick();
        let resp = link
            .call_with_retry(Request::Describe, &policy)
            .expect("third attempt clears the outage");
        assert_eq!(resp.kind(), "description");
        let stats = link.stats();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.gave_up, 0);
        link.shutdown();
    }

    #[test]
    fn wrong_kind_reply_detected_and_retried() {
        let faults = LinkFaults {
            corrupt_on: vec![0],
            ..LinkFaults::none()
        };
        let mut link = spawn_node_with_faults(agent(ScenarioKind::OpenField), faults, 5);
        let policy = RetryPolicy::quick();
        let resp = link
            .call_with_retry(Request::Describe, &policy)
            .expect("retry passes the garbled frame");
        assert_eq!(resp.kind(), "description");
        let stats = link.stats();
        assert_eq!(stats.wrong_kind, 1);
        assert_eq!(stats.ok, 1);
        link.shutdown();
    }

    #[test]
    fn dead_thread_not_retried() {
        let faults = LinkFaults {
            crash_after: Some(0),
            ..LinkFaults::none()
        };
        let mut link = spawn_node_with_faults(agent(ScenarioKind::OpenField), faults, 6);
        let policy = RetryPolicy::quick();
        let err = link
            .call_with_retry(Request::Describe, &policy)
            .expect_err("node daemon is dead");
        assert_eq!(err, LinkError::SendFailed);
        assert!(!err.is_retryable());
        let stats = link.stats();
        assert_eq!(stats.attempts, 1, "SendFailed must not be retried");
        assert_eq!(stats.gave_up, 1);
        link.shutdown();
    }

    #[test]
    fn hung_node_times_out_then_recovers() {
        let faults = LinkFaults {
            hang_on: vec![0],
            ..LinkFaults::none()
        };
        let mut link = spawn_node_with_faults(agent(ScenarioKind::OpenField), faults, 7);
        link.timeout = Duration::from_millis(200);
        let err = link.call(Request::Describe).expect_err("swallowed");
        assert_eq!(err, LinkError::Timeout);
        let resp = link.call(Request::Describe).expect("node recovered");
        assert_eq!(resp.kind(), "description");
        let stats = link.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.ok, 1);
        link.shutdown();
    }

    #[test]
    fn response_drop_loses_the_answer() {
        let faults = LinkFaults {
            response_drop: 2.0, // documents the silent clamp to 0.999
            ..LinkFaults::none()
        };
        let mut link = spawn_node_with_faults(agent(ScenarioKind::OpenField), faults, 8);
        for _ in 0..5 {
            let err = link.call(Request::Describe).expect_err("reply swallowed");
            assert_eq!(err, LinkError::Dropped);
        }
        assert_eq!(link.stats().dropped, 5);
        link.shutdown();
    }

    /// The backoffs a call sleeps through on a link seeded with `seed`.
    fn backoff_schedule(policy: &RetryPolicy, seed: u64, retries: u32) -> Vec<Duration> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..retries).map(|r| policy.backoff(r, &mut rng)).collect()
    }

    #[test]
    fn backoff_schedule_is_deterministic() {
        let policy = RetryPolicy::default();
        let a = backoff_schedule(&policy, 42, 6);
        let b = backoff_schedule(&policy, 42, 6);
        assert_eq!(a, b, "same seed must give the same schedule");
        let c = backoff_schedule(&policy, 43, 6);
        assert_ne!(a, c, "different seeds must jitter differently");
        // Pre-jitter growth is exponential up to the cap; jitter adds at
        // most `jitter` of the capped value.
        for (i, d) in a.iter().enumerate() {
            let base = policy.base_backoff.as_secs_f64() * policy.multiplier.powi(i as i32);
            let capped = base.min(policy.max_backoff.as_secs_f64());
            let secs = d.as_secs_f64();
            assert!(secs >= capped && secs <= capped * (1.0 + policy.jitter));
        }
    }

    #[test]
    fn backoff_without_jitter_is_pure_exponential() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let sched = backoff_schedule(&policy, 1, 4);
        assert_eq!(sched[0], Duration::from_millis(100));
        assert_eq!(sched[1], Duration::from_millis(200));
        assert_eq!(sched[2], Duration::from_millis(400));
        assert_eq!(sched[3], Duration::from_millis(800));
    }

    #[test]
    fn duplicated_reply_is_drained_not_double_applied() {
        let faults = LinkFaults {
            duplicate_on: vec![0],
            ..LinkFaults::none()
        };
        let mut link = spawn_node_with_faults(agent(ScenarioKind::OpenField), faults, 20);
        let resp = link.call(Request::Describe).expect("original delivered");
        assert_eq!(resp.kind(), "description");
        // The duplicate copy surfaces at the next attempt and is drained
        // by the dedup window instead of being surfaced as a reply.
        let resp = link.call(Request::Describe).expect("second call clean");
        assert_eq!(resp.kind(), "description");
        let stats = link.stats();
        assert_eq!(stats.ok, 2);
        assert_eq!(stats.stale_drained, 1, "the duplicate was discarded");
        assert_eq!(stats.first_try_ok, 2);
        link.shutdown();
    }

    #[test]
    fn reordered_reply_times_out_then_retry_succeeds() {
        let faults = LinkFaults {
            reorder_on: vec![0],
            ..LinkFaults::none()
        };
        let mut link = spawn_node_with_faults(agent(ScenarioKind::OpenField), faults, 21);
        let policy = RetryPolicy::quick();
        let resp = link
            .call_with_retry(Request::Describe, &policy)
            .expect("retry lands after the reordered original");
        assert_eq!(resp.kind(), "description");
        let stats = link.stats();
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.timeouts, 1, "the reordered reply missed its deadline");
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.stale_drained, 1, "the late original was discarded");
        assert_eq!(stats.retried_ok, 1);
        assert_eq!(stats.first_try_ok, 0);
        link.shutdown();
    }

    #[test]
    fn first_try_and_retried_successes_counted_apart() {
        let faults = LinkFaults {
            burst_outages: vec![BurstOutage { start: 1, len: 1 }],
            ..LinkFaults::none()
        };
        let mut link = spawn_node_with_faults(agent(ScenarioKind::OpenField), faults, 22);
        let policy = RetryPolicy::quick();
        link.call_with_retry(Request::Describe, &policy)
            .expect("attempt 0 clean");
        link.call_with_retry(Request::Describe, &policy)
            .expect("attempt 1 dropped, attempt 2 succeeds");
        let stats = link.stats();
        assert_eq!(stats.first_try_ok, 1);
        assert_eq!(stats.retried_ok, 1);
        assert_eq!(stats.calls_ok(), 2);
        link.shutdown();
    }

    /// The service loop acts on [`LinkFaults::node_verdict`] for every
    /// request it receives: request 0 is answered, request 1 is swallowed
    /// (the caller times out), request 2 is answered, and from request 3
    /// on the daemon is gone before it reads the request.
    #[test]
    fn service_loop_follows_node_verdict() {
        let faults = LinkFaults {
            hang_on: vec![1],
            crash_after: Some(3),
            ..LinkFaults::none()
        };
        let mut link = spawn_node_with_faults(agent(ScenarioKind::Indoor), faults.clone(), 24);
        link.timeout = Duration::from_millis(200);
        for served in 0..4 {
            let reply = link.call(Request::Describe);
            match faults.node_verdict(served) {
                NodeVerdict::Service => {
                    assert_eq!(reply.expect("serviced").kind(), "description")
                }
                NodeVerdict::Hang => assert_eq!(reply.unwrap_err(), LinkError::Timeout),
                NodeVerdict::Crashed => assert_eq!(reply.unwrap_err(), LinkError::SendFailed),
            }
        }
        let stats = link.stats();
        assert_eq!((stats.ok, stats.timeouts, stats.send_failed), (2, 1, 1));
        link.shutdown();
    }

    #[test]
    fn offline_verdicts_cover_duplicate_and_reorder() {
        let faults = LinkFaults {
            duplicate_on: vec![1],
            reorder_on: vec![2],
            latency_ms: 3,
            ..LinkFaults::none()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(
            faults.attempt_verdict(0, &mut rng),
            AttemptVerdict::Deliver { latency_ms: 3 }
        );
        assert_eq!(
            faults.attempt_verdict(1, &mut rng),
            AttemptVerdict::Duplicated { latency_ms: 3 }
        );
        assert_eq!(
            faults.attempt_verdict(2, &mut rng),
            AttemptVerdict::Reordered { latency_ms: 3 }
        );
    }

    #[test]
    fn envelope_node_id_is_stable() {
        assert_eq!(node_id_for("rooftop"), node_id_for("rooftop"));
        assert_ne!(node_id_for("rooftop"), node_id_for("indoor"));
        let link = spawn_node(agent(ScenarioKind::OpenField), 0.0, 23);
        assert_eq!(link.node_id(), node_id_for("open-field"));
        link.shutdown();
    }

    #[test]
    fn clean_shutdown_leaves_nothing_for_drop() {
        let link = spawn_node(agent(ScenarioKind::OpenField), 0.0, 9);
        // shutdown() joins the thread and closes the channel; the Drop
        // impl that runs as `link` leaves scope must be a no-op (this
        // would deadlock or double-send otherwise).
        link.shutdown();
    }
}
