//! Virtual time, typed campaign events, and the deterministic queue.
//!
//! Events are ordered by `(virtual_time, tie_break, id)`. The tie-break
//! is a per-event value from [`derive_stream_seed`] over the event id,
//! so events scheduled for the same tick interleave pseudo-randomly —
//! but identically for identical campaign seeds — rather than in
//! insertion order. That makes same-tick ordering a property of the
//! *seed*, not of incidental push order, and the unique id breaks the
//! (astronomically unlikely) tie-break collision so total order is
//! always strict.

use aircal_dsp::derive_stream_seed;
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Salt folded into the campaign seed for the tie-break stream, keeping
/// it decorrelated from the measurement and fault streams.
const TIE_BREAK_SALT: u64 = 0x5449_4542_5245_414B; // "TIEBREAK"

/// The measurement task kinds a campaign schedules, one per signal of
/// opportunity the calibration pipeline consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Capture a 1090 MHz window and decode ADS-B beacons.
    AdsbWindow,
    /// Sweep the broadcast TV band and probe pilot power.
    TvSweep,
    /// Scan cellular downlink channels.
    CellScan,
}

impl TaskKind {
    /// Every task kind, in scheduling-lattice order.
    pub const ALL: [TaskKind; 3] = [TaskKind::AdsbWindow, TaskKind::TvSweep, TaskKind::CellScan];

    /// Bands per measurement payload (frequency-profile resolution).
    pub const BANDS: usize = 8;

    /// Stable index into per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            TaskKind::AdsbWindow => 0,
            TaskKind::TvSweep => 1,
            TaskKind::CellScan => 2,
        }
    }

    /// Virtual ticks the node spends capturing before the report can
    /// leave the antenna: an ADS-B window dwells longest, a cell scan
    /// is a quick retune.
    pub fn duration_ticks(self) -> u64 {
        match self {
            TaskKind::AdsbWindow => 3,
            TaskKind::TvSweep => 2,
            TaskKind::CellScan => 1,
        }
    }

    /// Short label used in event-log lines and metric names.
    pub fn label(self) -> &'static str {
        match self {
            TaskKind::AdsbWindow => "adsb",
            TaskKind::TvSweep => "tv",
            TaskKind::CellScan => "cells",
        }
    }
}

/// What an event does when it fires.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The cloud scheduler wakes and assigns up to a round's capacity of
    /// measurement tasks across the fleet.
    ScheduleRound,
    /// A measurement finished on a node and its report reached the
    /// cloud intact. `seq` is the cloud-assigned per-node dispatch
    /// sequence number; `replay` marks an at-least-once re-delivery (a
    /// duplicated frame or a stale retransmission) that the cloud's
    /// dedup guard must drop.
    TaskComplete {
        node: u32,
        kind: TaskKind,
        seq: u64,
        replay: bool,
    },
    /// A reply reached the cloud but arrived garbled; the cloud discards
    /// it (and knows the attempt is dead, unlike a silent drop).
    DeliveryCorrupt { node: u32, kind: TaskKind, seq: u64 },
    /// The cloud audits everything received since the last round and
    /// walks each node's health ladder.
    AuditRound,
    /// A network partition severs the node subset named by
    /// `CampaignConfig::recovery.partitions[spec]` from the cloud.
    PartitionStart { spec: u32 },
    /// The partition heals; backlogged reports drain from this tick.
    PartitionHeal { spec: u32 },
    /// The cloud process dies, losing all in-memory registry state; it
    /// recovers from the latest snapshot plus the write-ahead journal.
    CloudCrash,
    /// A delayed restart completes: scheduling and audits resume.
    CloudRestart,
    /// Campaign horizon reached: stop processing.
    CampaignEnd,
}

/// One scheduled event. Totally ordered by `(time, tie_break, id)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimEvent {
    /// Virtual tick this event fires at.
    pub time: u64,
    /// Seed-derived same-tick ordering value.
    pub tie_break: u64,
    /// Creation-order id, unique per campaign; final ordering tier.
    pub id: u64,
    pub kind: EventKind,
}

impl SimEvent {
    fn key(&self) -> (u64, u64, u64) {
        (self.time, self.tie_break, self.id)
    }
}

/// Heap entry ordered purely by the event key. Keys are unique (the id
/// tier is), so the `Eq`/`Ord` pair is consistent even though payloads
/// are ignored.
#[derive(Debug, Clone)]
struct QueueEntry(SimEvent);

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// The campaign's event queue: a binary min-heap over
/// `(virtual_time, tie_break, id)` with seed-derived tie-breaks.
#[derive(Debug)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<QueueEntry>>,
    next_id: u64,
    tie_seed: u64,
}

impl EventQueue {
    pub fn new(campaign_seed: u64) -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_id: 0,
            tie_seed: campaign_seed ^ TIE_BREAK_SALT,
        }
    }

    /// Schedule `kind` at virtual tick `time`; returns the event id.
    /// The tie-break derives from the creation-order id, so same-tick
    /// ordering depends on push order. Use [`EventQueue::push_keyed`]
    /// when ordering must survive extra events being injected.
    pub fn push(&mut self, time: u64, kind: EventKind) -> u64 {
        let key = self.next_id;
        self.push_keyed(time, key, kind)
    }

    /// Schedule `kind` at `time` with a caller-chosen stable key for the
    /// tie-break stream. Two campaigns that schedule the same logical
    /// event under the same key order it identically at its tick even
    /// when one campaign carries extra injected events (duplicates,
    /// replays, backlog re-pushes) — creation-order ids diverge between
    /// such runs, stable keys do not. The unique id still breaks exact
    /// key collisions, so total order stays strict.
    pub fn push_keyed(&mut self, time: u64, key: u64, kind: EventKind) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let tie_break = derive_stream_seed(self.tie_seed, key);
        self.heap.push(Reverse(QueueEntry(SimEvent {
            time,
            tie_break,
            id,
            kind,
        })));
        id
    }

    /// Virtual tick of the next event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.0.time)
    }

    /// Pop every event sharing the earliest virtual tick into `batch`
    /// (cleared first), in heap order. Returns that tick, or `None` if
    /// the queue is empty. Batching at time boundaries is what lets the
    /// engine parallelize payload computation without reordering risk:
    /// the batch's order is fixed before any worker runs.
    pub fn pop_batch(&mut self, batch: &mut Vec<SimEvent>) -> Option<u64> {
        batch.clear();
        let t = self.peek_time()?;
        while self.peek_time() == Some(t) {
            let Reverse(entry) = self.heap.pop().expect("peeked entry exists");
            batch.push(entry.0);
        }
        Some(t)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_then_tiebreak_then_id_order() {
        let mut q = EventQueue::new(42);
        // Push out of time order, with several sharing tick 5.
        q.push(9, EventKind::AuditRound);
        for _ in 0..6 {
            q.push(5, EventKind::ScheduleRound);
        }
        q.push(1, EventKind::ScheduleRound);

        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(1));
        assert_eq!(batch.len(), 1);

        assert_eq!(q.pop_batch(&mut batch), Some(5));
        assert_eq!(batch.len(), 6, "a batch is every event at that tick");
        let keys: Vec<_> = batch.iter().map(|e| (e.tie_break, e.id)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "same-tick order follows (tie_break, id)");
        // The tie-break stream actually reorders same-tick events away
        // from insertion order (ids 1..=6 here).
        let ids: Vec<u64> = batch.iter().map(|e| e.id).collect();
        assert_ne!(
            ids,
            vec![1, 2, 3, 4, 5, 6],
            "tie-breaks shuffle insertion order"
        );

        assert_eq!(q.pop_batch(&mut batch), Some(9));
        assert_eq!(q.pop_batch(&mut batch), None);
    }

    #[test]
    fn same_seed_queues_replay_identically_and_seeds_differ() {
        let drain = |seed: u64| {
            let mut q = EventQueue::new(seed);
            for i in 0..32u64 {
                q.push(i % 4, EventKind::ScheduleRound);
            }
            let mut out = Vec::new();
            let mut batch = Vec::new();
            while q.pop_batch(&mut batch).is_some() {
                out.extend(batch.iter().map(|e| (e.time, e.tie_break, e.id)));
            }
            out
        };
        assert_eq!(drain(7), drain(7), "identical seeds replay bit-identically");
        assert_ne!(drain(7), drain(8), "the tie-break stream is seed-dependent");
    }
}
