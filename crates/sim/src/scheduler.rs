//! Measurement scheduling policies.
//!
//! The paper sketches measurement scheduling as future work: the cloud
//! decides *which* node measures *what* next, under a per-round budget.
//! The engine exposes that decision through the [`Scheduler`] trait and
//! ships the two policies the ISSUE calls for: a round-robin baseline
//! and a utility-driven policy that always refreshes the stalest
//! frequency profile first. Both are pure functions of the
//! [`FleetView`] they are handed (plus their own cursor state), so runs
//! replay bit-identically.

use crate::event::TaskKind;
use serde::{Deserialize, Serialize};

/// What the scheduler may know about one node.
#[derive(Debug, Clone, Copy)]
pub struct NodeView {
    /// Schedulable: daemon not crashed and health above quarantine.
    pub alive: bool,
    /// Severed from the cloud by an active network partition. The
    /// scheduler skips partitioned nodes instead of burning round
    /// capacity on dispatches that cannot arrive; their backlogged
    /// reports drain once the partition heals.
    pub partitioned: bool,
    /// Virtual tick of the last completed measurement, per task kind.
    pub last_update: [Option<u64>; 3],
    /// Dispatch tick of the outstanding attempt, per task kind, if any.
    pub in_flight: [Option<u64>; 3],
}

impl NodeView {
    pub fn fresh() -> Self {
        Self {
            alive: true,
            partitioned: false,
            last_update: [None; 3],
            in_flight: [None; 3],
        }
    }
}

/// The scheduler's read-only window onto the fleet at one round.
#[derive(Debug)]
pub struct FleetView<'a> {
    pub nodes: &'a [NodeView],
    /// Current virtual tick.
    pub now: u64,
    /// Ticks after which an outstanding attempt is presumed lost and
    /// the pair becomes schedulable again.
    pub timeout_ticks: u64,
}

impl FleetView<'_> {
    /// May `(node, kind)` be dispatched this round? Dead and partitioned
    /// nodes never; in-flight pairs only once their attempt has timed
    /// out.
    pub fn eligible(&self, node: usize, kind: TaskKind) -> bool {
        let v = &self.nodes[node];
        v.alive
            && !v.partitioned
            && match v.in_flight[kind.index()] {
                None => true,
                Some(t) => self.now.saturating_sub(t) >= self.timeout_ticks,
            }
    }
}

/// A measurement-scheduling policy. `assign` picks at most `capacity`
/// distinct `(node, task)` pairs for this round; the engine dispatches
/// them in the returned order.
pub trait Scheduler {
    fn name(&self) -> &'static str;
    fn assign(&mut self, fleet: &FleetView<'_>, capacity: usize) -> Vec<(u32, TaskKind)>;

    /// Opaque cursor state for crash-recovery snapshots. Stateless
    /// policies return 0; stateful ones encode whatever they need to
    /// resume bit-identically after [`Scheduler::restore_cursor`].
    fn cursor_state(&self) -> u64 {
        0
    }

    /// Restore the cursor captured by [`Scheduler::cursor_state`].
    fn restore_cursor(&mut self, _state: u64) {}
}

/// Baseline: walk the `(node, kind)` lattice in fixed order, resuming
/// where the previous round left off. A pair whose dispatch was lost is
/// not retried until the cursor has lapped the whole fleet — that lap
/// is exactly the latency gap the utility policy closes.
#[derive(Debug, Default, Clone)]
pub struct RoundRobinScheduler {
    cursor: usize,
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn cursor_state(&self) -> u64 {
        self.cursor as u64
    }

    fn restore_cursor(&mut self, state: u64) {
        self.cursor = state as usize;
    }

    fn assign(&mut self, fleet: &FleetView<'_>, capacity: usize) -> Vec<(u32, TaskKind)> {
        let lattice = fleet.nodes.len() * TaskKind::ALL.len();
        let mut out = Vec::new();
        let mut scanned = 0usize;
        while out.len() < capacity && scanned < lattice {
            let slot = self.cursor;
            self.cursor = (self.cursor + 1) % lattice;
            scanned += 1;
            let node = slot / TaskKind::ALL.len();
            let kind = TaskKind::ALL[slot % TaskKind::ALL.len()];
            if fleet.eligible(node, kind) {
                out.push((node as u32, kind));
            }
        }
        out
    }
}

/// The paper's measurement-scheduling sketch: refresh the stalest
/// frequency profile first. Never-measured pairs are infinitely stale;
/// ties break by `(node, kind)` so the order is total and seedless.
/// Because staleness is re-scored every round, a pair whose dispatch
/// was lost jumps back to the head of the queue the moment its attempt
/// times out, instead of waiting for a round-robin lap.
#[derive(Debug, Default, Clone)]
pub struct UtilityScheduler;

impl Scheduler for UtilityScheduler {
    fn name(&self) -> &'static str {
        "utility"
    }

    fn assign(&mut self, fleet: &FleetView<'_>, capacity: usize) -> Vec<(u32, TaskKind)> {
        // Each eligible pair packs into one integer whose ascending order
        // is the policy's: `!staleness` in the high half puts the stalest
        // first, then `node`, then `kind` in its index order.
        let mut candidates: Vec<u128> = Vec::with_capacity(fleet.nodes.len() * TaskKind::ALL.len());
        for (node, view) in fleet.nodes.iter().enumerate() {
            for kind in TaskKind::ALL {
                if !fleet.eligible(node, kind) {
                    continue;
                }
                let staleness = match view.last_update[kind.index()] {
                    None => u64::MAX,
                    Some(t) => fleet.now.saturating_sub(t),
                };
                candidates.push(
                    ((!staleness as u128) << 64) | ((node as u128) << 2) | kind.index() as u128,
                );
            }
        }
        // `(node, kind)` is unique, so the keys are distinct and the
        // order is strict and total: the top `capacity` set and its order
        // are fully determined, and partitioning before sorting only the
        // winners returns exactly what a full sort would.
        if capacity < candidates.len() {
            candidates.select_nth_unstable(capacity);
            candidates.truncate(capacity);
        }
        candidates.sort_unstable();
        candidates
            .into_iter()
            .map(|key| ((key >> 2) as u32, TaskKind::ALL[(key & 3) as usize]))
            .collect()
    }
}

/// Serializable policy selector, so configs (and proptest strategies)
/// can name a policy without carrying trait objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    RoundRobin,
    UtilityDriven,
}

impl SchedulerKind {
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::RoundRobin => Box::<RoundRobinScheduler>::default(),
            SchedulerKind::UtilityDriven => Box::<UtilityScheduler>::default(),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::UtilityDriven => "utility",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fleet(n: usize) -> Vec<NodeView> {
        vec![NodeView::fresh(); n]
    }

    #[test]
    fn round_robin_resumes_at_cursor_and_skips_ineligible() {
        let mut nodes = fleet(3);
        nodes[1].alive = false;
        let view = FleetView {
            nodes: &nodes,
            now: 0,
            timeout_ticks: 10,
        };
        let mut rr = RoundRobinScheduler::default();
        let first = rr.assign(&view, 4);
        // Node 1's three slots are skipped: 0/adsb, 0/tv, 0/cells, 2/adsb.
        assert_eq!(
            first,
            vec![
                (0, TaskKind::AdsbWindow),
                (0, TaskKind::TvSweep),
                (0, TaskKind::CellScan),
                (2, TaskKind::AdsbWindow),
            ]
        );
        let second = rr.assign(&view, 2);
        assert_eq!(
            second,
            vec![(2, TaskKind::TvSweep), (2, TaskKind::CellScan)]
        );
    }

    #[test]
    fn utility_prefers_stalest_and_respects_inflight_timeout() {
        let mut nodes = fleet(3);
        // Node 0 fully fresh at t=90; node 1 never measured; node 2
        // measured long ago.
        for k in 0..3 {
            nodes[0].last_update[k] = Some(90);
            nodes[2].last_update[k] = Some(10);
        }
        // Node 1's adsb is in flight and NOT yet timed out.
        nodes[1].in_flight[0] = Some(95);
        let view = FleetView {
            nodes: &nodes,
            now: 100,
            timeout_ticks: 10,
        };
        let mut u = UtilityScheduler;
        let picks = u.assign(&view, 3);
        // Never-measured pairs of node 1 win, minus the in-flight one;
        // then node 2's ancient profiles.
        assert_eq!(
            picks,
            vec![
                (1, TaskKind::TvSweep),
                (1, TaskKind::CellScan),
                (2, TaskKind::AdsbWindow),
            ]
        );

        // Once the attempt times out the pair is schedulable again and,
        // being never-measured, preempts everything.
        nodes[1].in_flight[0] = Some(80);
        let view = FleetView {
            nodes: &nodes,
            now: 100,
            timeout_ticks: 10,
        };
        let picks = u.assign(&view, 1);
        assert_eq!(picks, vec![(1, TaskKind::AdsbWindow)]);
    }

    /// The policy as a full sort of every eligible pair: the reference
    /// the top-k selection in [`UtilityScheduler::assign`] must equal.
    fn full_sort_reference(fleet: &FleetView<'_>, capacity: usize) -> Vec<(u32, TaskKind)> {
        let mut candidates = Vec::new();
        for (node, view) in fleet.nodes.iter().enumerate() {
            for kind in TaskKind::ALL {
                if fleet.eligible(node, kind) {
                    let staleness = view.last_update[kind.index()]
                        .map_or(u64::MAX, |t| fleet.now.saturating_sub(t));
                    candidates.push((staleness, node as u32, kind));
                }
            }
        }
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        candidates
            .into_iter()
            .take(capacity)
            .map(|(_, n, k)| (n, k))
            .collect()
    }

    /// One node at `now = 100`, `timeout_ticks = 12`: updates from a
    /// dozen ticks (some after `now`, so staleness saturates to 0) make
    /// equal-staleness ties common; `None` is never measured; in-flight
    /// stamps span both sides of the timeout.
    struct AnyNodeView;

    impl Strategy for AnyNodeView {
        type Value = NodeView;
        fn new_value(&self, rng: &mut TestRng) -> NodeView {
            let mut view = NodeView {
                alive: rng.below(100) < 85,
                partitioned: rng.below(100) < 10,
                ..NodeView::fresh()
            };
            for k in 0..3 {
                view.last_update[k] = (rng.below(4) > 0).then(|| (90u64..=105).new_value(rng));
                view.in_flight[k] = (rng.below(3) == 0).then(|| (80u64..=100).new_value(rng));
            }
            view
        }
    }

    proptest! {
        #[test]
        fn utility_top_k_equals_the_full_sort(
            nodes in collection::vec(AnyNodeView, 0..3000),
            pick in any::<usize>(),
        ) {
            let view = FleetView {
                nodes: &nodes,
                now: 100,
                timeout_ticks: 12,
            };
            let eligible = full_sort_reference(&view, usize::MAX).len();
            let random = pick % (eligible + 2);
            for capacity in [0, 1, eligible.saturating_sub(1), eligible, eligible + 1, random] {
                prop_assert_eq!(
                    UtilityScheduler.assign(&view, capacity),
                    full_sort_reference(&view, capacity),
                    "capacity {} of {} eligible",
                    capacity,
                    eligible
                );
            }
        }
    }
}
