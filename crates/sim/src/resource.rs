//! Processor-sharing resource internals.
//!
//! # Virtual-time (cumulative-service) accounting
//!
//! Every active flow on a resource is served at the *same* per-flow rate
//! (equal sharing, optionally capped — see [`CapacityCurve`]). That
//! uniformity makes the classic fluid-simulation trick exact: instead of
//! updating each flow's remaining work on every event (an O(flows) sweep),
//! the resource integrates a single cumulative-service counter
//! `S(t) = ∫ rate(τ) dτ` and stamps each flow at admission with its *finish
//! credit* `S(t₀) + work`. A flow's remaining work at any instant is
//! `credit − S(t)`, and the next completion is simply the smallest credit —
//! kept in an intra-resource min-heap. This turns
//! [`advance`](Resource::advance) into O(1) and insert/remove/completion
//! into O(log flows), an O(n²) → O(n log n) change across a stage that
//! pushes thousands of task attempts through one disk.
//!
//! Removed flows leave *stale* heap entries behind; they are skipped lazily
//! (an entry is live iff its flow id is still in the flow table — ids are
//! never reused). `S` is re-based to zero whenever the resource drains
//! empty, which also empties the heap of stale entries and bounds the
//! cancellation error of `credit − S` to one busy period.
//!
//! The pre-virtual-time implementation is preserved in
//! `crate::reference` (test/feature gated) and property tests assert the
//! two produce identical completion orders with times agreeing to well
//! under [`COMPLETION_REL_EPS`].

use std::collections::{BinaryHeap, HashMap};

use crate::capacity::{CapacityCurve, ClassCounts};

/// Relative tolerance used when deciding that a flow has completed.
pub(crate) const COMPLETION_REL_EPS: f64 = 1e-9;

#[derive(Debug)]
pub(crate) struct Flow<P> {
    pub class: u8,
    /// Finish credit: cumulative service at admission plus the flow's work.
    credit: f64,
    pub payload: P,
}

/// Cumulative usage statistics for one resource. See
/// [`crate::Kernel::usage`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UsageAccum {
    /// Seconds during which at least one flow was active.
    pub busy_seconds: f64,
    /// Total work units served.
    pub work_done: f64,
    /// Integral of (active flow count) over time, i.e. total flow-seconds.
    /// For a disk this is "thread-seconds spent blocked on I/O".
    pub flow_seconds: f64,
}

/// Min-heap key for a flow: credits are finite and non-negative, so their
/// IEEE-754 bit patterns order exactly like the values and a plain `u64`
/// comparison suffices (ties broken by flow id for determinism).
type HeapKey = std::cmp::Reverse<(u64, u64)>;

pub(crate) struct Resource<P> {
    curve: CapacityCurve,
    flows: HashMap<u64, Flow<P>>,
    /// Flows ordered by finish credit; stale entries (removed flows) are
    /// skipped lazily. Never iterated, so `flows` being a `HashMap` cannot
    /// leak iteration-order nondeterminism.
    queue: BinaryHeap<HeapKey>,
    counts: ClassCounts,
    /// Per-flow service rate under the current population.
    rate: f64,
    last_update: f64,
    /// Cumulative per-flow service `S(t)` since the last empty re-base.
    service: f64,
    /// Bumped on every population change; stale heap entries are skipped.
    pub generation: u64,
    usage: UsageAccum,
}

impl<P> Resource<P> {
    pub(crate) fn new(curve: CapacityCurve) -> Self {
        Self {
            curve,
            flows: HashMap::new(),
            queue: BinaryHeap::new(),
            counts: ClassCounts::new(),
            rate: 0.0,
            last_update: 0.0,
            service: 0.0,
            generation: 0,
            usage: UsageAccum::default(),
        }
    }

    /// Integrates flow progress up to time `now` — O(1): only the
    /// cumulative-service counter and the usage integrals move.
    pub(crate) fn advance(&mut self, now: f64) {
        let dt = now - self.last_update;
        debug_assert!(dt >= -1e-9, "time went backwards: {dt}");
        if dt > 0.0 {
            let n = self.flows.len();
            if n > 0 {
                self.service += self.rate * dt;
                self.usage.busy_seconds += dt;
                self.usage.work_done += self.rate * dt * n as f64;
                self.usage.flow_seconds += dt * n as f64;
            }
        }
        self.last_update = now;
    }

    /// Remaining work of the heap's first *live* entry, discarding stale
    /// entries on the way. `None` iff no flow is active.
    fn peek_min_remaining(&mut self) -> Option<f64> {
        while let Some(&std::cmp::Reverse((bits, id))) = self.queue.peek() {
            if self.flows.contains_key(&id) {
                return Some((f64::from_bits(bits) - self.service).max(0.0));
            }
            self.queue.pop();
        }
        None
    }

    /// Recomputes the shared rate after a population change and returns the
    /// absolute time of the next completion (if any flow is active).
    pub(crate) fn recompute(&mut self, now: f64) -> Option<f64> {
        self.generation += 1;
        if self.flows.is_empty() {
            self.rate = 0.0;
            // Re-base the service integral each idle period: every heap
            // entry is stale now, and resetting bounds the floating-point
            // cancellation in `credit − S` to one busy period.
            self.service = 0.0;
            self.queue.clear();
            return None;
        }
        self.rate = self.curve.per_flow_rate(&self.counts);
        assert!(
            self.rate.is_finite() && self.rate > 0.0,
            "capacity curve produced non-positive per-flow rate {} for {} flows",
            self.rate,
            self.flows.len()
        );
        let min_remaining = self
            .peek_min_remaining()
            .expect("non-empty resource has a live heap entry");
        Some(now + min_remaining / self.rate)
    }

    pub(crate) fn insert(&mut self, id: u64, class: u8, work: f64, payload: P) {
        self.counts.add(class);
        let credit = self.service + work;
        debug_assert!(credit.is_finite() && credit >= 0.0);
        self.queue.push(std::cmp::Reverse((credit.to_bits(), id)));
        self.flows.insert(
            id,
            Flow {
                class,
                credit,
                payload,
            },
        );
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<Flow<P>> {
        // The heap entry stays behind; it is skipped lazily once its id no
        // longer resolves in the flow table.
        let flow = self.flows.remove(&id)?;
        self.counts.remove(flow.class);
        Some(flow)
    }

    /// Removes every flow whose remaining work is (within tolerance) equal
    /// to the minimum — i.e. the flows that just finished — appending them
    /// to `out` in flow-id order. Must be called after `advance` to the
    /// completion time, with an empty `out` buffer (caller-owned so the hot
    /// path allocates nothing per event).
    pub(crate) fn drain_completed_into(&mut self, out: &mut Vec<(u64, P)>) {
        debug_assert!(out.is_empty(), "completion buffer must be drained");
        let Some(min) = self.peek_min_remaining() else {
            return;
        };
        let threshold = min + COMPLETION_REL_EPS * (1.0 + min);
        while let Some(&std::cmp::Reverse((bits, id))) = self.queue.peek() {
            let Some(flow) = self.flows.get(&id) else {
                self.queue.pop();
                continue; // stale: flow was cancelled
            };
            debug_assert_eq!(flow.credit.to_bits(), bits);
            if (f64::from_bits(bits) - self.service).max(0.0) <= threshold {
                self.queue.pop();
                let flow = self.remove(id).expect("flow id just observed");
                out.push((id, flow.payload));
            } else {
                break;
            }
        }
        // The heap yields completions in credit order; deliver in flow-id
        // order as the pre-virtual-time implementation did.
        out.sort_unstable_by_key(|&(id, _)| id);
    }

    pub(crate) fn active_flows(&self) -> usize {
        self.flows.len()
    }

    pub(crate) fn usage(&self) -> UsageAccum {
        self.usage
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}
