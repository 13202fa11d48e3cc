//! The event-driven simulation kernel.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use crate::capacity::CapacityCurve;
use crate::resource::Resource;
use crate::time::SimTime;

pub use crate::resource::UsageAccum as ResourceUsage;

/// Identifies a resource within a [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(usize);

/// Identifies a flow within a [`Kernel`]. Unique across resources and never
/// reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

/// Identifies a scheduled timer. Never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

/// Something that happened in simulated time, returned by [`Kernel::next`].
#[derive(Debug)]
pub enum Occurrence<P> {
    /// A flow finished its work on a resource.
    FlowCompleted {
        /// Resource the flow ran on.
        resource: ResourceId,
        /// The completed flow.
        flow: FlowId,
        /// Caller-supplied payload, returned by value.
        payload: P,
        /// Completion time.
        at: SimTime,
    },
    /// A timer scheduled with [`Kernel::schedule_timer`] fired.
    TimerFired {
        /// The fired timer.
        timer: TimerId,
        /// Caller-supplied payload, returned by value.
        payload: P,
        /// Fire time.
        at: SimTime,
    },
}

#[derive(Debug, PartialEq, Eq)]
enum Action {
    Completion { resource: usize, generation: u64 },
    Timer { timer: u64 },
}

#[derive(Debug, PartialEq, Eq)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    action: Action,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic fluid discrete-event simulator.
///
/// `P` is the caller's payload type, attached to flows and timers and handed
/// back inside [`Occurrence`]s. See the [crate docs](crate) for the model and
/// a worked example.
pub struct Kernel<P> {
    now: SimTime,
    resources: Vec<Resource<P>>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    timers: BTreeMap<u64, P>,
    pending: VecDeque<Occurrence<P>>,
    /// Reusable completion-drain buffer: the per-event hot path hands this
    /// to [`Resource::drain_completed_into`] instead of allocating a fresh
    /// `Vec` per completion event.
    completed_scratch: Vec<(u64, P)>,
    next_flow_id: u64,
    next_timer_id: u64,
    seq: u64,
    events_processed: u64,
}

impl<P> Default for Kernel<P> {
    fn default() -> Self {
        Self {
            now: SimTime::ZERO,
            resources: Vec::new(),
            heap: BinaryHeap::new(),
            timers: BTreeMap::new(),
            pending: VecDeque::new(),
            completed_scratch: Vec::new(),
            next_flow_id: 0,
            next_timer_id: 0,
            seq: 0,
            events_processed: 0,
        }
    }
}

impl<P> std::fmt::Debug for Kernel<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("resources", &self.resources.len())
            .field("pending_timers", &self.timers.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<P> Kernel<P> {
    /// Creates an empty kernel at `t = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of occurrences delivered so far (for diagnostics/benches).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Registers a new processor-sharing resource governed by `curve`.
    pub fn add_resource(&mut self, curve: CapacityCurve) -> ResourceId {
        self.resources.push(Resource::new(curve));
        ResourceId(self.resources.len() - 1)
    }

    fn push_completion(&mut self, rid: usize) {
        let at = {
            let res = &mut self.resources[rid];
            res.recompute(self.now.seconds())
        };
        if let Some(at) = at {
            let generation = self.resources[rid].generation;
            self.seq += 1;
            self.heap.push(Reverse(HeapEntry {
                at: SimTime::from_seconds(at.max(self.now.seconds())),
                seq: self.seq,
                action: Action::Completion {
                    resource: rid,
                    generation,
                },
            }));
        }
    }

    /// Starts a flow of `work` units on `resource`, in traffic class
    /// `class`, carrying `payload`.
    ///
    /// Zero-work flows complete at the current time (delivered by the next
    /// [`Kernel::next`] call).
    ///
    /// # Panics
    ///
    /// Panics if `resource` is unknown, `class >= MAX_FLOW_CLASSES`, or
    /// `work` is negative/NaN.
    pub fn start_flow(&mut self, resource: ResourceId, class: u8, work: f64, payload: P) -> FlowId {
        assert!(
            work.is_finite() && work >= 0.0,
            "flow work must be finite and non-negative, got {work}"
        );
        let rid = resource.0;
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        let now = self.now.seconds();
        self.resources[rid].advance(now);
        self.resources[rid].insert(id, class, work, payload);
        self.push_completion(rid);
        FlowId(id)
    }

    /// Cancels an in-flight flow, returning its payload, or `None` if the
    /// flow already completed or never existed.
    pub fn cancel_flow(&mut self, resource: ResourceId, flow: FlowId) -> Option<P> {
        let rid = resource.0;
        let now = self.now.seconds();
        self.resources[rid].advance(now);
        let removed = self.resources[rid].remove(flow.0);
        self.push_completion(rid);
        removed.map(|f| f.payload)
    }

    /// Cumulative usage accounting for `resource`, up to the current time.
    pub fn usage(&mut self, resource: ResourceId) -> ResourceUsage {
        let now = self.now.seconds();
        self.resources[resource.0].advance(now);
        self.resources[resource.0].usage()
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_timer(&mut self, at: SimTime, payload: P) -> TimerId {
        assert!(at >= self.now, "cannot schedule a timer in the past");
        let id = self.next_timer_id;
        self.next_timer_id += 1;
        self.timers.insert(id, payload);
        self.seq += 1;
        self.heap.push(Reverse(HeapEntry {
            at,
            seq: self.seq,
            action: Action::Timer { timer: id },
        }));
        TimerId(id)
    }

    /// Schedules `payload` to fire `delay` from now.
    pub fn schedule_after(&mut self, delay: SimTime, payload: P) -> TimerId {
        self.schedule_timer(self.now + delay, payload)
    }

    /// Cancels a pending timer. Returns its payload if it had not fired.
    pub fn cancel_timer(&mut self, timer: TimerId) -> Option<P> {
        self.timers.remove(&timer.0)
    }

    /// Returns `true` if no flows are active and no timers are pending.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.timers.is_empty()
            && self.resources.iter().all(|r| r.is_empty())
    }

    /// Advances the simulation to the next occurrence and returns it, or
    /// `None` when nothing remains scheduled.
    ///
    /// Multiple flows finishing at the same instant are delivered one per
    /// call, in deterministic (flow-id) order.
    ///
    /// Not an `Iterator`: advancing mutates capacity state, and callers
    /// interleave `next` with `start_flow`/`cancel_flow` between calls.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Occurrence<P>> {
        loop {
            if let Some(occ) = self.pending.pop_front() {
                self.events_processed += 1;
                return Some(occ);
            }
            let Reverse(entry) = self.heap.pop()?;
            match entry.action {
                Action::Timer { timer } => {
                    let Some(payload) = self.timers.remove(&timer) else {
                        continue; // cancelled
                    };
                    self.now = entry.at;
                    self.pending.push_back(Occurrence::TimerFired {
                        timer: TimerId(timer),
                        payload,
                        at: self.now,
                    });
                }
                Action::Completion {
                    resource,
                    generation,
                } => {
                    if self.resources[resource].generation != generation {
                        continue; // stale: population changed since scheduling
                    }
                    self.now = entry.at;
                    let at = self.now;
                    {
                        let res = &mut self.resources[resource];
                        res.advance(at.seconds());
                        res.drain_completed_into(&mut self.completed_scratch);
                    }
                    debug_assert!(
                        !self.completed_scratch.is_empty(),
                        "valid completion event must complete at least one flow"
                    );
                    self.push_completion(resource);
                    for (id, payload) in self.completed_scratch.drain(..) {
                        self.pending.push_back(Occurrence::FlowCompleted {
                            resource: ResourceId(resource),
                            flow: FlowId(id),
                            payload,
                            at,
                        });
                    }
                }
            }
        }
    }

    /// Runs the simulation to completion, discarding occurrences. Mostly
    /// useful in tests and benches.
    pub fn run_to_idle(&mut self) {
        while self.next().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CapacityCurve;

    fn complete_times(kernel: &mut Kernel<u32>) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        while let Some(occ) = kernel.next() {
            if let Occurrence::FlowCompleted { payload, at, .. } = occ {
                out.push((payload, at.seconds()));
            }
        }
        out
    }

    #[test]
    fn single_flow_completes_at_work_over_rate() {
        let mut k: Kernel<u32> = Kernel::new();
        let r = k.add_resource(CapacityCurve::constant(10.0));
        k.start_flow(r, 0, 25.0, 1);
        let done = complete_times(&mut k);
        assert_eq!(done.len(), 1);
        assert!((done[0].1 - 2.5).abs() < 1e-9);
    }

    #[test]
    fn processor_sharing_two_flows() {
        let mut k: Kernel<u32> = Kernel::new();
        let r = k.add_resource(CapacityCurve::constant(100.0));
        k.start_flow(r, 0, 50.0, 1);
        k.start_flow(r, 0, 100.0, 2);
        let done = complete_times(&mut k);
        assert_eq!(done[0].0, 1);
        assert!((done[0].1 - 1.0).abs() < 1e-9);
        assert_eq!(done[1].0, 2);
        assert!((done[1].1 - 1.5).abs() < 1e-9);
    }

    #[test]
    fn per_flow_cap_prevents_speedup_when_alone() {
        let mut k: Kernel<u32> = Kernel::new();
        let r = k.add_resource(CapacityCurve::constant(16.0).with_per_flow_cap(1.0));
        k.start_flow(r, 0, 4.0, 1);
        let done = complete_times(&mut k);
        assert!((done[0].1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn simultaneous_completions_delivered_in_flow_order() {
        let mut k: Kernel<u32> = Kernel::new();
        let r = k.add_resource(CapacityCurve::constant(10.0));
        k.start_flow(r, 0, 10.0, 7);
        k.start_flow(r, 0, 10.0, 8);
        let done = complete_times(&mut k);
        assert_eq!(done.iter().map(|d| d.0).collect::<Vec<_>>(), vec![7, 8]);
        assert!((done[0].1 - 2.0).abs() < 1e-9);
        assert!((done[1].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_work_flow_completes_immediately() {
        let mut k: Kernel<u32> = Kernel::new();
        let r = k.add_resource(CapacityCurve::constant(1.0));
        k.start_flow(r, 0, 0.0, 5);
        let done = complete_times(&mut k);
        assert_eq!(done, vec![(5, 0.0)]);
    }

    #[test]
    fn cancel_flow_returns_payload_and_reschedules() {
        let mut k: Kernel<u32> = Kernel::new();
        let r = k.add_resource(CapacityCurve::constant(10.0));
        let f1 = k.start_flow(r, 0, 100.0, 1);
        k.start_flow(r, 0, 10.0, 2);
        assert_eq!(k.cancel_flow(r, f1), Some(1));
        // Flow 2 now gets the whole resource: completes at t = 1.0.
        let done = complete_times(&mut k);
        assert_eq!(done.len(), 1);
        assert!((done[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn timers_fire_in_order_and_interleave_with_flows() {
        let mut k: Kernel<&'static str> = Kernel::new();
        let r = k.add_resource(CapacityCurve::constant(1.0));
        k.start_flow(r, 0, 2.0, "flow");
        k.schedule_timer(SimTime::from_seconds(1.0), "timer1");
        k.schedule_timer(SimTime::from_seconds(3.0), "timer2");
        let mut order = Vec::new();
        while let Some(occ) = k.next() {
            match occ {
                Occurrence::FlowCompleted { payload, .. } => order.push(payload),
                Occurrence::TimerFired { payload, .. } => order.push(payload),
            }
        }
        assert_eq!(order, vec!["timer1", "flow", "timer2"]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut k: Kernel<u32> = Kernel::new();
        let t = k.schedule_timer(SimTime::from_seconds(1.0), 9);
        assert_eq!(k.cancel_timer(t), Some(9));
        assert!(k.next().is_none());
    }

    #[test]
    fn adding_flow_midway_slows_existing_flow() {
        let mut k: Kernel<u32> = Kernel::new();
        let r = k.add_resource(CapacityCurve::constant(10.0));
        k.start_flow(r, 0, 20.0, 1);
        k.schedule_timer(SimTime::from_seconds(1.0), 0);
        // At t=1, flow 1 has 10 work left. Start flow 2; both now run at 5/s.
        match k.next().unwrap() {
            Occurrence::TimerFired { .. } => {
                k.start_flow(r, 0, 10.0, 2);
            }
            _ => panic!("expected timer"),
        }
        let done = complete_times(&mut k);
        // Both finish at t = 1 + 10/5 = 3.
        assert_eq!(done.len(), 2);
        assert!((done[0].1 - 3.0).abs() < 1e-9);
        assert!((done[1].1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn usage_accounting_tracks_busy_and_flow_seconds() {
        let mut k: Kernel<u32> = Kernel::new();
        let r = k.add_resource(CapacityCurve::constant(10.0));
        k.start_flow(r, 0, 10.0, 1);
        k.start_flow(r, 0, 10.0, 2);
        k.run_to_idle();
        // Both complete at t=2; busy 2s, flow-seconds 4, work 20.
        let u = k.usage(r);
        assert!((u.busy_seconds - 2.0).abs() < 1e-9);
        assert!((u.flow_seconds - 4.0).abs() < 1e-9);
        assert!((u.work_done - 20.0).abs() < 1e-6);
    }

    #[test]
    fn idle_resource_accumulates_no_usage() {
        let mut k: Kernel<u32> = Kernel::new();
        let r = k.add_resource(CapacityCurve::constant(10.0));
        k.schedule_timer(SimTime::from_seconds(5.0), 0);
        k.run_to_idle();
        let u = k.usage(r);
        assert_eq!(u.busy_seconds, 0.0);
        assert_eq!(u.work_done, 0.0);
    }

    #[test]
    fn table_curve_contention_shapes_completion() {
        // 1 flow: 10/s; 2 flows: 8/s aggregate (4 each).
        let mut k: Kernel<u32> = Kernel::new();
        let r = k.add_resource(CapacityCurve::table(vec![10.0, 8.0]));
        k.start_flow(r, 0, 8.0, 1);
        k.start_flow(r, 0, 8.0, 2);
        let done = complete_times(&mut k);
        assert!((done[0].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn is_idle_reflects_state() {
        let mut k: Kernel<u32> = Kernel::new();
        assert!(k.is_idle());
        let r = k.add_resource(CapacityCurve::constant(1.0));
        k.start_flow(r, 0, 1.0, 1);
        assert!(!k.is_idle());
        k.run_to_idle();
        assert!(k.is_idle());
    }

    #[test]
    fn deterministic_event_stream() {
        let run = || {
            let mut k: Kernel<u32> = Kernel::new();
            let r1 = k.add_resource(CapacityCurve::table(vec![5.0, 8.0, 9.0]));
            let r2 = k.add_resource(CapacityCurve::constant(3.0));
            for i in 0..20 {
                k.start_flow(r1, (i % 2) as u8, 1.0 + i as f64, i);
                k.start_flow(r2, 0, 2.0 + i as f64, 100 + i);
            }
            let mut trace = Vec::new();
            while let Some(occ) = k.next() {
                if let Occurrence::FlowCompleted { payload, at, .. } = occ {
                    trace.push((payload, at.seconds().to_bits()));
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
