//! The pre-virtual-time processor-sharing kernel, kept as a reference.
//!
//! This is a self-contained copy of the original O(flows)-per-event
//! implementation: [`Resource::advance`](crate::Kernel) used to sweep every
//! active flow's `remaining` on each event, and completions were found by a
//! full scan. It exists solely so that property tests (and the kernel
//! scaling benchmark in `sae-bench`) can assert the optimized
//! cumulative-service implementation in [`crate::Kernel`] reproduces the
//! same completion sequences — including generation-based stale-heap-entry
//! skipping and the `COMPLETION_REL_EPS` completion-grouping semantics.
//!
//! Gated behind `cfg(test)` and the `reference-impl` feature; it never
//! ships on the production path.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::capacity::{CapacityCurve, ClassCounts};
use crate::resource::UsageAccum;
use crate::time::SimTime;

/// Relative tolerance used when deciding that a flow has completed.
/// Identical to the production kernel's value by construction.
const COMPLETION_REL_EPS: f64 = 1e-9;

#[derive(Debug)]
struct Flow<P> {
    class: u8,
    remaining: f64,
    payload: P,
}

struct Resource<P> {
    curve: CapacityCurve,
    flows: BTreeMap<u64, Flow<P>>,
    counts: ClassCounts,
    rate: f64,
    last_update: f64,
    generation: u64,
    usage: UsageAccum,
}

impl<P> Resource<P> {
    fn new(curve: CapacityCurve) -> Self {
        Self {
            curve,
            flows: BTreeMap::new(),
            counts: ClassCounts::new(),
            rate: 0.0,
            last_update: 0.0,
            generation: 0,
            usage: UsageAccum::default(),
        }
    }

    /// Integrates flow progress up to time `now` — the O(flows) sweep the
    /// virtual-time implementation eliminates.
    fn advance(&mut self, now: f64) {
        let dt = now - self.last_update;
        debug_assert!(dt >= -1e-9, "time went backwards: {dt}");
        if dt > 0.0 {
            let n = self.flows.len();
            if n > 0 {
                for flow in self.flows.values_mut() {
                    flow.remaining = (flow.remaining - self.rate * dt).max(0.0);
                }
                self.usage.busy_seconds += dt;
                self.usage.work_done += self.rate * dt * n as f64;
                self.usage.flow_seconds += dt * n as f64;
            }
        }
        self.last_update = now;
    }

    fn recompute(&mut self, now: f64) -> Option<f64> {
        self.generation += 1;
        if self.flows.is_empty() {
            self.rate = 0.0;
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
            .flows
            .values()
            .map(|f| f.remaining)
            .fold(f64::INFINITY, f64::min);
        Some(now + min_remaining / self.rate)
    }

    fn insert(&mut self, id: u64, class: u8, work: f64, payload: P) {
        self.counts.add(class);
        self.flows.insert(
            id,
            Flow {
                class,
                remaining: work,
                payload,
            },
        );
    }

    fn remove(&mut self, id: u64) -> Option<Flow<P>> {
        let flow = self.flows.remove(&id)?;
        self.counts.remove(flow.class);
        Some(flow)
    }

    fn drain_completed(&mut self) -> Vec<(u64, Flow<P>)> {
        let Some(min) = self
            .flows
            .values()
            .map(|f| f.remaining)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |m| m.min(v)))
            })
        else {
            return Vec::new();
        };
        let threshold = min + COMPLETION_REL_EPS * (1.0 + min);
        let ids: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining <= threshold)
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter()
            .map(|id| {
                let flow = self.remove(id).expect("flow id just observed");
                (id, flow)
            })
            .collect()
    }

    fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

/// Identifies a resource within a [`ReferenceKernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefResourceId(usize);

/// Identifies a flow within a [`ReferenceKernel`]. Never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefFlowId(u64);

/// Identifies a scheduled timer within a [`ReferenceKernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefTimerId(u64);

/// Something that happened in simulated time, returned by
/// [`ReferenceKernel::next`].
#[derive(Debug)]
pub enum RefOccurrence<P> {
    /// A flow finished its work on a resource.
    FlowCompleted {
        /// Resource the flow ran on.
        resource: RefResourceId,
        /// The completed flow.
        flow: RefFlowId,
        /// Caller-supplied payload, returned by value.
        payload: P,
        /// Completion time.
        at: SimTime,
    },
    /// A timer fired.
    TimerFired {
        /// The fired timer.
        timer: RefTimerId,
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

/// The original O(flows)-per-event deterministic fluid simulator, API-equal
/// (modulo id newtypes) to [`crate::Kernel`].
pub struct ReferenceKernel<P> {
    now: SimTime,
    resources: Vec<Resource<P>>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    timers: BTreeMap<u64, P>,
    pending: std::collections::VecDeque<RefOccurrence<P>>,
    next_flow_id: u64,
    next_timer_id: u64,
    seq: u64,
}

impl<P> Default for ReferenceKernel<P> {
    fn default() -> Self {
        Self {
            now: SimTime::ZERO,
            resources: Vec::new(),
            heap: BinaryHeap::new(),
            timers: BTreeMap::new(),
            pending: std::collections::VecDeque::new(),
            next_flow_id: 0,
            next_timer_id: 0,
            seq: 0,
        }
    }
}

impl<P> ReferenceKernel<P> {
    /// Creates an empty kernel at `t = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Registers a new processor-sharing resource governed by `curve`.
    pub fn add_resource(&mut self, curve: CapacityCurve) -> RefResourceId {
        self.resources.push(Resource::new(curve));
        RefResourceId(self.resources.len() - 1)
    }

    fn push_completion(&mut self, rid: usize) {
        let at = self.resources[rid].recompute(self.now.seconds());
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

    /// Starts a flow of `work` units on `resource` in class `class`.
    pub fn start_flow(
        &mut self,
        resource: RefResourceId,
        class: u8,
        work: f64,
        payload: P,
    ) -> RefFlowId {
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
        RefFlowId(id)
    }

    /// Cancels an in-flight flow, returning its payload if it was active.
    pub fn cancel_flow(&mut self, resource: RefResourceId, flow: RefFlowId) -> Option<P> {
        let rid = resource.0;
        let now = self.now.seconds();
        self.resources[rid].advance(now);
        let removed = self.resources[rid].remove(flow.0);
        self.push_completion(rid);
        removed.map(|f| f.payload)
    }

    /// Cumulative usage accounting for `resource`, up to the current time.
    pub fn usage(&mut self, resource: RefResourceId) -> UsageAccum {
        let now = self.now.seconds();
        self.resources[resource.0].advance(now);
        self.resources[resource.0].usage
    }

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn schedule_timer(&mut self, at: SimTime, payload: P) -> RefTimerId {
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
        RefTimerId(id)
    }

    /// Returns `true` if no flows are active and no timers are pending.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.timers.is_empty()
            && self.resources.iter().all(|r| r.is_empty())
    }

    /// Advances the simulation to the next occurrence and returns it.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<RefOccurrence<P>> {
        loop {
            if let Some(occ) = self.pending.pop_front() {
                return Some(occ);
            }
            let Reverse(entry) = self.heap.pop()?;
            match entry.action {
                Action::Timer { timer } => {
                    let Some(payload) = self.timers.remove(&timer) else {
                        continue; // cancelled
                    };
                    self.now = entry.at;
                    self.pending.push_back(RefOccurrence::TimerFired {
                        timer: RefTimerId(timer),
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
                    let completed = {
                        let res = &mut self.resources[resource];
                        res.advance(at.seconds());
                        res.drain_completed()
                    };
                    debug_assert!(
                        !completed.is_empty(),
                        "valid completion event must complete at least one flow"
                    );
                    self.push_completion(resource);
                    for (id, flow) in completed {
                        self.pending.push_back(RefOccurrence::FlowCompleted {
                            resource: RefResourceId(resource),
                            flow: RefFlowId(id),
                            payload: flow.payload,
                            at,
                        });
                    }
                }
            }
        }
    }

    /// Runs the simulation to completion, discarding occurrences.
    pub fn run_to_idle(&mut self) {
        while self.next().is_some() {}
    }
}

#[cfg(test)]
mod equivalence {
    //! Lockstep equivalence: the virtual-time kernel and this reference
    //! implementation must produce identical occurrence sequences (same
    //! payloads in the same order, times agreeing to within
    //! `COMPLETION_REL_EPS`) and matching usage integrals, under arbitrary
    //! interleavings of starts, cancellations, timers, and queries.

    use super::*;
    use crate::{CapacityCurve, Kernel, Occurrence};
    use proptest::prelude::*;

    /// One scripted action, applied after the n-th delivered occurrence.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Start a flow of `work` in `class` on resource `res % resources`.
        Start { res: usize, class: u8, work: f64 },
        /// Cancel the `n % live`-th oldest live flow (stale-entry fodder).
        Cancel { n: usize },
        /// Schedule a timer `dt` from now.
        Timer { dt: f64 },
    }

    fn decode(ops: &[(u8, usize, f64)]) -> Vec<Op> {
        ops.iter()
            .map(|&(code, n, x)| match code % 4 {
                0 | 3 => Op::Start {
                    res: n,
                    class: (n % 3) as u8,
                    work: x,
                },
                1 => Op::Cancel { n },
                _ => Op::Timer { dt: x },
            })
            .collect()
    }

    fn curves(selector: usize) -> Vec<CapacityCurve> {
        match selector % 3 {
            0 => vec![CapacityCurve::constant(10.0)],
            1 => vec![
                CapacityCurve::table(vec![5.0, 8.0, 9.0, 9.5]),
                CapacityCurve::constant(3.0).with_per_flow_cap(1.0),
            ],
            _ => vec![
                CapacityCurve::constant(16.0).with_per_flow_cap(1.0),
                CapacityCurve::table(vec![4.0, 6.0, 7.0]),
                CapacityCurve::constant(100.0),
            ],
        }
    }

    fn rel_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= COMPLETION_REL_EPS * (1.0 + a.abs().max(b.abs()))
    }

    /// Drives both kernels through the same script and asserts lockstep
    /// equivalence of the full occurrence sequence plus final usage.
    fn run_lockstep(
        curve_sel: usize,
        initial: &[(usize, u8, f64)],
        ops: &[Op],
    ) -> Result<(), TestCaseError> {
        let curves = curves(curve_sel);
        let mut new_k: Kernel<usize> = Kernel::new();
        let mut old_k: ReferenceKernel<usize> = ReferenceKernel::new();
        let new_res: Vec<_> = curves
            .iter()
            .map(|c| new_k.add_resource(c.clone()))
            .collect();
        let old_res: Vec<_> = curves
            .iter()
            .map(|c| old_k.add_resource(c.clone()))
            .collect();

        // Live flows in start order: (payload, resource index, handles).
        let mut live: Vec<(usize, usize, crate::FlowId, RefFlowId)> = Vec::new();
        let mut payload = 0usize;
        let start = |new_k: &mut Kernel<usize>,
                     old_k: &mut ReferenceKernel<usize>,
                     live: &mut Vec<(usize, usize, crate::FlowId, RefFlowId)>,
                     payload: &mut usize,
                     res: usize,
                     class: u8,
                     work: f64| {
            let r = res % curves.len();
            let p = *payload;
            *payload += 1;
            let nf = new_k.start_flow(new_res[r], class, work, p);
            let of = old_k.start_flow(old_res[r], class, work, p);
            live.push((p, r, nf, of));
        };

        for &(res, class, work) in initial {
            start(
                &mut new_k,
                &mut old_k,
                &mut live,
                &mut payload,
                res,
                class,
                work,
            );
        }

        let mut op_iter = ops.iter().copied();
        loop {
            let (new_occ, old_occ) = (new_k.next(), old_k.next());
            match (new_occ, old_occ) {
                (None, None) => break,
                (Some(n), Some(o)) => {
                    let (n_at, o_at) = match (&n, &o) {
                        (
                            Occurrence::FlowCompleted {
                                payload: np,
                                at: na,
                                ..
                            },
                            RefOccurrence::FlowCompleted {
                                payload: op,
                                at: oa,
                                ..
                            },
                        ) => {
                            prop_assert_eq!(np, op, "completion order diverged");
                            live.retain(|(p, ..)| p != np);
                            (*na, *oa)
                        }
                        (
                            Occurrence::TimerFired {
                                payload: np,
                                at: na,
                                ..
                            },
                            RefOccurrence::TimerFired {
                                payload: op,
                                at: oa,
                                ..
                            },
                        ) => {
                            prop_assert_eq!(np, op, "timer order diverged");
                            (*na, *oa)
                        }
                        _ => return Err(TestCaseError::fail("occurrence kinds diverged")),
                    };
                    prop_assert!(
                        rel_close(n_at.seconds(), o_at.seconds()),
                        "times diverged: {} vs {}",
                        n_at.seconds(),
                        o_at.seconds()
                    );
                }
                _ => return Err(TestCaseError::fail("one kernel finished early")),
            }
            // Exercise the query-driven `advance` paths (the rounding-
            // sensitive part of virtual-time accounting) on every event.
            for r in 0..curves.len() {
                let nu = new_k.usage(new_res[r]);
                let ou = old_k.usage(old_res[r]);
                prop_assert!(rel_close(nu.busy_seconds, ou.busy_seconds));
                prop_assert!(rel_close(nu.work_done, ou.work_done));
                prop_assert!(rel_close(nu.flow_seconds, ou.flow_seconds));
            }
            match op_iter.next() {
                Some(Op::Start { res, class, work }) => {
                    start(
                        &mut new_k,
                        &mut old_k,
                        &mut live,
                        &mut payload,
                        res,
                        class,
                        work,
                    );
                }
                Some(Op::Cancel { n }) if !live.is_empty() => {
                    let (p, r, nf, of) = live.remove(n % live.len());
                    let nc = new_k.cancel_flow(new_res[r], nf);
                    let oc = old_k.cancel_flow(old_res[r], of);
                    prop_assert_eq!(nc, oc, "cancel of {} diverged", p);
                }
                Some(Op::Timer { dt }) => {
                    let at = new_k.now() + crate::SimTime::from_seconds(dt);
                    let p = payload;
                    payload += 1;
                    new_k.schedule_timer(at, p);
                    old_k.schedule_timer(at, p);
                }
                // Cancel with nothing live is a no-op; ops exhausted too.
                Some(Op::Cancel { .. }) | None => {}
            }
        }
        prop_assert!(new_k.is_idle());
        prop_assert!(old_k.is_idle());
        Ok(())
    }

    proptest! {
        /// Random scripts of starts/cancels/timers over one to three
        /// resources with mixed capacity curves produce identical
        /// occurrence sequences in both kernels.
        #[test]
        fn completion_sequences_match(
            curve_sel in 0usize..3,
            initial in prop::collection::vec((0usize..3, 0u8..3, 0.0f64..50.0), 1..25),
            raw_ops in prop::collection::vec((any::<u8>(), 0usize..64, 0.05f64..20.0), 0..40),
        ) {
            run_lockstep(curve_sel, &initial, &decode(&raw_ops))?;
        }

        /// Heavy-churn variant: every delivered event triggers an op, so
        /// the intra-resource heap accumulates many stale entries and the
        /// kernel heap many stale generations.
        #[test]
        fn stale_entry_skipping_matches(
            initial in prop::collection::vec((0usize..3, 0u8..3, 0.5f64..10.0), 5..30),
            raw_ops in prop::collection::vec((0u8..2, 0usize..64, 0.5f64..10.0), 20..60),
        ) {
            run_lockstep(2, &initial, &decode(&raw_ops))?;
        }
    }

    /// Simultaneous completions (identical works) group under the same
    /// `COMPLETION_REL_EPS` threshold in both implementations and are
    /// delivered in the same flow-id order.
    #[test]
    fn simultaneous_completion_grouping_matches() {
        let mut new_k: Kernel<usize> = Kernel::new();
        let mut old_k: ReferenceKernel<usize> = ReferenceKernel::new();
        let nr = new_k.add_resource(CapacityCurve::constant(10.0));
        let or = old_k.add_resource(CapacityCurve::constant(10.0));
        for p in 0..6 {
            // Three pairs of identical works: each pair completes together.
            let work = 10.0 * (1 + p / 2) as f64;
            new_k.start_flow(nr, 0, work, p);
            old_k.start_flow(or, 0, work, p);
        }
        let mut new_seq = Vec::new();
        while let Some(Occurrence::FlowCompleted { payload, at, .. }) = new_k.next() {
            new_seq.push((payload, at.seconds()));
        }
        let mut old_seq = Vec::new();
        while let Some(RefOccurrence::FlowCompleted { payload, at, .. }) = old_k.next() {
            old_seq.push((payload, at.seconds()));
        }
        assert_eq!(new_seq.len(), 6);
        assert_eq!(
            new_seq.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            old_seq.iter().map(|&(p, _)| p).collect::<Vec<_>>()
        );
        for (&(_, a), &(_, b)) in new_seq.iter().zip(&old_seq) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + a.max(b)));
        }
    }
}
