//! The driver's pending-task queue: an indexed, locality-aware scheduler
//! core, plus the O(pending)-scan reference implementation it replaced.
//!
//! The driver assigns pending tasks to executors with a fixed preference
//! order (see `ReferenceQueue::pick`, the original formulation, compiled
//! for tests and the `reference-impl` feature):
//!
//! 1. the **first-queued** task that prefers the executor (data-local) and
//!    has not already failed on it,
//! 2. else the first-queued task that has not failed on it,
//! 3. else the queue head — a task that failed on every free executor
//!    still reruns somewhere rather than wedging the job.
//!
//! The reference scans the whole pending vector (twice) per assignment and
//! pays `Vec::remove` to dequeue, which makes every `PoolSizeChanged`
//! re-match O(nodes × pending) — quadratic-to-cubic in task count over a
//! stage. [`PendingQueue`] answers the same three questions from indexes:
//!
//! * a **global FIFO** of `(seq, task)` entries in insertion order — `seq`
//!   is a per-stage monotone counter, so FIFO order *is* queue order;
//! * **per-node locality lanes**: a task is appended to the lane of every
//!   node in its preferred (replica) list at enqueue time. Tasks whose
//!   preferred list covers the whole cluster (shuffle stages) skip the
//!   lanes — for them criterion 1 collapses into criterion 2 on the FIFO.
//!
//! Entries are **lazily invalidated**: dequeuing just flips the task's
//! queued flag (O(1)); a stale `(seq, task)` entry — the task is no longer
//! queued, or was re-queued under a fresher `seq` — is dropped when it
//! surfaces at a lane or FIFO head. Each entry is pushed once and dropped
//! at most once, so assignment is amortized O(replication) per task, and
//! the selection sequence is **exactly** the reference scan's (pinned by
//! proptests in this module and `tests/sched_equivalence.rs`).
//!
//! `RunningMedian` supports the speculative-execution straggler
//! threshold: the reference cloned and sorted the stage's completed-attempt
//! durations on every metrics tick; the two-heap form pays O(log n) per
//! completion and O(1) per query for the same (upper) median.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Indexed pending-task queue with per-node locality lanes.
///
/// See the [module docs](self) for the selection contract. All task ids
/// are dense indices `0..tasks` as passed to [`PendingQueue::reset`].
#[derive(Debug, Clone, Default)]
pub struct PendingQueue {
    nodes: usize,
    /// Global insertion-order queue of `(seq, task)`.
    fifo: VecDeque<(u64, usize)>,
    /// Per-node locality lanes of `(seq, task)`.
    lanes: Vec<VecDeque<(u64, usize)>>,
    /// Per task: `seq` of its current residence (stale entries mismatch).
    seq_of: Vec<u64>,
    /// Per task: whether it currently sits in the queue.
    queued: Vec<bool>,
    /// Per task: preferred list covers every node (lanes skipped).
    prefers_all: Vec<bool>,
    next_seq: u64,
    len: usize,
    /// Queued tasks with `prefers_all` — when zero, criterion 1 never
    /// needs the FIFO and the walk stops at the first non-failed entry.
    prefers_all_live: usize,
}

impl PendingQueue {
    /// Creates an empty queue; call [`PendingQueue::reset`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the queue and resizes it for a stage of `tasks` tasks on
    /// `nodes` nodes. Buffers are reused across stages.
    pub fn reset(&mut self, tasks: usize, nodes: usize) {
        self.nodes = nodes;
        self.fifo.clear();
        self.lanes.resize_with(nodes, VecDeque::new);
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.seq_of.clear();
        self.seq_of.resize(tasks, 0);
        self.queued.clear();
        self.queued.resize(tasks, false);
        self.prefers_all.clear();
        self.prefers_all.resize(tasks, false);
        self.next_seq = 0;
        self.len = 0;
        self.prefers_all_live = 0;
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no task is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `task` currently sits in the queue.
    pub fn contains(&self, task: usize) -> bool {
        self.queued[task]
    }

    /// Enqueues `task` with the given preferred (data-local) nodes.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the task is already queued.
    pub fn push(&mut self, task: usize, preferred: &[usize]) {
        debug_assert!(!self.queued[task], "task {task} is already queued");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seq_of[task] = seq;
        self.queued[task] = true;
        self.fifo.push_back((seq, task));
        // Replica lists hold distinct nodes, so a full-length list covers
        // the cluster: locality holds everywhere and criterion 1 degrades
        // to criterion 2, answered from the FIFO. Feeding such tasks into
        // every lane would cost O(nodes) per task — the exact blow-up this
        // structure exists to avoid.
        let all = preferred.len() >= self.nodes;
        self.prefers_all[task] = all;
        if all {
            self.prefers_all_live += 1;
        } else {
            for &node in preferred {
                self.lanes[node].push_back((seq, task));
            }
        }
        self.len += 1;
    }

    fn entry_live(&self, seq: u64, task: usize) -> bool {
        self.queued[task] && self.seq_of[task] == seq
    }

    /// Dequeues the task the reference scan would hand `executor`, or
    /// `None` when the queue is empty.
    ///
    /// `is_failed(task)` must report whether the task already failed on
    /// `executor`, and must be monotone within a stage (failures are never
    /// forgotten) — lane entries that report failed are dropped for good.
    pub fn pick(&mut self, executor: usize, is_failed: impl Fn(usize) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // Criterion 1 via the executor's lane: drop stale heads, and heads
        // that already failed here (permanently ineligible for this lane —
        // a requeue re-enters under a fresh seq anyway).
        let mut lane_cand: Option<(u64, usize)> = None;
        while let Some(&(seq, task)) = self.lanes[executor].front() {
            if !self.entry_live(seq, task) || is_failed(task) {
                self.lanes[executor].pop_front();
                continue;
            }
            lane_cand = Some((seq, task));
            break;
        }
        // Criteria 1 (prefers-all tasks), 2 and 3 via the FIFO. Stale
        // heads are dropped permanently; past the head the walk skips
        // stale entries in place and stops once every open question is
        // settled — with no prefers-all tasks queued that is the first
        // live non-failed entry, i.e. O(1) in the fault-free case.
        while let Some(&(seq, task)) = self.fifo.front() {
            if self.entry_live(seq, task) {
                break;
            }
            self.fifo.pop_front();
        }
        let need_all = self.prefers_all_live > 0;
        let mut first_live: Option<(u64, usize)> = None;
        let mut fifo_pref: Option<(u64, usize)> = None;
        let mut non_failed: Option<(u64, usize)> = None;
        for &(seq, task) in self.fifo.iter() {
            // Later entries have strictly larger seqs, so once the lane
            // candidate outranks everything still ahead, criterion 1 is
            // settled; with criterion 2 also settled the walk is done.
            let crit1_settled = !need_all
                || fifo_pref.is_some()
                || lane_cand.is_some_and(|(lane_seq, _)| lane_seq < seq);
            if non_failed.is_some() && crit1_settled {
                break;
            }
            if !self.entry_live(seq, task) {
                continue;
            }
            if first_live.is_none() {
                first_live = Some((seq, task));
            }
            if !is_failed(task) {
                if non_failed.is_none() {
                    non_failed = Some((seq, task));
                }
                if need_all && fifo_pref.is_none() && self.prefers_all[task] {
                    fifo_pref = Some((seq, task));
                }
            }
        }
        let preferred = match (lane_cand, fifo_pref) {
            (Some(a), Some(b)) => Some(if a.0 < b.0 { a } else { b }),
            (a, b) => a.or(b),
        };
        let (_, task) = preferred
            .or(non_failed)
            .or(first_live)
            .expect("len > 0 implies a live FIFO entry");
        self.queued[task] = false;
        self.len -= 1;
        if self.prefers_all[task] {
            self.prefers_all_live -= 1;
        }
        Some(task)
    }
}

/// The original O(pending)-scan pending queue, kept as the behavioural
/// reference: [`PendingQueue`] must dequeue the exact same task sequence.
///
/// Compiled for tests and under the `reference-impl` feature (mirroring
/// `sae-sim`'s reference kernel) so benchmarks can race the two.
#[cfg(any(test, feature = "reference-impl"))]
#[derive(Debug, Clone, Default)]
pub struct ReferenceQueue {
    pending: Vec<usize>,
}

#[cfg(any(test, feature = "reference-impl"))]
impl ReferenceQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the queue (capacity is retained).
    pub fn reset(&mut self) {
        self.pending.clear();
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no task is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Enqueues `task` at the back.
    pub fn push(&mut self, task: usize) {
        self.pending.push(task);
    }

    /// Dequeues a task for `executor`: the first pending task preferring
    /// it that has not failed on it, else the first that has not failed on
    /// it, else the queue head. This is the pre-index driver scan, verbatim.
    pub fn pick(
        &mut self,
        _executor: usize,
        is_preferred: impl Fn(usize) -> bool,
        is_failed: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        if self.pending.is_empty() {
            return None;
        }
        let pos = self
            .pending
            .iter()
            .position(|&t| is_preferred(t) && !is_failed(t))
            .or_else(|| self.pending.iter().position(|&t| !is_failed(t)))
            .unwrap_or(0);
        Some(self.pending.remove(pos))
    }
}

/// The engine's pending queue: the indexed implementation in production,
/// the reference scan when equivalence tests or benchmarks ask for it.
#[derive(Debug, Clone)]
pub(crate) enum Scheduler {
    /// The indexed locality-aware queue.
    Indexed(PendingQueue),
    /// The O(pending)-scan reference (equivalence testing only).
    #[cfg(any(test, feature = "reference-impl"))]
    Reference(ReferenceQueue),
}

impl Scheduler {
    pub(crate) fn reset(&mut self, tasks: usize, nodes: usize) {
        match self {
            Scheduler::Indexed(q) => q.reset(tasks, nodes),
            #[cfg(any(test, feature = "reference-impl"))]
            Scheduler::Reference(q) => {
                let _ = (tasks, nodes);
                q.reset();
            }
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        match self {
            Scheduler::Indexed(q) => q.is_empty(),
            #[cfg(any(test, feature = "reference-impl"))]
            Scheduler::Reference(q) => q.is_empty(),
        }
    }

    pub(crate) fn push(&mut self, task: usize, preferred: &[usize]) {
        match self {
            Scheduler::Indexed(q) => q.push(task, preferred),
            #[cfg(any(test, feature = "reference-impl"))]
            Scheduler::Reference(q) => {
                let _ = preferred;
                q.push(task);
            }
        }
    }

    pub(crate) fn pick(
        &mut self,
        executor: usize,
        is_preferred: impl Fn(usize) -> bool,
        is_failed: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        match self {
            Scheduler::Indexed(q) => {
                let _ = &is_preferred;
                q.pick(executor, is_failed)
            }
            #[cfg(any(test, feature = "reference-impl"))]
            Scheduler::Reference(q) => q.pick(executor, is_preferred, is_failed),
        }
    }
}

/// `f64` with the IEEE-754 total order, for heap storage.
#[derive(Debug, Clone, Copy)]
struct TotalF64(f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Incremental running median over a stream of finite values.
///
/// Two-heap formulation: a max-heap of the lower half and a min-heap of
/// the upper half, rebalanced so the upper heap holds ⌈n/2⌉ values. The
/// reported median is its minimum — the element at index `n / 2` of the
/// sorted stream, exactly what the reference's clone-and-sort produced.
/// Push is O(log n), query is O(1).
#[derive(Debug, Clone, Default)]
pub(crate) struct RunningMedian {
    /// Max-heap: the smaller ⌊n/2⌋ values.
    lo: BinaryHeap<TotalF64>,
    /// Min-heap: the larger ⌈n/2⌉ values; its minimum is the median.
    hi: BinaryHeap<Reverse<TotalF64>>,
}

impl RunningMedian {
    /// Creates an empty accumulator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Removes every value (capacity is retained).
    pub(crate) fn clear(&mut self) {
        self.lo.clear();
        self.hi.clear();
    }

    /// Adds a value.
    ///
    /// # Panics
    ///
    /// Panics (debug) on a non-finite value.
    pub(crate) fn push(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "median over non-finite value {value}");
        let v = TotalF64(value);
        match self.hi.peek() {
            Some(&Reverse(hi_min)) if v < hi_min => self.lo.push(v),
            _ => self.hi.push(Reverse(v)),
        }
        if self.hi.len() > self.lo.len() + 1 {
            let Reverse(v) = self.hi.pop().expect("hi is non-empty");
            self.lo.push(v);
        } else if self.lo.len() > self.hi.len() {
            let v = self.lo.pop().expect("lo is non-empty");
            self.hi.push(Reverse(v));
        }
    }

    /// The upper median (index `n / 2` of the sorted stream), or `None`
    /// when empty.
    pub(crate) fn median(&self) -> Option<f64> {
        self.hi.peek().map(|&Reverse(TotalF64(v))| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_order_without_locality_or_failures() {
        let mut q = PendingQueue::new();
        q.reset(4, 2);
        for t in 0..4 {
            q.push(t, &[0, 1]); // covers all nodes: no lanes
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.pick(1, |_| false), Some(0));
        assert_eq!(q.pick(0, |_| false), Some(1));
        assert_eq!(q.pick(0, |_| false), Some(2));
        assert_eq!(q.pick(1, |_| false), Some(3));
        assert_eq!(q.pick(0, |_| false), None);
        assert!(q.is_empty());
    }

    #[test]
    fn locality_beats_fifo_order() {
        let mut q = PendingQueue::new();
        q.reset(3, 3);
        q.push(0, &[1]);
        q.push(1, &[2]);
        q.push(2, &[0]);
        // Node 0 prefers task 2 even though tasks 0 and 1 queued earlier.
        assert_eq!(q.pick(0, |_| false), Some(2));
        // No task left prefers node 0: fall back to the queue head.
        assert_eq!(q.pick(0, |_| false), Some(0));
        assert_eq!(q.pick(2, |_| false), Some(1));
    }

    #[test]
    fn failed_tasks_are_avoided_until_unavoidable() {
        let mut q = PendingQueue::new();
        q.reset(2, 2);
        q.push(0, &[0]);
        q.push(1, &[0]);
        // Task 0 failed on node 0: its lane head is skipped, task 1 wins.
        assert_eq!(q.pick(0, |t| t == 0), Some(1));
        // Only the failed task remains — criterion 3 hands it out anyway.
        assert_eq!(q.pick(0, |t| t == 0), Some(0));
    }

    #[test]
    fn requeued_task_reenters_at_the_back() {
        let mut q = PendingQueue::new();
        q.reset(3, 2);
        q.push(0, &[0]);
        q.push(1, &[0]);
        assert_eq!(q.pick(0, |_| false), Some(0));
        q.push(0, &[0]); // retry: behind task 1 now
        q.push(2, &[0]);
        assert_eq!(q.pick(0, |_| false), Some(1));
        assert_eq!(q.pick(0, |_| false), Some(0));
        assert_eq!(q.pick(0, |_| false), Some(2));
    }

    #[test]
    fn reset_reuses_buffers_cleanly() {
        let mut q = PendingQueue::new();
        q.reset(2, 2);
        q.push(0, &[0]);
        q.push(1, &[1]);
        assert_eq!(q.pick(0, |_| false), Some(0));
        q.reset(3, 3);
        assert!(q.is_empty());
        q.push(2, &[1]);
        assert_eq!(q.pick(1, |_| false), Some(2));
        assert_eq!(q.pick(1, |_| false), None);
    }

    #[test]
    fn running_median_matches_sorted_upper_median() {
        let mut m = RunningMedian::new();
        assert_eq!(m.median(), None);
        let mut values = Vec::new();
        for &v in &[5.0, 1.0, 3.0, 3.0, 9.0, 2.0, 7.0] {
            m.push(v);
            values.push(v);
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(m.median(), Some(sorted[sorted.len() / 2]));
        }
        m.clear();
        assert_eq!(m.median(), None);
    }

    /// One scripted action against both queue implementations.
    #[derive(Debug, Clone)]
    enum Op {
        /// Enqueue the task (skipped if it is already queued).
        Push(usize),
        /// Dequeue for the executor; results must match.
        Pick(usize),
        /// Record a task failure on a node (monotone, as in the engine).
        Fail(usize, usize),
    }

    const TASKS: usize = 12;

    /// Raw op tuples `(kind, task-ish, node-ish)`; the task/node components
    /// are reduced modulo the actual domain sizes inside the property.
    fn arb_raw_ops() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
        prop::collection::vec((0u8..3, 0usize..64, 0usize..64), 1..120)
    }

    /// Raw per-task preference seeds: `full_cluster` flag (shuffle-style
    /// "prefers everywhere" list) or a replica-style short list.
    fn arb_raw_preferred() -> impl Strategy<Value = Vec<(bool, Vec<usize>)>> {
        prop::collection::vec(
            (prop::bool::ANY, prop::collection::vec(0usize..64, 1..4)),
            TASKS,
        )
    }

    fn resolve_preferred(raw: Vec<(bool, Vec<usize>)>, nodes: usize) -> Vec<Vec<usize>> {
        raw.into_iter()
            .map(|(full, list)| {
                if full {
                    (0..nodes).collect()
                } else {
                    let mut list: Vec<usize> = list.into_iter().map(|n| n % nodes).collect();
                    list.sort_unstable();
                    list.dedup();
                    list
                }
            })
            .collect()
    }

    proptest! {
        /// The indexed queue dequeues the exact sequence of the reference
        /// scan under arbitrary interleavings of enqueues, dequeues for
        /// arbitrary executors, and monotone failure recording.
        #[test]
        fn indexed_matches_reference_scan(
            nodes in 2usize..6,
            raw_preferred in arb_raw_preferred(),
            raw_ops in arb_raw_ops(),
        ) {
            let preferred = resolve_preferred(raw_preferred, nodes);
            let tasks = preferred.len();
            let ops: Vec<Op> = raw_ops
                .into_iter()
                .map(|(kind, t, n)| match kind {
                    0 => Op::Push(t % tasks),
                    1 => Op::Pick(n % nodes),
                    _ => Op::Fail(t % tasks, n % nodes),
                })
                .collect();
            let mut indexed = PendingQueue::new();
            indexed.reset(tasks, nodes);
            let mut reference = ReferenceQueue::new();
            let mut queued = vec![false; tasks];
            let mut failed = vec![vec![false; nodes]; tasks];
            for op in ops {
                match op {
                    Op::Push(t) => {
                        if !queued[t] {
                            queued[t] = true;
                            indexed.push(t, &preferred[t]);
                            reference.push(t);
                        }
                    }
                    Op::Pick(e) => {
                        let a = indexed.pick(e, |t| failed[t][e]);
                        let b = reference.pick(
                            e,
                            |t| preferred[t].contains(&e),
                            |t| failed[t][e],
                        );
                        prop_assert_eq!(a, b, "pick diverged for executor {}", e);
                        if let Some(t) = a {
                            queued[t] = false;
                        }
                        prop_assert_eq!(indexed.len(), reference.len());
                    }
                    Op::Fail(t, n) => {
                        // Mirrors the engine: failures are only booked for
                        // tasks that are not sitting in the queue (they are
                        // requeued afterwards, under a fresh seq).
                        if !queued[t] {
                            failed[t][n] = true;
                        }
                    }
                }
            }
        }
    }
}
