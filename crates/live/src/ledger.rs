//! The task ledger: one stage's attempts, as the single-job driver and
//! each job of the job server book them — the stage's [`PendingQueue`]
//! (seeded with the `task % executors` locality preference) and, per task,
//! whether it is done, how often it failed and where. Which executor runs
//! an attempt is the fleet's record alone (`fleet.rs`): a caller settles
//! only an attempt whose booking `Fleet::release` freed or a loss handed
//! back, so a duplicate, stale or foreign report never reaches the ledger.
//! [`TaskLedger`] reads no clock (the caller passes the stage start) and
//! records no telemetry: each call answers with what happened — picked,
//! done, requeued, exhausted — and the caller records metrics and trace
//! events and applies its own policies (blacklisting, giving up on the
//! job).

use std::time::Instant;

use sae_dag::sched::PendingQueue;

/// What settling one attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The task is done; `stage_done` when it was the stage's last.
    Done { stage_done: bool },
    /// Attempt `attempt` failed and the task is queued again.
    Requeued { attempt: usize },
    /// Attempt `attempt` failed and spent the task's attempt budget; the
    /// task stays off the queue.
    Exhausted { attempt: usize },
}

/// One task's bookkeeping.
#[derive(Debug, Clone, Default)]
struct Task {
    done: bool,
    /// Failed attempts so far: the index of the next attempt.
    failures: usize,
    /// Executors an attempt of this task failed on.
    failed_on: Vec<usize>,
}

/// Attempts a task gets (first run + retries) before its job gives up —
/// the budget both the driver and the job server settle against.
pub(crate) const MAX_TASK_ATTEMPTS: usize = 4;

/// One stage's attempts. See the module docs.
#[derive(Debug)]
pub(crate) struct TaskLedger {
    queue: PendingQueue,
    executors: usize,
    tasks: Vec<Task>,
    remaining: usize,
    attempts: usize,
    failed_attempts: usize,
    started: Instant,
}

impl TaskLedger {
    /// A stage of `tasks` tasks on `executors` executors, started at
    /// `now`, with every task queued in task order.
    pub(crate) fn new(tasks: usize, executors: usize, now: Instant) -> Self {
        let mut ledger = Self {
            queue: PendingQueue::new(),
            executors,
            tasks: vec![Task::default(); tasks],
            remaining: tasks,
            attempts: 0,
            failed_attempts: 0,
            started: now,
        };
        ledger.queue.reset(tasks, executors);
        for task in 0..tasks {
            ledger.enqueue(task);
        }
        ledger
    }

    /// Queues `task` with its preferred executor: round-robin "data
    /// locality", the placement rule the engine-scale benchmarks use for
    /// map stages.
    fn enqueue(&mut self, task: usize) {
        self.queue.push(task, &[task % self.executors.max(1)]);
    }

    /// Dequeues the task executor `e` should run next, steering retries
    /// away from executors they failed on, and counts the attempt. `None`
    /// only when nothing is queued.
    pub(crate) fn pick(&mut self, e: usize) -> Option<usize> {
        let tasks = &self.tasks;
        let task = self.queue.pick(e, |t| tasks[t].failed_on.contains(&e))?;
        self.attempts += 1;
        Some(task)
    }

    /// Settles the attempt of `task` that the fleet booked on `from`:
    /// done when `ok`, otherwise a failure booked against `from`, which
    /// requeues the task unless it spent the task's attempt `budget`.
    pub(crate) fn settle(&mut self, task: usize, from: usize, ok: bool, budget: usize) -> Outcome {
        let t = &mut self.tasks[task];
        if ok {
            t.done = true;
            self.remaining -= 1;
            let stage_done = self.remaining == 0;
            return Outcome::Done { stage_done };
        }
        let attempt = t.failures;
        t.failures += 1;
        if !t.failed_on.contains(&from) {
            t.failed_on.push(from);
        }
        self.failed_attempts += 1;
        if t.failures >= budget {
            return Outcome::Exhausted { attempt };
        }
        self.enqueue(task);
        Outcome::Requeued { attempt }
    }

    /// The index of `task`'s current (or next) attempt: its failures so
    /// far.
    pub(crate) fn attempt(&self, task: usize) -> usize {
        self.tasks[task].failures
    }

    /// Tasks in the stage.
    pub(crate) fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Tasks not yet done.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// Tasks waiting on the queue.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Attempts booked this stage.
    pub(crate) fn attempts(&self) -> usize {
        self.attempts
    }

    /// Attempts that failed this stage.
    pub(crate) fn failed_attempts(&self) -> usize {
        self.failed_attempts
    }

    /// When the stage started.
    pub(crate) fn started(&self) -> Instant {
        self.started
    }
}

#[cfg(test)]
impl TaskLedger {
    /// Whether `task` is done.
    pub(crate) fn is_done(&self, task: usize) -> bool {
        self.tasks[task].done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: usize = 3;

    /// Picks up to `n` tasks for `executor`.
    fn pick_n(ledger: &mut TaskLedger, executor: usize, n: usize) -> Vec<usize> {
        (0..n).map_while(|_| ledger.pick(executor)).collect()
    }

    #[test]
    fn picks_follow_the_locality_preference() {
        let t0 = Instant::now();
        let mut l = TaskLedger::new(4, 2, t0);
        assert_eq!((l.len(), l.queued(), l.remaining()), (4, 4, 4));
        assert_eq!(pick_n(&mut l, 1, 3), [1, 3, 0], "local tasks first");
        assert_eq!((l.attempts(), l.queued(), l.started()), (3, 1, t0));
    }

    #[test]
    fn the_last_allowed_failure_reports_exhaustion_with_its_task() {
        let t0 = Instant::now();
        let mut l = TaskLedger::new(1, 2, t0);
        for (attempt, e) in [(0, 0), (1, 1)] {
            assert_eq!(l.pick(e), Some(0));
            assert_eq!(l.settle(0, e, false, MAX), Outcome::Requeued { attempt });
        }
        assert_eq!(l.pick(0), Some(0), "failed everywhere: still runs");
        assert_eq!(
            l.settle(0, 0, false, MAX),
            Outcome::Exhausted { attempt: 2 }
        );
        assert_eq!((l.queued(), l.remaining(), l.failed_attempts()), (0, 1, 3));
    }

    #[test]
    fn a_lost_executors_failures_requeue_once_and_steer_retries_away() {
        let t0 = Instant::now();
        let mut l = TaskLedger::new(6, 3, t0);
        // Executor 0 holds tasks 0 and 3, executor 1 holds 1 and 4,
        // executor 2 holds 2; task 5 waits. Executor 0 finishes task 3.
        assert_eq!(pick_n(&mut l, 0, 2), [0, 3]);
        assert_eq!(pick_n(&mut l, 1, 2), [1, 4]);
        assert_eq!(pick_n(&mut l, 2, 1), [2]);
        let done = Outcome::Done { stage_done: false };
        assert_eq!(l.settle(3, 0, true, MAX), done);
        // Executors 0 and 1 are lost: the fleet hands back their bookings,
        // each settled as a failure. Executor 2 keeps task 2.
        let requeued = Outcome::Requeued { attempt: 0 };
        for (task, e) in [(0, 0), (1, 1), (4, 1)] {
            assert_eq!(l.settle(task, e, false, MAX), requeued);
        }
        assert_eq!((l.failed_attempts(), l.queued(), l.remaining()), (3, 4, 5));
        // Each failure is booked against its executor: retries steer away
        // from it while another task is eligible.
        assert_eq!(pick_n(&mut l, 0, 2), [5, 1], "task 0 failed here");
        assert_eq!(l.pick(1), Some(0));
        assert_eq!(l.pick(0), Some(4));
    }

    #[test]
    fn totals_match_a_brute_force_recount_after_a_mixed_script() {
        let (t0, executors) = (Instant::now(), 3);
        let mut l = TaskLedger::new(16, executors, t0);
        let (mut picks, mut done, mut failed) = (0, 0, 0);
        // The executor running each task's attempt: the fleet's bookings,
        // which settle only what they hold.
        let mut holder: Vec<Option<usize>> = vec![None; l.len()];
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n) as usize
        };
        for _ in 0..2_000 {
            let e = next(executors as u64);
            match next(8) {
                0..=3 => {
                    if let Some(task) = l.pick(e) {
                        holder[task] = Some(e);
                        picks += 1;
                    }
                }
                _ => {
                    let task = next(16);
                    if holder[task] != Some(e) {
                        continue;
                    }
                    holder[task] = None;
                    match l.settle(task, e, next(4) > 0, usize::MAX) {
                        Outcome::Done { .. } => done += 1,
                        Outcome::Requeued { .. } => failed += 1,
                        Outcome::Exhausted { .. } => unreachable!("no budget"),
                    }
                }
            }
            let held = holder.iter().filter(|h| h.is_some()).count();
            let finished = l.tasks.iter().filter(|t| t.done).count();
            let failures: usize = l.tasks.iter().map(|t| t.failures).sum();
            assert_eq!(l.remaining(), l.len() - finished);
            assert_eq!(l.failed_attempts(), failures);
            assert_eq!(l.attempts(), failures + finished + held);
            assert_eq!(l.queued(), l.len() - finished - held);
            assert_eq!((l.attempts(), finished, failures), (picks, done, failed));
        }
        assert!(done > 0 && failed > 0, "the script exercised both outcomes");
    }
}
