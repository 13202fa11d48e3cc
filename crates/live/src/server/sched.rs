//! Weighted fair-share slot allocation across concurrent jobs.
//!
//! Stride scheduling (Waldspurger & Weihl, OSDI '95) over task dispatches:
//! each job carries a `stride = STRIDE1 / weight` and a `pass` that
//! advances by one stride per task dispatched on its behalf. Every time a
//! slot frees, the runnable job with the lowest pass wins it, so over any
//! window the tasks dispatched per job converge to the weight ratio —
//! a weight-4 tenant gets 4 slots' worth of work for every 1 a weight-1
//! tenant gets, without starving anyone.
//!
//! The scheduler is a pure state machine: no clocks, no randomness, ties
//! broken by job id. Given the same sequence of [`FairShare::admit`],
//! `FairShare::retire` and [`FairShare::pick`] calls it produces the
//! same dispatch sequence, which is what makes the server's accounting
//! journal replayable — [`replay`] re-runs a recorded schedule and
//! byte-identical journals out of two runs prove the allocator
//! deterministic (`replay_is_deterministic` below asserts it).

use std::collections::BTreeMap;

/// Pass advance for a weight-1 job per dispatched task. Large enough
/// that integer division by any sane weight keeps fine-grained ratios:
/// weights up to ~10⁴ stay exact to <0.01%.
pub(crate) const STRIDE1: u64 = 1 << 20;

#[derive(Debug, Clone, Copy)]
struct Entry {
    stride: u64,
    pass: u64,
}

/// One recorded allocator decision, for the replay journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Decision ordinal (0-based).
    pub seq: u64,
    /// The job the slot went to.
    pub job: u64,
    /// The job's pass value *before* this dispatch charged it.
    pub pass: u64,
}

/// The stride allocator. Jobs are admitted with a weight, charged per
/// dispatched task, and retired when they finish or are cancelled.
#[derive(Debug, Default)]
pub struct FairShare {
    entries: BTreeMap<u64, Entry>,
    dispatches: u64,
}

impl FairShare {
    /// An empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits `job` with `weight` (clamped to ≥1). The job starts at the
    /// minimum pass currently in the system, so a late arrival competes
    /// immediately instead of monopolising slots while it "catches up"
    /// from pass 0.
    pub fn admit(&mut self, job: u64, weight: u64) {
        let floor = self.entries.values().map(|e| e.pass).min().unwrap_or(0);
        self.entries.insert(
            job,
            Entry {
                stride: STRIDE1 / weight.max(1),
                pass: floor,
            },
        );
    }

    /// Removes `job` from contention (completed, failed, or cancelled).
    pub(crate) fn retire(&mut self, job: u64) {
        self.entries.remove(&job);
    }

    /// Whether `job` is currently admitted.
    pub fn contains(&self, job: u64) -> bool {
        self.entries.contains_key(&job)
    }

    /// Admitted jobs, ascending by id.
    pub fn jobs(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.keys().copied()
    }

    /// The runnable job with the lowest `(pass, id)`, without charging it.
    /// `runnable` filters jobs that could actually use the slot (current
    /// stage has queued tasks); jobs it rejects keep their pass, so a job
    /// blocked on stragglers is not penalised for slots it could not take.
    pub(crate) fn peek(&self, mut runnable: impl FnMut(u64) -> bool) -> Option<u64> {
        self.entries
            .iter()
            .filter(|(id, _)| runnable(**id))
            .min_by_key(|(id, e)| (e.pass, **id))
            .map(|(id, _)| *id)
    }

    /// Charges `job` one stride for a dispatched task. Callers that need
    /// to inspect per-executor state between selection and dispatch use
    /// [`FairShare::peek`] then `charge` only once the dispatch actually
    /// happens, so a job the executor cannot serve is never billed.
    pub(crate) fn charge(&mut self, job: u64) -> Option<Dispatch> {
        let e = self.entries.get_mut(&job)?;
        let dispatch = Dispatch {
            seq: self.dispatches,
            job,
            pass: e.pass,
        };
        e.pass = e.pass.saturating_add(e.stride);
        self.dispatches += 1;
        Some(dispatch)
    }

    /// `FairShare::peek` + `FairShare::charge` in one step.
    pub fn pick(&mut self, runnable: impl FnMut(u64) -> bool) -> Option<Dispatch> {
        let job = self.peek(runnable)?;
        self.charge(job)
    }
}

/// One step of a recorded submission schedule, for [`replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `admit(job, weight)`.
    Admit(u64, u64),
    /// `retire(job)`.
    Retire(u64),
    /// One `pick` over all admitted jobs (every job runnable).
    Pick,
}

/// Replays a schedule through a fresh allocator and renders the dispatch
/// journal as JSONL. Two calls with the same schedule must return
/// byte-identical strings — the determinism proof the bench checks in.
pub fn replay(schedule: &[Step]) -> String {
    let mut fs = FairShare::new();
    let mut out = String::new();
    for step in schedule {
        match *step {
            Step::Admit(job, weight) => fs.admit(job, weight),
            Step::Retire(job) => fs.retire(job),
            Step::Pick => {
                if let Some(d) = fs.pick(|_| true) {
                    out.push_str(&format!(
                        "{{\"seq\":{},\"job\":{},\"pass\":{}}}\n",
                        d.seq, d.job, d.pass
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dispatch counts per job over `n` picks, all jobs always runnable.
    fn shares(fs: &mut FairShare, n: usize) -> BTreeMap<u64, usize> {
        let mut counts = BTreeMap::new();
        for _ in 0..n {
            let d = fs.pick(|_| true).expect("jobs admitted");
            *counts.entry(d.job).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn equal_weights_split_evenly() {
        let mut fs = FairShare::new();
        for j in 0..4 {
            fs.admit(j, 1);
        }
        let counts = shares(&mut fs, 400);
        for j in 0..4 {
            assert_eq!(counts[&j], 100, "job {j}");
        }
    }

    #[test]
    fn weights_split_proportionally() {
        let mut fs = FairShare::new();
        fs.admit(1, 4);
        fs.admit(2, 1);
        let counts = shares(&mut fs, 500);
        // 4:1 over 500 dispatches = 400:100.
        assert_eq!(counts[&1], 400);
        assert_eq!(counts[&2], 100);
    }

    #[test]
    fn late_arrival_joins_at_the_pass_floor() {
        let mut fs = FairShare::new();
        fs.admit(0, 1);
        shares(&mut fs, 100); // job 0 has advanced 100 strides
        fs.admit(1, 1);
        // If job 1 started at pass 0 it would win the next 100 picks
        // straight; at the floor, the next 100 split evenly.
        let counts = shares(&mut fs, 100);
        assert_eq!(counts[&0], 50);
        assert_eq!(counts[&1], 50);
    }

    #[test]
    fn blocked_jobs_are_skipped_without_penalty() {
        let mut fs = FairShare::new();
        fs.admit(0, 1);
        fs.admit(1, 1);
        // Job 0 is blocked for 10 picks: job 1 takes them all.
        for _ in 0..10 {
            assert_eq!(fs.pick(|j| j != 0).unwrap().job, 1);
        }
        // Once runnable again, job 0's untouched pass means it catches
        // up on the next 10 picks.
        let counts = shares(&mut fs, 10);
        assert_eq!(counts.get(&0), Some(&10));
    }

    #[test]
    fn retire_removes_from_contention() {
        let mut fs = FairShare::new();
        fs.admit(0, 1);
        fs.admit(1, 1);
        fs.retire(0);
        for _ in 0..5 {
            assert_eq!(fs.pick(|_| true).unwrap().job, 1);
        }
        assert!(!fs.contains(0));
        fs.retire(1);
        assert!(fs.pick(|_| true).is_none());
    }

    #[test]
    fn ties_break_by_job_id() {
        let mut fs = FairShare::new();
        fs.admit(7, 1);
        fs.admit(3, 1);
        // Equal pass: lower id first, strictly alternating after.
        assert_eq!(fs.pick(|_| true).unwrap().job, 3);
        assert_eq!(fs.pick(|_| true).unwrap().job, 7);
        assert_eq!(fs.pick(|_| true).unwrap().job, 3);
    }

    #[test]
    fn replay_is_deterministic() {
        let schedule: Vec<Step> = std::iter::once(Step::Admit(0, 1))
            .chain(std::iter::once(Step::Admit(1, 4)))
            .chain(std::iter::repeat_n(Step::Pick, 50))
            .chain(std::iter::once(Step::Admit(2, 2)))
            .chain(std::iter::repeat_n(Step::Pick, 50))
            .chain(std::iter::once(Step::Retire(1)))
            .chain(std::iter::repeat_n(Step::Pick, 25))
            .collect();
        let a = replay(&schedule);
        let b = replay(&schedule);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 125);
    }
}
