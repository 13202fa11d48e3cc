//! Job bookkeeping for the serve loop: a slot table whose per-job and
//! per-wakeup costs do not depend on how many jobs have already finished,
//! and whose memory does not grow with them either.
//!
//! Job ids are dense (`1, 2, 3, …`), so the table is one `VecDeque` of
//! slots indexed by `id − 1 − base`. A slot starts out [`Slot::Live`] — a
//! queued or running job's full scheduling state, its current stage's
//! task ledger (`ledger.rs`, as in the driver) included — and is
//! converted in place to [`Slot::Retired`] the moment the job turns
//! terminal: ledger and spec are dropped, and only what terminal reads
//! need stays (the [`JobSummary`], the per-stage rows of
//! `/jobs/:id/report`, and the now-immutable status line, rendered
//! once). Admission and the periodic sweep read a running-jobs counter
//! and a small ordered set of non-terminal ids (bounded by
//! `max_active + max_queued`) instead of walking history.
//!
//! At most [`RETAINED_JOBS`] retired jobs are kept. When one more
//! retires, the oldest retired job's slot becomes [`Slot::Evicted`],
//! which owns nothing, and evicted slots at the front of the table are
//! popped; its id then answers `410 Gone`, while an id never admitted
//! stays `404`. A live job is never evicted, however old it is; the
//! evicted slots behind it stay in the table, owning nothing, until it
//! retires.
//!
//! [`JobState::status`] is private to this module: the only transitions
//! are [`JobTable::admit`], [`JobTable::start`] and [`JobTable::retire`],
//! which is what keeps the counter, the live set and the retirement
//! order exact.

use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::time::Instant;

use sae_net::http::{self, Response};

use super::{kind_name, JobStatus, JobSummary};
use crate::job::{LiveJob, LiveStageSpec};
use crate::ledger::TaskLedger;

/// One queued or running job.
pub(super) struct JobState {
    pub(super) id: u64,
    pub(super) job: LiveJob,
    pub(super) tenant: String,
    pub(super) weight: u64,
    status: JobStatus,
    /// The current stage: also the number of stages completed.
    pub(super) stage_idx: usize,
    /// The current stage's attempts.
    pub(super) tasks: TaskLedger,
    started_at: Option<Instant>,
    /// Attempts dispatched, and attempts failed, over every stage.
    pub(super) total_attempts: usize,
    pub(super) total_failed: usize,
    /// Wall-clock seconds per completed stage, in stage order.
    pub(super) stage_durations: Vec<f64>,
    pub(super) journal: String,
    /// Lines in `journal` — the next journal SSE event id.
    pub(super) journal_lines: u64,
}

impl JobState {
    pub(super) fn status(&self) -> JobStatus {
        self.status
    }

    /// Can this job absorb another slot right now?
    pub(super) fn runnable(&self) -> bool {
        self.status == JobStatus::Running && self.tasks.queued() > 0
    }

    fn runtime_secs(&self, now: Instant) -> f64 {
        self.started_at
            .map(|t| now.duration_since(t).as_secs_f64())
            .unwrap_or(0.0)
    }

    /// Appends the `GET /jobs/:id` body to `out`.
    fn write_status_line(&self, out: &mut String) {
        let (done, total) = if self.status == JobStatus::Running {
            let total = self.tasks.len();
            (total - self.tasks.remaining(), total)
        } else {
            (0, 0)
        };
        let _ = write!(
            out,
            "{{\"job\":{},\"name\":\"{}\",\"tenant\":\"{}\",\"weight\":{},\"status\":\"{}\",\
             \"stage\":{},\"stages\":{},\"tasks_done\":{},\"tasks_total\":{},\
             \"attempts\":{},\"failed_attempts\":{}}}",
            self.id,
            http::escape_json(&self.job.name),
            self.tenant,
            self.weight,
            self.status.as_str(),
            self.stage_idx,
            self.job.stages.len(),
            done,
            total,
            self.total_attempts,
            self.total_failed
        );
    }
}

/// What is kept of a terminal job. Every string is exactly as long as its
/// content; nothing here grows again.
pub(super) struct RetiredJob {
    summary: JobSummary,
    /// The `/jobs/:id/report` rows: each stage and, for those that
    /// finished, its wall-clock seconds.
    stages: Box<[LiveStageSpec]>,
    stage_durations: Box<[f64]>,
    /// The `GET /jobs/:id` body.
    status_line: Box<str>,
}

impl RetiredJob {
    /// Strips a job that turned terminal at `now` to its terminal reads.
    fn from_live(js: &mut JobState, now: Instant) -> Self {
        let mut status_line = String::new();
        js.write_status_line(&mut status_line);
        let mut journal = std::mem::take(&mut js.journal);
        journal.shrink_to_fit();
        Self {
            summary: JobSummary {
                id: js.id,
                name: std::mem::take(&mut js.job.name),
                tenant: std::mem::take(&mut js.tenant),
                weight: js.weight,
                status: js.status,
                stages_completed: js.stage_idx,
                attempts: js.total_attempts,
                failed_attempts: js.total_failed,
                runtime_secs: js.runtime_secs(now),
                journal,
            },
            stages: std::mem::take(&mut js.job.stages).into_boxed_slice(),
            stage_durations: std::mem::take(&mut js.stage_durations).into_boxed_slice(),
            status_line: status_line.into_boxed_str(),
        }
    }
}

enum Slot {
    Live(Box<JobState>),
    Retired(Box<RetiredJob>),
    /// Retired, then dropped to keep [`RETAINED_JOBS`]: its id answers 410.
    Evicted,
}

/// Retired jobs the table keeps; retiring one more evicts the oldest.
pub(super) const RETAINED_JOBS: usize = 4096;

/// Why an id names no job the table holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Missing {
    /// Never admitted: `404`.
    Unknown,
    /// Admitted, retired, then evicted: `410`.
    Evicted,
}

impl Missing {
    /// The response every `/jobs/:id…` route answers for this id.
    pub(super) fn response(self) -> Response {
        match self {
            Missing::Unknown => Response::error(404, "no such job"),
            Missing::Evicted => Response::error(410, "job evicted from the retained history"),
        }
    }
}

/// The live jobs and the last [`RETAINED_JOBS`] retired ones, by id.
#[derive(Default)]
pub(super) struct JobTable {
    /// Slots of ids `base + 1 ..`; the front slot is never `Evicted`.
    slots: VecDeque<Slot>,
    /// Ids popped off the front: every id up to `base` was evicted.
    base: u64,
    /// Jobs in [`JobStatus::Running`].
    running: usize,
    /// Ids of the `Live` slots, ascending.
    live: BTreeSet<u64>,
    /// Ids of the `Retired` slots, in retirement order.
    retired: VecDeque<u64>,
    /// Bytes of every retained status line, to size `GET /jobs` in one go.
    retired_line_bytes: usize,
}

impl JobTable {
    /// Slot index of job `id`, or why it has none.
    fn index(&self, id: u64) -> Result<usize, Missing> {
        if id == 0 || id > self.base + self.slots.len() as u64 {
            return Err(Missing::Unknown);
        }
        if id <= self.base {
            return Err(Missing::Evicted);
        }
        let idx = (id - self.base - 1) as usize;
        match self.slots[idx] {
            Slot::Evicted => Err(Missing::Evicted),
            _ => Ok(idx),
        }
    }

    fn slot(&self, id: u64) -> Result<&Slot, Missing> {
        Ok(&self.slots[self.index(id)?])
    }

    /// `Ok(id)` if the table holds job `id`, or why it does not.
    pub(super) fn find(&self, id: u64) -> Result<u64, Missing> {
        self.index(id).map(|_| id)
    }

    /// Admits a job as [`JobStatus::Queued`] under the next dense id.
    pub(super) fn admit(
        &mut self,
        job: LiveJob,
        tenant: String,
        weight: u64,
        now: Instant,
    ) -> &mut JobState {
        let id = self.base + self.slots.len() as u64 + 1;
        self.live.insert(id);
        self.slots.push_back(Slot::Live(Box::new(JobState {
            id,
            job,
            tenant,
            weight,
            status: JobStatus::Queued,
            stage_idx: 0,
            tasks: TaskLedger::new(0, 0, now),
            started_at: None,
            total_attempts: 0,
            total_failed: 0,
            stage_durations: Vec::new(),
            journal: String::new(),
            journal_lines: 0,
        })));
        match self.slots.back_mut() {
            Some(Slot::Live(js)) => js,
            _ => unreachable!("a live slot was just pushed"),
        }
    }

    /// The scheduling state of a queued or running job; `None` once the
    /// job is terminal (or was never admitted).
    pub(super) fn live(&self, id: u64) -> Option<&JobState> {
        match self.slot(id).ok()? {
            Slot::Live(js) => Some(js),
            _ => None,
        }
    }

    /// Mutable twin of [`JobTable::live`].
    pub(super) fn live_mut(&mut self, id: u64) -> Option<&mut JobState> {
        let idx = self.index(id).ok()?;
        match &mut self.slots[idx] {
            Slot::Live(js) => Some(js),
            _ => None,
        }
    }

    /// Jobs currently running — what admission compares to `max_active`.
    pub(super) fn running(&self) -> usize {
        self.running
    }

    /// Ids of every queued or running job, ascending.
    pub(super) fn live_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.live.iter().copied()
    }

    /// Moves a queued job to [`JobStatus::Running`].
    pub(super) fn start(&mut self, id: u64, now: Instant) -> Option<&mut JobState> {
        let idx = self.index(id).ok()?;
        match &mut self.slots[idx] {
            Slot::Live(js) if js.status == JobStatus::Queued => {
                js.status = JobStatus::Running;
                js.started_at = Some(now);
                self.running += 1;
                Some(js)
            }
            _ => None,
        }
    }

    /// Moves a queued or running job to the terminal `status` and strips
    /// its slot down to a [`RetiredJob`], evicting the oldest retired job
    /// if that leaves more than [`RETAINED_JOBS`]. No-op on a job already
    /// terminal.
    pub(super) fn retire(&mut self, id: u64, status: JobStatus, now: Instant) {
        debug_assert!(status.terminal());
        let Ok(idx) = self.index(id) else {
            return;
        };
        let Slot::Live(js) = &mut self.slots[idx] else {
            return;
        };
        if js.status == JobStatus::Running {
            self.running -= 1;
        }
        js.status = status;
        let retired = Box::new(RetiredJob::from_live(js, now));
        self.retired_line_bytes += retired.status_line.len();
        self.slots[idx] = Slot::Retired(retired);
        self.live.remove(&id);
        self.retired.push_back(id);
        if self.retired.len() > RETAINED_JOBS {
            let oldest = self.retired.pop_front().expect("more than zero retired");
            let idx = (oldest - self.base - 1) as usize;
            if let Slot::Retired(r) = std::mem::replace(&mut self.slots[idx], Slot::Evicted) {
                self.retired_line_bytes -= r.status_line.len();
            }
            while matches!(self.slots.front(), Some(Slot::Evicted)) {
                self.slots.pop_front();
                self.base += 1;
            }
        }
    }

    /// A job's status and journal so far, from either slot kind — what a
    /// `/jobs/:id/events` stream follows across retirement.
    pub(super) fn view(&self, id: u64) -> Result<(JobStatus, &str), Missing> {
        Ok(match self.slot(id)? {
            Slot::Live(js) => (js.status, js.journal.as_str()),
            Slot::Retired(r) => (r.summary.status, r.summary.journal.as_str()),
            Slot::Evicted => unreachable!("index() skips evicted slots"),
        })
    }

    /// The `GET /jobs/:id` body.
    pub(super) fn status_line(&self, id: u64) -> Result<String, Missing> {
        Ok(match self.slot(id)? {
            Slot::Live(js) => {
                let mut line = String::new();
                js.write_status_line(&mut line);
                line
            }
            Slot::Retired(r) => r.status_line.to_string(),
            Slot::Evicted => unreachable!("index() skips evicted slots"),
        })
    }

    /// The `GET /jobs` body: cached lines of retired jobs and fresh lines
    /// of live ones, in id order, concatenated into one buffer. Evicted
    /// jobs are not listed.
    pub(super) fn list(&self) -> String {
        let mut out = String::with_capacity(
            self.retired_line_bytes + self.slots.len() + 256 * self.live.len() + 16,
        );
        out.push_str("{\"jobs\":[");
        let retained = self.slots.iter().filter(|s| !matches!(s, Slot::Evicted));
        for (i, slot) in retained.enumerate() {
            if i > 0 {
                out.push(',');
            }
            match slot {
                Slot::Live(js) => js.write_status_line(&mut out),
                Slot::Retired(r) => out.push_str(&r.status_line),
                Slot::Evicted => {}
            }
        }
        out.push_str("]}");
        out
    }

    /// The `GET /jobs/:id/report` body.
    pub(super) fn report(&self, id: u64, now: Instant) -> Result<String, Missing> {
        let report = match self.slot(id)? {
            Slot::Live(js) => Report {
                id,
                status: js.status,
                runtime_secs: js.runtime_secs(now),
                attempts: js.total_attempts,
                failed_attempts: js.total_failed,
                stages_completed: js.stage_idx,
                stages: &js.job.stages,
                stage_durations: &js.stage_durations,
            },
            Slot::Retired(r) => Report {
                id,
                status: r.summary.status,
                runtime_secs: r.summary.runtime_secs,
                attempts: r.summary.attempts,
                failed_attempts: r.summary.failed_attempts,
                stages_completed: r.summary.stages_completed,
                stages: &r.stages,
                stage_durations: &r.stage_durations,
            },
            Slot::Evicted => unreachable!("index() skips evicted slots"),
        };
        Ok(report.render())
    }

    /// Every retained job's summary, by id. The serve loop retires
    /// whatever is still live before it reports; a job it missed is left
    /// out, as is every evicted one.
    pub(super) fn into_summaries(self) -> Vec<JobSummary> {
        self.slots
            .into_iter()
            .filter_map(|slot| match slot {
                Slot::Retired(r) => Some(r.summary),
                Slot::Live(_) | Slot::Evicted => None,
            })
            .collect()
    }
}

/// What `/jobs/:id/report` prints, gathered from either slot kind.
struct Report<'a> {
    id: u64,
    status: JobStatus,
    runtime_secs: f64,
    attempts: usize,
    failed_attempts: usize,
    stages_completed: usize,
    stages: &'a [LiveStageSpec],
    stage_durations: &'a [f64],
}

impl Report<'_> {
    fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"job\":{},\"status\":\"{}\",\"runtime_secs\":{:.6},\"attempts\":{},\
             \"failed_attempts\":{},\"stages\":[",
            self.id,
            self.status.as_str(),
            self.runtime_secs,
            self.attempts,
            self.failed_attempts
        );
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"name\":\"{}\",\"kind\":\"{}\",\"tasks\":{},\"done\":{},\
                 \"duration_secs\":{:.6}}}",
                i,
                http::escape_json(&s.name),
                kind_name(s.kind),
                s.tasks,
                i < self.stages_completed,
                self.stage_durations.get(i).copied().unwrap_or(0.0)
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
impl JobTable {
    /// Recounts from the slots everything the table keeps incrementally.
    pub(super) fn assert_consistent(&self) {
        let mut running = 0;
        let mut live = Vec::new();
        let mut retired = Vec::new();
        let mut line_bytes = 0;
        assert!(
            !matches!(self.slots.front(), Some(Slot::Evicted)),
            "an evicted slot was left at the front"
        );
        for (i, slot) in self.slots.iter().enumerate() {
            let id = self.base + i as u64 + 1;
            match slot {
                Slot::Live(js) => {
                    assert_eq!(js.id, id);
                    assert!(!js.status.terminal(), "job {id} is terminal but live");
                    running += usize::from(js.status == JobStatus::Running);
                    live.push(id);
                }
                // A retired slot has no task ledger to hold on to; what
                // it does own must be tight.
                Slot::Retired(r) => {
                    assert_eq!(r.summary.id, id);
                    assert!(r.summary.status.terminal(), "job {id} retired early");
                    assert_eq!(r.summary.journal.capacity(), r.summary.journal.len());
                    line_bytes += r.status_line.len();
                    retired.push(id);
                }
                Slot::Evicted => assert_eq!(self.find(id), Err(Missing::Evicted)),
            }
        }
        for id in 1..=self.base {
            assert_eq!(self.find(id), Err(Missing::Evicted));
        }
        assert_eq!(self.running, running);
        assert_eq!(self.live.iter().copied().collect::<Vec<_>>(), live);
        // Retirement order is not id order, but it holds the same ids.
        let mut order: Vec<u64> = self.retired.iter().copied().collect();
        order.sort_unstable();
        assert_eq!(order, retired);
        assert!(self.retired.len() <= RETAINED_JOBS);
        assert_eq!(self.retired_line_bytes, line_bytes);
    }

    /// Bytes a retired job keeps: its slot, its record and every heap
    /// block behind it (allocator headers not counted).
    pub(super) fn retained_bytes(&self, id: u64) -> usize {
        let Ok(Slot::Retired(r)) = self.slot(id) else {
            panic!("job {id} is not retired");
        };
        std::mem::size_of::<Slot>()
            + std::mem::size_of::<RetiredJob>()
            + r.summary.name.capacity()
            + r.summary.tenant.capacity()
            + r.summary.journal.capacity()
            + r.status_line.len()
            + std::mem::size_of_val(&*r.stages)
            + std::mem::size_of_val(&*r.stage_durations)
            + r.stages.iter().map(|s| s.name.capacity()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::LiveStageKind;

    fn one_stage_job() -> LiveJob {
        LiveJob {
            name: "job".into(),
            stages: vec![LiveStageSpec {
                name: "spill-0".into(),
                kind: LiveStageKind::Spill,
                tasks: 3,
                records_per_task: 10,
                seed: 1,
            }],
        }
    }

    #[test]
    fn slots_are_dense_and_convert_in_place() {
        let (mut table, t0) = (JobTable::default(), Instant::now());
        for want in 1..=3u64 {
            let js = table.admit(one_stage_job(), "t".into(), 1, t0);
            assert_eq!((js.id, js.status()), (want, JobStatus::Queued));
            table.assert_consistent();
        }
        assert_eq!(table.find(0), Err(Missing::Unknown));
        assert_eq!(table.find(3), Ok(3));
        assert_eq!(table.find(4), Err(Missing::Unknown));
        assert!(table.start(1, t0).is_some() && table.start(2, t0).is_some());
        assert!(table.start(2, t0).is_none(), "already running");
        assert!(table.start(9, t0).is_none(), "never admitted");
        table.assert_consistent();
        assert_eq!(table.running(), 2);

        // A running job retires: counter and live set follow, the views
        // keep answering from the compact record.
        let js = table.live_mut(2).unwrap();
        js.journal.push_str("{\"event\":\"x\"}\n");
        js.total_attempts = 7;
        let at = t0 + std::time::Duration::from_millis(1500);
        let live_report = table.report(2, at).unwrap();
        table.retire(2, JobStatus::Failed, at);
        table.assert_consistent();
        assert_eq!(table.running(), 1);
        assert_eq!(table.live_ids().collect::<Vec<_>>(), [1, 3]);
        assert!(table.live(2).is_none() && table.live_mut(2).is_none());
        assert_eq!(
            table.view(2),
            Ok((JobStatus::Failed, "{\"event\":\"x\"}\n"))
        );
        let line = table.status_line(2).unwrap();
        assert!(
            line.contains("\"status\":\"failed\"") && line.contains("\"attempts\":7"),
            "the attempts total carries over: {line}"
        );
        // Runtime runs on the clock the caller passes.
        let report = table.report(2, at + at.duration_since(t0)).unwrap();
        assert_eq!(report, live_report.replace("running", "failed"));
        assert!(report.contains("\"runtime_secs\":1.500000"), "{report}");
        assert!(report.contains("\"status\":\"failed\"") && report.contains("\"attempts\":7"));

        // A queued job retires without touching the running count, and
        // retiring twice changes nothing.
        table.retire(3, JobStatus::Cancelled, at);
        table.retire(3, JobStatus::Completed, at);
        table.assert_consistent();
        assert_eq!(table.running(), 1);
        assert_eq!(table.view(3).map(|v| v.0), Ok(JobStatus::Cancelled));

        let list = table.list();
        assert_eq!(
            list,
            format!(
                "{{\"jobs\":[{},{},{}]}}",
                table.status_line(1).unwrap(),
                table.status_line(2).unwrap(),
                table.status_line(3).unwrap()
            )
        );
        assert!(list.len() <= list.capacity());

        table.retire(1, JobStatus::Completed, at);
        let summaries = table.into_summaries();
        assert_eq!(
            summaries
                .iter()
                .map(|s| (s.id, s.status, s.attempts))
                .collect::<Vec<_>>(),
            [
                (1, JobStatus::Completed, 0),
                (2, JobStatus::Failed, 7),
                (3, JobStatus::Cancelled, 0)
            ]
        );
    }
}
