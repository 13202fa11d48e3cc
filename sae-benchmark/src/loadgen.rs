//! The in-process load generator: closed-loop and open-loop workers
//! against one bed, one connection each at a time.
//!
//! A closed-loop worker sends its next job when the previous one ended
//! (callers that wait for a reply). An open-loop worker sends on a seeded
//! Poisson schedule regardless (independent users) and times each job
//! from when it was *due*, so a stall charges every job queued behind it.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bed::Bed;
use crate::client::{json_f64, json_f64_all, Client};
use crate::stats::Rng;
use crate::trace::Span;

/// What one tenant submits.
#[derive(Debug, Clone, Copy)]
pub struct JobShape {
    /// Tenant name (fair-share and per-tenant counters key on it).
    pub tenant: &'static str,
    /// Fair-share weight.
    pub weight: u64,
    /// Tasks per stage (a job is a spill stage then a sort stage).
    pub tasks: usize,
    /// Records each task generates / sorts.
    pub records: usize,
    /// While tracing, every n-th job also fetches `/jobs/:id/report`
    /// (that extra request is most of what tracing costs, so
    /// thousand-jobs-a-second shapes sample sparsely).
    pub report_every: u64,
}

impl JobShape {
    fn body(&self, seed: u64) -> String {
        format!(
            "{{\"tenant\":\"{}\",\"weight\":{},\"tasks\":{},\"records_per_task\":{},\"seed\":{seed}}}",
            self.tenant, self.weight, self.tasks, self.records
        )
    }
}

/// How a worker paces itself.
#[derive(Clone)]
pub enum Pace {
    /// Back to back; with `reads`, a `GET /metrics` and a `GET /jobs`
    /// between jobs (reads beside writes).
    Closed {
        /// Issue the two read requests between jobs.
        reads: bool,
    },
    /// Next unclaimed due time of a shared schedule (offsets from the
    /// generator epoch); the worker exits when the schedule is used up.
    Open {
        /// Due times, ascending.
        schedule: Arc<Vec<Duration>>,
        /// Next index to claim.
        next: Arc<AtomicUsize>,
    },
}

/// Server-side timings of one job, from `GET /jobs/:id/report`.
#[derive(Debug, Clone, Copy)]
pub struct ReportTimes {
    /// `runtime_secs` in ms: first stage start to completion.
    pub runtime_ms: f64,
    /// Stage durations in ms.
    pub stage_ms: [f64; 2],
}

/// One attempted job, times in seconds since the generator epoch.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Which worker plan (index into the plan list) produced it.
    pub plan: usize,
    /// When it was due (open loop) or sent (closed loop).
    pub start_s: f64,
    /// How long after `start_s` the request actually left (open loop lag).
    pub lag_ms: f64,
    /// `POST /jobs` round trip.
    pub submit_ms: f64,
    /// Follow request sent to first stream bytes.
    pub open_ms: f64,
    /// `start_s` to the `end` frame.
    pub latency_ms: f64,
    /// When the `end` frame arrived.
    pub done_s: f64,
    /// Completed with the expected journal; `false` counts as failed.
    pub ok: bool,
    /// Submitted while tracing was on.
    pub traced: bool,
    /// Present on sampled traced jobs.
    pub report: Option<ReportTimes>,
}

/// What one worker brings home.
#[derive(Default)]
pub struct WorkerLog {
    /// Every job attempted.
    pub samples: Vec<Sample>,
    /// Client-side spans of traced jobs.
    pub spans: Vec<Span>,
    /// Real bytes for the layer replay: last POST, last event stream.
    pub wire_sample: Option<(Vec<u8>, Vec<u8>)>,
}

/// Flags the coordinating thread flips.
pub struct Signals {
    /// Time zero of every `*_s` field.
    pub epoch: Instant,
    /// Closed-loop workers stop after their current job.
    pub halt: AtomicBool,
    /// Jobs started while set record spans and sample reports.
    pub tracing: AtomicBool,
}

impl Signals {
    /// Fresh flags with the epoch at now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            halt: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Runs one worker to the end of its pace. An `Err` voids the run: it is
/// a transport failure (port exhaustion, a dead server), not a job
/// failure, and latencies measured around it would be wrong.
pub fn run_worker(
    plan: usize,
    shape: JobShape,
    pace: Pace,
    bed: &Bed,
    signals: &Signals,
    mut seeds: Rng,
) -> io::Result<WorkerLog> {
    let mut client = Client::new(bed.http);
    let mut log = WorkerLog::default();
    let mut last_ok = None;
    loop {
        let due = match &pace {
            Pace::Closed { .. } => {
                if signals.halt.load(Ordering::Relaxed) {
                    break;
                }
                None
            }
            Pace::Open { schedule, next } => {
                let Some(&due) = schedule.get(next.fetch_add(1, Ordering::Relaxed)) else {
                    break;
                };
                let due = signals.epoch + due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                Some(due)
            }
        };
        let traced = signals.tracing.load(Ordering::Relaxed);
        let sent = Instant::now();
        let start = due.unwrap_or(sent);
        let submitted = client.submit(&shape.body(seeds.next_u64()))?;
        let posted = Instant::now();
        let mut sample = Sample {
            plan,
            start_s: signals.at(start),
            lag_ms: ms(start, sent),
            submit_ms: ms(sent, posted),
            open_ms: 0.0,
            latency_ms: ms(start, posted),
            done_s: signals.at(posted),
            ok: false,
            traced,
            report: None,
        };
        let Ok(job) = submitted else {
            log.samples.push(sample); // refused: counts as failed
            continue;
        };
        let followed = client.follow(job)?;
        sample.open_ms = ms(posted, followed.opened);
        sample.latency_ms = ms(start, followed.ended);
        sample.done_s = signals.at(followed.ended);
        sample.ok = followed.end_status == "completed" && followed.task_lines == 2 * shape.tasks;
        if traced {
            let root = log.spans.len();
            let span = |name, from: Instant, to: Instant, parent| Span {
                name,
                job,
                start_s: signals.at(from),
                end_s: signals.at(to),
                parent,
            };
            log.spans.push(span("job", start, followed.ended, None));
            log.spans.push(span("submit", sent, posted, Some(root)));
            log.spans
                .push(span("follow.open", posted, followed.opened, Some(root)));
            log.spans.push(span(
                "follow.wait_end",
                followed.opened,
                followed.ended,
                Some(root),
            ));
            if job % shape.report_every == 0 {
                let asked = Instant::now();
                let (status, body) = client.request("GET", &format!("/jobs/{job}/report"), "")?;
                // Asked after the job ended, so not a child of its span.
                log.spans.push(span("report", asked, Instant::now(), None));
                let stages = json_f64_all(&body, "duration_secs");
                if let (200, Some(runtime), [s0, s1]) =
                    (status, json_f64(&body, "runtime_secs"), stages.as_slice())
                {
                    sample.report = Some(ReportTimes {
                        runtime_ms: runtime * 1e3,
                        stage_ms: [s0 * 1e3, s1 * 1e3],
                    });
                }
            }
        }
        if sample.ok {
            // Keep the newest finished job's files for the read-back check.
            if let Some(prev) = last_ok.replace(job) {
                bed.discard_job_files(prev, shape.tasks);
            }
        } else {
            bed.discard_job_files(job, shape.tasks);
        }
        log.samples.push(sample);
        if let Pace::Closed { reads: true } = pace {
            for path in ["/metrics", "/jobs"] {
                let (status, _) = client.request("GET", path, "")?;
                if status != 200 {
                    return Err(io::Error::other(format!("GET {path} answered {status}")));
                }
            }
        }
    }
    // Output check on real data: the worker's last job, sorted runs read
    // back from disk with checksums verified.
    if let Some(job) = last_ok {
        bed.verify_sorted_runs(job, shape.tasks, shape.records)
            .map_err(io::Error::other)?;
        bed.discard_job_files(job, shape.tasks);
    }
    log.wire_sample = Some((client.last_post, client.last_stream));
    Ok(log)
}
