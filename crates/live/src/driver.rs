//! The live driver: a TCP server running the paper's driver-side protocol.
//!
//! Responsibilities mirror the simulated engine's driver exactly, but over
//! real sockets and wall-clock time:
//!
//! * schedule pending tasks through the *same* locality-aware
//!   [`PendingQueue`](sae_dag::sched::PendingQueue) the simulator uses,
//!   respecting per-executor free slots (each executor's last announced
//!   pool size, §5.4);
//! * requeue the running tasks of an executor declared lost — silent for
//!   [`DriverConfig::heartbeat_timeout`], its socket broken, or superseded
//!   by a reincarnation — with the failure recorded against it, and give
//!   up with [`LiveError::MaxAttemptsExceeded`] when a task keeps dying;
//! * blacklist executors that fail too many tasks in one stage (while at
//!   least one other usable executor remains), un-blacklisting them after
//!   a probation interval;
//! * degrade gracefully: when no usable executor is left, the job parks
//!   in a `Degraded` state for up to [`DriverConfig::degraded_wait`] —
//!   giving respawning executors a window to rejoin — instead of failing
//!   fast.
//!
//! Executor membership — the `Register` handshake, registration epochs
//! that fence stale incarnations and resurrect lost executors showing
//! live traffic, heartbeats, the `PoolSizeChanged` fold into the slot
//! registry, the `FaultNotice` broadcast on loss and the bookings each
//! executor holds — is the fleet ledger's (`fleet.rs`), and the stage's
//! attempts — queue, failures, requeues — are the task ledger's
//! (`ledger.rs`); the job server shares both. An outcome reaches the task
//! ledger only through the booking `Fleet::release` frees for it.
//! Blacklisting, probation and graceful degradation are policies only the
//! driver applies.
//!
//! Executors hear the job server's task dialect from the driver too: its
//! one job runs under the wire id `SINGLE_JOB`, each stage is announced
//! with `JobStageStart`, tasks go out as `AssignJobTask` and come back as
//! `JobTaskOutcome`. The one frame only the driver sends is `StageStart`,
//! queued right behind each stage announcement: it opens the executors'
//! per-stage MAPE-K episode (pool reset, fresh climb).
//!
//! The protocol logic lives in one state machine (`Run`) that never
//! touches a socket: the event loop in `driver/reactor.rs` feeds it
//! connection events (`Ev`) and timer callbacks, and it answers by
//! queueing frames on the fleet's per-executor lanes. The loop, in turn,
//! owns no socket mechanics of its own — connection table, write queues,
//! backpressure and the accept loop are the socket shell's (`shell.rs`),
//! shared with the job server: one thread, one poller (`sae-poll`),
//! hundreds of connections.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use sae_dag::TraceEvent;
use sae_metrics::{Counter, Gauge, MetricRegistry, RegistrySnapshot};

pub use crate::fleet::SlotInfo;
use crate::fleet::{Admit, Fleet, Joined};
use crate::job::LiveJob;
use crate::ledger::{Outcome, TaskLedger, MAX_TASK_ATTEMPTS};
use crate::log::Logger;
use crate::recorder::{FlightRecorder, LiveEvent};
use crate::task::SINGLE_JOB;
use crate::wire::Frame;

mod reactor;

/// Driver tuning knobs.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Executors expected to register.
    pub executors: usize,
    /// Silence longer than this declares an executor lost.
    pub heartbeat_timeout: Duration,
    /// Event-loop wakeup period for heartbeat and degradation checks.
    pub check_interval: Duration,
    /// An executor failing this many tasks in one stage is blacklisted
    /// (unless it is the last usable executor).
    pub blacklist_after: usize,
    /// How long a blacklisted executor sits out before its failure count
    /// resets and it may serve again.
    pub probation: Duration,
    /// Wall-clock bound on the whole job.
    pub deadline: Duration,
    /// How long the job may stay `Degraded` (no usable executor, work
    /// pending) before giving up with
    /// [`LiveError::NoUsableExecutors`].
    pub degraded_wait: Duration,
    /// On exit, how long the event loop may keep flushing queued frames
    /// (the `Shutdown` broadcast above all) before closing connections.
    pub shutdown_drain: Duration,
    /// The cluster's shared flight recorder; event timestamps use its
    /// epoch, so driver and executor events land on one timeline.
    pub recorder: FlightRecorder,
    /// The cluster's shared metric registry (task counts, retries, wire
    /// traffic, heartbeat gaps, queue depth).
    pub metrics: MetricRegistry,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            executors: 2,
            heartbeat_timeout: Duration::from_millis(800),
            check_interval: Duration::from_millis(50),
            blacklist_after: 3,
            probation: Duration::from_secs(2),
            deadline: Duration::from_secs(120),
            degraded_wait: Duration::from_secs(5),
            shutdown_drain: Duration::from_millis(500),
            recorder: FlightRecorder::disabled(),
            metrics: MetricRegistry::new(),
        }
    }
}

/// One `PoolSizeChanged` round-trip as witnessed by the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolDecision {
    /// Seconds since the job started.
    pub at: f64,
    /// Executor whose pool resized.
    pub executor: usize,
    /// The new pool size, now also the executor's slot count.
    pub size: usize,
}

/// Per-stage outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveStageReport {
    /// Stage name from the job spec.
    pub name: String,
    /// Tasks in the stage.
    pub tasks: usize,
    /// Task attempts launched (>= tasks when retries happened).
    pub attempts: usize,
    /// Attempts that failed or were lost with their executor.
    pub failed_attempts: usize,
    /// Wall-clock stage duration in seconds.
    pub duration_secs: f64,
}

/// The driver's account of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveReport {
    /// Job name.
    pub job: String,
    /// Wall-clock job runtime in seconds.
    pub runtime_secs: f64,
    /// Per-stage outcomes, in order.
    pub stages: Vec<LiveStageReport>,
    /// Every `PoolSizeChanged` round-trip, in arrival order — the live
    /// decision trace compared against the simulator by `live_vs_sim`.
    pub decisions: Vec<PoolDecision>,
    /// Final slot registry, indexed by executor id.
    pub registry: Vec<SlotInfo>,
    /// Executors declared lost, in detection order.
    pub lost_executors: Vec<usize>,
    /// Final snapshot of the cluster's shared metric registry.
    pub metrics: RegistrySnapshot,
}

/// Why a live job did not complete.
#[derive(Debug)]
pub enum LiveError {
    /// A socket or listener operation failed.
    Io(io::Error),
    /// The job exceeded [`DriverConfig::deadline`].
    DeadlineExceeded,
    /// A task exhausted its retry budget.
    MaxAttemptsExceeded {
        /// The task that kept dying.
        task: usize,
    },
    /// Every registered executor is lost or blacklisted with work pending.
    NoUsableExecutors,
    /// [`crate::LiveCluster::run`] was called twice.
    AlreadyRan,
    /// The driver's event loop panicked (caught by the cluster harness so
    /// the post-mortem artifacts still get written).
    DriverPanicked {
        /// The panic payload, rendered.
        message: String,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Io(e) => write!(f, "live runtime I/O error: {e}"),
            LiveError::DeadlineExceeded => write!(f, "live job exceeded its deadline"),
            LiveError::MaxAttemptsExceeded { task } => {
                write!(f, "task {task} exceeded its attempt budget")
            }
            LiveError::NoUsableExecutors => {
                write!(f, "no usable executors remain with tasks pending")
            }
            LiveError::AlreadyRan => write!(f, "this cluster's driver already ran a job"),
            LiveError::DriverPanicked { message } => {
                write!(f, "the driver's event loop panicked: {message}")
            }
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LiveError {
    fn from(e: io::Error) -> Self {
        LiveError::Io(e)
    }
}

/// Connection events the event loop feeds the protocol state machine.
///
/// Every event carries the connection id the accept loop minted, so the
/// fleet can fence traffic from superseded incarnations. Executor ids are
/// checked against the cluster size at the handshake; every id here is in
/// range.
enum Ev {
    /// An executor passed the fleet's Register handshake.
    Joined(Joined),
    /// A frame arrived on an executor's connection.
    Frame {
        executor: usize,
        conn: u64,
        frame: Frame,
        /// Wire size of the frame, length prefix included.
        bytes: usize,
    },
    /// An executor's connection closed or broke.
    Gone { executor: usize, conn: u64 },
}

/// A live driver bound to a loopback port, ready to run one job.
#[derive(Debug)]
pub struct Driver {
    listener: TcpListener,
    cfg: DriverConfig,
}

impl Driver {
    /// Binds an ephemeral loopback port.
    pub fn bind(cfg: DriverConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        Ok(Self { listener, cfg })
    }

    /// The address executors should connect to.
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs `job` to completion (or failure), consuming the driver.
    pub fn run(self, job: &LiveJob) -> Result<LiveReport, LiveError> {
        self.run_with_observer(job, |_, _| {})
    }

    /// Like [`Driver::run`], calling `observer` with each [`PoolDecision`]
    /// and the slot registry as updated by it — the hook the
    /// `live_cluster` example uses to print registry evolution.
    pub(crate) fn run_with_observer(
        self,
        job: &LiveJob,
        observer: impl FnMut(&PoolDecision, &[SlotInfo]),
    ) -> Result<LiveReport, LiveError> {
        reactor::run(self.listener, &self.cfg, job, observer)
    }
}

/// The driver's cached metric handles; names follow the
/// `live.driver.*{executor="N"}` label convention the Prometheus renderer
/// parses back into label sets.
struct DriverMetrics {
    frames_received: Counter,
    bytes_received: Counter,
    retries: Counter,
    /// Event-loop wakeups (readiness batches) — wakeups-per-frame is the
    /// reactor bench's batching figure of merit.
    wakeups: Counter,
    degraded: Gauge,
    queue_depth: Gauge,
    tasks_started: Vec<Counter>,
    tasks_finished: Vec<Counter>,
    tasks_failed: Vec<Counter>,
}

impl DriverMetrics {
    fn new(registry: &MetricRegistry, executors: usize) -> Self {
        let per_counter = |name: &str| -> Vec<Counter> {
            (0..executors)
                .map(|e| registry.counter(&format!("live.driver.{name}{{executor=\"{e}\"}}")))
                .collect()
        };
        Self {
            frames_received: registry.counter("live.driver.frames_received"),
            bytes_received: registry.counter("live.driver.bytes_received"),
            retries: registry.counter("live.driver.retries"),
            wakeups: registry.counter("live.driver.wakeups"),
            degraded: registry.gauge("live.driver.degraded"),
            queue_depth: registry.gauge("live.driver.queue_depth"),
            tasks_started: per_counter("tasks_started"),
            tasks_finished: per_counter("tasks_finished"),
            tasks_failed: per_counter("tasks_failed"),
        }
    }
}

/// The driver's per-frame wire telemetry for frames it queues: the
/// fleet's tap.
fn frame_sent_tap(
    registry: &MetricRegistry,
    recorder: FlightRecorder,
) -> impl FnMut(usize, &Frame, usize) {
    let frames = registry.counter("live.driver.frames_sent");
    let bytes_sent = registry.counter("live.driver.bytes_sent");
    move |executor, frame, bytes| {
        frames.inc();
        bytes_sent.add(bytes as u64);
        recorder.push(LiveEvent::FrameSent {
            executor,
            kind: frame.kind_str(),
            bytes,
            at: recorder.now(),
        });
    }
}

/// All mutable state of one job run: the protocol state machine. The
/// event loop feeds it [`Ev`]s and timer callbacks; it queues frames on
/// the fleet's lanes, which the loop flushes.
struct Run<'j, Obs> {
    cfg: DriverConfig,
    job: &'j LiveJob,
    execs: Fleet,
    /// The current stage's attempts.
    tasks: TaskLedger,
    stage_idx: usize,
    decisions: Vec<PoolDecision>,
    lost: Vec<usize>,
    degraded_since: Option<Instant>,
    stage_reports: Vec<LiveStageReport>,
    started: Instant,
    finished: bool,
    observer: Obs,
    recorder: FlightRecorder,
    metrics: DriverMetrics,
    log: Logger,
}

impl<'j, Obs: FnMut(&PoolDecision, &[SlotInfo])> Run<'j, Obs> {
    fn new(cfg: &DriverConfig, job: &'j LiveJob, observer: Obs) -> Self {
        let now = Instant::now();
        let log = Logger::new("driver", cfg.recorder.clone());
        let execs = Fleet::new(
            cfg.executors,
            cfg.heartbeat_timeout,
            "live.driver",
            &cfg.metrics,
            log.clone(),
            cfg.recorder.clone(),
        )
        .with_tap(frame_sent_tap(&cfg.metrics, cfg.recorder.clone()));
        Self {
            cfg: cfg.clone(),
            job,
            execs,
            tasks: TaskLedger::new(0, cfg.executors, now),
            stage_idx: 0,
            decisions: Vec::new(),
            lost: Vec::new(),
            degraded_since: None,
            stage_reports: Vec::new(),
            started: now,
            finished: false,
            observer,
            recorder: cfg.recorder.clone(),
            metrics: DriverMetrics::new(&cfg.metrics, cfg.executors),
            log,
        }
    }

    /// Seeds the first stage. Returns `false` when the job is empty and
    /// there is nothing to run.
    fn start(&mut self) -> bool {
        if self.job.stages.is_empty() {
            return false;
        }
        self.begin_stage();
        true
    }

    fn handle(&mut self, ev: Ev) -> Result<(), LiveError> {
        match ev {
            Ev::Joined(joined) => {
                // A superseded incarnation's reports are fenced from here
                // on: requeue whatever it was running.
                self.requeue(joined.executor, joined.orphaned)?;
                // Late joiners still need the current stage announcement.
                self.announce_stage_to(joined.executor);
            }
            // The job is over and the loop exits after this batch.
            Ev::Frame { .. } if self.finished => {}
            Ev::Frame {
                executor,
                conn,
                frame,
                bytes,
            } => {
                let now = Instant::now();
                match self.execs.admit(executor, conn, frame, now) {
                    Admit::Fenced => return Ok(()),
                    Admit::Resurrected => self.announce_stage_to(executor),
                    Admit::Current => {}
                }
                self.metrics.frames_received.inc();
                self.metrics.bytes_received.add(bytes as u64);
                self.recorder.push(LiveEvent::FrameReceived {
                    executor,
                    kind: frame.kind_str(),
                    bytes,
                    at: self.recorder.now(),
                });
                if let Some(size) = self.execs.observe(executor, frame, now) {
                    let decision = PoolDecision {
                        at: self.started.elapsed().as_secs_f64(),
                        executor,
                        size,
                    };
                    self.decisions.push(decision);
                    (self.observer)(&decision, &self.execs.registry());
                }
                // Liveness and telemetry were the fleet's. An outcome for
                // another job, a duplicate Register, or a driver-only frame
                // echoed back is ignored: the protocol is defensive against
                // confused peers.
                if let Frame::JobTaskOutcome {
                    job: SINGLE_JOB,
                    task,
                    ok,
                    ..
                } = frame
                {
                    self.settle(executor, task, ok, now)?;
                }
            }
            Ev::Gone { executor, conn } => {
                if self.execs.disconnect(executor, conn) && !self.finished {
                    self.lose(executor)?;
                }
            }
        }
        Ok(())
    }

    /// Sends the current stage announcement to one executor.
    fn announce_stage_to(&mut self, executor: usize) {
        if !self.finished && self.stage_idx < self.job.stages.len() {
            for frame in self.stage_frames() {
                self.execs.send(executor, &frame);
            }
        }
    }

    /// Opens a ledger for stage `self.stage_idx` and announces it.
    fn begin_stage(&mut self) {
        let tasks = self.job.stages[self.stage_idx].tasks;
        self.recorder
            .push(LiveEvent::Trace(TraceEvent::StageStarted {
                stage: self.stage_idx,
                at: self.recorder.now(),
            }));
        self.log.info(|| {
            format!(
                "stage {} ({}) started: {tasks} tasks",
                self.stage_idx, self.job.stages[self.stage_idx].name
            )
        });
        self.tasks = TaskLedger::new(tasks, self.cfg.executors, Instant::now());
        self.execs.new_stage();
        for frame in self.stage_frames() {
            self.execs.broadcast(&frame);
        }
    }

    /// The current stage's announcement, then the MAPE-K episode it
    /// opens. The episode's hint is the per-executor task count (what the
    /// simulated engine passes to `stage_started`).
    fn stage_frames(&self) -> [Frame; 2] {
        let (stage, tasks) = (self.stage_idx, self.job.stages[self.stage_idx].tasks);
        let hint = (tasks / self.cfg.executors.max(1)).max(1);
        [
            self.job.stage_frame(SINGLE_JOB, stage),
            Frame::StageStart { stage, hint },
        ]
    }

    /// Hands queued tasks to free slots until nothing more can move.
    fn try_assign(&mut self) -> Result<(), LiveError> {
        loop {
            let mut progress = false;
            let mut broken: Vec<usize> = Vec::new();
            for e in 0..self.execs.len() {
                if !self.execs.has_free_slot(e) {
                    continue;
                }
                if let Some(task) = self.tasks.pick(e) {
                    self.execs.book(e, SINGLE_JOB, task);
                    self.metrics.tasks_started[e].inc();
                    self.recorder
                        .push(LiveEvent::Trace(TraceEvent::TaskStarted {
                            task,
                            attempt: self.tasks.attempt(task),
                            executor: e,
                            speculative: false,
                            at: self.recorder.now(),
                        }));
                    let assign = Frame::AssignJobTask {
                        job: SINGLE_JOB,
                        task,
                    };
                    if !self.execs.send(e, &assign) {
                        broken.push(e);
                    }
                    progress = true;
                }
            }
            for e in broken {
                self.lose(e)?;
            }
            if !progress {
                self.metrics.queue_depth.set(self.tasks.queued() as f64);
                return Ok(());
            }
        }
    }

    /// The periodic sweep: heartbeat timeouts, probation and the degraded
    /// floor.
    fn tick(&mut self, now: Instant) -> Result<(), LiveError> {
        for (e, orphaned) in self.execs.sweep(now) {
            self.recover(e, orphaned)?;
        }
        self.execs.lift_probation(self.cfg.probation, now);
        self.check_degraded(now)
    }

    /// Graceful degradation: with no usable executor left the job parks
    /// (bounded by [`DriverConfig::degraded_wait`]) instead of failing
    /// fast, giving reincarnating executors a window to rejoin.
    fn check_degraded(&mut self, now: Instant) -> Result<(), LiveError> {
        /// Usable executors below which the job parks.
        const FLOOR: usize = 1;
        let live = self.execs.usable_count();
        let below = self.execs.any_registered() && live < FLOOR && self.tasks.remaining() > 0;
        if below {
            match self.degraded_since {
                None => {
                    self.degraded_since = Some(now);
                    self.metrics.degraded.set(1.0);
                    self.recorder.push(LiveEvent::Degraded {
                        live,
                        floor: FLOOR,
                        at: self.recorder.now(),
                    });
                    self.log.error(|| {
                        format!(
                            "degraded: {live} usable executors < floor {FLOOR}; \
                             parking the job for up to {:?}",
                            self.cfg.degraded_wait
                        )
                    });
                }
                Some(since) if now.duration_since(since) > self.cfg.degraded_wait => {
                    return Err(LiveError::NoUsableExecutors);
                }
                Some(_) => {}
            }
        } else if let Some(since) = self.degraded_since.take() {
            let waited = now.duration_since(since).as_secs_f64();
            self.metrics.degraded.set(0.0);
            self.recorder.push(LiveEvent::DegradedRecovered {
                waited,
                at: self.recorder.now(),
            });
            self.log
                .info(|| format!("recovered above the executor floor after {waited:.2}s degraded"));
        }
        Ok(())
    }

    /// The executor's socket broke: the fleet declares it lost, and the
    /// attempts it was running are recovered.
    fn lose(&mut self, executor: usize) -> Result<(), LiveError> {
        let orphaned = self.execs.lose(executor);
        self.recover(executor, orphaned)
    }

    /// The live analogue of the simulated engine's executor-lost path:
    /// every attempt the lost executor was running is requeued.
    fn recover(&mut self, executor: usize, orphaned: Vec<(u64, usize)>) -> Result<(), LiveError> {
        self.lost.push(executor);
        self.requeue(executor, orphaned)
    }

    /// Requeues the attempts the fleet handed back from `e`, in dispatch
    /// order, booking a failure against it for each; stops at the first
    /// that exhausts its task.
    fn requeue(&mut self, e: usize, orphaned: Vec<(u64, usize)>) -> Result<(), LiveError> {
        for (_, task) in orphaned {
            let outcome = self.tasks.settle(task, e, false, MAX_TASK_ATTEMPTS);
            self.record_failure(task, e, outcome)?;
        }
        Ok(())
    }

    /// Settles the attempt of `task` that `e` reported. A
    /// failure also counts toward blacklisting `e`.
    fn settle(&mut self, e: usize, task: usize, ok: bool, now: Instant) -> Result<(), LiveError> {
        // Only a booked attempt is settled, and only once: the fleet
        // refuses a duplicate report and one of requeued work.
        if !self.execs.release(e, SINGLE_JOB, task) {
            return Ok(());
        }
        let outcome = self.tasks.settle(task, e, ok, MAX_TASK_ATTEMPTS);
        let Outcome::Done { stage_done } = outcome else {
            self.execs.note_failure(e, self.cfg.blacklist_after, now);
            return self.record_failure(task, e, outcome);
        };
        self.metrics.tasks_finished[e].inc();
        self.recorder
            .push(LiveEvent::Trace(TraceEvent::TaskFinished {
                task,
                attempt: self.tasks.attempt(task),
                executor: e,
                at: self.recorder.now(),
            }));
        if stage_done {
            self.finish_stage();
        }
        Ok(())
    }

    /// Records a failed attempt of `task` on `e`, and gives up on the job
    /// once the task's attempt budget is spent.
    fn record_failure(&mut self, task: usize, e: usize, failed: Outcome) -> Result<(), LiveError> {
        let (Outcome::Requeued { attempt } | Outcome::Exhausted { attempt }) = failed else {
            return Ok(());
        };
        self.metrics.tasks_failed[e].inc();
        self.recorder.push(LiveEvent::Trace(TraceEvent::TaskFailed {
            task,
            attempt,
            executor: e,
            at: self.recorder.now(),
        }));
        if let Outcome::Exhausted { .. } = failed {
            self.log
                .error(|| format!("task {task} exceeded its attempt budget"));
            return Err(LiveError::MaxAttemptsExceeded { task });
        }
        self.metrics.retries.inc();
        Ok(())
    }

    fn finish_stage(&mut self) {
        let spec = &self.job.stages[self.stage_idx];
        let (attempts, failed_attempts) = (self.tasks.attempts(), self.tasks.failed_attempts());
        self.recorder
            .push(LiveEvent::Trace(TraceEvent::StageFinished {
                stage: self.stage_idx,
                at: self.recorder.now(),
            }));
        self.log.info(|| {
            format!(
                "stage {} ({}) finished: {attempts} attempts, {failed_attempts} failed",
                self.stage_idx, spec.name
            )
        });
        self.stage_reports.push(LiveStageReport {
            name: spec.name.clone(),
            tasks: spec.tasks,
            attempts,
            failed_attempts,
            duration_secs: self.tasks.started().elapsed().as_secs_f64(),
        });
        self.stage_idx += 1;
        if self.stage_idx == self.job.stages.len() {
            self.finished = true;
        } else {
            self.begin_stage();
        }
    }

    fn into_report(self) -> LiveReport {
        LiveReport {
            job: self.job.name.clone(),
            runtime_secs: self.started.elapsed().as_secs_f64(),
            registry: self.execs.registry(),
            stages: self.stage_reports,
            decisions: self.decisions,
            lost_executors: self.lost,
            metrics: self.cfg.metrics.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_loss_that_exhausts_two_tasks_stops_at_the_first_dispatched() {
        // One executor, and each round fails task 1 before task 0: both
        // retry in that order and reach their last attempt booked as
        // [1, 0], the reverse of task order.
        let cfg = DriverConfig {
            executors: 1,
            ..DriverConfig::default()
        };
        let job = crate::job::terasort(2, 1, 7);
        let mut run = Run::new(&cfg, &job, |_: &PoolDecision, _: &[SlotInfo]| {});
        assert!(run.start());
        let register = Frame::Register {
            executor: 0,
            slots: 2,
        };
        let joined = run.execs.handshake(register, 1, 0, Instant::now());
        run.handle(Ev::Joined(joined.unwrap())).unwrap();
        run.try_assign().unwrap();
        for _ in 0..MAX_TASK_ATTEMPTS - 1 {
            for task in [1, 0] {
                let frame = Frame::JobTaskOutcome {
                    job: SINGLE_JOB,
                    task,
                    executor: 0,
                    attempt: run.tasks.attempt(task),
                    ok: false,
                };
                let ev = Ev::Frame {
                    executor: 0,
                    conn: 1,
                    frame,
                    bytes: 0,
                };
                run.handle(ev).unwrap();
            }
            run.try_assign().unwrap();
        }
        assert_eq!(run.execs[0].running, [(SINGLE_JOB, 1), (SINGLE_JOB, 0)]);
        // Executor 0's socket breaks: task 1 runs out of attempts first,
        // and the requeue stops there.
        let lost = run.handle(Ev::Gone {
            executor: 0,
            conn: 1,
        });
        assert!(matches!(
            lost,
            Err(LiveError::MaxAttemptsExceeded { task: 1 })
        ));
        let failed = 2 * (MAX_TASK_ATTEMPTS - 1) + 1;
        assert_eq!(
            run.tasks.failed_attempts(),
            failed,
            "task 0 was not settled"
        );
        assert_eq!(run.tasks.attempt(0), MAX_TASK_ATTEMPTS - 1);
    }

    /// Feeds `run` a successful outcome of `task` from `executor`.
    fn report<Obs: FnMut(&PoolDecision, &[SlotInfo])>(
        run: &mut Run<'_, Obs>,
        executor: usize,
        task: usize,
    ) {
        let frame = Frame::JobTaskOutcome {
            job: SINGLE_JOB,
            task,
            executor,
            attempt: 0,
            ok: true,
        };
        let conn = executor as u64 + 1;
        let ev = Ev::Frame {
            executor,
            conn,
            frame,
            bytes: 0,
        };
        run.handle(ev).unwrap();
    }

    #[test]
    fn an_outcome_counts_once_and_only_from_the_executor_holding_its_booking() {
        let cfg = DriverConfig::default();
        let job = crate::job::terasort(2, 1, 7);
        let mut run = Run::new(&cfg, &job, |_: &PoolDecision, _: &[SlotInfo]| {});
        assert!(run.start());
        for e in 0..2 {
            let register = Frame::Register {
                executor: e,
                slots: 1,
            };
            let joined = run
                .execs
                .handshake(register, e as u64 + 1, e, Instant::now());
            run.handle(Ev::Joined(joined.unwrap())).unwrap();
        }
        run.try_assign().unwrap();
        let booked = |run: &Run<'_, _>| [0, 1].map(|e| run.execs[e].running.clone());
        let both = [vec![(SINGLE_JOB, 0)], vec![(SINGLE_JOB, 1)]];
        assert_eq!(booked(&run), both);
        // Executor 1 reports task 0, which executor 0 holds: no booking is
        // freed and no task settles.
        report(&mut run, 1, 0);
        assert_eq!(booked(&run), both);
        assert_eq!(run.tasks.remaining(), 2);
        // Executor 0's report settles it; its duplicate counts nothing more.
        report(&mut run, 0, 0);
        report(&mut run, 0, 0);
        assert_eq!(booked(&run), [vec![], vec![(SINGLE_JOB, 1)]]);
        assert_eq!(run.tasks.remaining(), 1);
        let finished = [0, 1].map(|e| run.metrics.tasks_finished[e].value());
        assert_eq!(finished, [1, 0]);
    }
}
