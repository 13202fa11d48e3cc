//! The live driver: a TCP server running the paper's driver-side protocol.
//!
//! Responsibilities mirror the simulated engine's driver exactly, but over
//! real sockets and wall-clock time:
//!
//! * accept executor connections and their [`Frame::Register`] handshakes;
//! * schedule pending tasks through the *same* locality-aware
//!   [`PendingQueue`] the simulator uses, respecting per-executor free
//!   slots;
//! * apply `PoolSizeChanged` messages to the slot registry (§5.4) so
//!   scheduling always reflects each executor's current pool size;
//! * track heartbeats, declare executors lost after
//!   [`DriverConfig::heartbeat_timeout`] of silence, requeue their running
//!   tasks with the failure recorded against the lost executor, and give
//!   up with [`LiveError::MaxAttemptsExceeded`] when a task keeps dying;
//! * blacklist executors that fail too many tasks in one stage (while at
//!   least one other usable executor remains), un-blacklisting them after
//!   a probation interval;
//! * admit executor **reincarnations**: a dead or partitioned executor
//!   that re-registers (or shows evidence of life on its old connection)
//!   rejoins the fleet under a new registration epoch, with frames from
//!   its superseded incarnations fenced off by the [`EpochRegistry`];
//! * degrade gracefully: when the usable-executor count falls below
//!   [`DriverConfig::min_live_executors`], the job parks in a `Degraded`
//!   state for up to [`DriverConfig::degraded_wait`] — giving respawning
//!   executors a window to rejoin — instead of failing fast.
//!
//! All of that protocol logic lives in one state machine ([`Run`]) that
//! never touches a socket: the event loop in `driver/reactor.rs` feeds it
//! connection events ([`Ev`]) and timer callbacks, and it answers by
//! queueing frames on its per-executor [`Lanes`]. The loop, in turn, owns
//! no socket mechanics of its own — connection table, write queues,
//! backpressure and the accept loop are [`crate::shell`]'s, shared with
//! the job server: one thread, one poller (`sae-poll`), hundreds of
//! connections.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use sae_dag::sched::PendingQueue;
use sae_dag::{Message, TraceEvent};
use sae_metrics::{Counter, Gauge, Histogram, MetricRegistry, RegistrySnapshot};

use crate::epochs::{Admission, EpochRegistry};
use crate::job::LiveJob;
use crate::log::Logger;
use crate::recorder::{FlightRecorder, LiveEvent};
use crate::shell::Lanes;
use crate::wire::Frame;

mod reactor;

/// Driver tuning knobs.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Executors expected to register.
    pub executors: usize,
    /// Silence longer than this declares an executor lost.
    pub heartbeat_timeout: Duration,
    /// Event-loop wakeup period for heartbeat and deadline checks.
    pub check_interval: Duration,
    /// A task failing this many attempts aborts the job.
    pub max_task_attempts: usize,
    /// An executor failing this many tasks in one stage is blacklisted
    /// (unless it is the last usable executor).
    pub blacklist_after: usize,
    /// How long a blacklisted executor sits out before its failure count
    /// resets and it may serve again.
    pub probation: Duration,
    /// Wall-clock bound on the whole job.
    pub deadline: Duration,
    /// Wall-clock bound on a single task attempt; an overrunning attempt
    /// counts as failed and the task is requeued. `None` disables the
    /// per-task deadline.
    pub task_deadline: Option<Duration>,
    /// The graceful-degradation floor: with fewer usable executors than
    /// this (and work pending) the job parks in a `Degraded` state rather
    /// than failing fast.
    pub min_live_executors: usize,
    /// How long the job may stay `Degraded` before giving up with
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
            max_task_attempts: 4,
            blacklist_after: 3,
            probation: Duration::from_secs(2),
            deadline: Duration::from_secs(120),
            task_deadline: None,
            min_live_executors: 1,
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

/// Snapshot of one executor's slot-registry entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotInfo {
    /// Whether the executor ever registered.
    pub registered: bool,
    /// Whether the driver currently believes it alive.
    pub alive: bool,
    /// Whether it was blacklisted for repeated failures.
    pub blacklisted: bool,
    /// Total slots (the executor's last announced pool size).
    pub slots: usize,
    /// Slots not currently running a task.
    pub free: usize,
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
    /// A task failed [`DriverConfig::max_task_attempts`] times.
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
/// state machine can fence traffic from superseded incarnations through
/// the [`EpochRegistry`]. Executor ids are checked against the cluster
/// size at the handshake; every id here is in range.
enum Ev {
    /// An executor completed its Register handshake.
    Registered {
        executor: usize,
        slots: usize,
        conn: u64,
        /// Where the connection sits in the loop's connection table —
        /// what the executor's lane flushes to.
        conn_slot: usize,
    },
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

/// Driver-side view of one executor.
struct ExecState {
    registered: bool,
    alive: bool,
    blacklisted: bool,
    blacklisted_at: Option<Instant>,
    slots: usize,
    running: usize,
    failures_in_stage: usize,
    last_heartbeat: Instant,
}

impl ExecState {
    fn usable(&self) -> bool {
        self.registered && self.alive && !self.blacklisted
    }
}

/// Mutable state of the stage currently running.
struct StageState {
    done: Vec<bool>,
    assigned_to: Vec<Option<usize>>,
    assigned_at: Vec<Option<Instant>>,
    failures: Vec<usize>,
    failed_on: Vec<Vec<usize>>,
    remaining: usize,
    attempts: usize,
    failed_attempts: usize,
    started: Instant,
}

impl StageState {
    fn new(tasks: usize) -> Self {
        Self {
            done: vec![false; tasks],
            assigned_to: vec![None; tasks],
            assigned_at: vec![None; tasks],
            failures: vec![0; tasks],
            failed_on: vec![Vec::new(); tasks],
            remaining: tasks,
            attempts: 0,
            failed_attempts: 0,
            started: Instant::now(),
        }
    }
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
    pub fn run_with_observer(
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
    frames_sent: Counter,
    bytes_sent: Counter,
    frames_received: Counter,
    bytes_received: Counter,
    retries: Counter,
    executors_lost: Counter,
    reincarnations: Counter,
    frames_fenced: Counter,
    /// Event-loop wakeups (readiness batches) — wakeups-per-frame is the
    /// reactor bench's batching figure of merit.
    wakeups: Counter,
    degraded: Gauge,
    heartbeat_gap_s: Histogram,
    queue_depth: Gauge,
    tasks_started: Vec<Counter>,
    tasks_finished: Vec<Counter>,
    tasks_failed: Vec<Counter>,
    pool_size: Vec<Gauge>,
}

impl DriverMetrics {
    fn new(registry: &MetricRegistry, executors: usize) -> Self {
        let per_counter = |name: &str| -> Vec<Counter> {
            (0..executors)
                .map(|e| registry.counter(&format!("live.driver.{name}{{executor=\"{e}\"}}")))
                .collect()
        };
        Self {
            frames_sent: registry.counter("live.driver.frames_sent"),
            bytes_sent: registry.counter("live.driver.bytes_sent"),
            frames_received: registry.counter("live.driver.frames_received"),
            bytes_received: registry.counter("live.driver.bytes_received"),
            retries: registry.counter("live.driver.retries"),
            executors_lost: registry.counter("live.driver.executors_lost"),
            reincarnations: registry.counter("live.driver.reincarnations"),
            frames_fenced: registry.counter("live.driver.frames_fenced"),
            wakeups: registry.counter("live.driver.wakeups"),
            degraded: registry.gauge("live.driver.degraded"),
            heartbeat_gap_s: registry.histogram("live.driver.heartbeat_gap_s"),
            queue_depth: registry.gauge("live.driver.queue_depth"),
            tasks_started: per_counter("tasks_started"),
            tasks_finished: per_counter("tasks_finished"),
            tasks_failed: per_counter("tasks_failed"),
            pool_size: (0..executors)
                .map(|e| registry.gauge(&format!("live.driver.pool_size{{executor=\"{e}\"}}")))
                .collect(),
        }
    }
}

/// All mutable state of one job run: the protocol state machine. The
/// event loop feeds it [`Ev`]s and timer callbacks; it queues frames on
/// `out`, which the loop flushes.
struct Run<'j, Obs> {
    cfg: DriverConfig,
    job: &'j LiveJob,
    out: Lanes,
    epochs: EpochRegistry,
    execs: Vec<ExecState>,
    queue: PendingQueue,
    st: StageState,
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
        let execs = (0..cfg.executors)
            .map(|_| ExecState {
                registered: false,
                alive: false,
                blacklisted: false,
                blacklisted_at: None,
                slots: 0,
                running: 0,
                failures_in_stage: 0,
                last_heartbeat: now,
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            job,
            out: Lanes::new(cfg.executors, log.clone()),
            epochs: EpochRegistry::new(cfg.executors),
            execs,
            queue: PendingQueue::new(),
            st: StageState::new(0),
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

    /// Records the driver's view of one executor's slot-registry entry.
    fn record_slots(&self, executor: usize) {
        let ex = &self.execs[executor];
        self.recorder.push(LiveEvent::SlotRegistryChanged {
            executor,
            slots: ex.slots,
            free: ex.slots.saturating_sub(ex.running),
            at: self.recorder.now(),
        });
    }

    fn handle(&mut self, ev: Ev) -> Result<(), LiveError> {
        match ev {
            Ev::Registered {
                executor,
                slots,
                conn,
                conn_slot,
            } => {
                let reg = self.epochs.register(executor, conn);
                self.out.attach(executor, conn, conn_slot);
                if reg.reincarnation {
                    // Requeue whatever the superseded incarnation was
                    // running; its reports are fenced from here on.
                    for task in 0..self.st.done.len() {
                        if self.st.assigned_to[task] == Some(executor) && !self.st.done[task] {
                            self.st.assigned_to[task] = None;
                            self.st.assigned_at[task] = None;
                            self.record_failure(task, executor)?;
                        }
                    }
                }
                let ex = &mut self.execs[executor];
                ex.registered = true;
                ex.alive = true;
                ex.blacklisted = false;
                ex.blacklisted_at = None;
                ex.failures_in_stage = 0;
                ex.slots = slots;
                ex.running = 0;
                ex.last_heartbeat = Instant::now();
                if reg.reincarnation {
                    self.metrics.reincarnations.inc();
                    self.recorder.push(LiveEvent::ExecutorReincarnated {
                        executor,
                        epoch: reg.epoch,
                        at: self.recorder.now(),
                    });
                    self.log.info(|| {
                        format!(
                            "executor {executor} reincarnated (epoch {}) with {slots} slots",
                            reg.epoch
                        )
                    });
                } else {
                    self.log
                        .info(|| format!("executor {executor} registered with {slots} slots"));
                }
                self.record_slots(executor);
                // Late joiners still need the current stage announcement.
                self.announce_stage_to(executor);
            }
            Ev::Frame {
                executor,
                conn,
                frame,
                bytes,
            } => {
                if self.epochs.admit(executor, conn) == Admission::Stale {
                    // A zombie predecessor is still talking: fence it.
                    self.metrics.frames_fenced.inc();
                    self.recorder.push(LiveEvent::EpochFenced {
                        executor,
                        kind: frame.kind_str(),
                        at: self.recorder.now(),
                    });
                    self.log.debug(|| {
                        format!(
                            "fenced a {} frame from a stale incarnation of executor {executor}",
                            frame.kind_str()
                        )
                    });
                    return Ok(());
                }
                if !self.execs[executor].alive && !self.finished {
                    self.resurrect(executor)?;
                }
                self.metrics.frames_received.inc();
                self.metrics.bytes_received.add(bytes as u64);
                self.recorder.push(LiveEvent::FrameReceived {
                    executor,
                    kind: frame.kind_str(),
                    bytes,
                    at: self.recorder.now(),
                });
                self.handle_frame(executor, frame)?;
            }
            Ev::Gone { executor, conn } => {
                if !self.epochs.disconnect(executor, conn) {
                    return Ok(()); // a fenced predecessor's socket died
                }
                self.out.detach_if_current(executor, conn);
                // A broken/closed socket is immediate evidence of loss —
                // faster than waiting out the heartbeat timeout.
                if self.execs[executor].alive && !self.finished {
                    self.declare_lost(executor)?;
                }
            }
        }
        Ok(())
    }

    /// Frames are flowing on the current connection of an executor we
    /// declared lost: the partition healed without the socket dying. Open
    /// a new epoch, put the executor back in the fleet, and re-announce
    /// the stage — it may have changed while the executor was unreachable.
    fn resurrect(&mut self, executor: usize) -> Result<(), LiveError> {
        let epoch = self.epochs.resurrect(executor);
        let ex = &mut self.execs[executor];
        ex.alive = true;
        ex.running = 0;
        ex.last_heartbeat = Instant::now();
        self.metrics.reincarnations.inc();
        self.recorder.push(LiveEvent::ExecutorReincarnated {
            executor,
            epoch,
            at: self.recorder.now(),
        });
        self.log
            .info(|| format!("executor {executor} resurrected on live traffic (epoch {epoch})"));
        self.record_slots(executor);
        self.announce_stage_to(executor);
        Ok(())
    }

    /// Sends the current stage announcement to one executor.
    fn announce_stage_to(&mut self, executor: usize) {
        if self.finished || self.stage_idx >= self.job.stages.len() {
            return;
        }
        let spec = &self.job.stages[self.stage_idx];
        let frame = Frame::StageStart {
            stage: self.stage_idx,
            kind: spec.kind,
            tasks: spec.tasks,
            records_per_task: spec.records_per_task,
            seed: spec.seed,
            hint: self.stage_hint(),
        };
        self.send(executor, &frame);
    }

    fn handle_frame(&mut self, from: usize, frame: Frame) -> Result<(), LiveError> {
        match frame {
            Frame::Core(Message::Heartbeat { executor }) if executor == from => {
                let now = Instant::now();
                let gap = now
                    .duration_since(self.execs[from].last_heartbeat)
                    .as_secs_f64();
                self.execs[from].last_heartbeat = now;
                self.metrics.heartbeat_gap_s.record(gap);
                self.recorder.push(LiveEvent::Heartbeat {
                    executor: from,
                    gap,
                    at: self.recorder.now(),
                });
            }
            Frame::Core(Message::PoolSizeChanged { executor, size }) if executor == from => {
                // §5.4: fold the executor's new pool size into the slot
                // registry so scheduling matches its real capacity.
                self.execs[from].last_heartbeat = Instant::now();
                self.execs[from].slots = size;
                self.metrics.pool_size[from].set(size as f64);
                self.recorder
                    .push(LiveEvent::Trace(TraceEvent::PoolResized {
                        executor: from,
                        to: size,
                        at: self.recorder.now(),
                    }));
                self.record_slots(from);
                self.log
                    .debug(|| format!("executor {from} resized its pool to {size}"));
                let decision = PoolDecision {
                    at: self.started.elapsed().as_secs_f64(),
                    executor: from,
                    size,
                };
                self.decisions.push(decision);
                let registry = self.registry();
                (self.observer)(&decision, &registry);
            }
            Frame::Core(Message::TaskFailed { task, .. }) => {
                self.execs[from].last_heartbeat = Instant::now();
                self.task_failed(from, task)?;
            }
            Frame::TaskFinished { task, .. } => {
                self.execs[from].last_heartbeat = Instant::now();
                self.task_finished(from, task);
            }
            // Pure telemetry: merge the executor's task span into the live
            // timeline with its full trace key. Never touches scheduling
            // state — outcome frames remain the control path.
            Frame::TaskSpan {
                key,
                executor,
                start_bits,
                end_bits,
                ok,
            } if executor == from => {
                self.recorder.push(LiveEvent::TaskSpan {
                    job: key.job,
                    stage: key.stage,
                    task: key.task,
                    attempt: key.attempt,
                    epoch: key.epoch,
                    executor: from,
                    start: f64::from_bits(start_bits),
                    end: f64::from_bits(end_bits),
                    ok,
                });
            }
            // A ζ decision record streamed as it closed: merge it into the
            // trace now and count it, so the shutdown-time journal replay
            // (and the process-fleet reaper) skips what already streamed.
            Frame::ZetaSample {
                executor,
                threads,
                zeta_bits,
                at_bits,
            } if executor == from => {
                self.execs[from].last_heartbeat = Instant::now();
                self.recorder.note_zeta_streamed(from);
                self.recorder
                    .push(LiveEvent::Trace(TraceEvent::IntervalClosed {
                        executor: from,
                        threads,
                        zeta: f64::from_bits(zeta_bits),
                        at: f64::from_bits(at_bits),
                    }));
            }
            // A mis-addressed core message, a duplicate Register, or a
            // driver-only frame echoed back: ignore, the protocol is
            // defensive against confused peers.
            _ => {}
        }
        Ok(())
    }

    /// Seeds the queue for stage `self.stage_idx` and announces it.
    fn begin_stage(&mut self) {
        let spec = &self.job.stages[self.stage_idx];
        self.recorder
            .push(LiveEvent::Trace(TraceEvent::StageStarted {
                stage: self.stage_idx,
                at: self.recorder.now(),
            }));
        self.log.info(|| {
            format!(
                "stage {} ({}) started: {} tasks",
                self.stage_idx,
                self.job.stages[self.stage_idx].name,
                self.job.stages[self.stage_idx].tasks
            )
        });
        self.st = StageState::new(spec.tasks);
        self.queue.reset(spec.tasks, self.cfg.executors);
        for t in 0..spec.tasks {
            let preferred = self.preferred(t);
            self.queue.push(t, &preferred);
        }
        for ex in &mut self.execs {
            ex.failures_in_stage = 0;
            ex.running = 0;
        }
        let frame = Frame::StageStart {
            stage: self.stage_idx,
            kind: spec.kind,
            tasks: spec.tasks,
            records_per_task: spec.records_per_task,
            seed: spec.seed,
            hint: self.stage_hint(),
        };
        self.broadcast(&frame);
    }

    /// The per-executor task-count hint for the current stage (what the
    /// simulated engine passes to `stage_started`).
    fn stage_hint(&self) -> usize {
        let tasks = self.job.stages[self.stage_idx].tasks;
        (tasks / self.cfg.executors.max(1)).max(1)
    }

    /// A task's preferred executors: round-robin "data locality", the same
    /// placement rule the engine-scale benchmarks use for map stages.
    fn preferred(&self, task: usize) -> [usize; 1] {
        [task % self.cfg.executors.max(1)]
    }

    /// Hands queued tasks to free slots until nothing more can move.
    fn try_assign(&mut self) -> Result<(), LiveError> {
        loop {
            let mut progress = false;
            let mut broken: Vec<usize> = Vec::new();
            for e in 0..self.execs.len() {
                if !self.execs[e].usable()
                    || self.execs[e].running >= self.execs[e].slots
                    || !self.out.accepts_work(e)
                {
                    continue;
                }
                let failed_on = &self.st.failed_on;
                if let Some(task) = self.queue.pick(e, |t| failed_on[t].contains(&e)) {
                    self.st.assigned_to[task] = Some(e);
                    self.st.assigned_at[task] = Some(Instant::now());
                    self.st.attempts += 1;
                    self.execs[e].running += 1;
                    self.metrics.tasks_started[e].inc();
                    self.recorder
                        .push(LiveEvent::Trace(TraceEvent::TaskStarted {
                            task,
                            attempt: self.st.failures[task],
                            executor: e,
                            speculative: false,
                            at: self.recorder.now(),
                        }));
                    let ok = self.send(e, &Frame::Core(Message::AssignTask { task, executor: e }));
                    if !ok {
                        broken.push(e);
                    }
                    progress = true;
                }
            }
            for e in broken {
                if self.execs[e].alive {
                    self.declare_lost(e)?;
                }
            }
            if !progress {
                self.metrics.queue_depth.set(self.queue.len() as f64);
                return Ok(());
            }
        }
    }

    fn check_heartbeats(&mut self) -> Result<(), LiveError> {
        let now = Instant::now();
        for e in 0..self.execs.len() {
            let ex = &self.execs[e];
            if ex.registered
                && ex.alive
                && now.duration_since(ex.last_heartbeat) > self.cfg.heartbeat_timeout
            {
                self.declare_lost(e)?;
            }
        }
        Ok(())
    }

    /// Requeues task attempts that overran [`DriverConfig::task_deadline`],
    /// charging the overrun to the slow executor like any other failure.
    fn check_task_deadlines(&mut self) -> Result<(), LiveError> {
        let Some(deadline) = self.cfg.task_deadline else {
            return Ok(());
        };
        for task in 0..self.st.done.len() {
            if self.st.done[task] {
                continue;
            }
            let Some(e) = self.st.assigned_to[task] else {
                continue;
            };
            if !matches!(self.st.assigned_at[task], Some(at) if at.elapsed() > deadline) {
                continue;
            }
            self.log.error(|| {
                format!("task {task} overran its {deadline:?} deadline on executor {e}; requeueing")
            });
            self.st.assigned_to[task] = None;
            self.st.assigned_at[task] = None;
            self.execs[e].running = self.execs[e].running.saturating_sub(1);
            self.execs[e].failures_in_stage += 1;
            self.maybe_blacklist(e);
            self.record_failure(task, e)?;
        }
        Ok(())
    }

    /// Lets blacklisted-but-alive executors back in once their probation
    /// elapses, with a clean failure count.
    fn check_probation(&mut self) {
        for e in 0..self.execs.len() {
            let served = matches!(
                self.execs[e].blacklisted_at,
                Some(at) if at.elapsed() >= self.cfg.probation
            );
            if served && self.execs[e].alive {
                self.execs[e].blacklisted = false;
                self.execs[e].blacklisted_at = None;
                self.execs[e].failures_in_stage = 0;
                self.record_slots(e);
                self.log
                    .info(|| format!("executor {e} finished probation: un-blacklisted"));
            }
        }
    }

    /// Graceful degradation: below the usable-executor floor the job parks
    /// (bounded by [`DriverConfig::degraded_wait`]) instead of failing
    /// fast, giving reincarnating executors a window to rejoin.
    fn check_degraded(&mut self) -> Result<(), LiveError> {
        let live = self.execs.iter().filter(|e| e.usable()).count();
        let floor = self.cfg.min_live_executors.max(1);
        let below =
            self.execs.iter().any(|e| e.registered) && live < floor && self.st.remaining > 0;
        if below {
            match self.degraded_since {
                None => {
                    self.degraded_since = Some(Instant::now());
                    self.metrics.degraded.set(1.0);
                    self.recorder.push(LiveEvent::Degraded {
                        live,
                        floor,
                        at: self.recorder.now(),
                    });
                    self.log.error(|| {
                        format!(
                            "degraded: {live} usable executors < floor {floor}; \
                             parking the job for up to {:?}",
                            self.cfg.degraded_wait
                        )
                    });
                }
                Some(since) if since.elapsed() > self.cfg.degraded_wait => {
                    return Err(LiveError::NoUsableExecutors);
                }
                Some(_) => {}
            }
        } else if let Some(since) = self.degraded_since.take() {
            let waited = since.elapsed().as_secs_f64();
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

    /// The executor went silent or its socket broke: blacklist it for the
    /// job and recover every attempt it was running — the live analogue of
    /// the simulated engine's executor-lost path.
    fn declare_lost(&mut self, executor: usize) -> Result<(), LiveError> {
        self.execs[executor].alive = false;
        self.execs[executor].running = 0;
        self.lost.push(executor);
        self.metrics.executors_lost.inc();
        self.recorder
            .push(LiveEvent::Trace(TraceEvent::ExecutorFailed {
                executor,
                at: self.recorder.now(),
            }));
        self.record_slots(executor);
        self.log
            .error(|| format!("executor {executor} declared lost; requeueing its work"));
        // The connection stays attached: a partitioned socket may heal, and
        // resurrection re-announces the stage through it. A truly dead
        // connection is detached by its `Gone` event instead.
        for task in 0..self.st.done.len() {
            if self.st.assigned_to[task] == Some(executor) && !self.st.done[task] {
                self.st.assigned_to[task] = None;
                self.st.assigned_at[task] = None;
                self.record_failure(task, executor)?;
            }
        }
        // Survivors poison their current monitoring interval: the requeued
        // work about to land on them is not the workload they were probing.
        self.broadcast_except(executor, &Frame::FaultNotice { executor });
        Ok(())
    }

    /// Books one failed attempt of `task` on `executor` and requeues it.
    fn record_failure(&mut self, task: usize, executor: usize) -> Result<(), LiveError> {
        self.st.failures[task] += 1;
        self.st.failed_attempts += 1;
        self.metrics.tasks_failed[executor].inc();
        self.recorder.push(LiveEvent::Trace(TraceEvent::TaskFailed {
            task,
            attempt: self.st.failures[task] - 1,
            executor,
            at: self.recorder.now(),
        }));
        if !self.st.failed_on[task].contains(&executor) {
            self.st.failed_on[task].push(executor);
        }
        if self.st.failures[task] >= self.cfg.max_task_attempts {
            self.log
                .error(|| format!("task {task} exceeded its attempt budget"));
            return Err(LiveError::MaxAttemptsExceeded { task });
        }
        if !self.queue.contains(task) {
            let preferred = self.preferred(task);
            self.queue.push(task, &preferred);
            self.metrics.retries.inc();
        }
        Ok(())
    }

    fn task_failed(&mut self, executor: usize, task: usize) -> Result<(), LiveError> {
        if task >= self.st.done.len()
            || self.st.done[task]
            || self.st.assigned_to[task] != Some(executor)
        {
            return Ok(()); // stale or duplicate report
        }
        self.st.assigned_to[task] = None;
        self.st.assigned_at[task] = None;
        self.execs[executor].running = self.execs[executor].running.saturating_sub(1);
        self.execs[executor].failures_in_stage += 1;
        self.maybe_blacklist(executor);
        self.record_failure(task, executor)
    }

    /// Blacklists `executor` (starting its probation clock) once its
    /// per-stage failure count crosses the threshold, as long as the fleet
    /// keeps at least one other usable executor.
    fn maybe_blacklist(&mut self, executor: usize) {
        if self.execs[executor].failures_in_stage >= self.cfg.blacklist_after
            && !self.execs[executor].blacklisted
            && self.execs.iter().filter(|e| e.usable()).count() > 1
        {
            self.execs[executor].blacklisted = true;
            self.execs[executor].blacklisted_at = Some(Instant::now());
            self.recorder
                .push(LiveEvent::Trace(TraceEvent::ExecutorBlacklisted {
                    executor,
                    at: self.recorder.now(),
                }));
            self.log.error(|| {
                format!(
                    "executor {executor} blacklisted after {} failures this stage",
                    self.execs[executor].failures_in_stage
                )
            });
        }
    }

    fn task_finished(&mut self, executor: usize, task: usize) {
        if task >= self.st.done.len()
            || self.st.done[task]
            || self.st.assigned_to[task] != Some(executor)
        {
            return; // duplicate or stale completion
        }
        self.st.done[task] = true;
        self.st.assigned_to[task] = None;
        self.st.assigned_at[task] = None;
        self.st.remaining -= 1;
        self.execs[executor].running = self.execs[executor].running.saturating_sub(1);
        self.metrics.tasks_finished[executor].inc();
        self.recorder
            .push(LiveEvent::Trace(TraceEvent::TaskFinished {
                task,
                attempt: self.st.failures[task],
                executor,
                at: self.recorder.now(),
            }));
        if self.st.remaining == 0 {
            self.finish_stage();
        }
    }

    fn finish_stage(&mut self) {
        let spec = &self.job.stages[self.stage_idx];
        self.recorder
            .push(LiveEvent::Trace(TraceEvent::StageFinished {
                stage: self.stage_idx,
                at: self.recorder.now(),
            }));
        self.log.info(|| {
            format!(
                "stage {} ({}) finished: {} attempts, {} failed",
                self.stage_idx, spec.name, self.st.attempts, self.st.failed_attempts
            )
        });
        self.stage_reports.push(LiveStageReport {
            name: spec.name.clone(),
            tasks: spec.tasks,
            attempts: self.st.attempts,
            failed_attempts: self.st.failed_attempts,
            duration_secs: self.st.started.elapsed().as_secs_f64(),
        });
        self.stage_idx += 1;
        if self.stage_idx == self.job.stages.len() {
            self.finished = true;
        } else {
            self.begin_stage();
        }
    }

    /// Sends `frame` to `executor`; `false` means the write path broke.
    fn send(&mut self, executor: usize, frame: &Frame) -> bool {
        match self.out.send(executor, frame) {
            Some(bytes) => {
                self.metrics.frames_sent.inc();
                self.metrics.bytes_sent.add(bytes as u64);
                self.recorder.push(LiveEvent::FrameSent {
                    executor,
                    kind: frame.kind_str(),
                    bytes,
                    at: self.recorder.now(),
                });
                true
            }
            None => false,
        }
    }

    /// Best-effort send to every connected executor.
    fn broadcast(&mut self, frame: &Frame) {
        self.broadcast_except(usize::MAX, frame);
    }

    /// Best-effort send to every connected executor but `skip` (a lane
    /// with no connection takes nothing).
    fn broadcast_except(&mut self, skip: usize, frame: &Frame) {
        for executor in (0..self.out.len()).filter(|&e| e != skip) {
            self.send(executor, frame);
        }
    }

    fn registry(&self) -> Vec<SlotInfo> {
        self.execs
            .iter()
            .map(|e| SlotInfo {
                registered: e.registered,
                alive: e.alive,
                blacklisted: e.blacklisted,
                slots: e.slots,
                free: e.slots.saturating_sub(e.running),
            })
            .collect()
    }

    fn into_report(self) -> LiveReport {
        LiveReport {
            job: self.job.name.clone(),
            runtime_secs: self.started.elapsed().as_secs_f64(),
            registry: self.registry(),
            stages: self.stage_reports,
            decisions: self.decisions,
            lost_executors: self.lost,
            metrics: self.cfg.metrics.snapshot(),
        }
    }
}
