//! The driver: stage-at-a-time scheduling, executors, fault tolerance,
//! and the run loop.

use sae_cluster::{Cluster, ClusterBuilder, Dfs};
use sae_core::{AdaptiveController, ThreadPolicy, TunablePool};
use sae_sim::rng::DeterministicRng;
use sae_sim::{FlowId, Kernel, Occurrence, ResourceId, ResourceUsage, SimTime, TimerId};

use crate::config::EngineConfig;
use crate::executor::ExecutorState;
use crate::job::{JobSpec, StageSpec};
use crate::messages::Message;
use crate::report::{ExecutorStageReport, JobReport, StageReport};
#[cfg(any(test, feature = "reference-impl"))]
use crate::sched::ReferenceQueue;
use crate::sched::{PendingQueue, RunningMedian, Scheduler};
use crate::task::{Accounting, AttemptState, FlowTarget, TaskPlan, TaskState};
use crate::trace::{ExecutionTrace, TraceEvent};
use std::collections::BTreeSet;

/// Outstanding work assigned to an antagonist disk flow during an injected
/// node slowdown — effectively infinite; the flow only ends by cancellation.
const ANTAGONIST_WORK: f64 = 1e15;

/// Reduce partitions per cluster core for shuffle stages.
const SHUFFLE_PARTITIONS_PER_CORE: f64 = 2.5;

/// Maximum concurrent fetch sources per reduce task
/// (`spark.reducer.maxReqsInFlight` analogue). Fan-in to each serving disk
/// grows with `min(nodes, this)` — the mechanism behind the poor default
/// scaling of Figure 9.
const FETCH_PARALLELISM: usize = 8;

/// Incoming fetch requests a node's serve path absorbs without incast
/// stalls. Fan-in above this (≈ cluster reducers × fetch parallelism /
/// nodes) triggers TCP-incast-style retransmission stalls — the mechanism
/// behind the poor default scaling of Figure 9.
const INCAST_FREE_REQUESTS: usize = 64;

/// Base incast stall in seconds; the stall grows as
/// `base · ((pressure - free)/16)^1.5`.
const INCAST_STALL_BASE: f64 = 0.25;

/// Metrics sampling interval in seconds (the paper samples at 1 Hz).
const SAMPLE_INTERVAL: f64 = 1.0;

/// Maximum attempts per task (first run + retries); the job aborts with
/// [`JobError::MaxAttemptsExceeded`] when a task fails this many times.
const MAX_TASK_ATTEMPTS: usize = 4;

/// Executor-side heartbeat period in seconds.
const HEARTBEAT_INTERVAL: f64 = 2.0;

/// Silence after which the driver declares an executor lost, in seconds.
/// Comfortably exceeds the interval so occasional heartbeat loss does not
/// trigger false positives.
const HEARTBEAT_TIMEOUT: f64 = 6.0;

/// Task failures on one executor *within a single stage* after which the
/// driver blacklists it for the rest of the job (no further assignments) —
/// unless it is the last usable executor.
const BLACKLIST_AFTER: usize = 3;

/// A structured, clean job failure.
///
/// Fault-tolerant runs either complete or fail with one of these — never a
/// hang or a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// A task exhausted its retry budget.
    MaxAttemptsExceeded {
        /// The task that gave up.
        task: usize,
        /// Its stage.
        stage: usize,
        /// Failed attempts at the point of giving up.
        attempts: usize,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::MaxAttemptsExceeded {
                task,
                stage,
                attempts,
            } => write!(
                f,
                "task {task} of stage {stage} failed {attempts} times (max attempts exceeded)"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// Kernel event payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// One flow of an attempt's current phase completed.
    PhaseDone { task: usize, attempt: usize },
    /// An incast stall elapsed; the delayed phase's flows may start.
    StallOver { task: usize, attempt: usize },
    /// Fault injection: crash `plan.crashes[crash]` happens now.
    ExecutorCrash { crash: usize },
    /// The crashed executor's replacement process comes up.
    ExecutorRestart { executor: usize },
    /// An executor's heartbeat period elapsed; it emits a beacon.
    HeartbeatTick { executor: usize },
    /// The driver scans for heartbeat-timeout expiries.
    HeartbeatCheck,
    /// Fault injection: slowdown `plan.slowdowns[slowdown]` begins.
    SlowdownStart { slowdown: usize },
    /// The slowdown's duration elapsed; antagonist traffic stops.
    SlowdownEnd { slowdown: usize },
    /// A failed task's retry backoff elapsed; it may be requeued.
    RetryReady { task: usize },
    /// A background replication write completed.
    BackgroundDone { bytes: f64 },
    /// A driver↔executor RPC message arrived.
    Rpc(Message),
    /// The 1 Hz metrics sampler fired.
    Sample,
}

/// Runs jobs on a simulated cluster under a given thread policy.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
    policy: ThreadPolicy,
}

impl Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: EngineConfig, policy: ThreadPolicy) -> Self {
        config.validate();
        Self { config, policy }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's thread policy.
    pub fn policy(&self) -> &ThreadPolicy {
        &self.policy
    }

    /// Runs `job` to completion, or to a clean failure when a fault plan
    /// exhausts some task's retry budget.
    ///
    /// # Panics
    ///
    /// Panics if the job spec is invalid.
    pub fn try_run(&self, job: &JobSpec) -> Result<JobReport, JobError> {
        job.validate();
        Run::new(&self.config, &self.policy, job).execute().0
    }

    /// Runs `job` to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the job spec is invalid or the job fails under its fault
    /// plan (use [`Engine::try_run`] to handle failure).
    pub fn run(&self, job: &JobSpec) -> JobReport {
        self.try_run(job)
            .unwrap_or_else(|e| panic!("job failed: {e}"))
    }

    /// Like [`Engine::try_run`], additionally recording a structured
    /// [`ExecutionTrace`] (stage/task lifecycles, attempts, pool resizes,
    /// failures, blacklists) suitable for Chrome-trace export.
    ///
    /// # Panics
    ///
    /// Panics if the job spec is invalid.
    pub fn try_run_traced(&self, job: &JobSpec) -> Result<(JobReport, ExecutionTrace), JobError> {
        job.validate();
        let mut run = Run::new(&self.config, &self.policy, job);
        run.trace = Some(ExecutionTrace::new());
        let (result, trace) = run.execute();
        result.map(|report| (report, trace.expect("trace was enabled")))
    }

    /// Like [`Engine::run`], additionally recording an [`ExecutionTrace`].
    ///
    /// # Panics
    ///
    /// Panics if the job spec is invalid or the job fails under its fault
    /// plan (use [`Engine::try_run_traced`] to handle failure).
    pub fn run_traced(&self, job: &JobSpec) -> (JobReport, ExecutionTrace) {
        self.try_run_traced(job)
            .unwrap_or_else(|e| panic!("job failed: {e}"))
    }
}

/// Snapshot of cumulative resource usage, for exact stage-level integrals.
#[derive(Debug, Clone, Default)]
struct UsageSnapshot {
    cpu: Vec<ResourceUsage>,
    disk: Vec<ResourceUsage>,
    nic: Vec<ResourceUsage>,
    serve: Vec<ResourceUsage>,
}

struct Run<'a> {
    cfg: &'a EngineConfig,
    policy: &'a ThreadPolicy,
    job: &'a JobSpec,
    kernel: Kernel<Event>,
    cluster: Cluster,
    dfs: Dfs,
    executors: Vec<ExecutorState>,
    tasks: Vec<TaskState>,
    /// Pending (unassigned) task ids of the current stage, indexed for
    /// amortized O(1) locality-aware assignment.
    sched: Scheduler,
    /// Scratch worklist of `(executor, free slots)` rebuilt per scheduling
    /// round; shared by assignment sweeps and speculation targeting.
    free_slots: Vec<(usize, usize)>,
    /// Driver's view of each executor's capacity (updated via RPC).
    driver_capacity: Vec<usize>,
    /// Driver's count of attempts assigned-or-running per executor.
    driver_running: Vec<usize>,
    current_stage: usize,
    stage_tasks_remaining: usize,
    stage_started_at: f64,
    stage_usage_start: UsageSnapshot,
    stage_disk_read: f64,
    stage_disk_write: f64,
    stage_shuffle: f64,
    /// Per-executor thread-count traces for the current stage.
    stage_decisions: Vec<Vec<usize>>,
    /// Cluster disk throughput samples for the current stage.
    stage_series: Vec<(f64, f64)>,
    /// Attempt launches / failures / speculation counters for the stage.
    stage_attempts: usize,
    stage_failed_attempts: usize,
    stage_spec_launched: usize,
    stage_spec_wins: usize,
    /// Running median of completed-attempt durations this stage
    /// (straggler detection).
    stage_attempt_durations: RunningMedian,
    /// Tasks that may currently be speculation-eligible (exactly one live
    /// non-speculative attempt). Maintained incrementally at task launch
    /// and pruned lazily when a member turns out completed or speculated,
    /// so `maybe_speculate` walks candidates instead of every task.
    spec_candidates: BTreeSet<usize>,
    /// Scratch for iterating `spec_candidates` while mutating run state.
    spec_scratch: Vec<usize>,
    /// Scratch for `TaskPlan::fetch_sources` (reused across assignments).
    fetch_sources_buf: Vec<usize>,
    /// Scratch for `TaskPlan::build_phases_with` chunk weights.
    chunk_weights_buf: Vec<f64>,
    last_sample_usage: Vec<ResourceUsage>,
    last_sample_time: f64,
    sample_timer: Option<TimerId>,
    /// Fetch requests currently pointed at each node's serve path
    /// (including stalled ones) — drives the incast stall model.
    serve_pressure: Vec<usize>,
    /// Ground truth: whether the executor process is running.
    executor_alive: Vec<bool>,
    /// The driver's belief — lags behind reality by up to the heartbeat
    /// timeout, since loss is only ever *detected* through silence.
    driver_sees_alive: Vec<bool>,
    /// Executors the driver refuses to assign to.
    blacklisted: Vec<bool>,
    /// Blacklist events in order, for the job report.
    blacklist_order: Vec<usize>,
    /// Task failures per executor (drives blacklisting).
    executor_task_failures: Vec<usize>,
    /// Last heartbeat arrival per executor (driver side).
    last_heartbeat: Vec<f64>,
    /// Each executor's pending heartbeat-tick timer.
    heartbeat_timers: Vec<Option<TimerId>>,
    /// The driver's pending timeout-scan timer.
    heartbeat_check_timer: Option<TimerId>,
    /// Pending fault-subsystem timers (crashes, slowdowns, retries);
    /// cancelled wholesale at job end.
    fault_timers: Vec<TimerId>,
    /// Assignments that arrived at a dead-but-undetected executor, per
    /// executor; requeued when the loss is detected.
    lost_assignments: Vec<Vec<usize>>,
    /// Antagonist disk flows per active slowdown.
    slowdown_flows: Vec<Vec<(ResourceId, FlowId)>>,
    /// Tasks completed by an executor before it failed (kept so stage
    /// accounting stays exact across resets).
    lost_task_counts: Vec<usize>,
    rng: DeterministicRng,
    /// Dedicated fault stream: seeded from the plan, never from the main
    /// rng, so a fault-free run is bit-identical to a plan-free run.
    fault_rng: DeterministicRng,
    stage_reports: Vec<StageReport>,
    job_done: bool,
    job_done_at: f64,
    /// Completion time of the latest flow, for the runtime bound (leftover
    /// timer chatter after job end must not stretch the reported runtime).
    last_flow_time: f64,
    error: Option<JobError>,
    trace: Option<ExecutionTrace>,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a EngineConfig, policy: &'a ThreadPolicy, job: &'a JobSpec) -> Self {
        let mut kernel = Kernel::new();
        let cluster = ClusterBuilder::new(cfg.nodes)
            .node_spec(cfg.node_spec.clone())
            .fabric(cfg.fabric)
            .variability(cfg.variability)
            .seed(cfg.seed)
            .build(&mut kernel);
        let mut dfs = Dfs::new(cfg.block_size_mb, cfg.input_replication, cfg.seed);
        for (i, stage) in job.stages.iter().enumerate() {
            if stage.read_mb > 0.0 {
                dfs.create_file(
                    &format!("{}/stage{}/input", job.name, i),
                    stage.read_mb,
                    cfg.nodes,
                );
            }
        }
        let executors = (0..cfg.nodes)
            .map(|e| {
                let controller = match policy {
                    ThreadPolicy::Adaptive(mape) => {
                        Some(AdaptiveController::new(*mape).with_executor(e))
                    }
                    _ => None,
                };
                ExecutorState::new(cfg.default_threads(), controller)
            })
            .collect();
        let rng = DeterministicRng::seed(cfg.seed ^ 0x5AE5_AE5A);
        let fault_rng = DeterministicRng::seed(
            cfg.fault_plan
                .as_ref()
                .map(|p| p.seed ^ 0xFA17_0FFA_170F)
                .unwrap_or(0),
        );
        let slowdown_count = cfg.fault_plan.as_ref().map_or(0, |p| p.slowdowns.len());
        #[cfg(any(test, feature = "reference-impl"))]
        let sched = if cfg.reference_scheduler {
            Scheduler::Reference(ReferenceQueue::new())
        } else {
            Scheduler::Indexed(PendingQueue::new())
        };
        #[cfg(not(any(test, feature = "reference-impl")))]
        let sched = Scheduler::Indexed(PendingQueue::new());
        Self {
            cfg,
            policy,
            job,
            kernel,
            cluster,
            executors,
            tasks: Vec::new(),
            sched,
            free_slots: Vec::new(),
            driver_capacity: vec![cfg.default_threads(); cfg.nodes],
            driver_running: vec![0; cfg.nodes],
            current_stage: 0,
            stage_tasks_remaining: 0,
            stage_started_at: 0.0,
            stage_usage_start: UsageSnapshot::default(),
            stage_disk_read: 0.0,
            stage_disk_write: 0.0,
            stage_shuffle: 0.0,
            stage_decisions: vec![Vec::new(); cfg.nodes],
            stage_series: Vec::new(),
            stage_attempts: 0,
            stage_failed_attempts: 0,
            stage_spec_launched: 0,
            stage_spec_wins: 0,
            stage_attempt_durations: RunningMedian::new(),
            spec_candidates: BTreeSet::new(),
            spec_scratch: Vec::new(),
            fetch_sources_buf: Vec::new(),
            chunk_weights_buf: Vec::new(),
            last_sample_usage: Vec::new(),
            last_sample_time: 0.0,
            sample_timer: None,
            serve_pressure: vec![0; cfg.nodes],
            executor_alive: vec![true; cfg.nodes],
            driver_sees_alive: vec![true; cfg.nodes],
            blacklisted: vec![false; cfg.nodes],
            blacklist_order: Vec::new(),
            executor_task_failures: vec![0; cfg.nodes],
            last_heartbeat: vec![0.0; cfg.nodes],
            heartbeat_timers: vec![None; cfg.nodes],
            heartbeat_check_timer: None,
            fault_timers: Vec::new(),
            lost_assignments: vec![Vec::new(); cfg.nodes],
            slowdown_flows: vec![Vec::new(); slowdown_count],
            lost_task_counts: vec![0; cfg.nodes],
            rng,
            fault_rng,
            stage_reports: Vec::new(),
            job_done: false,
            job_done_at: 0.0,
            last_flow_time: 0.0,
            error: None,
            trace: None,
            dfs,
        }
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(event);
        }
    }

    fn faults_enabled(&self) -> bool {
        self.cfg.fault_plan.is_some()
    }

    fn execute(mut self) -> (Result<JobReport, JobError>, Option<ExecutionTrace>) {
        if let Some(plan) = self.cfg.fault_plan.clone() {
            for (i, crash) in plan.crashes.iter().enumerate() {
                let t = self.kernel.schedule_timer(
                    SimTime::from_seconds(crash.at),
                    Event::ExecutorCrash { crash: i },
                );
                self.fault_timers.push(t);
            }
            for (i, slow) in plan.slowdowns.iter().enumerate() {
                let t = self.kernel.schedule_timer(
                    SimTime::from_seconds(slow.at),
                    Event::SlowdownStart { slowdown: i },
                );
                self.fault_timers.push(t);
            }
            // Failure detection is heartbeat-driven: executors beacon every
            // interval and the driver scans for silences. Without a fault
            // plan none of this machinery is scheduled, so fault-free runs
            // see zero extra events.
            for e in 0..self.cfg.nodes {
                self.schedule_heartbeat_tick(e);
            }
            let t = self.kernel.schedule_after(
                SimTime::from_seconds(HEARTBEAT_INTERVAL),
                Event::HeartbeatCheck,
            );
            self.heartbeat_check_timer = Some(t);
        }
        self.start_stage(0);
        self.schedule_sample();
        while let Some(occ) = self.kernel.next() {
            match occ {
                Occurrence::FlowCompleted { payload, at, .. } => {
                    self.last_flow_time = at.seconds();
                    self.handle(payload, at.seconds());
                }
                Occurrence::TimerFired { payload, at, .. } => {
                    self.handle(payload, at.seconds());
                }
            }
            if self.job_done && self.kernel.is_idle() {
                break;
            }
        }
        if let Some(err) = self.error.take() {
            return (Err(err), self.trace);
        }
        let total_runtime = self.job_done_at.max(self.last_flow_time);
        (
            Ok(JobReport {
                job: self.job.name.clone(),
                policy: self.policy.name().to_owned(),
                nodes: self.cfg.nodes,
                total_cores: self.cfg.total_cores(),
                total_runtime,
                input_mb: self.job.total_input_mb(),
                stages: self.stage_reports,
                blacklisted_executors: self.blacklist_order,
            }),
            self.trace,
        )
    }

    fn attempt_is_live(&self, task: usize, attempt: usize) -> bool {
        self.tasks[task]
            .attempts
            .get(attempt)
            .is_some_and(|a| a.live)
    }

    fn handle(&mut self, event: Event, now: f64) {
        if self.job_done {
            // Leftover in-flight RPCs, replication completions and stray
            // timers drain inertly after completion or abort.
            return;
        }
        match event {
            Event::PhaseDone { task, attempt } => {
                if self.attempt_is_live(task, attempt) {
                    self.on_phase_flow_done(task, attempt, now);
                }
            }
            Event::StallOver { task, attempt } => {
                if self.attempt_is_live(task, attempt) {
                    self.tasks[task].attempts[attempt].stall_timer = None;
                    self.start_phase_flows(task, attempt);
                }
            }
            Event::ExecutorCrash { crash } => self.on_executor_crash(crash),
            Event::ExecutorRestart { executor } => self.on_executor_restart(executor, now),
            Event::HeartbeatTick { executor } => self.on_heartbeat_tick(executor),
            Event::HeartbeatCheck => self.on_heartbeat_check(now),
            Event::SlowdownStart { slowdown } => self.on_slowdown_start(slowdown),
            Event::SlowdownEnd { slowdown } => self.on_slowdown_end(slowdown),
            Event::RetryReady { task } => {
                self.requeue_if_needed(task);
                self.try_assign(now);
            }
            // Replication bytes are accounted at submission (they are
            // deterministic); the completion event only drains the flow.
            Event::BackgroundDone { .. } => {}
            Event::Rpc(msg) => self.on_rpc(msg, now),
            Event::Sample => {
                self.take_sample(now);
                self.maybe_speculate(now);
                if !self.job_done {
                    self.schedule_sample();
                } else {
                    self.sample_timer = None;
                }
            }
        }
    }

    fn on_rpc(&mut self, msg: Message, now: f64) {
        match msg {
            Message::AssignTask { task, executor } => self.start_task(task, executor, now),
            Message::PoolSizeChanged { executor, size } => {
                // Ignore announcements from executors the driver has
                // declared lost or blacklisted — honouring one would
                // silently reopen capacity on a node it gave up on.
                if !self.driver_sees_alive[executor] || self.blacklisted[executor] {
                    return;
                }
                self.driver_capacity[executor] = size;
                self.try_assign(now);
            }
            Message::Heartbeat { executor } => {
                self.last_heartbeat[executor] = now;
                if !self.driver_sees_alive[executor] && self.executor_alive[executor] {
                    // False-positive loss (heartbeat loss streak): the
                    // executor is still there — take it back.
                    self.register_executor(executor, now);
                }
            }
            Message::TaskFailed {
                task,
                executor,
                attempt,
            } => self.on_task_failed_rpc(task, executor, attempt, now),
        }
    }

    // ---- messaging -------------------------------------------------------

    /// Sends a driver↔executor message, applying the fault plan's extra
    /// delay. Messages are reliable (never dropped) except heartbeats,
    /// whose loss is decided at the sender.
    fn send_rpc(&mut self, msg: Message) {
        let mut delay = self.cfg.rpc_latency;
        if let Some(plan) = &self.cfg.fault_plan {
            if plan.message_delay_max > 0.0 {
                delay += self.fault_rng.uniform() * plan.message_delay_max;
            }
        }
        self.kernel
            .schedule_after(SimTime::from_seconds(delay), Event::Rpc(msg));
    }

    // ---- heartbeats and failure detection --------------------------------

    fn schedule_heartbeat_tick(&mut self, executor: usize) {
        let t = self.kernel.schedule_after(
            SimTime::from_seconds(HEARTBEAT_INTERVAL),
            Event::HeartbeatTick { executor },
        );
        self.heartbeat_timers[executor] = Some(t);
    }

    fn on_heartbeat_tick(&mut self, executor: usize) {
        self.heartbeat_timers[executor] = None;
        if !self.executor_alive[executor] {
            return;
        }
        let loss_p = self
            .cfg
            .fault_plan
            .as_ref()
            .map_or(0.0, |p| p.heartbeat_loss_probability);
        let lost = loss_p > 0.0 && self.fault_rng.uniform() < loss_p;
        if !lost {
            self.send_rpc(Message::Heartbeat { executor });
        }
        self.schedule_heartbeat_tick(executor);
    }

    fn on_heartbeat_check(&mut self, now: f64) {
        self.heartbeat_check_timer = None;
        for e in 0..self.cfg.nodes {
            if self.driver_sees_alive[e] && now - self.last_heartbeat[e] > HEARTBEAT_TIMEOUT {
                self.on_executor_lost_detected(e, now);
                if self.error.is_some() {
                    return;
                }
            }
        }
        let t = self.kernel.schedule_after(
            SimTime::from_seconds(HEARTBEAT_INTERVAL),
            Event::HeartbeatCheck,
        );
        self.heartbeat_check_timer = Some(t);
    }

    // ---- fault injection -------------------------------------------------

    /// The executor process dies. Nothing driver-side happens yet: its
    /// flows stop and its heartbeats cease, and the driver only reacts when
    /// the heartbeat timeout expires.
    fn on_executor_crash(&mut self, crash_idx: usize) {
        let crash = self
            .cfg
            .fault_plan
            .as_ref()
            .expect("crash event implies plan")
            .crashes[crash_idx];
        let e = crash.executor;
        if !self.executor_alive[e] {
            return; // overlapping crash on an already-dead executor
        }
        self.executor_alive[e] = false;
        // Silence (but do not kill) every attempt on the executor: the
        // driver still believes they run, and requeues them at detection.
        for t in 0..self.tasks.len() {
            for a in 0..self.tasks[t].attempts.len() {
                if self.tasks[t].attempts[a].live && self.tasks[t].attempts[a].executor == e {
                    self.silence_attempt(t, a);
                }
            }
        }
        if let Some(timer) = self.heartbeat_timers[e].take() {
            self.kernel.cancel_timer(timer);
        }
        let t = self.kernel.schedule_after(
            SimTime::from_seconds(crash.downtime),
            Event::ExecutorRestart { executor: e },
        );
        self.fault_timers.push(t);
    }

    /// The heartbeat timeout expired: the driver declares the executor
    /// lost, fails its attempts (requeued immediately — machine loss is
    /// not the task's fault, so no backoff), and restarts every other
    /// executor's monitoring interval so the redistribution spike does not
    /// feed phantom congestion into the hill climb.
    fn on_executor_lost_detected(&mut self, e: usize, now: f64) {
        self.record(TraceEvent::ExecutorFailed {
            executor: e,
            at: now,
        });
        self.driver_sees_alive[e] = false;
        self.driver_capacity[e] = 0;
        self.driver_running[e] = 0;
        for t in 0..self.tasks.len() {
            let lost: Vec<usize> = self.tasks[t]
                .attempts
                .iter()
                .enumerate()
                .filter(|(_, a)| a.live && a.executor == e)
                .map(|(i, _)| i)
                .collect();
            for a in lost {
                self.kill_attempt(t, a);
                self.record(TraceEvent::TaskFailed {
                    task: t,
                    attempt: a,
                    executor: e,
                    at: now,
                });
                self.stage_failed_attempts += 1;
                self.tasks[t].failures += 1;
                if !self.tasks[t].failed_on.contains(&e) {
                    self.tasks[t].failed_on.push(e);
                }
                if self.tasks[t].failures >= MAX_TASK_ATTEMPTS {
                    let err = JobError::MaxAttemptsExceeded {
                        task: t,
                        stage: self.current_stage,
                        attempts: self.tasks[t].failures,
                    };
                    self.abort(err, now);
                    return;
                }
            }
            self.requeue_if_needed(t);
        }
        // Assignments in flight to the dead process never started; they
        // are recovered here and do not count as task failures.
        for t in std::mem::take(&mut self.lost_assignments[e]) {
            self.requeue_if_needed(t);
        }
        self.lost_task_counts[e] += self.executors[e].stats.tasks_finished;
        self.executors[e].begin_stage();
        self.executors[e].pool = crate::executor::SlotPool::new(self.cfg.default_threads());
        self.disturb_controllers_except(e, now);
        self.try_assign(now);
    }

    /// The replacement process comes up `downtime` seconds after the crash
    /// and registers with the driver.
    fn on_executor_restart(&mut self, executor: usize, now: f64) {
        if self.driver_sees_alive[executor] {
            // The replacement beat the driver's own detection: settle the
            // books for the old incarnation first.
            self.on_executor_lost_detected(executor, now);
            if self.error.is_some() {
                return;
            }
        }
        self.executor_alive[executor] = true;
        self.register_executor(executor, now);
        self.schedule_heartbeat_tick(executor);
    }

    /// A (re)registering executor rejoins the scheduler's rotation and
    /// re-announces its pool size over the §5.4 protocol; the driver only
    /// assigns once the `PoolSizeChanged` message lands.
    fn register_executor(&mut self, executor: usize, now: f64) {
        self.record(TraceEvent::ExecutorRecovered { executor, at: now });
        self.driver_sees_alive[executor] = true;
        self.last_heartbeat[executor] = now;
        self.driver_running[executor] = 0;
        if self.blacklisted[executor] {
            self.driver_capacity[executor] = 0;
            return;
        }
        let spec = &self.job.stages[self.current_stage];
        let hint = (self.tasks.len() / self.cfg.nodes).max(1);
        let threads = match self.policy {
            ThreadPolicy::Adaptive(_) => {
                let controller = self.executors[executor]
                    .controller
                    .as_mut()
                    .expect("adaptive policy implies controller");
                controller.stage_started(now, Some(hint))
            }
            policy => policy.initial_threads(
                spec.info(self.current_stage),
                self.cfg.node_spec.cores,
                Some(hint),
            ),
        };
        self.executors[executor].begin_stage();
        self.executors[executor].pool.set_max_pool_size(threads);
        self.stage_decisions[executor].push(threads);
        self.send_rpc(Message::PoolSizeChanged {
            executor,
            size: threads,
        });
    }

    fn on_slowdown_start(&mut self, idx: usize) {
        let slow = self
            .cfg
            .fault_plan
            .as_ref()
            .expect("slowdown event implies plan")
            .slowdowns[idx];
        // The antagonist contends for the disk with `severity * 8` extra
        // read streams (the kernel has no mid-run capacity mutation, so
        // contention is modelled as competing flows).
        let streams = ((slow.severity * 8.0).ceil() as usize).max(1);
        let resource = self.cluster.node(slow.node).disk.resource();
        for _ in 0..streams {
            let flow = self.kernel.start_flow(
                resource,
                sae_storage::DiskClass::Read.flow_class(),
                ANTAGONIST_WORK,
                Event::BackgroundDone { bytes: 0.0 },
            );
            self.slowdown_flows[idx].push((resource, flow));
        }
        let t = self.kernel.schedule_after(
            SimTime::from_seconds(slow.duration),
            Event::SlowdownEnd { slowdown: idx },
        );
        self.fault_timers.push(t);
    }

    fn on_slowdown_end(&mut self, idx: usize) {
        for (resource, flow) in std::mem::take(&mut self.slowdown_flows[idx]) {
            let _ = self.kernel.cancel_flow(resource, flow);
        }
    }

    // ---- attempt bookkeeping ---------------------------------------------

    /// Cancels an attempt's in-flight work without marking it dead: used at
    /// crash time, when the driver must still discover the loss itself.
    fn silence_attempt(&mut self, task: usize, attempt: usize) {
        self.release_pressure(task, attempt);
        let flows = std::mem::take(&mut self.tasks[task].attempts[attempt].active_flows);
        for (resource, flow) in flows {
            let _ = self.kernel.cancel_flow(resource, flow);
        }
        if let Some(timer) = self.tasks[task].attempts[attempt].stall_timer.take() {
            self.kernel.cancel_timer(timer);
        }
    }

    fn kill_attempt(&mut self, task: usize, attempt: usize) {
        self.silence_attempt(task, attempt);
        self.tasks[task].attempts[attempt].live = false;
    }

    fn requeue_if_needed(&mut self, task_id: usize) {
        let t = &mut self.tasks[task_id];
        if t.completed || t.queued || t.has_live_attempt() {
            return;
        }
        t.queued = true;
        self.sched.push(task_id, t.preferred_nodes.as_slice());
    }

    /// Feeds the executor's controller a fresh snapshot so it restarts its
    /// current monitoring interval — the interval-poisoning rule: intervals
    /// spanning an executor loss, a task failure, or a cancelled clone do
    /// not enter the knowledge base.
    fn disturb_controller(&mut self, executor: usize, now: f64) {
        if self.executors[executor].controller.is_none() {
            return;
        }
        let stats = self.executors[executor].stats;
        let disk = self.cluster.node(executor).disk.resource();
        let disk_busy = self.kernel.usage(disk).busy_seconds
            - self.stage_usage_start.disk[executor].busy_seconds;
        let snapshot = sae_core::ProbeSnapshot {
            epoll_wait: stats.epoll_wait,
            io_bytes: stats.io_bytes,
            disk_busy,
        };
        if let Some(c) = self.executors[executor].controller.as_mut() {
            c.interval_disturbed(now, snapshot);
        }
    }

    fn disturb_controllers_except(&mut self, except: usize, now: f64) {
        for e in 0..self.cfg.nodes {
            if e != except && self.executor_alive[e] && self.driver_sees_alive[e] {
                self.disturb_controller(e, now);
            }
        }
    }

    // ---- stage lifecycle -------------------------------------------------

    fn start_stage(&mut self, stage_id: usize) {
        let spec = &self.job.stages[stage_id];
        self.current_stage = stage_id;
        self.stage_started_at = self.kernel.now().seconds();
        self.stage_disk_read = 0.0;
        self.stage_disk_write = 0.0;
        self.stage_shuffle = 0.0;
        self.stage_series.clear();
        self.stage_attempts = 0;
        self.stage_failed_attempts = 0;
        self.stage_spec_launched = 0;
        self.stage_spec_wins = 0;
        self.stage_attempt_durations.clear();
        self.stage_usage_start = self.snapshot_usage();

        let task_count = self.task_count(spec, stage_id);
        let hint = (task_count / self.cfg.nodes).max(1);
        let now = self.stage_started_at;
        self.lost_task_counts = vec![0; self.cfg.nodes];
        // Failure counts reset at stage boundaries (as in Spark's per-stage
        // blacklisting): only *repeated* failures within one stage ban an
        // executor, a lifetime tally would eventually ban every node.
        self.executor_task_failures = vec![0; self.cfg.nodes];
        for e in 0..self.cfg.nodes {
            // Stats reset unconditionally: a lost or blacklisted executor
            // must not carry last stage's counters into this stage's report.
            self.executors[e].begin_stage();
            if !self.driver_sees_alive[e] || self.blacklisted[e] {
                self.driver_capacity[e] = 0;
                self.stage_decisions[e] = Vec::new();
                continue;
            }
            let threads = match self.policy {
                ThreadPolicy::Adaptive(_) => {
                    let controller = self.executors[e]
                        .controller
                        .as_mut()
                        .expect("adaptive policy implies controller");
                    controller.stage_started(now, Some(hint))
                }
                policy => policy.initial_threads(
                    spec.info(stage_id),
                    self.cfg.node_spec.cores,
                    Some(hint),
                ),
            };
            self.executors[e].pool.set_max_pool_size(threads);
            self.driver_capacity[e] = threads;
            self.stage_decisions[e] = vec![threads];
        }

        // Create tasks with locality preferences. Replica lists are shared
        // (`Arc`) — one allocation per distinct block, not one per task.
        let blocks: Option<Vec<std::sync::Arc<Vec<usize>>>> = if spec.read_mb > 0.0 {
            let file = self
                .dfs
                .file(&format!("{}/stage{}/input", self.job.name, stage_id))
                .expect("input file created at run start");
            Some(
                file.blocks
                    .iter()
                    .map(|b| std::sync::Arc::new(b.replicas.clone()))
                    .collect(),
            )
        } else {
            None
        };
        let all_nodes = std::sync::Arc::new((0..self.cfg.nodes).collect::<Vec<usize>>());
        self.tasks.clear();
        self.sched.reset(task_count, self.cfg.nodes);
        self.spec_candidates.clear();
        for t in 0..task_count {
            let preferred = match &blocks {
                Some(blocks) => std::sync::Arc::clone(&blocks[t % blocks.len()]),
                None => std::sync::Arc::clone(&all_nodes),
            };
            self.sched.push(t, preferred.as_slice());
            self.tasks.push(TaskState::new(stage_id, preferred));
        }
        self.stage_tasks_remaining = task_count;
        self.record(TraceEvent::StageStarted {
            stage: stage_id,
            at: now,
        });
        self.try_assign(now);
    }

    fn task_count(&self, spec: &StageSpec, stage_id: usize) -> usize {
        if let Some(tasks) = spec.tasks {
            return tasks;
        }
        // Pure ingest stages get one task per block; shuffle consumers use
        // the configured reduce-partition count even when they also read
        // spilled cache data.
        if spec.read_mb > 0.0 && spec.shuffle_in_mb == 0.0 {
            let file = self
                .dfs
                .file(&format!("{}/stage{}/input", self.job.name, stage_id))
                .expect("input file created at run start");
            return file.blocks.len();
        }
        ((self.cfg.total_cores() as f64 * SHUFFLE_PARTITIONS_PER_CORE).round() as usize).max(1)
    }

    fn finish_stage(&mut self, now: f64) {
        let stage_id = self.current_stage;
        let spec = &self.job.stages[stage_id];
        let duration = (now - self.stage_started_at).max(1e-9);
        let end_usage = self.snapshot_usage();
        let nodes = self.cfg.nodes as f64;
        let cores = self.cfg.node_spec.cores as f64;

        let mut cpu_busy = 0.0;
        let mut iowait = 0.0;
        let mut disk_util = 0.0;
        for n in 0..self.cfg.nodes {
            let cpu_work = end_usage.cpu[n].work_done - self.stage_usage_start.cpu[n].work_done;
            let busy = (cpu_work / (cores * duration)).clamp(0.0, 1.0);
            let io_flow_seconds = (end_usage.disk[n].flow_seconds
                - self.stage_usage_start.disk[n].flow_seconds)
                + (end_usage.nic[n].flow_seconds - self.stage_usage_start.nic[n].flow_seconds)
                + (end_usage.serve[n].flow_seconds - self.stage_usage_start.serve[n].flow_seconds);
            let wait = (io_flow_seconds / (cores * duration))
                .min(1.0 - busy)
                .max(0.0);
            let util = ((end_usage.disk[n].busy_seconds
                - self.stage_usage_start.disk[n].busy_seconds)
                / duration)
                .clamp(0.0, 1.0);
            cpu_busy += busy;
            iowait += wait;
            disk_util += util;
        }

        // Close every controller's adaptation episode before reading its
        // journal: a stage that ran out of tasks mid-climb still gets a
        // terminal Hold record.
        for e in 0..self.cfg.nodes {
            if let Some(c) = self.executors[e].controller.as_mut() {
                c.finalize_stage(now);
            }
        }
        let executors: Vec<ExecutorStageReport> = (0..self.cfg.nodes)
            .map(|e| {
                let state = &self.executors[e];
                ExecutorStageReport {
                    executor: e,
                    final_threads: state.pool.max_pool_size(),
                    // Moved, not cloned: `start_stage` rebuilds the trace
                    // for every executor before the next stage runs.
                    decisions: std::mem::take(&mut self.stage_decisions[e]),
                    epoll_wait: state.stats.epoll_wait,
                    io_bytes: state.stats.io_bytes,
                    tasks: state.stats.tasks_finished + self.lost_task_counts[e],
                    intervals: state
                        .controller
                        .as_ref()
                        .map(|c| c.history().iter().map(|&r| r.into()).collect())
                        .unwrap_or_default(),
                    // Drain (journals accumulate across stages; each stage
                    // report keeps only its own records).
                    journal: state
                        .controller
                        .as_ref()
                        .map(|c| c.journal().take())
                        .unwrap_or_default(),
                }
            })
            .collect();
        let threads_used = executors.iter().map(|e| e.final_threads).sum();

        self.stage_reports.push(StageReport {
            stage_id,
            name: spec.name.clone(),
            kind: match spec.kind() {
                sae_core::StageKind::Io => "io",
                sae_core::StageKind::Generic => "generic",
            },
            started_at: self.stage_started_at,
            duration,
            tasks: self.tasks.len(),
            attempts: self.stage_attempts,
            failed_attempts: self.stage_failed_attempts,
            speculative_launched: self.stage_spec_launched,
            speculative_wins: self.stage_spec_wins,
            avg_cpu_busy: cpu_busy / nodes,
            avg_cpu_iowait: iowait / nodes,
            avg_disk_util: disk_util / nodes,
            disk_read_mb: self.stage_disk_read,
            disk_write_mb: self.stage_disk_write,
            shuffle_mb: self.stage_shuffle,
            executors,
            threads_used,
            // Moved, not cloned: `start_stage` clears the series buffer.
            disk_throughput_series: std::mem::take(&mut self.stage_series),
        });

        self.record(TraceEvent::StageFinished {
            stage: stage_id,
            at: now,
        });
        if stage_id + 1 < self.job.stages.len() {
            self.start_stage(stage_id + 1);
        } else {
            self.job_done = true;
            self.job_done_at = now;
            self.terminate();
        }
    }

    /// Cancels every pending engine-owned timer and antagonist flow so the
    /// kernel drains to idle after completion or abort.
    fn terminate(&mut self) {
        if let Some(timer) = self.sample_timer.take() {
            self.kernel.cancel_timer(timer);
        }
        if let Some(timer) = self.heartbeat_check_timer.take() {
            self.kernel.cancel_timer(timer);
        }
        for e in 0..self.cfg.nodes {
            if let Some(timer) = self.heartbeat_timers[e].take() {
                self.kernel.cancel_timer(timer);
            }
        }
        for timer in std::mem::take(&mut self.fault_timers) {
            self.kernel.cancel_timer(timer);
        }
        for flows in &mut self.slowdown_flows {
            for (resource, flow) in std::mem::take(flows) {
                let _ = self.kernel.cancel_flow(resource, flow);
            }
        }
    }

    /// Fails the job cleanly: records the error, kills all running
    /// attempts, and lets the kernel drain.
    fn abort(&mut self, err: JobError, now: f64) {
        self.error = Some(err);
        self.job_done = true;
        self.job_done_at = now;
        for t in 0..self.tasks.len() {
            let live: Vec<usize> = self.tasks[t].live_attempts().collect();
            for a in live {
                self.kill_attempt(t, a);
            }
        }
        self.terminate();
    }

    // ---- task lifecycle --------------------------------------------------

    /// Rebuilds the free-slot worklist: every executor the driver would
    /// assign to (live, not blacklisted, spare capacity), in executor
    /// order, with its current slack. Eligibility can only shrink while a
    /// scheduling round runs — capacity and liveness change via RPCs, never
    /// mid-round — so consumers just decrement the slack they use.
    fn rebuild_free_slots(&mut self) {
        self.free_slots.clear();
        for e in 0..self.cfg.nodes {
            if !self.driver_sees_alive[e] || self.blacklisted[e] {
                continue;
            }
            let free = self.driver_capacity[e].saturating_sub(self.driver_running[e]);
            if free > 0 {
                self.free_slots.push((e, free));
            }
        }
    }

    /// Assigns pending tasks to live executors with free capacity (driver
    /// view), preferring data-local placement and avoiding executors the
    /// task already failed on.
    ///
    /// Executors are swept round-robin, one task per executor per round
    /// (the pre-index scan's order, preserved exactly); per-executor task
    /// selection is the indexed queue's amortized-O(1) [`Scheduler::pick`].
    /// All exits go through the single check at the bottom of the round —
    /// queue drained, slots exhausted, or nothing assignable.
    fn try_assign(&mut self, _now: f64) {
        self.rebuild_free_slots();
        loop {
            let mut assigned_any = false;
            for i in 0..self.free_slots.len() {
                if self.sched.is_empty() {
                    break;
                }
                let (e, free) = self.free_slots[i];
                if free == 0 {
                    continue;
                }
                let tasks = &self.tasks;
                let task = self
                    .sched
                    .pick(
                        e,
                        |t| tasks[t].preferred_nodes.contains(&e),
                        |t| tasks[t].failed_on.contains(&e),
                    )
                    .expect("non-empty queue always yields a task");
                self.free_slots[i].1 = free - 1;
                self.tasks[task].queued = false;
                self.driver_running[e] += 1;
                self.send_rpc(Message::AssignTask { task, executor: e });
                assigned_any = true;
            }
            if self.sched.is_empty() || !assigned_any {
                return;
            }
        }
    }

    /// An `AssignTask` RPC arrived: materialise an attempt and start it.
    fn start_task(&mut self, task_id: usize, executor: usize, now: f64) {
        if self.tasks[task_id].completed {
            // A speculative clone landed after the task already finished.
            self.driver_running[executor] = self.driver_running[executor].saturating_sub(1);
            self.try_assign(now);
            return;
        }
        if !self.driver_sees_alive[executor] || self.blacklisted[executor] {
            // The driver gave up on the executor while the assignment was
            // in flight.
            self.driver_running[executor] = self.driver_running[executor].saturating_sub(1);
            self.requeue_if_needed(task_id);
            self.try_assign(now);
            return;
        }
        if !self.executor_alive[executor] {
            // The process is dead but the driver has not noticed yet; the
            // assignment evaporates and is recovered at detection time.
            self.lost_assignments[executor].push(task_id);
            return;
        }
        let stage_id = self.tasks[task_id].stage;
        let spec = &self.job.stages[stage_id];
        let task_count = self.tasks.len().max(1) as f64;
        let read_local = self.tasks[task_id].preferred_nodes.contains(&executor);
        let read_source = if read_local || spec.read_mb == 0.0 {
            executor
        } else {
            // Remote read: pull from a random replica holder.
            let replicas = &self.tasks[task_id].preferred_nodes;
            replicas[self.rng.index(replicas.len())]
        };
        // Reused scratch: one fetch-source buffer serves every assignment.
        self.fetch_sources_buf.clear();
        if spec.shuffle_in_mb > 0.0 {
            let f = FETCH_PARALLELISM.min(self.cfg.nodes);
            self.fetch_sources_buf
                .extend((0..f).map(|k| (task_id + k) % self.cfg.nodes));
        }
        let cpu_total = spec.cpu_per_mb * spec.processed_mb() + spec.base_cpu_per_task * task_count;
        let plan = TaskPlan {
            read_mb: spec.read_mb / task_count,
            read_source,
            fetch_mb: spec.shuffle_in_mb / task_count,
            fetch_sources: &self.fetch_sources_buf,
            cpu_sec: cpu_total / task_count,
            spill_mb: spec.shuffle_out_mb / task_count,
            output_mb: spec.output_mb / task_count,
            chunks: self.cfg.chunks_per_task,
            node: executor,
            seed: self.cfg.seed ^ (task_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        let speculative = self.tasks[task_id].has_live_attempt();
        let attempt_idx = self.tasks[task_id].attempts.len();
        let phases = plan.build_phases_with(&mut self.chunk_weights_buf);
        let mut attempt = AttemptState::new(executor, phases, now, speculative);
        let fail_p = self
            .cfg
            .fault_plan
            .as_ref()
            .map_or(0.0, |p| p.task_failure_probability);
        if fail_p > 0.0 && self.fault_rng.uniform() < fail_p {
            let phases = attempt.phases.len();
            attempt.fail_after_phase = Some(self.fault_rng.index(phases));
        }
        self.tasks[task_id].attempts.push(attempt);
        if !speculative && !self.tasks[task_id].speculated {
            // The task now has exactly one live, non-speculative attempt:
            // it may become a straggler. (Pruned lazily once it completes
            // or gets a clone.)
            self.spec_candidates.insert(task_id);
        }
        self.executors[executor].pool.task_started();
        self.stage_attempts += 1;
        self.record(TraceEvent::TaskStarted {
            task: task_id,
            attempt: attempt_idx,
            executor,
            speculative,
            at: now,
        });
        self.start_phase(task_id, attempt_idx, now);
    }

    fn resolve(&self, target: FlowTarget) -> (ResourceId, u8) {
        match target {
            FlowTarget::Cpu { node } => (self.cluster.node(node).cpu, 0),
            FlowTarget::Disk { node, class } => {
                (self.cluster.node(node).disk.resource(), class.flow_class())
            }
            FlowTarget::Nic { node } => (self.cluster.node(node).nic, 0),
            FlowTarget::ServePath { node } => (self.cluster.node(node).serve, 0),
        }
    }

    fn start_phase(&mut self, task_id: usize, attempt: usize, now: f64) {
        let a = &mut self.tasks[task_id].attempts[attempt];
        let phase_idx = a.current_phase;
        a.outstanding = a.phases[phase_idx].flows.len();
        a.phase_started_at = now;
        // Incast model: register fetch pressure on every serving node; if
        // any source is over the free threshold, the request stalls
        // (TCP retransmission timeouts) before any byte moves. The stall is
        // part of the phase and therefore counts into epoll wait.
        let mut max_pressure = 0usize;
        let mut registered = false;
        for flow in &a.phases[phase_idx].flows {
            if let FlowTarget::ServePath { node } = flow.target {
                self.serve_pressure[node] += 1;
                registered = true;
                max_pressure = max_pressure.max(self.serve_pressure[node]);
            }
        }
        a.pressure_registered = registered;
        if max_pressure > INCAST_FREE_REQUESTS {
            let over = (max_pressure - INCAST_FREE_REQUESTS) as f64;
            let stall = INCAST_STALL_BASE * (over / 16.0).powf(1.5);
            if stall > 0.0 {
                let timer = self.kernel.schedule_after(
                    SimTime::from_seconds(stall),
                    Event::StallOver {
                        task: task_id,
                        attempt,
                    },
                );
                a.stall_timer = Some(timer);
                return;
            }
        }
        self.start_phase_flows(task_id, attempt);
    }

    fn start_phase_flows(&mut self, task_id: usize, attempt: usize) {
        let phase_idx = self.tasks[task_id].attempts[attempt].current_phase;
        self.tasks[task_id].attempts[attempt].active_flows.clear();
        let nflows = self.tasks[task_id].attempts[attempt].phases[phase_idx]
            .flows
            .len();
        for i in 0..nflows {
            let flow = self.tasks[task_id].attempts[attempt].phases[phase_idx].flows[i];
            let (resource, class) = self.resolve(flow.target);
            let handle = self.kernel.start_flow(
                resource,
                class,
                flow.work,
                Event::PhaseDone {
                    task: task_id,
                    attempt,
                },
            );
            self.tasks[task_id].attempts[attempt]
                .active_flows
                .push((resource, handle));
        }
    }

    /// Releases the serve-path pressure the attempt's current phase holds.
    fn release_pressure(&mut self, task_id: usize, attempt: usize) {
        let a = &mut self.tasks[task_id].attempts[attempt];
        if !a.pressure_registered {
            return;
        }
        a.pressure_registered = false;
        let phase_idx = a.current_phase;
        for flow in &a.phases[phase_idx].flows {
            if let FlowTarget::ServePath { node } = flow.target {
                debug_assert!(self.serve_pressure[node] > 0);
                self.serve_pressure[node] -= 1;
            }
        }
    }

    /// One flow of an attempt's current phase completed.
    fn on_phase_flow_done(&mut self, task_id: usize, attempt: usize, now: f64) {
        self.tasks[task_id].attempts[attempt].outstanding -= 1;
        if self.tasks[task_id].attempts[attempt].outstanding > 0 {
            return;
        }
        // Whole phase complete: account it (flows are `Copy`, read in
        // place — no per-phase clone on this per-event path).
        let executor = self.tasks[task_id].attempts[attempt].executor;
        let phase_idx = self.tasks[task_id].attempts[attempt].current_phase;
        let phase_duration = now - self.tasks[task_id].attempts[attempt].phase_started_at;
        self.release_pressure(task_id, attempt);
        self.tasks[task_id].attempts[attempt].active_flows.clear();
        if self.tasks[task_id].attempts[attempt].phases[phase_idx].is_io() {
            self.executors[executor].stats.epoll_wait += phase_duration;
        }
        let nflows = self.tasks[task_id].attempts[attempt].phases[phase_idx]
            .flows
            .len();
        for i in 0..nflows {
            let flow = self.tasks[task_id].attempts[attempt].phases[phase_idx].flows[i];
            match flow.accounting {
                Accounting::Cpu => {}
                Accounting::DiskRead => {
                    self.stage_disk_read += flow.work;
                    self.executors[executor].stats.io_bytes += flow.work;
                }
                Accounting::ShuffleServe => {
                    self.stage_disk_read += flow.work;
                }
                Accounting::DiskWrite => {
                    self.stage_disk_write += flow.work;
                    self.executors[executor].stats.io_bytes += flow.work;
                }
                Accounting::OutputWrite => {
                    self.stage_disk_write += flow.work;
                    self.executors[executor].stats.io_bytes += flow.work;
                    self.start_replication(executor, flow.work);
                }
                Accounting::Net => {
                    self.stage_shuffle += flow.work;
                    self.executors[executor].stats.io_bytes += flow.work;
                }
            }
        }
        // Injected transient fault: the attempt dies after this phase.
        if self.tasks[task_id].attempts[attempt].fail_after_phase == Some(phase_idx) {
            self.fail_attempt_locally(task_id, attempt, executor, now);
            return;
        }
        // Advance the attempt.
        self.tasks[task_id].attempts[attempt].current_phase += 1;
        if self.tasks[task_id].attempts[attempt].current_phase
            < self.tasks[task_id].attempts[attempt].phases.len()
        {
            self.start_phase(task_id, attempt, now);
        } else {
            self.on_attempt_finished(task_id, attempt, executor, now);
        }
    }

    /// The executor-side half of a transient failure: free the slot,
    /// restart the poisoned monitoring interval, and report to the driver.
    fn fail_attempt_locally(&mut self, task_id: usize, attempt: usize, executor: usize, now: f64) {
        self.tasks[task_id].attempts[attempt].live = false;
        self.executors[executor].pool.task_finished();
        self.disturb_controller(executor, now);
        self.send_rpc(Message::TaskFailed {
            task: task_id,
            executor,
            attempt,
        });
    }

    /// The driver learns of a transient attempt failure: it books the
    /// failure, possibly blacklists the executor, and schedules a retry
    /// with exponential backoff (or aborts when the budget is exhausted).
    fn on_task_failed_rpc(&mut self, task_id: usize, executor: usize, attempt: usize, now: f64) {
        self.driver_running[executor] = self.driver_running[executor].saturating_sub(1);
        self.record(TraceEvent::TaskFailed {
            task: task_id,
            attempt,
            executor,
            at: now,
        });
        self.stage_failed_attempts += 1;
        self.tasks[task_id].failures += 1;
        if !self.tasks[task_id].failed_on.contains(&executor) {
            self.tasks[task_id].failed_on.push(executor);
        }
        self.executor_task_failures[executor] += 1;
        if !self.tasks[task_id].completed && self.tasks[task_id].failures >= MAX_TASK_ATTEMPTS {
            let err = JobError::MaxAttemptsExceeded {
                task: task_id,
                stage: self.tasks[task_id].stage,
                attempts: self.tasks[task_id].failures,
            };
            self.abort(err, now);
            return;
        }
        self.maybe_blacklist(executor, now);
        if !self.tasks[task_id].completed
            && !self.tasks[task_id].queued
            && !self.tasks[task_id].has_live_attempt()
        {
            let base = self.cfg.fault_tolerance.retry_backoff_base;
            if base > 0.0 {
                let backoff = base * 2f64.powi(self.tasks[task_id].failures as i32 - 1);
                let timer = self.kernel.schedule_after(
                    SimTime::from_seconds(backoff),
                    Event::RetryReady { task: task_id },
                );
                self.fault_timers.push(timer);
            } else {
                self.requeue_if_needed(task_id);
            }
        }
        self.try_assign(now);
    }

    /// Blacklists an executor after repeated task failures — never the
    /// last usable one, which would wedge the job.
    fn maybe_blacklist(&mut self, executor: usize, now: f64) {
        if self.blacklisted[executor] {
            return;
        }
        if self.executor_task_failures[executor] < BLACKLIST_AFTER {
            return;
        }
        let usable_elsewhere = (0..self.cfg.nodes)
            .filter(|&e| e != executor && !self.blacklisted[e] && self.driver_sees_alive[e])
            .count();
        if usable_elsewhere == 0 {
            return;
        }
        self.blacklisted[executor] = true;
        self.blacklist_order.push(executor);
        self.driver_capacity[executor] = 0;
        self.record(TraceEvent::ExecutorBlacklisted { executor, at: now });
    }

    /// Speculative re-execution, evaluated at each metrics tick of a run
    /// with a fault plan: once most
    /// of the stage has completed, any attempt running far beyond the
    /// median duration is cloned onto another executor; first finisher
    /// wins, the loser is cancelled.
    ///
    /// The median is maintained incrementally ([`RunningMedian`], O(1) per
    /// query), stragglers come from the candidate index instead of a scan
    /// over every task, and clone targets come from the same free-slot
    /// worklist the assignment sweep uses.
    fn maybe_speculate(&mut self, now: f64) {
        if !self.faults_enabled() || self.job_done || self.tasks.is_empty() {
            return;
        }
        let total = self.tasks.len();
        let done = total - self.stage_tasks_remaining;
        if (done as f64) < self.cfg.fault_tolerance.speculation_quantile * total as f64 {
            return;
        }
        let Some(median) = self.stage_attempt_durations.median() else {
            return;
        };
        let threshold = self.cfg.fault_tolerance.speculation_multiplier * median;
        self.rebuild_free_slots();
        // Candidates in ascending task id — the order the old full scan
        // visited stragglers in.
        let mut candidates = std::mem::take(&mut self.spec_scratch);
        candidates.clear();
        candidates.extend(self.spec_candidates.iter().copied());
        for t in candidates.drain(..) {
            let current = {
                let task = &self.tasks[t];
                if task.completed || task.speculated {
                    // Permanently ineligible: drop from the index.
                    self.spec_candidates.remove(&t);
                    continue;
                }
                if task.queued {
                    continue;
                }
                let mut live = task.live_attempts();
                let (Some(a), None) = (live.next(), live.next()) else {
                    continue;
                };
                drop(live);
                if now - task.attempts[a].started_at <= threshold {
                    continue;
                }
                task.attempts[a].executor
            };
            // Clone onto the executor with the most free capacity (lowest
            // index on ties): first strict maximum over the ascending
            // worklist, skipping the straggler's own executor.
            let mut best: Option<usize> = None;
            let mut best_free = 0usize;
            for (i, &(e, free)) in self.free_slots.iter().enumerate() {
                if e != current && free > best_free {
                    best = Some(i);
                    best_free = free;
                }
            }
            let Some(slot) = best else { continue };
            let target = self.free_slots[slot].0;
            self.free_slots[slot].1 -= 1;
            self.spec_candidates.remove(&t);
            self.tasks[t].speculated = true;
            self.stage_spec_launched += 1;
            self.driver_running[target] += 1;
            self.send_rpc(Message::AssignTask {
                task: t,
                executor: target,
            });
        }
        self.spec_scratch = candidates;
    }

    /// Fire-and-forget replica writes on other nodes' disks.
    fn start_replication(&mut self, writer: usize, bytes: f64) {
        let extra = self.cfg.output_replication.min(self.cfg.nodes) - 1;
        for k in 1..=extra {
            let node = (writer + k) % self.cfg.nodes;
            let resource = self.cluster.node(node).disk.resource();
            self.stage_disk_write += bytes;
            self.kernel.start_flow(
                resource,
                sae_storage::DiskClass::Write.flow_class(),
                bytes,
                Event::BackgroundDone { bytes },
            );
        }
    }

    fn on_attempt_finished(&mut self, task_id: usize, attempt: usize, executor: usize, now: f64) {
        self.tasks[task_id].attempts[attempt].live = false;
        self.executors[executor].pool.task_finished();
        self.driver_running[executor] = self.driver_running[executor].saturating_sub(1);
        if self.tasks[task_id].completed {
            return;
        }
        self.tasks[task_id].completed = true;
        // Cancel the losing twin(s), if any; their slots free immediately.
        let losers: Vec<usize> = self.tasks[task_id].live_attempts().collect();
        for l in losers {
            let loser_exec = self.tasks[task_id].attempts[l].executor;
            self.kill_attempt(task_id, l);
            if self.executor_alive[loser_exec] {
                self.executors[loser_exec].pool.task_finished();
                self.disturb_controller(loser_exec, now);
            }
            self.driver_running[loser_exec] = self.driver_running[loser_exec].saturating_sub(1);
        }
        self.record(TraceEvent::TaskFinished {
            task: task_id,
            attempt,
            executor,
            at: now,
        });
        if self.tasks[task_id].attempts[attempt].speculative {
            self.record(TraceEvent::SpeculativeWon {
                task: task_id,
                attempt,
                executor,
                at: now,
            });
            self.stage_spec_wins += 1;
        }
        self.executors[executor].stats.tasks_finished += 1;
        self.stage_tasks_remaining -= 1;
        self.stage_attempt_durations
            .push(now - self.tasks[task_id].attempts[attempt].started_at);

        // MAPE-K: consult the controller with cumulative stage counters
        // (including the disk-busy seconds behind the alternative
        // disk-utilisation signal).
        let stats = self.executors[executor].stats;
        let disk = self.cluster.node(executor).disk.resource();
        let disk_busy = self.kernel.usage(disk).busy_seconds
            - self.stage_usage_start.disk[executor].busy_seconds;
        let snapshot = sae_core::ProbeSnapshot {
            epoll_wait: stats.epoll_wait,
            io_bytes: stats.io_bytes,
            disk_busy,
        };
        let (decision, closed_interval) = match self.executors[executor].controller.as_mut() {
            Some(c) => {
                let before = c.history().len();
                let decision = c.task_finished_probe(now, snapshot);
                let closed = (c.history().len() > before)
                    .then(|| c.history().last().copied())
                    .flatten();
                (decision, closed)
            }
            None => (None, None),
        };
        if let Some(interval) = closed_interval {
            // The ζ_j counter-track sample behind the (possible) resize.
            self.record(TraceEvent::IntervalClosed {
                executor,
                threads: interval.threads,
                zeta: interval.zeta,
                at: now,
            });
        }
        if let Some(new_size) = decision {
            // Execute locally, then notify the driver over RPC (§5.4).
            self.record(TraceEvent::PoolResized {
                executor,
                to: new_size,
                at: now,
            });
            self.executors[executor].pool.set_max_pool_size(new_size);
            self.stage_decisions[executor].push(new_size);
            self.send_rpc(Message::PoolSizeChanged {
                executor,
                size: new_size,
            });
        }

        if self.stage_tasks_remaining == 0 {
            self.finish_stage(now);
        } else {
            self.try_assign(now);
        }
    }

    // ---- metrics ---------------------------------------------------------

    fn snapshot_usage(&mut self) -> UsageSnapshot {
        let mut snap = UsageSnapshot::default();
        for n in 0..self.cfg.nodes {
            let node = self.cluster.node(n).clone();
            snap.cpu.push(self.kernel.usage(node.cpu));
            snap.disk.push(self.kernel.usage(node.disk.resource()));
            snap.nic.push(self.kernel.usage(node.nic));
            snap.serve.push(self.kernel.usage(node.serve));
        }
        snap
    }

    fn schedule_sample(&mut self) {
        let timer = self
            .kernel
            .schedule_after(SimTime::from_seconds(SAMPLE_INTERVAL), Event::Sample);
        self.sample_timer = Some(timer);
    }

    fn take_sample(&mut self, now: f64) {
        let dt = now - self.last_sample_time;
        if dt <= 0.0 {
            return;
        }
        let disks: Vec<ResourceUsage> = (0..self.cfg.nodes)
            .map(|n| {
                let r = self.cluster.node(n).disk.resource();
                self.kernel.usage(r)
            })
            .collect();
        if !self.last_sample_usage.is_empty() {
            let total: f64 = disks
                .iter()
                .zip(&self.last_sample_usage)
                .map(|(cur, prev)| (cur.work_done - prev.work_done) / dt)
                .sum();
            self.stage_series.push((now - self.stage_started_at, total));
        }
        self.last_sample_usage = disks;
        self.last_sample_time = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultPlan;
    use crate::job::StageSpec;
    use sae_core::MapeConfig;

    fn small_config() -> EngineConfig {
        let mut cfg = EngineConfig::four_node_hdd();
        cfg.nodes = 2;
        cfg.block_size_mb = 64;
        cfg
    }

    fn simple_job() -> JobSpec {
        JobSpec::builder("test")
            .stage(StageSpec::read("ingest", 512.0).cpu_per_mb(0.002))
            .stage(
                StageSpec::read("map", 512.0)
                    .cpu_per_mb(0.002)
                    .shuffle_out(256.0),
            )
            .stage(
                StageSpec::shuffle("reduce", 256.0)
                    .cpu_per_mb(0.002)
                    .write_output(256.0),
            )
            .build()
    }

    #[test]
    fn job_runs_to_completion() {
        let report = Engine::new(small_config(), ThreadPolicy::Default).run(&simple_job());
        assert_eq!(report.stages.len(), 3);
        assert!(report.total_runtime > 0.0);
        for stage in &report.stages {
            assert!(stage.duration > 0.0);
            assert_eq!(
                stage.executors.iter().map(|e| e.tasks).sum::<usize>(),
                stage.tasks
            );
        }
    }

    #[test]
    fn io_accounting_matches_spec_volumes() {
        let report = Engine::new(small_config(), ThreadPolicy::Default).run(&simple_job());
        // Stage 0: 512 MB read, no writes.
        assert!((report.stages[0].disk_read_mb - 512.0).abs() < 1.0);
        assert!(report.stages[0].disk_write_mb < 1.0);
        // Stage 1: 512 MB read + 256 MB spill.
        assert!((report.stages[1].disk_read_mb - 512.0).abs() < 1.0);
        assert!((report.stages[1].disk_write_mb - 256.0).abs() < 1.0);
        // Stage 2: 256 MB serve reads + 256 MB output write; 256 shuffled.
        assert!((report.stages[2].disk_read_mb - 256.0).abs() < 1.0);
        assert!((report.stages[2].disk_write_mb - 256.0).abs() < 1.0);
        assert!((report.stages[2].shuffle_mb - 256.0).abs() < 1.0);
    }

    #[test]
    fn default_policy_uses_all_cores_every_stage() {
        let report = Engine::new(small_config(), ThreadPolicy::Default).run(&simple_job());
        for stage in &report.stages {
            assert_eq!(stage.threads_used, 2 * 32);
        }
    }

    #[test]
    fn static_policy_shrinks_io_stages_only() {
        let policy = ThreadPolicy::Static(sae_core::StaticPolicy::new(8));
        let report = Engine::new(small_config(), policy).run(&simple_job());
        // Stages 0, 1 read (I/O); stage 2 writes (I/O): all marked io here.
        assert_eq!(report.stages[0].threads_used, 2 * 8);
        assert_eq!(report.stages[2].threads_used, 2 * 8);
    }

    #[test]
    fn adaptive_policy_adapts_and_reports_intervals() {
        let cfg = small_config();
        // Large enough that each executor sees well over c_min*3 tasks.
        let job = JobSpec::builder("big-read")
            .stage(StageSpec::read("ingest", 8192.0).cpu_per_mb(0.002))
            .build();
        let policy = ThreadPolicy::Adaptive(MapeConfig::new(2, 32));
        let report = Engine::new(cfg, policy).run(&job);
        let stage0 = &report.stages[0];
        let any_intervals = stage0.executors.iter().any(|e| !e.intervals.is_empty());
        assert!(any_intervals, "adaptive run must record intervals");
        for e in &stage0.executors {
            assert!(e.final_threads >= 2 && e.final_threads <= 32);
            assert!(!e.decisions.is_empty());
            assert_eq!(e.decisions[0], 2, "adaptation starts at c_min");
        }
    }

    #[test]
    fn deterministic_runs() {
        let r1 = Engine::new(small_config(), ThreadPolicy::Default).run(&simple_job());
        let r2 = Engine::new(small_config(), ThreadPolicy::Default).run(&simple_job());
        assert_eq!(r1.total_runtime.to_bits(), r2.total_runtime.to_bits());
        assert_eq!(r1.stages.len(), r2.stages.len());
        for (a, b) in r1.stages.iter().zip(&r2.stages) {
            assert_eq!(a.duration.to_bits(), b.duration.to_bits());
        }
    }

    #[test]
    fn utilisation_fractions_are_sane() {
        let report = Engine::new(small_config(), ThreadPolicy::Default).run(&simple_job());
        for stage in &report.stages {
            assert!((0.0..=1.0).contains(&stage.avg_cpu_busy));
            assert!((0.0..=1.0).contains(&stage.avg_cpu_iowait));
            assert!((0.0..=1.0).contains(&stage.avg_disk_util));
            assert!(stage.avg_cpu_busy + stage.avg_cpu_iowait <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn traced_run_records_full_lifecycle() {
        let report_and_trace =
            Engine::new(small_config(), ThreadPolicy::Default).run_traced(&simple_job());
        let (report, trace) = report_and_trace;
        assert!(!trace.is_empty());
        // One start and one finish per stage.
        let stage_starts = trace
            .events()
            .iter()
            .filter(|e| matches!(e, crate::TraceEvent::StageStarted { .. }))
            .count();
        assert_eq!(stage_starts, report.stages.len());
        // Every task appears exactly once per executor count.
        let total_tasks: usize = report.stages.iter().map(|s| s.tasks).sum();
        let started: usize = trace.tasks_started_per_executor(report.nodes).iter().sum();
        assert_eq!(started, total_tasks);
        // The export is parseable-ish JSON.
        let json = trace.to_chrome_trace();
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn traced_adaptive_run_records_resizes() {
        let job = JobSpec::builder("big-read")
            .stage(StageSpec::read("ingest", 8192.0).cpu_per_mb(0.002))
            .build();
        let policy = ThreadPolicy::Adaptive(MapeConfig::new(2, 32));
        let (_, trace) = Engine::new(small_config(), policy).run_traced(&job);
        let resizes: usize = (0..2).map(|e| trace.resizes_for(e).len()).sum();
        assert!(resizes >= 2, "adaptive run must record pool resizes");
    }

    #[test]
    fn output_replication_multiplies_writes() {
        let mut cfg = small_config();
        cfg.output_replication = 2;
        let job = JobSpec::builder("rep")
            .stage(StageSpec::read("r", 128.0).write_output(128.0))
            .build();
        let report = Engine::new(cfg, ThreadPolicy::Default).run(&job);
        // 128 local + 128 replica.
        assert!((report.stages[0].disk_write_mb - 256.0).abs() < 1.0);
    }

    #[test]
    fn read_tasks_run_data_local_under_full_replication() {
        // Replication = nodes: every block is local everywhere, so no
        // network traffic appears in a pure read stage.
        let job = JobSpec::builder("local")
            .stage(StageSpec::read("ingest", 1024.0))
            .build();
        let report = Engine::new(small_config(), ThreadPolicy::Default).run(&job);
        assert_eq!(report.stages[0].shuffle_mb, 0.0, "reads must be local");
    }

    #[test]
    fn partial_replication_causes_some_remote_reads() {
        let mut cfg = EngineConfig::four_node_hdd();
        cfg.block_size_mb = 64;
        cfg.input_replication = 1; // primaries only
        let job = JobSpec::builder("remote")
            .stage(StageSpec::read("ingest", 4096.0))
            .build();
        let report = Engine::new(cfg, ThreadPolicy::Default).run(&job);
        // The scheduler prefers local tasks, but the tail forces a few
        // remote reads, visible as network bytes.
        assert!(report.stages[0].shuffle_mb >= 0.0);
        // Read accounting still exact.
        assert!((report.stages[0].disk_read_mb - 4096.0).abs() < 1.0);
    }

    #[test]
    fn rpc_latency_delays_but_preserves_work() {
        let job = simple_job();
        let fast = Engine::new(small_config(), ThreadPolicy::Default).run(&job);
        let mut slow_cfg = small_config();
        slow_cfg.rpc_latency = 0.25; // pathological quarter-second RPCs
        let slow = Engine::new(slow_cfg, ThreadPolicy::Default).run(&job);
        assert!(slow.total_runtime > fast.total_runtime);
        for (a, b) in fast.stages.iter().zip(&slow.stages) {
            assert_eq!(a.tasks, b.tasks);
            assert!((a.disk_read_mb - b.disk_read_mb).abs() < 1e-6);
        }
    }

    #[test]
    fn stage_threads_label_matches_scheduler_view() {
        // The "x/128" labels of Figure 8 must reflect what the scheduler
        // ends the stage believing — the §5.4 protocol guarantee.
        let policy = ThreadPolicy::Static(sae_core::StaticPolicy::new(8));
        let report = Engine::new(small_config(), policy).run(&simple_job());
        for stage in &report.stages {
            let from_executors: usize = stage.executors.iter().map(|e| e.final_threads).sum();
            assert_eq!(stage.threads_used, from_executors);
        }
    }

    #[test]
    fn fewer_threads_help_io_heavy_stage_on_hdd() {
        // The core premise: on an HDD, a pure-read stage is faster with 8
        // threads than with 32.
        let job = JobSpec::builder("readonly")
            .stage(StageSpec::read("ingest", 4096.0).cpu_per_mb(0.001))
            .build();
        let cfg = small_config();
        let t32 = Engine::new(cfg.clone(), ThreadPolicy::Default)
            .run(&job)
            .total_runtime;
        let t8 = Engine::new(cfg, ThreadPolicy::Static(sae_core::StaticPolicy::new(8)))
            .run(&job)
            .total_runtime;
        assert!(
            t8 < t32,
            "8 threads should beat 32 on an I/O-bound HDD stage: {t8} vs {t32}"
        );
    }

    // ---- fault tolerance -------------------------------------------------

    #[test]
    fn try_run_matches_run_when_fault_free() {
        let engine = Engine::new(small_config(), ThreadPolicy::Default);
        let a = engine.try_run(&simple_job()).expect("fault-free run");
        let b = engine.run(&simple_job());
        assert_eq!(a.total_runtime.to_bits(), b.total_runtime.to_bits());
    }

    #[test]
    fn fault_plan_field_does_not_perturb_fault_free_stream() {
        // An engine carrying an *empty* fault plan pays for heartbeats but
        // must still complete with the exact task/byte accounting.
        let mut cfg = small_config();
        cfg.fault_plan = Some(FaultPlan::new(3));
        let report = Engine::new(cfg, ThreadPolicy::Default).run(&simple_job());
        let baseline = Engine::new(small_config(), ThreadPolicy::Default).run(&simple_job());
        assert_eq!(report.stages.len(), baseline.stages.len());
        for (a, b) in report.stages.iter().zip(&baseline.stages) {
            assert_eq!(a.tasks, b.tasks);
            assert!((a.disk_read_mb - b.disk_read_mb).abs() < 1e-6);
            assert!((a.disk_write_mb - b.disk_write_mb).abs() < 1e-6);
        }
    }

    #[test]
    fn transient_failures_retry_and_complete() {
        let mut cfg = small_config();
        cfg.fault_plan = Some(FaultPlan::new(11).with_task_failures(0.2));
        let (report, trace) = Engine::new(cfg, ThreadPolicy::Default)
            .try_run_traced(&simple_job())
            .expect("retries must absorb a 20% transient rate");
        assert!(report.total_failed_attempts() > 0, "faults must fire");
        assert!(report.total_attempts() > report.stages.iter().map(|s| s.tasks).sum::<usize>());
        assert!(!trace.retried_tasks().is_empty());
        assert_eq!(trace.failed_attempts(), report.total_failed_attempts());
        // Every stage still accounts every task exactly once.
        for stage in &report.stages {
            assert_eq!(
                stage.executors.iter().map(|e| e.tasks).sum::<usize>(),
                stage.tasks
            );
        }
    }

    #[test]
    fn seeded_fault_runs_are_bit_identical() {
        let mut cfg = small_config();
        cfg.fault_plan = Some(
            FaultPlan::new(5)
                .with_task_failures(0.1)
                .with_message_delay(0.002)
                .with_heartbeat_loss(0.05),
        );
        let engine = Engine::new(cfg, ThreadPolicy::Default);
        let r1 = engine.try_run(&simple_job()).expect("completes");
        let r2 = engine.try_run(&simple_job()).expect("completes");
        assert_eq!(r1.total_runtime.to_bits(), r2.total_runtime.to_bits());
        assert_eq!(r1.total_attempts(), r2.total_attempts());
        assert_eq!(r1.total_failed_attempts(), r2.total_failed_attempts());
        for (a, b) in r1.stages.iter().zip(&r2.stages) {
            assert_eq!(a.duration.to_bits(), b.duration.to_bits());
            assert_eq!(a.disk_read_mb.to_bits(), b.disk_read_mb.to_bits());
        }
    }

    #[test]
    fn certain_failure_rate_aborts_cleanly() {
        let mut cfg = small_config();
        cfg.fault_plan = Some(FaultPlan::new(1).with_task_failures(0.97));
        cfg.fault_tolerance.retry_backoff_base = 0.05;
        let err = Engine::new(cfg, ThreadPolicy::Default)
            .try_run(&simple_job())
            .expect_err("a 97% failure rate must exhaust the retry budget");
        let JobError::MaxAttemptsExceeded { attempts, .. } = err;
        assert_eq!(attempts, 4);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn crash_is_detected_by_heartbeat_silence() {
        let mut cfg = small_config();
        cfg.fault_plan = Some(FaultPlan::new(2).with_crash(1, 3.0, 9.0));
        let (report, trace) = Engine::new(cfg.clone(), ThreadPolicy::Default)
            .try_run_traced(&simple_job())
            .expect("job survives one crash");
        let failed_at = trace
            .events()
            .iter()
            .find_map(|e| match *e {
                TraceEvent::ExecutorFailed { executor: 1, at } => Some(at),
                _ => None,
            })
            .expect("loss must be detected");
        // Detection is driven by heartbeat silence, never by an omniscient
        // failure signal: it fires strictly after the crash, once the gap
        // since the last pre-crash heartbeat exceeds the timeout.
        assert!(failed_at > 3.0, "detected at {failed_at}");
        let earliest = 3.0 + HEARTBEAT_TIMEOUT - HEARTBEAT_INTERVAL;
        assert!(
            failed_at >= earliest,
            "detected at {failed_at}, before silence could exceed the timeout"
        );
        let recovered = trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::ExecutorRecovered { executor: 1, .. }));
        assert!(recovered, "replacement must re-register");
        // Lost attempts show up as failures and reruns.
        assert!(report.total_failed_attempts() > 0);
        assert!(!trace.retried_tasks().is_empty());
        for stage in &report.stages {
            assert_eq!(
                stage.executors.iter().map(|e| e.tasks).sum::<usize>(),
                stage.tasks
            );
        }
    }

    /// A plan whose only fault is a full-severity slowdown of node 0.
    fn slowdown_plan(seed: u64, at: f64, duration: f64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        plan.slowdowns.push(crate::config::NodeSlowdown {
            node: 0,
            at,
            duration,
            severity: 1.0,
        });
        plan
    }

    #[test]
    fn slowdown_stretches_the_stage() {
        let job = JobSpec::builder("readonly")
            .stage(StageSpec::read("ingest", 2048.0).cpu_per_mb(0.001))
            .build();
        let baseline = Engine::new(small_config(), ThreadPolicy::Default)
            .run(&job)
            .total_runtime;
        let mut cfg = small_config();
        cfg.fault_plan = Some(slowdown_plan(4, 5.0, 60.0));
        let slowed = Engine::new(cfg, ThreadPolicy::Default)
            .try_run(&job)
            .expect("slowdown is not fatal")
            .total_runtime;
        assert!(
            slowed > baseline * 1.02,
            "antagonist traffic must cost runtime: {slowed} vs {baseline}"
        );
    }

    #[test]
    fn speculation_reruns_stragglers_under_slowdown() {
        let job = JobSpec::builder("readonly")
            .stage(StageSpec::read("ingest", 2048.0).cpu_per_mb(0.001))
            .build();
        let mut cfg = small_config();
        // A long severe slowdown turns node 0's tasks into stragglers.
        cfg.fault_plan = Some(slowdown_plan(6, 2.0, 500.0));
        cfg.fault_tolerance.speculation_multiplier = 1.2;
        cfg.fault_tolerance.speculation_quantile = 0.5;
        let (report, trace) = Engine::new(cfg, ThreadPolicy::Default)
            .try_run_traced(&job)
            .expect("speculation keeps the job alive");
        let launched: usize = report.stages.iter().map(|s| s.speculative_launched).sum();
        assert!(launched > 0, "stragglers must be speculated");
        let wins: usize = report.stages.iter().map(|s| s.speculative_wins).sum();
        let traced = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::SpeculativeWon { .. }))
            .count();
        assert_eq!(wins, traced);
    }

    // ---- indexed scheduler ----------------------------------------------

    #[test]
    fn assignment_exits_uniformly_when_queue_drains_mid_sweep() {
        // One task, two executors with plenty of slots: the queue drains at
        // the first executor of the very first sweep, so the rest of the
        // sweep (and every later `try_assign`) must flow through the same
        // exit path — no hang, no double assignment, and the lone task
        // lands on executor 0 (sweep order).
        let job = JobSpec::builder("tiny")
            .stage(StageSpec::compute("one").with_tasks(1))
            .build();
        let (report, trace) = Engine::new(small_config(), ThreadPolicy::Default).run_traced(&job);
        assert_eq!(report.stages[0].tasks, 1);
        assert_eq!(report.stages[0].attempts, 1);
        let per_exec = trace.tasks_started_per_executor(report.nodes);
        assert_eq!(per_exec, vec![1, 0], "sweep starts at executor 0");
    }

    #[test]
    fn indexed_scheduler_matches_reference_fault_free() {
        let indexed = Engine::new(small_config(), ThreadPolicy::Default).run(&simple_job());
        let mut cfg = small_config();
        cfg.reference_scheduler = true;
        let reference = Engine::new(cfg, ThreadPolicy::Default).run(&simple_job());
        // `{:?}` of f64 is the shortest round-trip representation, so equal
        // debug strings mean bit-equal reports.
        assert_eq!(format!("{indexed:?}"), format!("{reference:?}"));
    }

    #[test]
    fn indexed_scheduler_matches_reference_under_faults_and_speculation() {
        let mut cfg = small_config();
        cfg.fault_plan = Some(
            FaultPlan::new(5)
                .with_task_failures(0.1)
                .with_crash(1, 3.0, 9.0)
                .with_message_delay(0.002)
                .with_heartbeat_loss(0.05),
        );
        cfg.fault_tolerance.speculation_multiplier = 1.2;
        cfg.fault_tolerance.speculation_quantile = 0.5;
        let (indexed, indexed_trace) = Engine::new(cfg.clone(), ThreadPolicy::Default)
            .try_run_traced(&simple_job())
            .expect("survives the plan");
        let mut ref_cfg = cfg;
        ref_cfg.reference_scheduler = true;
        let (reference, reference_trace) = Engine::new(ref_cfg, ThreadPolicy::Default)
            .try_run_traced(&simple_job())
            .expect("survives the plan");
        assert_eq!(format!("{indexed:?}"), format!("{reference:?}"));
        // Traces pin the full assignment/failure/speculation sequence, not
        // just the aggregate report.
        assert_eq!(format!("{indexed_trace:?}"), format!("{reference_trace:?}"));
    }

    #[test]
    fn job_error_display_is_structured() {
        let err = JobError::MaxAttemptsExceeded {
            task: 7,
            stage: 1,
            attempts: 4,
        };
        let msg = err.to_string();
        assert!(msg.contains("task 7"));
        assert!(msg.contains("stage 1"));
        assert!(msg.contains('4'));
    }
}
