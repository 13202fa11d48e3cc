//! `sae-server`: a multi-tenant job server over the live runtime.
//!
//! The single-job [`Driver`](crate::Driver) runs one [`LiveJob`] and
//! exits; this module is the long-running server beside it: clients
//! submit jobs over a hand-rolled HTTP/1.1 control API
//! ([`sae_net::http`]), a shared executor fleet serves every job's tasks
//! concurrently, and a stride scheduler ([`sched::FairShare`]) splits the
//! fleet's slots across tenants by weight. Executor membership — the
//! `Register` handshake, epoch fencing and resurrection, heartbeats, the
//! §5.4 slot fold and the loss broadcast — is the fleet ledger the driver
//! uses too (`fleet.rs`), and each job books its current stage's attempts
//! in the driver's task ledger (`ledger.rs`); the driver's blacklist,
//! probation, task deadlines and degraded floor are not applied here.
//!
//! One reactor thread owns every socket — the executor wire listener, the
//! HTTP listener, and all accepted connections — on a
//! [`sae_poll::Poller`] event loop over the same socket shell
//! (`shell.rs`: connection table, write queues, accept loop) as the
//! single-job driver. Per wakeup it drains readiness, decodes frames /
//! HTTP requests, runs due timers, and dispatches tasks to free slots.
//!
//! # Control API
//!
//! | Route                  | Meaning                                    |
//! |------------------------|--------------------------------------------|
//! | `POST /jobs`           | submit a job spec (JSON), `201` + id       |
//! | `GET /jobs`            | list all jobs with status                  |
//! | `GET /jobs/:id`        | one job's live status                      |
//! | `DELETE /jobs/:id`     | cancel (`409` once terminal)               |
//! | `GET /jobs/:id/report` | per-stage report (attempts, durations)     |
//! | `GET /jobs/:id/journal`| the job's deterministic lifecycle journal  |
//! | `GET /jobs/:id/trace`  | the server's Chrome-trace timeline         |
//! | `GET /jobs/:id/events` | SSE stream of the job's journal (resumable)|
//! | `GET /events`          | cluster-wide SSE stream (journal, ζ, spans)|
//! | `GET /metrics`         | Prometheus text, per-tenant labels         |
//! | `GET /healthz`         | liveness + draining flag                   |
//!
//! # Streaming telemetry
//!
//! The two `/events` routes answer with `Transfer-Encoding: chunked`
//! server-sent events ([`sae_net::sse`]). A cluster stream subscribes to
//! the shared [`FlightRecorder`] fan-out and forwards journal records,
//! job lifecycle transitions, task spans, ζ samples, and periodic metric
//! deltas as JSON SSE frames. A per-job stream follows that job's journal
//! line by line — the line number is the SSE event id, so a client that
//! reconnects with `Last-Event-ID` resumes exactly where it left off.
//! Stream output rides the same reactor write buffers as everything else
//! and stops being refilled past `HIGH_WATER` (64 KiB), so a stalled consumer
//! loses events (counted per subscriber) but can never stall the serve
//! loop or change a journal byte.
//!
//! # Admission control
//!
//! At most [`ServerConfig::max_active`] jobs run concurrently; beyond
//! that, submissions queue FIFO up to [`ServerConfig::max_queued`] deep.
//! A full queue answers `429 Too Many Requests`; a draining server (after
//! SIGINT/SIGTERM or a programmatic stop) answers `503 Service
//! Unavailable`. Draining stops admission, cancels queued jobs, gives
//! running jobs up to [`ServerConfig::shutdown_drain`] to finish, then
//! broadcasts `Shutdown` to the fleet and returns a [`ServerReport`].
//!
//! # Fairness and accounting
//!
//! Every task dispatch charges the owning job `STRIDE1 / weight` pass
//! points; free slots go to the runnable job with the lowest pass. Slot
//! accounting is exact: each `AssignJobTask` is booked in an in-flight
//! table keyed `(job, task)` and freed only by the matching
//! `JobTaskOutcome` (executors report outcomes even for attempts whose
//! job was cancelled before they started) or by the executor being
//! declared lost. Frames from superseded executor incarnations are fenced
//! by the fleet ledger, as in the single-job driver.
//!
//! Each job keeps a **journal**: JSONL lifecycle lines with no wall-clock
//! times, no executor placement and no server-assigned ids, so two
//! fault-free runs of the same submission schedule produce byte-identical
//! journals — the determinism the `jobserver` bench asserts.
//!
//! Jobs are never forgotten, so what the server keeps per job lives in a
//! slot table (`jobs.rs`) built so that no submit, dispatch, outcome or
//! tick walks the jobs already finished: a terminal job's slot is
//! stripped in place to the few hundred bytes its reads still need.

mod jobs;
pub mod json;
pub mod sched;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sae_dag::TraceEvent;
use sae_metrics::{
    render_prometheus, Counter, Gauge, MetricRegistry, RegistrySnapshot, EXPOSITION_CONTENT_TYPE,
};
use sae_net::http::{self, Limits, Method, Request, RequestParser, Response};
use sae_net::sse::{SseFrame, StreamEncoder};
use sae_poll::{Event, Poller, TimerWheel};

use crate::fleet::{Admit, Fleet};
use crate::job::{LiveJob, LiveStageKind, LiveStageSpec};
use crate::ledger::{Outcome, TaskLedger, MAX_TASK_ATTEMPTS};
use crate::log::Logger;
use crate::recorder::{FlightRecorder, LiveEvent, Subscription};
use crate::shell::{self, Conns, Flush, Listener, OutQueue, HIGH_WATER, READ_CHUNK};
use crate::wire::{Frame, FrameCursor};

use jobs::{JobState, JobTable};
use json::Value;
use sched::FairShare;

/// Poller token of the executor wire listener.
const WIRE_LISTENER: u64 = 0;
/// Poller token of the HTTP control listener.
const HTTP_LISTENER: u64 = 1;
/// Connections use `slot + CONN_BASE` as their token.
const CONN_BASE: u64 = 2;
/// Timer-wheel payload of the periodic sweep.
const TIMER_TICK: u64 = 0;
/// Streaming connections coalesce writes: buffered SSE frames are pushed
/// to the socket on the periodic tick, or as soon as this many bytes are
/// queued — one wakeup per batch for every subscriber instead of one per
/// event, which is what keeps 8 idle dashboards off the data plane's
/// critical path.
const STREAM_FLUSH: usize = 8 * 1024;
/// Bound on flushing queued frames (the `Shutdown` broadcast above all)
/// after the serve loop exits.
const FINAL_FLUSH: Duration = Duration::from_millis(500);
/// Recorder fan-out queue depth behind one cluster `/events` stream.
const EVENT_SUB_CAPACITY: usize = 1024;

/// Job-server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor ids the fleet may register with (`0..executors`).
    pub executors: usize,
    /// Jobs allowed to run concurrently; beyond this submissions queue.
    pub max_active: usize,
    /// Queued (admitted, not yet started) jobs beyond `max_active`;
    /// past this depth submissions are rejected with `429`.
    pub max_queued: usize,
    /// Executor silence longer than this declares it lost.
    pub heartbeat_timeout: Duration,
    /// Period of the heartbeat/drain sweep timer.
    pub check_interval: Duration,
    /// On shutdown, how long running jobs may drain before the server
    /// cancels them and exits.
    pub shutdown_drain: Duration,
    /// HTTP parser limits (head and body size caps).
    pub limits: Limits,
    /// Shared flight recorder (served verbatim by `GET /jobs/:id/trace`).
    pub recorder: FlightRecorder,
    /// Shared metric registry (served by `GET /metrics`).
    pub metrics: MetricRegistry,
    /// Programmatic stop: setting this true drains the server exactly
    /// like SIGINT/SIGTERM — the path tests use.
    pub stop: Arc<AtomicBool>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            executors: 2,
            max_active: 8,
            max_queued: 16,
            heartbeat_timeout: Duration::from_millis(800),
            check_interval: Duration::from_millis(50),
            shutdown_drain: Duration::from_secs(2),
            limits: Limits::default(),
            recorder: FlightRecorder::disabled(),
            metrics: MetricRegistry::new(),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for an active slot.
    Queued,
    /// Stages in progress.
    Running,
    /// Every stage finished.
    Completed,
    /// A task exceeded its attempt budget.
    Failed,
    /// Cancelled by `DELETE /jobs/:id` or server drain.
    Cancelled,
}

impl JobStatus {
    /// The status as its API string.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    fn terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

/// One finished job as the final [`ServerReport`] records it.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// Server-assigned job id.
    pub id: u64,
    /// Job name from the spec.
    pub name: String,
    /// Submitting tenant.
    pub tenant: String,
    /// Fair-share weight.
    pub weight: u64,
    /// Final status.
    pub status: JobStatus,
    /// Stages that ran to completion.
    pub stages_completed: usize,
    /// Task attempts dispatched on the job's behalf.
    pub attempts: usize,
    /// Attempts that failed or were lost with their executor.
    pub failed_attempts: usize,
    /// Wall-clock from job start to terminal state (0 if never started).
    pub runtime_secs: f64,
    /// The job's deterministic lifecycle journal (JSONL).
    pub journal: String,
}

/// What [`JobServer::serve`] returns once the server drains.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Every job the server ever admitted, by id.
    pub jobs: Vec<JobSummary>,
    /// Final snapshot of the shared metric registry.
    pub metrics: RegistrySnapshot,
}

/// What an accepted connection is.
enum ConnKind {
    /// An executor speaking the length-prefixed frame protocol.
    Wire {
        cursor: FrameCursor,
        executor: Option<usize>,
    },
    /// An HTTP control client.
    Http {
        parser: RequestParser,
        out: OutQueue,
        /// Close once `out` drains (parse error or `Connection: close`).
        close: bool,
        /// A live `/events` SSE stream, once one is established. The
        /// connection stops serving further requests.
        stream: Option<StreamState>,
    },
}

/// State of one live SSE stream on an HTTP connection.
struct StreamState {
    /// Cluster-wide streams pull from a recorder fan-out subscription.
    sub: Option<Subscription>,
    /// `Some(job)` for a per-job `GET /jobs/:id/events` stream, which
    /// follows the job's journal instead of the recorder.
    job: Option<u64>,
    /// First journal line to emit — 0, or `Last-Event-ID + 1` on resume.
    start_line: u64,
    /// Journal lines already examined (skipped or streamed); the line
    /// number of the next unexamined line, and the SSE id it gets.
    line_no: u64,
    /// Byte offset into the journal matching `line_no`, so following an
    /// append-only journal costs only the new bytes per pump.
    next_byte: usize,
    /// Last status label a per-job stream announced.
    last_status: Option<&'static str>,
    /// The terminal chunk is queued; close once it flushes.
    done: bool,
}

/// Cached metric handles; names follow the `server.*{tenant="x"}` label
/// convention [`render_prometheus`] parses back into label sets.
struct ServerMetrics {
    registry: MetricRegistry,
    http_requests: Counter,
    jobs_rejected: Counter,
    tasks_dispatched: Counter,
    outcomes: Counter,
    wakeups: Counter,
    jobs_running: Gauge,
    jobs_queued: Gauge,
    recorder_ring_dropped: Counter,
    recorder_sub_dropped: Counter,
    per_tenant: HashMap<String, TenantMetrics>,
}

struct TenantMetrics {
    submitted: Counter,
    completed: Counter,
    cancelled: Counter,
    failed: Counter,
    tasks: Counter,
}

impl ServerMetrics {
    fn new(registry: &MetricRegistry) -> Self {
        Self {
            registry: registry.clone(),
            http_requests: registry.counter("server.http_requests"),
            jobs_rejected: registry.counter("server.jobs_rejected"),
            tasks_dispatched: registry.counter("server.tasks_dispatched"),
            outcomes: registry.counter("server.task_outcomes"),
            wakeups: registry.counter("server.wakeups"),
            jobs_running: registry.gauge("server.jobs_running"),
            jobs_queued: registry.gauge("server.jobs_queued"),
            recorder_ring_dropped: registry.counter("live.recorder.dropped_total{kind=\"ring\"}"),
            recorder_sub_dropped: registry
                .counter("live.recorder.dropped_total{kind=\"subscriber\"}"),
            per_tenant: HashMap::new(),
        }
    }

    /// Per-tenant handles, created on first use. Tenant names are
    /// validated at submission to a label-safe charset.
    fn tenant(&mut self, tenant: &str) -> &TenantMetrics {
        if !self.per_tenant.contains_key(tenant) {
            let counter = |what: &str| {
                self.registry
                    .counter(&format!("server.{what}{{tenant=\"{tenant}\"}}"))
            };
            let handles = TenantMetrics {
                submitted: counter("jobs_submitted"),
                completed: counter("jobs_completed"),
                cancelled: counter("jobs_cancelled"),
                failed: counter("jobs_failed"),
                tasks: counter("tasks_completed"),
            };
            self.per_tenant.insert(tenant.to_string(), handles);
        }
        &self.per_tenant[tenant]
    }
}

/// A bound job server, ready to [`serve`](JobServer::serve).
#[derive(Debug)]
pub struct JobServer {
    wire: TcpListener,
    http: TcpListener,
    cfg: ServerConfig,
}

impl JobServer {
    /// Binds ephemeral loopback ports for the wire and HTTP listeners.
    pub fn bind(cfg: ServerConfig) -> io::Result<Self> {
        Self::bind_to(cfg, "127.0.0.1:0", "127.0.0.1:0")
    }

    /// Binds the given wire and HTTP addresses (the `sae-server` binary's
    /// fixed-port path; port 0 picks an ephemeral port).
    pub fn bind_to(
        cfg: ServerConfig,
        wire: impl std::net::ToSocketAddrs,
        http: impl std::net::ToSocketAddrs,
    ) -> io::Result<Self> {
        Ok(Self {
            wire: TcpListener::bind(wire)?,
            http: TcpListener::bind(http)?,
            cfg,
        })
    }

    /// The address executors connect to.
    pub fn wire_addr(&self) -> io::Result<SocketAddr> {
        self.wire.local_addr()
    }

    /// The address control clients connect to.
    pub fn http_addr(&self) -> io::Result<SocketAddr> {
        self.http.local_addr()
    }

    /// Runs the serve loop until SIGINT/SIGTERM or the configured stop
    /// flag, then drains and reports.
    pub fn serve(self) -> io::Result<ServerReport> {
        ServerLoop::new(self.wire, self.http, self.cfg)?.run()
    }
}

struct ServerLoop {
    poller: Poller,
    wire: Listener,
    http: Listener,
    conns: Conns<ConnKind>,
    events: Vec<Event>,
    wheel: TimerWheel,
    read_buf: Vec<u8>,
    cfg: ServerConfig,
    execs: Fleet,
    /// Encode buffer for HTTP responses.
    scratch: Vec<u8>,
    fair: FairShare,
    jobs: JobTable,
    waiting: VecDeque<u64>,
    /// `(job, task) -> executor` for every assignment whose outcome has
    /// not arrived: the cross-job slot ledger, and the only place slot
    /// accounting is decremented. Unlike a job's task ledger it outlives
    /// the job's retirement, so late outcomes still free their slots.
    inflight: HashMap<(u64, usize), usize>,
    draining: Option<Instant>,
    metrics: ServerMetrics,
    /// Last metric values streamed to cluster `/events` subscribers;
    /// ticks send only what changed.
    last_metrics: BTreeMap<String, f64>,
    /// Recorder ring drops already mirrored into the registry.
    published_ring_drops: u64,
    /// Recorder subscriber drops already mirrored into the registry.
    published_sub_drops: u64,
    log: Logger,
}

impl ServerLoop {
    fn new(wire: TcpListener, http: TcpListener, cfg: ServerConfig) -> io::Result<Self> {
        let poller = Poller::new()?;
        let wire = Listener::new(wire, WIRE_LISTENER, &poller)?;
        let http = Listener::new(http, HTTP_LISTENER, &poller)?;
        let log = Logger::new("server", cfg.recorder.clone());
        let execs = Fleet::new(
            cfg.executors,
            cfg.heartbeat_timeout,
            "server",
            &cfg.metrics,
            log.clone(),
            cfg.recorder.clone(),
        );
        Ok(Self {
            poller,
            wire,
            http,
            conns: Conns::new(CONN_BASE, log.clone()),
            events: Vec::new(),
            wheel: TimerWheel::new(),
            read_buf: vec![0u8; READ_CHUNK],
            execs,
            scratch: Vec::new(),
            fair: FairShare::new(),
            jobs: JobTable::default(),
            waiting: VecDeque::new(),
            inflight: HashMap::new(),
            draining: None,
            metrics: ServerMetrics::new(&cfg.metrics),
            last_metrics: BTreeMap::new(),
            published_ring_drops: 0,
            published_sub_drops: 0,
            log,
            cfg,
        })
    }

    fn run(&mut self) -> io::Result<ServerReport> {
        self.log.info(|| {
            format!(
                "serving: {} executor slots configured, max_active={}, max_queued={}",
                self.cfg.executors, self.cfg.max_active, self.cfg.max_queued
            )
        });
        self.wheel
            .schedule_at(Instant::now() + self.cfg.check_interval, TIMER_TICK);
        loop {
            while let Some(e) = self.execs.lanes.pop_dirty() {
                self.flush_lane(e);
            }
            let timeout = self
                .wheel
                .next_timeout(Instant::now())
                .unwrap_or(self.cfg.check_interval);
            let mut events = std::mem::take(&mut self.events);
            self.poller.wait(&mut events, Some(timeout))?;
            self.metrics.wakeups.inc();
            for ev in &events {
                match ev.token {
                    WIRE_LISTENER => {
                        self.conns
                            .accept_burst(&mut self.wire, &self.poller, || ConnKind::Wire {
                                cursor: FrameCursor::new(),
                                executor: None,
                            })
                    }
                    HTTP_LISTENER => {
                        let limits = self.cfg.limits;
                        self.conns
                            .accept_burst(&mut self.http, &self.poller, || ConnKind::Http {
                                parser: RequestParser::with_limits(limits),
                                out: OutQueue::default(),
                                close: false,
                                stream: None,
                            })
                    }
                    token => {
                        let Some(idx) = self.conns.slot_of(token) else {
                            continue; // closed earlier in this batch
                        };
                        if ev.readable || ev.error {
                            self.read_drain(idx);
                        }
                        if ev.writable {
                            match self.conns.get(idx).map(|c| &c.kind) {
                                Some(ConnKind::Wire {
                                    executor: Some(e), ..
                                }) => self.flush_lane(*e),
                                Some(ConnKind::Http { .. }) => self.flush_http(idx),
                                _ => {}
                            }
                        }
                    }
                }
            }
            self.events = events;
            for (_, what) in self.wheel.expire(Instant::now()) {
                if what == TIMER_TICK {
                    self.tick();
                    self.wheel
                        .schedule_at(Instant::now() + self.cfg.check_interval, TIMER_TICK);
                }
            }
            self.try_assign();
            self.pump_streams();
            self.conns.end_batch();
            if let Some(since) = self.draining {
                let idle = self.jobs.live_ids().next().is_none();
                if idle || since.elapsed() > self.cfg.shutdown_drain {
                    break;
                }
            }
        }
        self.finish()
    }

    /// The periodic sweep: heartbeat timeouts, the shutdown latch, and
    /// admission-gauge refresh.
    fn tick(&mut self) {
        self.wire.rearm(&self.poller);
        self.http.rearm(&self.poller);
        for e in self.execs.sweep(Instant::now()) {
            self.requeue_inflight_on(e);
        }
        if self.draining.is_none()
            && (sae_poll::signal::triggered() || self.cfg.stop.load(Ordering::Relaxed))
        {
            self.begin_drain();
        }
        self.metrics.jobs_running.set(self.jobs.running() as f64);
        self.metrics.jobs_queued.set(self.waiting.len() as f64);
        self.publish_drop_totals();
        self.stream_metric_deltas();
        self.flush_streams();
    }

    /// Mirrors the recorder's cumulative drop counters (ring overwrites
    /// and per-subscriber queue drops) into the metric registry.
    fn publish_drop_totals(&mut self) {
        let ring = self.cfg.recorder.dropped();
        if ring > self.published_ring_drops {
            self.metrics
                .recorder_ring_dropped
                .add(ring - self.published_ring_drops);
            self.published_ring_drops = ring;
        }
        let subs = self.cfg.recorder.subscriber_dropped();
        if subs > self.published_sub_drops {
            self.metrics
                .recorder_sub_dropped
                .add(subs - self.published_sub_drops);
            self.published_sub_drops = subs;
        }
    }

    /// Appends a `metrics` SSE frame with every changed counter/gauge to
    /// each cluster `/events` stream whose write buffer has room.
    fn stream_metric_deltas(&mut self) {
        let any_cluster_stream = self.conns.iter().any(|c| {
            matches!(&c.kind, ConnKind::Http { stream: Some(st), .. }
                if st.job.is_none() && !st.done)
        });
        if !any_cluster_stream {
            return;
        }
        let snap = self.cfg.metrics.snapshot();
        let mut cur: BTreeMap<String, f64> = BTreeMap::new();
        for (k, v) in &snap.counters {
            cur.insert(k.clone(), *v as f64);
        }
        for (k, v) in &snap.float_counters {
            cur.insert(k.clone(), *v);
        }
        for (k, v) in &snap.gauges {
            cur.insert(k.clone(), *v);
        }
        let changed: Vec<String> = cur
            .iter()
            .filter(|(k, v)| self.last_metrics.get(*k) != Some(v))
            .map(|(k, v)| format!("\"{}\":{}", http::escape_json(k), fmt_num(*v)))
            .collect();
        if changed.is_empty() {
            return;
        }
        self.last_metrics = cur;
        let mut chunk = Vec::new();
        let frame = SseFrame::new(format!("{{{}}}", changed.join(","))).with_event("metrics");
        push_sse(&mut chunk, &frame);
        // Queued only: the tick's stream flush that follows pushes these
        // to the sockets together with any coalesced event frames.
        for conn in self.conns.iter_mut() {
            let ConnKind::Http {
                out,
                stream: Some(st),
                ..
            } = &mut conn.kind
            else {
                continue;
            };
            if st.job.is_some() || st.done || out.len() >= HIGH_WATER {
                continue;
            }
            out.extend(&chunk);
        }
    }

    /// Stops admission and cancels queued jobs; running jobs get the
    /// drain window.
    fn begin_drain(&mut self) {
        self.draining = Some(Instant::now());
        self.log.info(|| {
            format!(
                "draining: admission closed, running jobs get {:?}",
                self.cfg.shutdown_drain
            )
        });
        while let Some(id) = self.waiting.pop_front() {
            self.cancel_job(id);
        }
    }

    /// After the loop: cancel whatever is still running, broadcast
    /// `Shutdown`, flush, and build the report.
    fn finish(&mut self) -> io::Result<ServerReport> {
        let live: Vec<u64> = self.jobs.live_ids().collect();
        for id in live {
            self.cancel_job(id);
        }
        // Let event streams carry the terminal journal lines, then close
        // each with an `end` frame and the terminal chunk.
        self.pump_streams();
        for conn in self.conns.iter_mut() {
            let ConnKind::Http {
                out,
                close,
                stream: Some(st),
                ..
            } = &mut conn.kind
            else {
                continue;
            };
            if !st.done {
                let mut buf = Vec::new();
                push_sse(
                    &mut buf,
                    &SseFrame::new("{\"reason\":\"server-drain\"}").with_event("end"),
                );
                StreamEncoder::sse(200).finish(&mut buf);
                out.extend(&buf);
                st.done = true;
            }
            *close = true;
        }
        self.execs.broadcast(&Frame::Shutdown);
        // Queued executor frames (the `Shutdown` broadcast), then buffered
        // HTTP bytes (stream terminators above all): each gets a bounded
        // final flush.
        let deadline = Instant::now() + FINAL_FLUSH;
        self.execs
            .lanes
            .drain(&mut self.conns, &self.poller, deadline);
        let deadline = Instant::now() + FINAL_FLUSH;
        loop {
            self.flush_streams();
            let blocked = self
                .conns
                .iter()
                .any(|c| matches!(&c.kind, ConnKind::Http { out, .. } if !out.is_empty()));
            if !blocked || !shell::drain_nap(&self.poller, deadline) {
                break;
            }
        }
        Ok(ServerReport {
            jobs: std::mem::take(&mut self.jobs).into_summaries(),
            metrics: self.cfg.metrics.snapshot(),
        })
    }

    // ---- connection plumbing ------------------------------------------

    fn read_drain(&mut self, idx: usize) {
        // The read buffer leaves `self` for the duration so the pumps,
        // which need all of `self`, can run between reads.
        let mut buf = std::mem::take(&mut self.read_buf);
        self.read_drain_with(idx, &mut buf);
        self.read_buf = buf;
    }

    fn read_drain_with(&mut self, idx: usize, buf: &mut [u8]) {
        loop {
            let Some(conn) = self.conns.get_mut(idx) else {
                return;
            };
            match conn.stream.read(buf) {
                Ok(0) => return self.close_conn(idx),
                Ok(n) => {
                    let alive = match &mut conn.kind {
                        ConnKind::Wire { cursor, .. } => {
                            cursor.extend(&buf[..n]);
                            self.pump_wire(idx)
                        }
                        ConnKind::Http { parser, .. } => {
                            parser.extend(&buf[..n]);
                            self.pump_http(idx)
                        }
                    };
                    if !alive {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return self.close_conn(idx),
            }
        }
    }

    /// Decodes and handles every complete frame buffered on a wire
    /// connection. Returns `false` once the connection is gone.
    fn pump_wire(&mut self, idx: usize) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(idx) else {
                return false;
            };
            let ConnKind::Wire { cursor, executor } = &mut conn.kind else {
                return true;
            };
            let frame = match cursor.next() {
                Ok(Some(frame)) => frame,
                Ok(None) => return true,
                Err(_) => {
                    // Framing lost: the connection is unusable.
                    self.close_conn(idx);
                    return false;
                }
            };
            let conn_id = conn.id;
            match *executor {
                Some(e) => self.handle_wire_frame(e, conn_id, frame),
                None => {
                    let now = Instant::now();
                    let Some(joined) = self.execs.handshake(frame, conn_id, idx, now) else {
                        self.close_conn(idx);
                        return false;
                    };
                    *executor = Some(joined.executor);
                    if joined.reincarnated {
                        self.requeue_inflight_on(joined.executor);
                    }
                    self.announce_jobs_to(joined.executor);
                }
            }
        }
    }

    /// Parses and answers every complete HTTP request buffered on a
    /// control connection. Returns `false` once the connection is gone.
    fn pump_http(&mut self, idx: usize) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(idx) else {
                return false;
            };
            let ConnKind::Http { parser, stream, .. } = &mut conn.kind else {
                return true;
            };
            if stream.is_some() {
                // An established SSE stream owns this connection; bytes
                // after the streaming request are ignored.
                return true;
            }
            match parser.next() {
                Ok(Some(req)) => {
                    self.metrics.http_requests.inc();
                    let close_requested = req
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                    let resp = match self.route_events(&req) {
                        Some(Ok((head, state))) => {
                            let Some(conn) = self.conns.get_mut(idx) else {
                                return false;
                            };
                            // Bound the kernel's queue in front of this
                            // long-lived stream: once a stalled consumer
                            // fills it, writes block and the
                            // HIGH_WATER/drop discipline takes over.
                            let _ = sae_poll::set_send_buffer(&conn.stream, HIGH_WATER);
                            if let ConnKind::Http { out, stream, .. } = &mut conn.kind {
                                out.extend(&head);
                                *stream = Some(state);
                            }
                            // Replay anything already available (a per-job
                            // stream's existing journal) and push the head
                            // out without waiting for the coalescing tick.
                            self.pump_stream(idx);
                            self.flush_http(idx);
                            return self.conns.get(idx).is_some();
                        }
                        Some(Err(resp)) => resp,
                        None => self.route(&req),
                    };
                    if !self.respond(idx, &resp, close_requested) {
                        return false;
                    }
                }
                Ok(None) => return true,
                Err(e) => {
                    // Malformed request: answer with the mapped status and
                    // close — framing can no longer be trusted.
                    self.respond(idx, &Response::error(e.status(), &format!("{e:?}")), true);
                    return false;
                }
            }
        }
    }

    /// Queues `resp` on an HTTP connection (closing it once flushed if
    /// `close_after`) and pushes it out. `false` once the connection is
    /// gone.
    fn respond(&mut self, idx: usize, resp: &Response, close_after: bool) -> bool {
        self.scratch.clear();
        resp.encode(&mut self.scratch);
        if let Some(ConnKind::Http { out, close, .. }) =
            self.conns.get_mut(idx).map(|c| &mut c.kind)
        {
            out.extend(&self.scratch);
            *close |= close_after;
        }
        self.flush_http(idx);
        self.conns.get(idx).is_some()
    }

    /// Flushes one executor's lane; a lane the shell reports broken (write
    /// error, or a peer that stopped reading) loses its connection.
    fn flush_lane(&mut self, e: usize) {
        if let Some(slot) = self.execs.lanes.flush(e, &mut self.conns, &self.poller) {
            self.close_conn(slot);
        }
    }

    /// Flushes an HTTP connection's response buffer, closing it on a
    /// write error or once a connection marked `close` has drained.
    fn flush_http(&mut self, idx: usize) {
        let token = self.conns.token(idx);
        let Some(conn) = self.conns.get_mut(idx) else {
            return;
        };
        let ConnKind::Http { out, close, .. } = &mut conn.kind else {
            return;
        };
        match out.flush(&conn.stream, &self.poller, token) {
            Flush::Drained if !*close => {}
            Flush::Blocked => {}
            Flush::Drained | Flush::Broken => self.close_conn(idx),
        }
    }

    /// Tears a connection down. Wire connections report to the fleet, so
    /// current incarnations are declared lost.
    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns.close(idx, &self.poller) else {
            return;
        };
        if let ConnKind::Wire {
            executor: Some(e), ..
        } = conn.kind
        {
            if self.execs.disconnect(e, conn.id) {
                self.execs.lose(e);
                self.requeue_inflight_on(e);
            }
        }
    }

    // ---- executor fleet -----------------------------------------------

    fn handle_wire_frame(&mut self, e: usize, conn: u64, frame: Frame) {
        let now = Instant::now();
        match self.execs.admit(e, conn, frame, now) {
            Admit::Fenced => return,
            Admit::Resurrected => self.announce_jobs_to(e),
            Admit::Current => {}
        }
        self.execs.observe(e, frame, now);
        // Liveness and telemetry were the fleet's; echoes are ignored.
        if let Frame::JobTaskOutcome { job, task, ok, .. } = frame {
            self.handle_outcome(job, task, e, ok);
        }
    }

    /// Re-announces every live job's current stage to one executor (a
    /// fresh or reincarnated peer has an empty job table).
    fn announce_jobs_to(&mut self, e: usize) {
        let live = self.jobs.live_ids().filter_map(|id| self.jobs.live(id));
        for js in live.filter(|j| j.status() == JobStatus::Running) {
            self.execs.send(e, &js.job.stage_frame(js.id, js.stage_idx));
        }
    }

    /// Books a failure for (and requeues) every in-flight assignment on
    /// `e` — the executor died or was superseded.
    fn requeue_inflight_on(&mut self, e: usize) {
        let hit: Vec<(u64, usize)> = self
            .inflight
            .iter()
            .filter(|(_, ex)| **ex == e)
            .map(|(k, _)| *k)
            .collect();
        for (job, task) in hit {
            self.inflight.remove(&(job, task));
            self.settle(job, task, e, false);
        }
    }

    // ---- job lifecycle ------------------------------------------------

    fn handle_outcome(&mut self, job: u64, task: usize, from: usize, ok: bool) {
        // The in-flight table is the slot ledger: only a booked assignment
        // frees a slot, and only once. Late outcomes of requeued or
        // retired work miss the table and change nothing. So does a stale
        // outcome from an executor that no longer holds the booking (the
        // task was requeued and reassigned, e.g. after a lost-then-
        // resurrected peer replayed its result): the booking — and the
        // current assignee's slot — wait for the real outcome.
        if self.inflight.get(&(job, task)) != Some(&from) {
            return;
        }
        self.inflight.remove(&(job, task));
        self.execs.release(from);
        self.metrics.outcomes.inc();
        self.settle(job, task, from, ok);
    }

    /// Settles the attempt of `job`'s `task` that `e` held, in the job's
    /// task ledger: a finished task may end the stage, and a task out of
    /// attempts fails the job.
    fn settle(&mut self, job: u64, task: usize, e: usize, ok: bool) {
        let Some(js) = self.jobs.live_mut(job) else {
            return;
        };
        match js.tasks.settle(task, e, ok, MAX_TASK_ATTEMPTS) {
            Outcome::Stale => {}
            Outcome::Done { stage_done } => {
                self.metrics.tenant(&js.tenant).tasks.inc();
                if stage_done {
                    self.finish_stage(job);
                }
            }
            Outcome::Requeued { .. } => js.total_failed += 1,
            Outcome::Exhausted { .. } => {
                js.total_failed += 1;
                self.log
                    .error(|| format!("job {job} task {task} exceeded its attempt budget"));
                self.fail_job(job, task);
            }
        }
    }

    fn begin_stage(&mut self, job: u64) {
        let executors = self.cfg.executors;
        let js = self.jobs.live_mut(job).expect("job is live");
        let spec = &js.job.stages[js.stage_idx];
        let (tasks, kind) = (spec.tasks, spec.kind);
        js.tasks = TaskLedger::new(tasks, executors, Instant::now());
        let line = format!(
            "{{\"event\":\"stage-start\",\"stage\":{},\"kind\":\"{}\",\"tasks\":{}}}",
            js.stage_idx,
            kind_name(kind),
            tasks
        );
        journal_line(&self.cfg.recorder, js, line);
        let frame = js.job.stage_frame(js.id, js.stage_idx);
        self.log
            .info(|| format!("job {job} stage started: {tasks} tasks"));
        self.execs.broadcast(&frame);
    }

    fn finish_stage(&mut self, job: u64) {
        let recorder = &self.cfg.recorder;
        let js = self.jobs.live_mut(job).expect("job is live");
        let stage = js.stage_idx;
        // Journal per-task attempt counts in task order — content depends
        // only on the job's logical history, never on completion order.
        for t in 0..js.tasks.len() {
            let line = format!(
                "{{\"event\":\"task\",\"stage\":{},\"task\":{},\"attempts\":{}}}",
                stage,
                t,
                js.tasks.attempt(t) + 1
            );
            journal_line(recorder, js, line);
        }
        let line = format!(
            "{{\"event\":\"stage-end\",\"stage\":{},\"attempts\":{},\"failed_attempts\":{}}}",
            stage,
            js.tasks.attempts(),
            js.tasks.failed_attempts()
        );
        journal_line(recorder, js, line);
        js.stage_durations
            .push(js.tasks.started().elapsed().as_secs_f64());
        js.stage_idx += 1;
        let stages = js.job.stages.len();
        if js.stage_idx == stages {
            let line = format!("{{\"event\":\"completed\",\"stages\":{stages}}}");
            self.end_job(job, JobStatus::Completed, line);
            self.log.info(|| format!("job {job} completed"));
        } else {
            self.begin_stage(job);
        }
    }

    fn fail_job(&mut self, job: u64, task: usize) {
        let Some(js) = self.jobs.live(job) else {
            return;
        };
        let line = format!(
            "{{\"event\":\"failed\",\"stage\":{},\"task\":{}}}",
            js.stage_idx, task
        );
        self.end_job(job, JobStatus::Failed, line);
    }

    fn cancel_job(&mut self, job: u64) {
        let Some(js) = self.jobs.live(job) else {
            return;
        };
        if js.status() == JobStatus::Queued {
            self.waiting.retain(|&id| id != job);
        }
        let line = format!("{{\"event\":\"cancelled\",\"stage\":{}}}", js.stage_idx);
        self.end_job(job, JobStatus::Cancelled, line);
        self.log.info(|| format!("job {job} cancelled"));
    }

    /// The terminal transition every path shares: the journal's last
    /// line, the status event and the tenant counter; then the job leaves
    /// the allocator, its slot is stripped to a retired record, `JobEnd`
    /// goes to the fleet (which fences queued-but-unstarted attempts on
    /// the executors), and a queued job is promoted into the freed active
    /// slot. In-flight table entries stay — their outcomes still free
    /// slots.
    fn end_job(&mut self, job: u64, status: JobStatus, line: String) {
        let Some(js) = self.jobs.live_mut(job) else {
            return;
        };
        journal_line(&self.cfg.recorder, js, line);
        status_event(&self.cfg.recorder, job, &js.tenant, status);
        let tenant = self.metrics.tenant(&js.tenant);
        match status {
            JobStatus::Completed => tenant.completed.inc(),
            JobStatus::Failed => tenant.failed.inc(),
            _ => tenant.cancelled.inc(),
        }
        self.jobs.retire(job, status);
        self.fair.retire(job);
        self.execs.broadcast(&Frame::JobEnd { job });
        self.promote_waiting();
    }

    fn promote_waiting(&mut self) {
        while self.jobs.running() < self.cfg.max_active {
            let Some(id) = self.waiting.pop_front() else {
                return;
            };
            self.start_job(id);
        }
    }

    /// Moves a queued job into an active slot; a job that is no longer
    /// queued is left alone.
    fn start_job(&mut self, job: u64) {
        let Some(js) = self.jobs.start(job) else {
            return;
        };
        status_event(&self.cfg.recorder, job, &js.tenant, JobStatus::Running);
        let weight = js.weight;
        self.fair.admit(job, weight);
        self.begin_stage(job);
    }

    /// Hands free slots to queued tasks, fair-share order, until nothing
    /// more can move.
    fn try_assign(&mut self) {
        for e in 0..self.execs.len() {
            while self.execs.has_free_slot(e) {
                let jobs = &self.jobs;
                let runnable = |id| jobs.live(id).is_some_and(JobState::runnable);
                let Some(job) = self.fair.pick(runnable).map(|d| d.job) else {
                    break;
                };
                // A runnable job has queued tasks, and its ledger hands
                // every executor one (a task that failed everywhere still
                // runs), so the winner is never charged for nothing.
                let js = self.jobs.live_mut(job).expect("picked job is live");
                let task = js.tasks.pick(e).expect("a runnable job has a task");
                js.total_attempts += 1;
                self.inflight.insert((job, task), e);
                self.execs.book(e);
                self.metrics.tasks_dispatched.inc();
                if !self.execs.send(e, &Frame::AssignJobTask { job, task }) {
                    // No usable lane: treat like a broken socket.
                    self.execs.lose(e);
                    self.requeue_inflight_on(e);
                    break;
                }
            }
        }
    }

    // ---- HTTP routing -------------------------------------------------

    fn route(&mut self, req: &Request) -> Response {
        let segments = req.path_segments();
        match (req.method, segments.as_slice()) {
            (Method::Get, ["healthz"]) => Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"draining\":{}}}",
                    self.draining.is_some()
                ),
            ),
            (Method::Get, ["metrics"]) => {
                let mut resp = Response::text(200, render_prometheus(&self.cfg.metrics));
                resp.content_type = EXPOSITION_CONTENT_TYPE;
                resp
            }
            (Method::Post, ["jobs"]) => self.submit(req),
            (Method::Get, ["jobs"]) => Response::json(200, self.jobs.list()),
            (Method::Get, ["jobs", id]) => found(
                self.parse_id(id)
                    .and_then(|job| self.jobs.status_line(job))
                    .map(|body| Response::json(200, body)),
            ),
            (Method::Delete, ["jobs", id]) => {
                found(self.parse_id(id).map(|job| self.cancel_request(job)))
            }
            (Method::Get, ["jobs", id, "report"]) => found(
                self.parse_id(id)
                    .and_then(|job| self.jobs.report(job))
                    .map(|body| Response::json(200, body)),
            ),
            (Method::Get, ["jobs", id, "journal"]) => found(
                self.parse_id(id)
                    .and_then(|job| self.jobs.view(job))
                    .map(|(_, journal)| Response::text(200, journal)),
            ),
            (Method::Get, ["jobs", id, "trace"]) => found(
                self.parse_id(id)
                    .map(|_| Response::json(200, self.cfg.recorder.chrome_trace())),
            ),
            (
                _,
                ["jobs"] | ["jobs", _] | ["jobs", _, _] | ["metrics"] | ["healthz"] | ["events"],
            ) => Response::error(405, "method not allowed on this route"),
            _ => Response::error(404, "unknown route"),
        }
    }

    /// Routes the SSE endpoints: `Some(Ok)` carries the response head and
    /// the stream state to install, `Some(Err)` a plain error response,
    /// `None` means the request is not a stream route.
    fn route_events(&mut self, req: &Request) -> Option<Result<(Vec<u8>, StreamState), Response>> {
        let segments = req.path_segments();
        match (req.method, segments.as_slice()) {
            (Method::Get, ["events"]) => {
                let mut head = Vec::new();
                StreamEncoder::sse(200).head(&mut head);
                // A new subscriber needs the full metric state once;
                // ticks only stream deltas from here on.
                let snap = self.cfg.metrics.snapshot();
                let mut all: Vec<String> = Vec::new();
                for (k, v) in &snap.counters {
                    all.push(format!(
                        "\"{}\":{}",
                        http::escape_json(k),
                        fmt_num(*v as f64)
                    ));
                }
                for (k, v) in &snap.float_counters {
                    all.push(format!("\"{}\":{}", http::escape_json(k), fmt_num(*v)));
                }
                for (k, v) in &snap.gauges {
                    all.push(format!("\"{}\":{}", http::escape_json(k), fmt_num(*v)));
                }
                push_sse(
                    &mut head,
                    &SseFrame::new(format!("{{{}}}", all.join(","))).with_event("metrics"),
                );
                Some(Ok((
                    head,
                    StreamState {
                        sub: Some(self.cfg.recorder.subscribe(EVENT_SUB_CAPACITY)),
                        job: None,
                        start_line: 0,
                        line_no: 0,
                        next_byte: 0,
                        last_status: None,
                        done: false,
                    },
                )))
            }
            (Method::Get, ["jobs", id, "events"]) => match self.parse_id(id) {
                Some(job) => {
                    let mut head = Vec::new();
                    StreamEncoder::sse(200).head(&mut head);
                    // `Last-Event-ID: n` means line n was delivered;
                    // resume from the next one.
                    let start_line = req
                        .header("last-event-id")
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .map(|n| n + 1)
                        .unwrap_or(0);
                    Some(Ok((
                        head,
                        StreamState {
                            sub: None,
                            job: Some(job),
                            start_line,
                            line_no: 0,
                            next_byte: 0,
                            last_status: None,
                            done: false,
                        },
                    )))
                }
                None => Some(Err(Response::error(404, "no such job"))),
            },
            _ => None,
        }
    }

    /// Refills every streaming connection's write buffer up to
    /// [`HIGH_WATER`] — past that the stream stops pulling and a slow
    /// consumer's events age out of its bounded queue instead of
    /// accumulating in server memory.
    fn pump_streams(&mut self) {
        for idx in 0..self.conns.len() {
            self.pump_stream(idx);
        }
    }

    fn pump_stream(&mut self, idx: usize) {
        let flush_due = {
            let Some(conn) = self.conns.get_mut(idx) else {
                return;
            };
            let ConnKind::Http {
                out,
                close,
                stream: Some(st),
                ..
            } = &mut conn.kind
            else {
                return;
            };
            if st.done {
                return;
            }
            let mut buf = Vec::new();
            if let Some(job) = st.job {
                let Some((job_status, journal)) = self.jobs.view(job) else {
                    return;
                };
                let status = job_status.as_str();
                if st.last_status != Some(status) {
                    st.last_status = Some(status);
                    push_sse(
                        &mut buf,
                        &SseFrame::new(format!("{{\"job\":{job},\"status\":\"{status}\"}}"))
                            .with_event("status"),
                    );
                }
                // Follow the append-only journal from where the last
                // pump left off — only the new bytes are scanned. Every
                // journal line is newline-terminated, so the tail never
                // splits a record.
                let mut drained = true;
                for line in journal[st.next_byte..].lines() {
                    if st.line_no >= st.start_line {
                        if out.len() + buf.len() >= HIGH_WATER {
                            drained = false;
                            break;
                        }
                        push_sse(
                            &mut buf,
                            &SseFrame::new(line)
                                .with_event("journal")
                                .with_id(st.line_no.to_string()),
                        );
                    }
                    st.line_no += 1;
                    st.next_byte += line.len() + 1;
                }
                if job_status.terminal() && drained && out.len() + buf.len() < HIGH_WATER {
                    push_sse(
                        &mut buf,
                        &SseFrame::new(format!("{{\"status\":\"{status}\"}}")).with_event("end"),
                    );
                    StreamEncoder::sse(200).finish(&mut buf);
                    st.done = true;
                    *close = true;
                }
            } else if let Some(sub) = &st.sub {
                while out.len() + buf.len() < HIGH_WATER {
                    let Some((seq, ev)) = sub.pop() else {
                        break;
                    };
                    if let Some(frame) = cluster_frame(seq, &ev) {
                        push_sse(&mut buf, &frame);
                    }
                }
            }
            out.extend(&buf);
            // Coalesce: small batches wait for the tick flush; only a
            // closing stream or a high backlog goes to the socket now.
            !buf.is_empty() && (st.done || out.len() >= STREAM_FLUSH)
        };
        if flush_due {
            self.flush_http(idx);
        }
    }

    /// Tick-time flush of every HTTP connection with buffered output —
    /// the slow path that bounds a stream's coalescing latency (an empty
    /// buffer costs no syscall).
    fn flush_streams(&mut self) {
        for idx in 0..self.conns.len() {
            self.flush_http(idx);
        }
    }

    fn parse_id(&self, s: &str) -> Option<u64> {
        let id = s.parse::<u64>().ok()?;
        self.jobs.contains(id).then_some(id)
    }

    fn submit(&mut self, req: &Request) -> Response {
        if self.draining.is_some() {
            self.metrics.jobs_rejected.inc();
            return Response::error(503, "server is draining");
        }
        let body = match std::str::from_utf8(&req.body) {
            Ok(s) => s,
            Err(_) => return Response::error(400, "body is not UTF-8"),
        };
        let spec = match parse_job_spec(body) {
            Ok(spec) => spec,
            Err(detail) => return Response::error(400, detail),
        };
        let queue_full = self.waiting.len() >= self.cfg.max_queued;
        let start_now = self.jobs.running() < self.cfg.max_active;
        if !start_now && queue_full {
            self.metrics.jobs_rejected.inc();
            return Response::error(429, "admission queue is full");
        }
        let js = self.jobs.admit(spec.job, spec.tenant, spec.weight);
        let id = js.id;
        let line = format!(
            "{{\"event\":\"submitted\",\"name\":\"{}\",\"tenant\":\"{}\",\"weight\":{},\"stages\":{}}}",
            http::escape_json(&js.job.name),
            js.tenant,
            js.weight,
            js.job.stages.len()
        );
        journal_line(&self.cfg.recorder, js, line);
        self.metrics.tenant(&js.tenant).submitted.inc();
        let status = if start_now {
            self.start_job(id);
            JobStatus::Running
        } else {
            status_event(&self.cfg.recorder, id, &js.tenant, JobStatus::Queued);
            self.waiting.push_back(id);
            JobStatus::Queued
        };
        Response::json(
            201,
            format!("{{\"job\":{},\"status\":\"{}\"}}", id, status.as_str()),
        )
    }

    fn cancel_request(&mut self, job: u64) -> Response {
        if self.jobs.live(job).is_none() {
            return Response::error(409, "job already terminal");
        }
        self.cancel_job(job);
        Response::json(200, format!("{{\"job\":{job},\"status\":\"cancelled\"}}"))
    }
}

/// `resp`, or the `404` every `/jobs/:id…` route answers for an unknown id.
fn found(resp: Option<Response>) -> Response {
    resp.unwrap_or_else(|| Response::error(404, "no such job"))
}

/// Appends one line to a job's journal and mirrors it to the recorder as
/// a [`LiveEvent::JournalLine`] for `/events` subscribers. The journal
/// string gets exactly the bytes it always got — streaming (or the
/// absence of any subscriber) never changes a journal byte.
fn journal_line(recorder: &FlightRecorder, js: &mut JobState, line: String) {
    js.journal.push_str(&line);
    js.journal.push('\n');
    let line_no = js.journal_lines;
    js.journal_lines += 1;
    let at = recorder.now();
    recorder.push(LiveEvent::JournalLine {
        job: js.id,
        line_no,
        line,
        at,
    });
}

/// Announces a job lifecycle transition to `/events` subscribers.
fn status_event(recorder: &FlightRecorder, job: u64, tenant: &str, status: JobStatus) {
    recorder.push(LiveEvent::JobStatusChanged {
        job,
        tenant: tenant.to_string(),
        status: status.as_str(),
        at: recorder.now(),
    });
}

/// Encodes one SSE frame as a single HTTP chunk.
fn push_sse(out: &mut Vec<u8>, frame: &SseFrame) {
    let mut payload = Vec::with_capacity(frame.data.len() + 32);
    frame.encode(&mut payload);
    sae_net::sse::encode_chunk(&payload, out);
}

/// Formats a metric value as a JSON number (integers without a fraction).
fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// One recorder event as a cluster `/events` SSE frame; events with no
/// streaming representation return `None`.
fn cluster_frame(seq: u64, ev: &LiveEvent) -> Option<SseFrame> {
    let (event, data) = match ev {
        LiveEvent::JournalLine {
            job, line_no, line, ..
        } => (
            "journal",
            format!("{{\"job\":{job},\"line\":{line_no},\"record\":{line}}}"),
        ),
        LiveEvent::JobStatusChanged {
            job,
            tenant,
            status,
            at,
        } => (
            "status",
            format!(
                "{{\"job\":{job},\"tenant\":\"{}\",\"status\":\"{status}\",\"at\":{}}}",
                http::escape_json(tenant),
                fmt_num(*at)
            ),
        ),
        LiveEvent::TaskSpan {
            job,
            stage,
            task,
            attempt,
            epoch,
            executor,
            start,
            end,
            ok,
        } => (
            "span",
            format!(
                "{{\"job\":{job},\"stage\":{stage},\"task\":{task},\"attempt\":{attempt},\
                 \"epoch\":{epoch},\"executor\":{executor},\"start\":{},\"end\":{},\"ok\":{ok}}}",
                fmt_num(*start),
                fmt_num(*end)
            ),
        ),
        LiveEvent::Trace(TraceEvent::IntervalClosed {
            executor,
            threads,
            zeta,
            at,
        }) => (
            "zeta",
            format!(
                "{{\"executor\":{executor},\"threads\":{threads},\"zeta\":{},\"at\":{}}}",
                fmt_num(*zeta),
                fmt_num(*at)
            ),
        ),
        LiveEvent::ExecutorReincarnated {
            executor,
            epoch,
            at,
            ..
        } => (
            "reincarnated",
            format!(
                "{{\"executor\":{executor},\"epoch\":{epoch},\"at\":{}}}",
                fmt_num(*at)
            ),
        ),
        _ => return None,
    };
    Some(
        SseFrame::new(data)
            .with_event(event)
            .with_id(seq.to_string()),
    )
}

fn kind_name(kind: LiveStageKind) -> &'static str {
    match kind {
        LiveStageKind::Spill => "spill",
        LiveStageKind::Sort => "sort",
    }
}

/// A validated submission.
struct SubmittedSpec {
    job: LiveJob,
    tenant: String,
    weight: u64,
}

/// Caps that keep one submission from monopolising the server.
const MAX_STAGES: usize = 16;
const MAX_TASKS: u64 = 4096;
const MAX_RECORDS: u64 = 50_000_000;

/// Parses and validates a `POST /jobs` body.
///
/// Accepted shapes:
/// ```json
/// {"name":"x","tenant":"a","weight":4,
///  "stages":[{"kind":"spill","tasks":8,"records_per_task":1000,"seed":42}]}
/// ```
/// or the Terasort shorthand (spill stage + sort stage over the same
/// parameters):
/// ```json
/// {"tenant":"a","tasks":8,"records_per_task":1000,"seed":42}
/// ```
fn parse_job_spec(body: &str) -> Result<SubmittedSpec, &'static str> {
    let doc = json::parse(body).map_err(|_| "body is not valid JSON")?;
    let Value::Obj(_) = doc else {
        return Err("body must be a JSON object");
    };
    let tenant = match doc.get("tenant") {
        None => "default".to_string(),
        Some(v) => {
            let t = v.as_str().ok_or("tenant must be a string")?;
            let ok = !t.is_empty()
                && t.len() <= 32
                && t.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
            if !ok {
                return Err("tenant must be 1-32 chars of [A-Za-z0-9_-]");
            }
            t.to_string()
        }
    };
    let weight = match doc.get("weight") {
        None => 1,
        Some(v) => {
            let w = v.as_u64().ok_or("weight must be a positive integer")?;
            if w == 0 || w > 1024 {
                return Err("weight must be in 1..=1024");
            }
            w
        }
    };
    // The default name must not embed the server-assigned id: journals
    // carry the name, and same-spec resubmissions must journal
    // identically regardless of what id they landed on.
    let name = match doc.get("name") {
        None => "job".to_string(),
        Some(v) => {
            let n = v.as_str().ok_or("name must be a string")?;
            if n.is_empty() || n.len() > 64 {
                return Err("name must be 1-64 chars");
            }
            n.to_string()
        }
    };
    let stages = match doc.get("stages") {
        Some(v) => {
            let arr = v.as_arr().ok_or("stages must be an array")?;
            if arr.is_empty() || arr.len() > MAX_STAGES {
                return Err("stages must have 1-16 entries");
            }
            let mut out = Vec::with_capacity(arr.len());
            for (i, s) in arr.iter().enumerate() {
                let kind = match s.get("kind").and_then(Value::as_str) {
                    Some("spill") => LiveStageKind::Spill,
                    Some("sort") => LiveStageKind::Sort,
                    _ => return Err("stage kind must be \"spill\" or \"sort\""),
                };
                let (tasks, records, seed) = stage_numbers(s)?;
                out.push(LiveStageSpec {
                    name: format!("{}-{i}", kind_name(kind)),
                    kind,
                    tasks: tasks as usize,
                    records_per_task: records as usize,
                    seed,
                });
            }
            out
        }
        None => {
            // Terasort shorthand: spill then sort, same parameters.
            let (tasks, records, seed) = stage_numbers(&doc)?;
            vec![
                LiveStageSpec {
                    name: "spill-0".into(),
                    kind: LiveStageKind::Spill,
                    tasks: tasks as usize,
                    records_per_task: records as usize,
                    seed,
                },
                LiveStageSpec {
                    name: "sort-1".into(),
                    kind: LiveStageKind::Sort,
                    tasks: tasks as usize,
                    records_per_task: records as usize,
                    seed,
                },
            ]
        }
    };
    Ok(SubmittedSpec {
        job: LiveJob { name, stages },
        tenant,
        weight,
    })
}

/// Pulls `(tasks, records_per_task, seed)` out of a stage (or shorthand)
/// object with range validation.
fn stage_numbers(v: &Value) -> Result<(u64, u64, u64), &'static str> {
    let tasks = v
        .get("tasks")
        .and_then(Value::as_u64)
        .ok_or("tasks must be a positive integer")?;
    if tasks == 0 || tasks > MAX_TASKS {
        return Err("tasks must be in 1..=4096");
    }
    let records = v
        .get("records_per_task")
        .and_then(Value::as_u64)
        .ok_or("records_per_task must be a positive integer")?;
    if records == 0 || records > MAX_RECORDS {
        return Err("records_per_task must be in 1..=50000000");
    }
    let seed = v.get("seed").and_then(Value::as_u64).unwrap_or(42);
    Ok((tasks, records, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_parses_both_shapes() {
        let full = parse_job_spec(
            r#"{"name":"x","tenant":"alice","weight":4,
                "stages":[{"kind":"spill","tasks":8,"records_per_task":100,"seed":7},
                          {"kind":"sort","tasks":8,"records_per_task":100,"seed":7}]}"#,
        )
        .unwrap();
        assert_eq!(full.tenant, "alice");
        assert_eq!(full.weight, 4);
        assert_eq!(full.job.stages.len(), 2);
        assert_eq!(full.job.stages[1].kind, LiveStageKind::Sort);

        let short = parse_job_spec(r#"{"tasks":4,"records_per_task":50}"#).unwrap();
        assert_eq!(short.tenant, "default");
        assert_eq!(short.weight, 1);
        assert_eq!(short.job.name, "job");
        assert_eq!(short.job.stages.len(), 2);
        assert_eq!(short.job.stages[0].kind, LiveStageKind::Spill);
        assert_eq!(short.job.stages[0].seed, 42);
    }

    #[test]
    fn job_spec_rejects_bad_inputs() {
        for (body, why) in [
            ("not json", "malformed"),
            ("[1]", "non-object"),
            (r#"{"tasks":0,"records_per_task":5}"#, "zero tasks"),
            (r#"{"tasks":5,"records_per_task":0}"#, "zero records"),
            (r#"{"tasks":9999,"records_per_task":5}"#, "tasks cap"),
            (
                r#"{"tenant":"has space","tasks":1,"records_per_task":1}"#,
                "tenant charset",
            ),
            (
                r#"{"weight":0,"tasks":1,"records_per_task":1}"#,
                "zero weight",
            ),
            (r#"{"stages":[]}"#, "empty stages"),
            (
                r#"{"stages":[{"kind":"fry","tasks":1,"records_per_task":1}]}"#,
                "unknown kind",
            ),
        ] {
            assert!(parse_job_spec(body).is_err(), "accepted {why}: {body}");
        }
    }

    #[test]
    fn default_config_is_consistent() {
        let cfg = ServerConfig::default();
        assert!(cfg.max_active >= 1);
        assert!(cfg.max_queued >= 1);
        assert!(cfg.shutdown_drain > Duration::ZERO);
    }

    /// A server loop with no sockets behind it. Every configured executor
    /// passes the fleet's Register handshake with `slots` slots on
    /// connection `e + 1`, whose lane accepts frames (and never flushes:
    /// no socket backs it), so the real submit / dispatch / outcome paths
    /// run without a fleet.
    fn test_loop(cfg: ServerConfig, slots: usize) -> ServerLoop {
        let wire = TcpListener::bind("127.0.0.1:0").unwrap();
        let http = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut sl = ServerLoop::new(wire, http, cfg).unwrap();
        for e in 0..sl.execs.len() {
            let register = Frame::Register { executor: e, slots };
            sl.execs
                .handshake(register, e as u64 + 1, e, Instant::now());
        }
        sl
    }

    /// `POST /jobs` through the real handler: `(status, job id if 201)`.
    fn post(sl: &mut ServerLoop, body: &str) -> (u16, u64) {
        let resp = sl.submit(&Request {
            method: Method::Post,
            target: "/jobs".into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        });
        let id = json::parse(std::str::from_utf8(&resp.body).unwrap())
            .ok()
            .and_then(|doc| doc.get("job").and_then(Value::as_u64))
            .unwrap_or(0);
        (resp.status, id)
    }

    /// Reports `ok` for every attempt of `job` now in flight.
    fn settle_inflight(sl: &mut ServerLoop, job: u64, ok: bool) {
        let mut booked: Vec<(usize, usize)> = sl
            .inflight
            .iter()
            .filter(|((j, _), _)| *j == job)
            .map(|((_, task), e)| (*task, *e))
            .collect();
        booked.sort_unstable();
        for (task, e) in booked {
            sl.handle_outcome(job, task, e, ok);
        }
    }

    #[test]
    fn stale_outcome_from_wrong_executor_leaves_booking_intact() {
        // An outcome for task (1,0) replayed by an executor that does not
        // hold its booking (lost, requeued elsewhere, then resurrected)
        // must not free the assignee's slot or mark the task done.
        let mut sl = test_loop(ServerConfig::default(), 1);
        let (_, job) = post(&mut sl, r#"{"tasks":2,"records_per_task":1}"#);
        sl.try_assign();
        let holder = sl.inflight[&(job, 0)];
        let other = 1 - holder;
        sl.handle_outcome(job, 0, other, true);
        assert_eq!(
            sl.inflight.get(&(job, 0)),
            Some(&holder),
            "booking was dropped"
        );
        assert_eq!(
            sl.execs[holder].running, 1,
            "assignee's slot was over-freed"
        );
        let js = sl.jobs.live(job).unwrap();
        assert!(!js.tasks.is_done(0));
        assert_eq!(js.tasks.holder(0), Some(holder));

        // The real outcome from the holder then settles the ledger once.
        sl.handle_outcome(job, 0, holder, true);
        assert!(!sl.inflight.contains_key(&(job, 0)));
        assert_eq!(sl.execs[holder].running, 0);
        let js = sl.jobs.live(job).unwrap();
        assert!(js.tasks.is_done(0));
        assert_eq!(js.tasks.remaining(), 1);
    }

    /// The tasks of every attempt now in flight, in task order.
    fn inflight_tasks(sl: &ServerLoop) -> std::collections::BTreeSet<usize> {
        sl.inflight.keys().map(|&(_, task)| task).collect()
    }

    #[test]
    fn a_shrunk_pool_drains_before_new_work_and_nothing_is_booked_twice() {
        // §5.4 on the server: `PoolSizeChanged` becomes the executor's slot
        // count, and dispatch waits until its in-flight work fits under it.
        let cfg = ServerConfig {
            executors: 1,
            ..ServerConfig::default()
        };
        let mut sl = test_loop(cfg, 4);
        let (_, job) = post(
            &mut sl,
            r#"{"stages":[{"kind":"spill","tasks":8,"records_per_task":1}]}"#,
        );
        sl.try_assign();
        let mut ever = inflight_tasks(&sl);
        assert_eq!(ever.len(), 4, "four attempts in flight on four slots");
        let shrink = Frame::Core(sae_dag::Message::PoolSizeChanged {
            executor: 0,
            size: 2,
        });
        sl.handle_wire_frame(0, 1, shrink);
        assert_eq!(sl.execs[0].slots, 2);
        sl.try_assign();
        assert_eq!(inflight_tasks(&sl), ever, "a shrink dispatches nothing");

        while let Some(&task) = inflight_tasks(&sl).iter().next() {
            let running = sl.execs[0].running;
            assert_eq!(running, sl.inflight.len());
            let outcome = Frame::JobTaskOutcome {
                job,
                task,
                executor: 0,
                attempt: 0,
                ok: true,
            };
            sl.handle_wire_frame(0, 1, outcome);
            let left = sl.execs[0].running;
            assert_eq!(left, running - 1, "one outcome, one booking");
            let before = inflight_tasks(&sl);
            sl.try_assign();
            let after = inflight_tasks(&sl);
            if left >= 2 {
                assert_eq!(after, before, "dispatched with {left} running");
            }
            assert!(after.len() <= left.max(2));
            for t in after.difference(&before) {
                assert!(ever.insert(*t), "task {t} booked twice");
            }
        }
        assert_eq!(ever, (0..8).collect());
        assert_eq!(sl.execs[0].running, 0);
        assert!(sl.jobs.live(job).is_none(), "the job completed");
    }

    #[test]
    fn job_table_tracks_every_lifecycle_path() {
        let cfg = ServerConfig {
            max_active: 2,
            max_queued: 2,
            ..ServerConfig::default()
        };
        let mut sl = test_loop(cfg, 2);
        let spec = r#"{"tasks":2,"records_per_task":1}"#;
        let ids: Vec<u64> = (0..4).map(|_| post(&mut sl, spec).1).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        assert_eq!(post(&mut sl, spec).0, 429, "active and queue both full");
        let (a, b, c, d) = (1, 2, 3, 4);
        sl.jobs.assert_consistent();
        assert_eq!(sl.jobs.running(), 2);
        assert_eq!(sl.jobs.live_ids().collect::<Vec<_>>(), [a, b, c, d]);

        // Cancel while queued: never started, nothing dispatched.
        sl.cancel_job(d);
        sl.jobs.assert_consistent();
        assert_eq!(sl.waiting, [c]);

        // Complete: both stages of `a`; `c` takes over its active slot.
        sl.try_assign();
        assert_eq!(sl.inflight.len(), 4, "two tasks each of a and b");
        settle_inflight(&mut sl, a, true);
        sl.jobs.assert_consistent();
        sl.try_assign();
        settle_inflight(&mut sl, a, true);
        sl.jobs.assert_consistent();
        assert!(sl.jobs.live(a).is_none());
        assert_eq!(
            sl.jobs.live(c).map(JobState::status),
            Some(JobStatus::Running)
        );
        assert_eq!(sl.jobs.live_ids().collect::<Vec<_>>(), [b, c]);
        assert!(sl.waiting.is_empty());

        // Cancel mid-stage: one task done, one in flight.
        sl.try_assign();
        let e0 = sl.inflight[&(c, 0)];
        sl.handle_outcome(c, 0, e0, true);
        sl.cancel_job(c);
        sl.jobs.assert_consistent();
        assert_eq!(sl.jobs.running(), 1);

        // The cancelled job's straggler reports late: the slot ledger
        // settles, the table does not move. Likewise an outcome for a
        // job retired long ago, which misses the ledger altogether.
        let e1 = sl.inflight[&(c, 1)];
        let before = sl.execs[e1].running;
        sl.handle_outcome(c, 1, e1, true);
        assert_eq!(sl.execs[e1].running, before - 1);
        assert!(!sl.inflight.contains_key(&(c, 1)));
        sl.handle_outcome(a, 0, 0, true);
        sl.jobs.assert_consistent();
        assert_eq!(sl.jobs.live_ids().collect::<Vec<_>>(), [b]);

        // Fail: task 0 of `b` burns its attempt budget (task 1 stays in
        // flight throughout).
        for _ in 0..MAX_TASK_ATTEMPTS {
            let e = sl.inflight[&(b, 0)];
            sl.handle_outcome(b, 0, e, false);
            sl.jobs.assert_consistent();
            sl.try_assign();
        }
        assert!(sl.jobs.live(b).is_none());
        assert_eq!(sl.jobs.running(), 0);
        assert!(sl.jobs.live_ids().next().is_none());

        // A job still running when the loop exits is cancelled by
        // `finish`, in-flight dispatches included.
        let (_, f) = post(&mut sl, spec);
        sl.try_assign();
        let listed = sl.jobs.list();
        let report = sl.finish().unwrap();
        let got: Vec<(u64, JobStatus, usize, usize, usize)> = report
            .jobs
            .iter()
            .map(|j| {
                (
                    j.id,
                    j.status,
                    j.stages_completed,
                    j.attempts,
                    j.failed_attempts,
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (a, JobStatus::Completed, 2, 4, 0),
                (b, JobStatus::Failed, 0, 5, 4),
                (c, JobStatus::Cancelled, 0, 2, 0),
                (d, JobStatus::Cancelled, 0, 0, 0),
                (f, JobStatus::Cancelled, 0, 2, 0),
            ]
        );
        assert_eq!(
            report.jobs[3].journal,
            "{\"event\":\"submitted\",\"name\":\"job\",\"tenant\":\"default\",\"weight\":1,\"stages\":2}\n\
             {\"event\":\"cancelled\",\"stage\":0}\n"
        );
        assert!(report.jobs[1]
            .journal
            .ends_with("{\"event\":\"failed\",\"stage\":0,\"task\":0}\n"));
        // `GET /jobs` lists every id in order, retired and live alike.
        let doc = json::parse(&listed).unwrap();
        let listed_ids: Vec<u64> = doc
            .get("jobs")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|j| j.get("job").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(listed_ids, [a, b, c, d, f]);
    }

    #[test]
    fn a_retired_small_job_keeps_about_a_kilobyte() {
        // The benchmark's control-plane job: one stage, one task.
        let mut sl = test_loop(ServerConfig::default(), 1);
        let (_, job) = post(
            &mut sl,
            r#"{"tenant":"bench","stages":[{"kind":"spill","tasks":1,"records_per_task":500,"seed":7}]}"#,
        );
        let line_while_live = sl.jobs.status_line(job).unwrap();
        sl.try_assign();
        settle_inflight(&mut sl, job, true);
        sl.jobs.assert_consistent();
        assert!(sl.jobs.live(job).is_none());
        let bytes = sl.jobs.retained_bytes(job);
        assert!(bytes <= 1200, "a retired 1x500 job retains {bytes} bytes");
        // The cached line is the live line with the terminal fields set.
        assert_eq!(
            sl.jobs.status_line(job).unwrap(),
            line_while_live
                .replace(
                    "\"status\":\"running\",\"stage\":0",
                    "\"status\":\"completed\",\"stage\":1"
                )
                .replace(
                    "\"tasks_total\":1,\"attempts\":0",
                    "\"tasks_total\":0,\"attempts\":1"
                )
        );
    }

    #[test]
    fn submit_cost_does_not_grow_with_retired_history() {
        // No lanes attached: nothing accumulates but the job table.
        let cfg = ServerConfig::default();
        let wire = TcpListener::bind("127.0.0.1:0").unwrap();
        let http = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut sl = ServerLoop::new(wire, http, cfg).unwrap();
        let spec = r#"{"stages":[{"kind":"spill","tasks":1,"records_per_task":500}]}"#;
        // Median wall clock of a submit, over 200 submit + cancel rounds.
        let median_submit = |sl: &mut ServerLoop| {
            let mut costs: Vec<Duration> = (0..200)
                .map(|_| {
                    let started = Instant::now();
                    let (status, id) = post(sl, spec);
                    let cost = started.elapsed();
                    assert_eq!(status, 201);
                    sl.cancel_job(id);
                    cost
                })
                .collect();
            costs.sort_unstable();
            costs[costs.len() / 2]
        };
        let fresh = median_submit(&mut sl);
        for _ in 0..50_000 {
            let (_, id) = post(&mut sl, spec);
            sl.cancel_job(id);
        }
        let loaded = median_submit(&mut sl);
        sl.jobs.assert_consistent();
        assert!(
            loaded < fresh * 10,
            "submit over 50k retired jobs costs {loaded:?}, over none {fresh:?}"
        );
    }

    #[test]
    fn status_strings_round_trip() {
        for s in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Completed,
            JobStatus::Failed,
            JobStatus::Cancelled,
        ] {
            assert!(!s.as_str().is_empty());
        }
        assert!(JobStatus::Completed.terminal());
        assert!(!JobStatus::Running.terminal());
    }
}
