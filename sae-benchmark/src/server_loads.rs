//! The four job-server workloads: fleet, tenants, pacing, and how a
//! run's samples become the end-to-end metrics.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bed::{Bed, BedReport, Fleet};
use crate::client::Client;
use crate::loadgen::{run_worker, JobShape, Pace, Sample, Signals, WorkerLog};
use crate::stats::{
    highest_supported, median, percentile, poisson_arrivals, sorted, supports, Rng, SAMPLES_BEYOND,
};
use crate::sysinfo::{process_cpu_s, steal_s};

/// Unmeasured lead-in: pools climb, caches fill, connections settle.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Throwaway beds launched before the measured one, so `setup_s` is a
/// median and not one cold sample.
const SETUP_REPS: usize = 5;
/// Length of one slice of the window. Counters and CPU are read at every
/// slice edge, and rates and costs are reported as the median over the
/// slices: a neighbour's burst on a shared box then moves the slices it
/// hits and not the result. (Not a statistic nearer the best slices,
/// which would repeat better still: the server slows down as it retains
/// jobs, so `small_closed`'s slice rate halves over a window, and only a
/// statistic of the whole window sees a change to that.)
pub const SLICE: Duration = Duration::from_secs(1);
/// Most sub-windows a latency percentile is a median over, and fewest
/// worth taking one over; with fewer the percentile is taken over the
/// whole window.
const LATENCY_SLICES: std::ops::RangeInclusive<usize> = 10..=20;
/// Slices in one tracing-on or tracing-off stretch of a traced run.
pub const TRACE_SLICES: usize = 2;

/// Whether slice `slice` of a traced run's window has tracing on.
/// Stretches go off, on, on, off, off, on, on, off…: the server slows down
/// as it retains jobs, and this order puts both sides equally early and
/// late in the window, where plain alternation would always measure the
/// traced side later, i.e. slower.
pub fn traced_slice(slice: usize) -> bool {
    matches!((slice / TRACE_SLICES) % 4, 1 | 2)
}

/// How one tenant of a workload behaves.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// What it submits.
    pub shape: JobShape,
    /// Generator threads serving it (one connection each at a time).
    pub workers: usize,
    /// Open-loop offered rate in jobs/s; `None` is a closed loop.
    pub rate_per_s: Option<f64>,
    /// Closed loop only: `GET /metrics` + `GET /jobs` between jobs.
    pub reads: bool,
}

/// A server workload.
#[derive(Debug, Clone)]
pub struct ServerWorkload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The fleet it runs on.
    pub fleet: Fleet,
    /// Its tenants.
    pub plans: Vec<Plan>,
    /// Index of the plan whose jobs give `job_latency_*`.
    pub latency_plan: usize,
    /// Index of the plan whose task completions give `work_per_s`.
    pub work_plan: usize,
    /// The tail `job_latency_tail_ms` reports: the highest percentile the
    /// workload's sample count supports, fixed so runs stay comparable.
    pub tail_pct: f64,
    /// Latency limit (ms) behind `gen.slo_miss_frac`.
    pub slo_ms: f64,
}

const SERVING_FLEET: Fleet = Fleet {
    executors: 2,
    c_min: 2,
    c_max: 4,
};

const SMALL: JobShape = JobShape {
    tenant: "load",
    weight: 1,
    tasks: 1,
    records: 500,
    report_every: 8,
};

fn closed(shape: JobShape, workers: usize, reads: bool) -> Plan {
    Plan {
        shape,
        workers,
        rate_per_s: None,
        reads,
    }
}

/// The server workload called `name`, if it is one.
pub fn server_workload(name: &str) -> Option<ServerWorkload> {
    let one = |name, plan, tail_pct, slo_ms| ServerWorkload {
        name,
        fleet: SERVING_FLEET,
        plans: vec![plan],
        latency_plan: 0,
        work_plan: 0,
        tail_pct,
        slo_ms,
    };
    match name {
        "small_closed" => Some(one("small_closed", closed(SMALL, 2, false), 99.0, 20.0)),
        "small_open" => Some(one(
            "small_open",
            Plan {
                shape: SMALL,
                workers: 2,
                rate_per_s: Some(300.0),
                reads: false,
            },
            // An idle vCPU's wake-up cost differs from run to run by more
            // than any change would move p99; p90 repeats.
            90.0,
            20.0,
        )),
        "heavy_closed" => Some(one(
            "heavy_closed",
            closed(
                JobShape {
                    tenant: "load",
                    weight: 1,
                    tasks: 16,
                    records: 10_000,
                    report_every: 1,
                },
                2,
                false,
            ),
            90.0,
            1_000.0,
        )),
        "mixed_fair" => Some(ServerWorkload {
            name: "mixed_fair",
            fleet: Fleet {
                executors: 1,
                c_min: 2,
                c_max: 2,
            },
            plans: vec![
                Plan {
                    shape: JobShape {
                        tenant: "gold",
                        weight: 4,
                        tasks: 2,
                        records: 2_000,
                        report_every: 1,
                    },
                    workers: 1,
                    rate_per_s: Some(8.0),
                    reads: false,
                },
                closed(
                    JobShape {
                        tenant: "bronze",
                        weight: 1,
                        tasks: 8,
                        records: 40_000,
                        report_every: 1,
                    },
                    1,
                    true,
                ),
            ],
            latency_plan: 0,
            work_plan: 1,
            tail_pct: 90.0,
            slo_ms: 150.0,
        }),
        _ => None,
    }
}

/// Registry counters and CPU at one instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Seconds the hypervisor has stolen from the box (reported only).
    pub steal_s: f64,
    /// The server registry's integer counters.
    pub counters: BTreeMap<String, u64>,
}

impl Snapshot {
    fn take(bed: &Bed) -> Self {
        Self {
            cpu_s: process_cpu_s(),
            steal_s: steal_s(),
            counters: bed.registry.snapshot().counters,
        }
    }

    /// Counter `name`, 0 if the server never touched it.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Everything a finished server run knows.
pub struct ServerRun {
    /// The workload that ran.
    pub workload: ServerWorkload,
    /// Seconds measured (`--seconds`).
    pub window_s: f64,
    /// Bed launch to first job done, one per bed launched.
    pub setup_samples_s: Vec<f64>,
    /// Per-worker logs, in plan order then worker order.
    pub logs: Vec<WorkerLog>,
    /// Counters and CPU at every slice edge: first when the window
    /// opened, last when it closed.
    pub edges: Vec<Snapshot>,
    /// Post-window timed reads (traced runs): `/metrics` and `/jobs` ms.
    pub tail_reads: (Vec<f64>, Vec<f64>),
    /// What the bed left behind.
    pub bed: BedReport,
    /// Flight-recorder ring at window close (task spans live here).
    pub ring: Vec<sae_live::LiveEvent>,
    /// The server's metric registry (still readable after shutdown).
    pub registry: sae_metrics::MetricRegistry,
}

/// Launches a bed and runs its first job through the real client path.
/// Returns the bed and how long launch-to-first-job-done took.
fn launch_with_first_job(wl: &ServerWorkload) -> io::Result<(Bed, f64)> {
    let started = Instant::now();
    let bed = Bed::launch(wl.fleet)?;
    let shape = wl.plans[0].shape;
    let mut client = Client::new(bed.http);
    let body = format!(
        "{{\"tenant\":\"{}\",\"weight\":{},\"tasks\":{},\"records_per_task\":{}}}",
        shape.tenant, shape.weight, shape.tasks, shape.records
    );
    let job = client
        .submit(&body)?
        .map_err(|status| io::Error::other(format!("first job refused with {status}")))?;
    let followed = client.follow(job)?;
    let took = started.elapsed().as_secs_f64();
    if followed.end_status != "completed" {
        return Err(io::Error::other(format!(
            "first job ended {}",
            followed.end_status
        )));
    }
    bed.verify_sorted_runs(job, shape.tasks, shape.records)
        .map_err(io::Error::other)?;
    bed.discard_job_files(job, shape.tasks);
    Ok((bed, took))
}

/// Runs `wl` for `seconds` after the warm-up. With `trace`, the slices
/// [`traced_slice`] names run with spans and sampled reports on.
pub fn run(wl: &ServerWorkload, seed: u64, seconds: u64, trace: bool) -> io::Result<ServerRun> {
    let mut setup_samples_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let (bed, took) = launch_with_first_job(wl)?;
        setup_samples_s.push(took);
        bed.shutdown()?;
    }
    let (bed, took) = launch_with_first_job(wl)?;
    setup_samples_s.push(took);

    let window = Duration::from_secs(seconds);
    let horizon = WARMUP + window;
    let signals = Signals::new();
    let mut arrivals = Rng::new(seed, 1);
    let paces: Vec<Pace> = wl
        .plans
        .iter()
        .map(|p| match p.rate_per_s {
            Some(rate) => {
                // Warm-up and window each get exactly their share of
                // arrivals: the offered load is the same on every seed.
                let count = |span: Duration| (rate * span.as_secs_f64()).round() as usize;
                let mut schedule =
                    poisson_arrivals(&mut arrivals, count(WARMUP), Duration::ZERO, WARMUP);
                schedule.extend(poisson_arrivals(
                    &mut arrivals,
                    count(window),
                    WARMUP,
                    window,
                ));
                Pace::Open {
                    schedule: Arc::new(schedule),
                    next: Arc::new(AtomicUsize::new(0)),
                }
            }
            None => Pace::Closed { reads: p.reads },
        })
        .collect();

    let (logs, edges) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, plan) in wl.plans.iter().enumerate() {
            for w in 0..plan.workers {
                let (pace, bed, signals) = (paces[i].clone(), &bed, &signals);
                let seeds = Rng::new(seed, 100 + (i * 16 + w) as u64);
                handles.push(
                    scope.spawn(move || run_worker(i, plan.shape, pace, bed, signals, seeds)),
                );
            }
        }
        let sleep_until =
            |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
        // One snapshot per slice edge, the first when the window opens.
        let mut edges = Vec::new();
        let mut edge = signals.epoch + WARMUP;
        loop {
            sleep_until(edge);
            edges.push(Snapshot::take(&bed));
            if edge + SLICE > signals.epoch + horizon {
                break;
            }
            signals
                .tracing
                .store(trace && traced_slice(edges.len() - 1), Ordering::Relaxed);
            edge += SLICE;
        }
        signals.tracing.store(false, Ordering::Relaxed);
        signals.halt.store(true, Ordering::Relaxed);
        let logs: io::Result<Vec<WorkerLog>> = handles
            .into_iter()
            .map(|h| h.join().expect("generator worker panicked"))
            .collect();
        (logs, edges)
    });
    let logs = logs?;
    let ring = bed.recorder.snapshot();

    let mut tail_reads = (Vec::new(), Vec::new());
    if trace {
        let mut client = Client::new(bed.http);
        for _ in 0..11 {
            let t0 = Instant::now();
            client.request("GET", "/metrics", "")?;
            let t1 = Instant::now();
            client.request("GET", "/jobs", "")?;
            tail_reads.0.push((t1 - t0).as_secs_f64() * 1e3);
            tail_reads.1.push(t1.elapsed().as_secs_f64() * 1e3);
        }
    }
    let registry = bed.registry.clone();
    Ok(ServerRun {
        workload: wl.clone(),
        window_s: window.as_secs_f64(),
        setup_samples_s,
        logs,
        edges,
        tail_reads,
        bed: bed.shutdown()?,
        ring,
        registry,
    })
}

impl ServerRun {
    /// Window bounds in seconds since the epoch.
    pub fn window(&self) -> (f64, f64) {
        let w0 = WARMUP.as_secs_f64();
        (w0, w0 + self.window_s)
    }

    /// Samples of plan `plan` that belong to the window: due inside it
    /// (open loop) or ended inside it (closed loop).
    pub fn measured(&self, plan: usize) -> Vec<&Sample> {
        let (w0, w1) = self.window();
        let open = self.workload.plans[plan].rate_per_s.is_some();
        self.logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| s.plan == plan)
            .filter(|s| {
                let t = if open { s.start_s } else { s.done_s };
                (w0..w1).contains(&t)
            })
            .collect()
    }

    /// Jobs of plan `plan` whose `end` frame arrived inside the window.
    fn ended_in_window(&self, plan: usize) -> usize {
        let (w0, w1) = self.window();
        self.logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| s.plan == plan && s.ok && (w0..w1).contains(&s.done_s))
            .count()
    }

    /// `(attempted, failed)` over every plan's measured samples.
    pub fn attempts(&self) -> (usize, usize) {
        let all: Vec<&Sample> = (0..self.workload.plans.len())
            .flat_map(|p| self.measured(p))
            .collect();
        (all.len(), all.iter().filter(|s| !s.ok).count())
    }

    /// Counter delta over the whole window.
    pub fn delta(&self, name: &str) -> f64 {
        let (first, last) = (&self.edges[0], &self.edges[self.edges.len() - 1]);
        (last.counter(name) - first.counter(name)) as f64
    }

    /// Process CPU seconds over the whole window.
    pub fn cpu_s(&self) -> f64 {
        self.edges[self.edges.len() - 1].cpu_s - self.edges[0].cpu_s
    }

    /// Name of the server's per-tenant task-completion counter.
    pub fn tasks_counter(&self, plan: usize) -> String {
        let tenant = self.workload.plans[plan].shape.tenant;
        format!("server.tasks_completed{{tenant=\"{tenant}\"}}")
    }

    /// Jobs of plan `plan` finished in each slice, counted in tasks so
    /// that a 16-task job straddling an edge counts by its share.
    fn jobs_by_slice(&self, plan: usize) -> Vec<f64> {
        let tasks_per_job = 2 * self.workload.plans[plan].shape.tasks;
        let counter = self.tasks_counter(plan);
        self.edges
            .windows(2)
            .map(|w| {
                (w[1].counter(&counter) - w[0].counter(&counter)) as f64 / tasks_per_job as f64
            })
            .collect()
    }

    /// Share of the box's CPU time the hypervisor took during the window.
    pub fn steal_frac(&self) -> f64 {
        let stolen = self.edges[self.edges.len() - 1].steal_s - self.edges[0].steal_s;
        stolen / (self.window_s * crate::sysinfo::nproc() as f64)
    }

    /// Latencies of the latency plan's completed jobs, split into
    /// `slices` equal sub-windows (by due time on an open loop, by end
    /// time on a closed one), each sorted.
    fn latencies_by_slice(&self, slices: usize) -> Vec<Vec<f64>> {
        let wl = &self.workload;
        let (w0, _) = self.window();
        let open = wl.plans[wl.latency_plan].rate_per_s.is_some();
        let slice_s = self.window_s / slices as f64;
        let mut per_slice = vec![Vec::new(); slices];
        for s in self.measured(wl.latency_plan).into_iter().filter(|s| s.ok) {
            let t = if open { s.start_s } else { s.done_s };
            per_slice[(((t - w0) / slice_s) as usize).min(slices - 1)].push(s.latency_ms);
        }
        per_slice.into_iter().map(sorted).collect()
    }

    /// Percentile `pct` of the latency plan's jobs: the median over as
    /// many equal sub-windows as leave ten samples beyond the percentile
    /// in each, or the whole window's percentile when those are too few.
    fn latency_pct(&self, pct: f64) -> f64 {
        let jobs = self.latencies_by_slice(1).remove(0);
        let need = (SAMPLES_BEYOND as f64 / (1.0 - pct / 100.0)).ceil() as usize;
        let slices = (jobs.len() / need).min(*LATENCY_SLICES.end());
        if LATENCY_SLICES.contains(&slices) {
            let per_slice: Vec<f64> = self
                .latencies_by_slice(slices)
                .iter()
                .map(|v| percentile(v, pct))
                .collect();
            return median(&per_slice);
        }
        if !supports(jobs.len(), pct) {
            eprintln!(
                "note: {} latency samples leave fewer than {SAMPLES_BEYOND} beyond p{pct} \
                 (they support p{}); read that latency with that in mind",
                jobs.len(),
                highest_supported(jobs.len())
            );
        }
        percentile(&jobs, pct)
    }

    /// The seven end-to-end metrics, in manifest order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let wl = &self.workload;
        let slice_s = SLICE.as_secs_f64();
        let by_plan: Vec<Vec<f64>> = (0..wl.plans.len()).map(|p| self.jobs_by_slice(p)).collect();
        // Closed loops: median slice rate. Open loops: jobs the window saw
        // end, which is the offered rate unless a backlog grows.
        let jobs_per_s: f64 = wl
            .plans
            .iter()
            .zip(&by_plan)
            .enumerate()
            .map(|(p, (plan, jobs))| match plan.rate_per_s {
                Some(_) => self.ended_in_window(p) as f64 / self.window_s,
                None => median(jobs) / slice_s,
            })
            .sum();
        let work = &wl.plans[wl.work_plan].shape;
        let work_per_s =
            median(&by_plan[wl.work_plan]) * (work.tasks * work.records) as f64 / slice_s;
        // CPU per job: per slice, the process's CPU over the jobs finished
        // in it. Tenants with other job sizes count by their records, so
        // on `mixed_fair` this is CPU per batch job's worth of records and
        // does not move with how many small jobs a slice happened to see.
        let job_records = (work.tasks * work.records) as f64;
        let cpu_ms_per_job: Vec<f64> = self
            .edges
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let jobs: f64 = wl
                    .plans
                    .iter()
                    .zip(&by_plan)
                    .map(|(plan, jobs)| {
                        jobs[i] * (plan.shape.tasks * plan.shape.records) as f64 / job_records
                    })
                    .sum();
                (w[1].cpu_s - w[0].cpu_s) * 1e3 / jobs.max(f64::MIN_POSITIVE)
            })
            .collect();

        // The per-slice series, for whoever wants to see the box's mood.
        let series = |label: &str, values: &[f64]| {
            let text: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            eprintln!("slices {label}: {}", text.join(" "));
        };
        series(
            "work/s",
            &by_plan[wl.work_plan]
                .iter()
                .map(|j| j * job_records / slice_s)
                .collect::<Vec<_>>(),
        );
        series("cpu ms/job", &cpu_ms_per_job);
        let p50_by_slice: Vec<f64> = self
            .latencies_by_slice(self.edges.len() - 1)
            .iter()
            .map(|v| percentile(v, 50.0))
            .collect();
        series("p50 ms", &p50_by_slice);

        vec![
            ("setup_s", median(&self.setup_samples_s)),
            ("jobs_per_s", jobs_per_s),
            ("work_per_s", work_per_s),
            ("job_latency_p50_ms", self.latency_pct(50.0)),
            ("job_latency_tail_ms", self.latency_pct(wl.tail_pct)),
            ("cpu_ms_per_job", median(&cpu_ms_per_job)),
            ("peak_rss_mb", crate::sysinfo::peak_rss_mb()),
        ]
    }
}
