//! From a finished server run to its result: the end-to-end list, or
//! (traced) the per-layer list with the "where the time goes" tables.

use sae_core::{DecisionAction, DecisionJournal, DecisionRecord};
use sae_live::LiveEvent;

use crate::bed::Scratch;
use crate::loadgen::{ReportTimes, Sample};
use crate::replay::{self, WireSample};
use crate::server_loads::{traced_slice, ServerRun, SLICE, WARMUP};
use crate::spec::PER_LAYER;
use crate::stats::{mean, median, percentile, sorted};
use crate::sysinfo::fingerprint;
use crate::trace::{write_spans, Span};
use crate::RunResult;

/// One row of a "where the time goes" table.
pub struct TimeRow {
    label: String,
    amount: f64,
}

impl TimeRow {
    /// A row of `amount` (in the table's unit).
    pub fn new(label: impl Into<String>, amount: f64) -> Self {
        Self {
            label: label.into(),
            amount,
        }
    }
}

/// Prints rows, their shares of `total`, and the unexplained remainder,
/// so that the rows and the remainder sum to `total` by construction.
pub fn print_time_table(title: &str, unit: &str, total: f64, rows: &[TimeRow]) {
    eprintln!("where the time goes - {title}");
    let share = |x: f64| if total > 0.0 { 100.0 * x / total } else { 0.0 };
    for row in rows {
        eprintln!(
            "  {:<46} {:>12.4} {unit} {:>6.1} %",
            row.label,
            row.amount,
            share(row.amount)
        );
    }
    let rest = total - rows.iter().map(|r| r.amount).sum::<f64>();
    eprintln!(
        "  {:<46} {:>12.4} {unit} {:>6.1} %",
        "remainder (not explained by the rows)",
        rest,
        share(rest)
    );
    eprintln!("  {:<46} {:>12.4} {unit} {:>6.1} %", "total", total, 100.0);
}

/// Every per-layer metric in manifest order; a layer the workload never
/// entered reports 0 (no work done there).
pub fn fill_missing(measured: Vec<(&'static str, f64)>) -> Vec<(&'static str, f64)> {
    for (name, _) in &measured {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not in the manifest"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v);
            (m.name, value)
        })
        .collect()
}

fn p(samples: impl Iterator<Item = f64>, pct: f64) -> f64 {
    percentile(&sorted(samples.collect()), pct)
}

/// Decision records per adaptation episode (an episode ends on a terminal
/// verdict), mean pool size the episodes ended on, and the share of them
/// that ended in a roll-back.
pub fn adaptation(records: &[DecisionRecord]) -> (f64, f64, f64) {
    let verdicts: Vec<_> = records.iter().filter(|r| r.action.is_terminal()).collect();
    let episodes = verdicts.len().max(1) as f64;
    let rollbacks = verdicts
        .iter()
        .filter(|r| r.action == DecisionAction::RollBack)
        .count();
    let ended_on: Vec<f64> = verdicts.iter().map(|r| r.pool_after as f64).collect();
    (
        records.len() as f64 / episodes,
        mean(&ended_on),
        rollbacks as f64 / episodes,
    )
}

/// Share of the fleet's slot-seconds spent inside task bodies, over the
/// stretch of the run the flight-recorder ring still holds. Task spans
/// are on the executors' clocks, so only their durations are used; the
/// stretch itself is timed by the server-side events around them.
fn body_share(ring: &[LiveEvent], slots: usize) -> f64 {
    let server_times = ring.iter().filter_map(|e| match e {
        LiveEvent::JournalLine { at, .. } | LiveEvent::JobStatusChanged { at, .. } => Some(*at),
        _ => None,
    });
    let (lo, hi) = server_times.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), t| {
        (lo.min(t), hi.max(t))
    });
    let busy: f64 = ring
        .iter()
        .filter_map(|e| match e {
            LiveEvent::TaskSpan { start, end, .. } => Some(end - start),
            _ => None,
        })
        .sum();
    if hi > lo {
        busy / ((hi - lo) * slots as f64)
    } else {
        0.0
    }
}

/// The result of a server run: checks, then the requested metric list.
pub fn server_result(run: &ServerRun, seed: u64, trace: bool) -> Result<RunResult, String> {
    let wl = &run.workload;
    let (attempted, failed) = run.attempts();
    if attempted == 0 {
        return Err("run is void: no job fell into the window".into());
    }
    let scratch = Scratch::new().map_err(|e| format!("scratch dir: {e}"))?;
    let workers: usize = wl.plans.iter().map(|p| p.workers).sum();
    let fp = fingerprint(
        wl.name,
        seed,
        WARMUP.as_secs_f64(),
        run.window_s,
        workers,
        scratch.path(),
    );
    eprintln!("fingerprint: {fp}");

    // Server-side bookkeeping must agree with what the clients saw.
    let lost = run
        .bed
        .server
        .metrics
        .counters
        .get("server.executors_lost")
        .copied()
        .unwrap_or(0);
    let unfinished = run
        .bed
        .server
        .jobs
        .iter()
        .filter(|j| j.status != sae_live::JobStatus::Completed)
        .count();
    // Closed-loop workers may leave one job each in flight at shutdown.
    let correct = failed == 0 && lost == 0 && unfinished <= workers;
    if !correct {
        eprintln!("check failed: {failed} failed jobs, {lost} executors lost, {unfinished} jobs not completed");
    }

    // Void-run rule: an open loop whose jobs mostly waited longer in the
    // generator than in the system has measured the generator.
    let lat_plan = wl.latency_plan;
    let measured: Vec<&Sample> = run
        .measured(lat_plan)
        .into_iter()
        .filter(|s| s.ok)
        .collect();
    let lags = || {
        (0..wl.plans.len())
            .filter(|&i| wl.plans[i].rate_per_s.is_some())
            .flat_map(|i| run.measured(i))
            .map(|s| s.lag_ms)
    };
    let (lag_p50, lag_p99) = (p(lags(), 50.0), p(lags(), 99.0));
    let latency_p50 = p(measured.iter().map(|s| s.latency_ms), 50.0);
    eprintln!(
        "hypervisor steal over the window: {:.2} % of the box",
        100.0 * run.steal_frac()
    );
    eprintln!(
        "latency of {} {} jobs over the whole window: p50 {latency_p50:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
        measured.len(),
        wl.plans[lat_plan].shape.tenant,
        p(measured.iter().map(|s| s.latency_ms), 90.0),
        p(measured.iter().map(|s| s.latency_ms), 99.0),
    );
    if lag_p50 > latency_p50 / 2.0 {
        return Err(format!(
            "run is void: generator lag p50 {lag_p50:.3} ms is over half the latency p50 {latency_p50:.3} ms"
        ));
    }

    if !trace {
        return Ok(RunResult {
            correct,
            attempted,
            failed,
            metrics: run.end_to_end(),
        });
    }

    let ok_jobs = (0..wl.plans.len())
        .flat_map(|i| run.measured(i))
        .filter(|s| s.ok)
        .count()
        .max(1) as f64;
    let misses = run
        .measured(lat_plan)
        .iter()
        .filter(|s| !s.ok || s.latency_ms > wl.slo_ms)
        .count();

    // Server-side timings exist for the sampled traced jobs.
    let reported: Vec<(&Sample, ReportTimes)> = measured
        .iter()
        .filter_map(|s| s.report.map(|r| (*s, r)))
        .collect();
    let barrier = |r: &ReportTimes| r.runtime_ms - r.stage_ms[0] - r.stage_ms[1];
    // The server's runtime clock starts inside the submit handler, before
    // the 201 is written, so the POST round trip overlaps the stages and
    // is not subtracted: "wait" is everything outside the runtime.
    let wait = |s: &Sample, r: &ReportTimes| s.latency_ms - s.lag_ms - r.runtime_ms;

    // Tracing overhead: job rate over the traced slices against the rest.
    let slices = run.edges.len() - 1;
    let traced_s = (0..slices).filter(|i| traced_slice(*i)).count() as f64 * SLICE.as_secs_f64();
    let on = measured.iter().filter(|s| s.traced).count() as f64 / traced_s.max(1e-9);
    let off =
        measured.iter().filter(|s| !s.traced).count() as f64 / (run.window_s - traced_s).max(1e-9);
    let overhead = if off > 0.0 { 1.0 - on / off } else { 0.0 };

    let spans: Vec<Vec<Span>> = run.logs.iter().map(|l| l.spans.clone()).collect();
    let span_count: usize = spans.iter().map(Vec::len).sum();
    let trace_path = crate::sysinfo::scratch_root().join(format!("trace-{}.json", wl.name));
    write_spans(&trace_path, &fp, &spans).map_err(|e| format!("trace file: {e}"))?;
    eprintln!(
        "trace: {span_count} spans written to {}",
        trace_path.display()
    );

    let weights: Vec<f64> = wl
        .plans
        .iter()
        .enumerate()
        .map(|(i, plan)| run.delta(&run.tasks_counter(i)) / plan.shape.weight as f64)
        .collect();
    let share_ratio = match weights[..] {
        [first, second] if second > 0.0 => first / second,
        _ => 0.0,
    };
    let journals: Vec<DecisionRecord> = run
        .bed
        .journals
        .iter()
        .flat_map(DecisionJournal::records)
        .collect();
    let (intervals, final_threads, rollback) = adaptation(&journals);

    let mut metrics = vec![
        ("gen.lag_p99_ms", lag_p99),
        ("gen.offered_per_s", attempted as f64 / run.window_s),
        (
            "gen.slo_miss_frac",
            misses as f64 / run.measured(lat_plan).len().max(1) as f64,
        ),
        ("gen.steal_frac", run.steal_frac()),
        ("net.http.requests", run.delta("server.http_requests")),
        (
            "server.submit_ms_p50",
            p(measured.iter().map(|s| s.submit_ms), 50.0),
        ),
        (
            "server.submit_ms_p99",
            p(measured.iter().map(|s| s.submit_ms), 99.0),
        ),
        (
            "server.follow_open_ms_p50",
            p(measured.iter().map(|s| s.open_ms), 50.0),
        ),
        (
            "server.runtime_ms_p50",
            p(reported.iter().map(|(_, r)| r.runtime_ms), 50.0),
        ),
        (
            "server.stage0_ms_p50",
            p(reported.iter().map(|(_, r)| r.stage_ms[0]), 50.0),
        ),
        (
            "server.stage1_ms_p50",
            p(reported.iter().map(|(_, r)| r.stage_ms[1]), 50.0),
        ),
        (
            "server.barrier_ms_p50",
            p(reported.iter().map(|(_, r)| barrier(r)), 50.0),
        ),
        (
            "server.wait_ms_p50",
            p(reported.iter().map(|(s, r)| wait(s, r)), 50.0),
        ),
        (
            "server.wait_ms_p99",
            p(reported.iter().map(|(s, r)| wait(s, r)), 99.0),
        ),
        (
            "server.wakeups_per_job",
            run.delta("server.wakeups") / ok_jobs,
        ),
        (
            "server.tasks_dispatched",
            run.delta("server.tasks_dispatched"),
        ),
        ("server.task_outcomes", run.delta("server.task_outcomes")),
        ("server.jobs_rejected", run.delta("server.jobs_rejected")),
        ("server.metrics_scrape_ms_p50", median(&run.tail_reads.0)),
        ("server.list_jobs_ms_p50", median(&run.tail_reads.1)),
        ("fairshare.share_ratio", share_ratio),
        ("task.body_share", body_share(&run.ring, wl.fleet.slots())),
        ("adapt.intervals_per_stage", intervals),
        ("adapt.final_threads_mean", final_threads),
        ("adapt.rollback_frac", rollback),
        ("trace.overhead_frac", overhead),
        ("trace.spans", span_count as f64),
        ("trace.window_s", traced_s),
    ];

    // Layer replay, on this run's own bytes and task size.
    let sample = run
        .logs
        .iter()
        .find_map(|l| l.wire_sample.as_ref())
        .filter(|(post, stream)| !post.is_empty() && !stream.is_empty())
        .map_or_else(WireSample::synthetic, |(post, stream)| WireSample {
            post: post.clone(),
            stream: stream.clone(),
        });
    let work = wl.plans[wl.work_plan].shape;
    let replayed = replay::all(&sample, scratch.path(), work.records, &run.registry)
        .map_err(|e| format!("layer replay: {e}"))?;
    let unit = |name: &str| {
        replayed
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };

    // Table 1: one job's latency, server's own view plus the remainder.
    if !reported.is_empty() {
        let m = |f: &dyn Fn(&(&Sample, ReportTimes)) -> f64| {
            mean(&reported.iter().map(f).collect::<Vec<_>>())
        };
        print_time_table(
            &format!(
                "{}: mean latency of {} sampled jobs",
                wl.name,
                reported.len()
            ),
            "ms",
            m(&|(s, _)| s.latency_ms),
            &[
                TimeRow::new("generator lag (due -> sent)", m(&|(s, _)| s.lag_ms)),
                TimeRow::new("server: stage 0 (spill)", m(&|(_, r)| r.stage_ms[0])),
                TimeRow::new("server: stage 1 (sort)", m(&|(_, r)| r.stage_ms[1])),
                TimeRow::new("server: between stages (barrier)", m(&|(_, r)| barrier(r))),
                // The remainder is `server.wait_ms`: the POST's way in,
                // queueing before stage 0, the follow's open and the end
                // frame's delivery.
            ],
        );
    }

    // Table 2: one job's CPU, replay unit costs times observed counts.
    let cpu_ms_per_job = run.cpu_s() * 1e3 / ok_jobs;
    let requests_per_job = run.delta("server.http_requests") / ok_jobs;
    let frames_per_job = sample.frame_count() as f64;
    let tasks_per_job = run.delta("server.task_outcomes") / ok_jobs;
    // Each task costs an assignment, a span and an outcome frame; each
    // stage start and job end is broadcast to every executor.
    let wire_frames = 3.0 * tasks_per_job + 3.0 * wl.fleet.executors as f64;
    let ns = 1e-6;
    // Task bodies are charged per record, at the replayed cost of a
    // spill + sort pair of the work plan's size.
    let pair_ms_per_record =
        (unit("task.spill_ms_per_task") + unit("task.sort_ms_per_task")) / work.records as f64;
    let records_per_job = wl
        .plans
        .iter()
        .enumerate()
        .map(|(i, plan)| run.delta(&run.tasks_counter(i)) / 2.0 * plan.shape.records as f64)
        .sum::<f64>()
        / ok_jobs;
    print_time_table(
        &format!(
            "{}: process CPU per job (server + fleet + generator)",
            wl.name
        ),
        "ms",
        cpu_ms_per_job,
        &[
            TimeRow::new(
                format!("net.http: parse + encode x {requests_per_job:.2} requests"),
                requests_per_job
                    * (unit("net.http.parse_ns_per_req") + unit("net.http.encode_ns_per_resp"))
                    * ns,
            ),
            TimeRow::new(
                format!("net.sse: encode + parse x {frames_per_job:.0} frames"),
                frames_per_job
                    * (unit("net.sse.encode_ns_per_frame") + unit("net.sse.parse_ns_per_frame"))
                    * ns,
            ),
            TimeRow::new(
                "server.json: parse the job spec",
                unit("server.json_parse_ns_per_spec") * ns,
            ),
            TimeRow::new(
                format!("wire: encode + decode x {wire_frames:.1} frames"),
                wire_frames
                    * (unit("wire.encode_ns_per_frame") + unit("wire.decode_ns_per_frame"))
                    * ns,
            ),
            TimeRow::new(
                format!("task bodies: {records_per_job:.0} records through spill + sort"),
                records_per_job * pair_ms_per_record,
            ),
        ],
    );
    metrics.extend(replayed);
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics: fill_missing(metrics),
    })
}
