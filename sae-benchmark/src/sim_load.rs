//! `sim_policy_sweep`: the paper-reproduction path. One *cell* is
//! `sae_bench::run_policy` for one workload on one cluster (a best-fit
//! sweep of five runs plus default / static-bestfit / dynamic: eight
//! simulated runs); one *pass* is all twelve cells. Passes repeat for the
//! window. The runner is pinned to one worker so a pass's cost does not
//! depend on how the box schedules two threads.

use std::time::Instant;

use sae_bench::{derive_bestfit, run_policy, PolicyRun};
use sae_core::DecisionRecord;
use sae_dag::{Engine, EngineConfig};
use sae_metrics::MetricRegistry;
use sae_workloads::{Workload, WorkloadKind};

use crate::bed::Scratch;
use crate::layers::{adaptation, fill_missing, print_time_table, TimeRow};
use crate::replay::{self, WireSample};
use crate::stats::{highest_supported, mean, median, percentile, sorted, supports, SAMPLES_BEYOND};
use crate::sysinfo::{fingerprint, nproc, peak_rss_mb, process_cpu_s, steal_s};
use crate::RunResult;

const KINDS: [WorkloadKind; 4] = [
    WorkloadKind::Terasort,
    WorkloadKind::PageRank,
    WorkloadKind::Aggregation,
    WorkloadKind::Join,
];
/// The tail reported over per-cell wall times (12 cells a pass).
const TAIL_PCT: f64 = 90.0;
/// Repeats the set-up time is a median over.
const SETUP_REPS: usize = 3;
/// The runner's worker-count override (read on every fan-out).
const THREADS_VAR: &str = "SAE_BENCH_THREADS";

/// The twelve cells: every workload on every cluster, seeded.
fn catalog(seed: u64) -> Vec<(EngineConfig, Workload)> {
    let clusters = [
        EngineConfig::four_node_hdd(),
        EngineConfig::four_node_ssd(),
        EngineConfig::sixteen_node_hdd(),
    ];
    KINDS
        .iter()
        .flat_map(|kind| {
            clusters
                .iter()
                .map(move |c| (c.clone().with_seed(seed), kind.build()))
        })
        .collect()
}

/// What one cell's `run_policy` call returned and cost.
struct CellRun {
    runs: Vec<PolicyRun>,
    wall_ms: f64,
    cpu_ms: f64,
}

/// One pass: every cell once, in catalog order.
fn pass(cells: &[(EngineConfig, Workload)]) -> Vec<CellRun> {
    cells
        .iter()
        .map(|(cfg, workload)| {
            let (cpu0, t) = (process_cpu_s(), Instant::now());
            let runs = run_policy(cfg, workload);
            CellRun {
                runs,
                wall_ms: t.elapsed().as_secs_f64() * 1e3,
                cpu_ms: (process_cpu_s() - cpu0) * 1e3,
            }
        })
        .collect()
}

/// Task attempts in the three reports a cell returns. The five sweep
/// runs behind the best-fit table return no report through `run_policy`,
/// so "work" counts the reported runs only; the count is exact per seed.
fn cell_attempts(runs: &[PolicyRun]) -> usize {
    runs.iter().map(|r| r.report.total_attempts()).sum()
}

/// Output checks of one pass against the first: reports identical, and
/// every dynamic run's decision journal ends each stage on a terminal
/// verdict.
fn check_pass(first: &[CellRun], this: &[CellRun]) -> Result<(), String> {
    for (c, (want, got)) in first.iter().zip(this).enumerate() {
        let (want, got) = (&want.runs, &got.runs);
        if want != got {
            return Err(format!(
                "cell {c}: reports differ between passes of one seed"
            ));
        }
        let dynamic = &got[2];
        for stage in &dynamic.report.stages {
            for exec in &stage.executors {
                if exec.journal.last().is_some_and(|r| !r.action.is_terminal()) {
                    return Err(format!(
                        "cell {c} stage {} executor {}: decision journal is not terminal",
                        stage.stage_id, exec.executor
                    ));
                }
            }
        }
    }
    Ok(())
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = xs.map(f64::ln).collect();
    mean(&logs).exp()
}

/// Runs the sweep for about `seconds` (whole passes only).
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    // Pinned before any thread exists; the runner reads it per fan-out.
    std::env::set_var(THREADS_VAR, "1");

    // Set-up as a user meets it: from nothing to the first cell done
    // (catalog, configs, engines, one `run_policy`).
    let mut setup_s = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        cells = catalog(seed);
        std::hint::black_box(run_policy(&cells[0].0, &cells[0].1));
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Warm-up pass: also the reference every later pass must equal, and
    // the estimate of how many whole passes fit the window.
    let t = Instant::now();
    let first = pass(&cells);
    let warm_s = t.elapsed().as_secs_f64();
    check_pass(&first, &first)?;
    // A traced run spends two passes' worth of its window on the
    // runner-layer measurements below.
    let budget = seconds as f64 - if trace { 2.0 * warm_s } else { 0.0 };
    let passes = ((budget / warm_s).floor() as usize).max(1);

    // Every cell is the same deterministic work in every pass, and
    // interference only ever adds to its time, so a cell's cost is its
    // minimum over the passes (the classic estimator for a repeated
    // deterministic item that carries no state from one repeat to the
    // next). A pass's cost is the sum over its cells.
    let started = Instant::now();
    let steal0 = steal_s();
    let mut cell_wall_ms = vec![f64::INFINITY; cells.len()];
    let mut cell_cpu_ms = vec![f64::INFINITY; cells.len()];
    let mut pass_wall_s = Vec::new();
    for _ in 0..passes {
        let this = pass(&cells);
        check_pass(&first, &this)?;
        pass_wall_s.push(this.iter().map(|c| c.wall_ms).sum::<f64>() / 1e3);
        for (c, cell) in this.iter().enumerate() {
            cell_wall_ms[c] = cell_wall_ms[c].min(cell.wall_ms);
            cell_cpu_ms[c] = cell_cpu_ms[c].min(cell.cpu_ms);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let steal_frac = (steal_s() - steal0) / (wall_s * nproc() as f64);
    eprintln!(
        "hypervisor steal over the window: {:.2} % of the box",
        100.0 * steal_frac
    );
    let text: Vec<String> = pass_wall_s.iter().map(|v| format!("{v:.4}")).collect();
    eprintln!("slices pass s: {}", text.join(" "));
    let pass_s = cell_wall_ms.iter().sum::<f64>() / 1e3;
    let by_cost = sorted(cell_wall_ms.clone());

    let attempts_per_pass: usize = first.iter().map(|c| cell_attempts(&c.runs)).sum();
    let jobs = passes * cells.len();
    if !supports(cells.len(), TAIL_PCT) {
        eprintln!(
            "note: {} cells leave fewer than {SAMPLES_BEYOND} beyond p{TAIL_PCT} (they support p{}); \
             read job_latency_tail_ms with that in mind",
            cells.len(),
            highest_supported(cells.len())
        );
    }
    let scratch = Scratch::new().map_err(|e| format!("scratch dir: {e}"))?;
    let fp = fingerprint("sim_policy_sweep", seed, warm_s, wall_s, 1, scratch.path());
    eprintln!("fingerprint: {fp}");

    if !trace {
        return Ok(RunResult {
            correct: true,
            attempted: jobs,
            failed: 0,
            metrics: vec![
                ("setup_s", median(&setup_s)),
                ("jobs_per_s", cells.len() as f64 / pass_s),
                ("work_per_s", attempts_per_pass as f64 / pass_s),
                ("job_latency_p50_ms", percentile(&by_cost, 50.0)),
                ("job_latency_tail_ms", percentile(&by_cost, TAIL_PCT)),
                ("cpu_ms_per_job", mean(&cell_cpu_ms)),
                ("peak_rss_mb", peak_rss_mb()),
            ],
        });
    }

    // ---- per-layer: the runner and the engine, from the outside -------
    // The two runner measurements below are taken once each, so they are
    // set against a typical pass, not against the sum of per-cell minima.
    let pass_s = median(&pass_wall_s);
    let t = Instant::now();
    for (cfg, workload) in &cells {
        std::hint::black_box(derive_bestfit(cfg, workload));
    }
    let bestfit_s = t.elapsed().as_secs_f64();

    std::env::remove_var(THREADS_VAR);
    let t = Instant::now();
    let parallel = pass(&cells);
    let parallel_s = t.elapsed().as_secs_f64();
    std::env::set_var(THREADS_VAR, "1");
    check_pass(&first, &parallel)?;

    // The dynamic run of every cell, plain and traced: exact event
    // counts, per-run engine time, and what the engine's own tracing costs.
    let (mut run_ms, mut plain_s, mut traced_s, mut trace_events) = (Vec::new(), 0.0, 0.0, 0usize);
    for ((cfg, workload), CellRun { runs, .. }) in cells.iter().zip(&first) {
        let engine = Engine::new(workload.configure(cfg.clone()), cfg.adaptive_policy());
        let t = Instant::now();
        let report = engine.run(&workload.job);
        let plain = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (traced_report, events) = engine.run_traced(&workload.job);
        traced_s += t.elapsed().as_secs_f64();
        plain_s += plain;
        run_ms.push(plain * 1e3);
        trace_events += events.len();
        if report != runs[2].report || traced_report != report {
            return Err("dynamic run differs between run, run_traced and run_policy".into());
        }
    }
    let gain = geomean(
        first
            .iter()
            .map(|c| c.runs[0].report.total_runtime / c.runs[2].report.total_runtime),
    );
    let journals: Vec<DecisionRecord> = first
        .iter()
        .flat_map(|cell| &cell.runs[2].report.stages)
        .flat_map(|stage| &stage.executors)
        .flat_map(|exec| exec.journal.iter().cloned())
        .collect();
    let (intervals, final_threads, rollback) = adaptation(&journals);

    let mut metrics = vec![
        ("gen.steal_frac", steal_frac),
        ("sim.adaptive_gain_x", gain),
        ("dag.engine_runs", (cells.len() * 8) as f64),
        ("dag.task_attempts", attempts_per_pass as f64),
        ("dag.trace_events", trace_events as f64),
        ("dag.engine_ms_per_run_p50", median(&run_ms)),
        ("runner.bestfit_share", bestfit_s / pass_s),
        ("runner.parallel_speedup_x", pass_s / parallel_s),
        ("trace.overhead_frac", traced_s / plain_s - 1.0),
        ("trace.spans", trace_events as f64),
        ("trace.window_s", wall_s),
        ("adapt.intervals_per_stage", intervals),
        ("adapt.final_threads_mean", final_threads),
        ("adapt.rollback_frac", rollback),
    ];
    let replayed = replay::all(
        &WireSample::synthetic(),
        scratch.path(),
        10_000,
        &MetricRegistry::new(),
    )
    .map_err(|e| format!("layer replay: {e}"))?;
    let kernel_ns = replayed
        .iter()
        .find(|(n, _)| *n == "sim.kernel_ns_per_event")
        .map_or(0.0, |(_, v)| *v);
    metrics.extend(replayed);

    // Where a pass's wall clock goes, as far as the outside can see.
    let head_to_head_s = pass_s - bestfit_s;
    print_time_table(
        "sim_policy_sweep: one pass (12 cells, 96 simulated runs)",
        "s",
        pass_s,
        &[
            TimeRow::new("runner: best-fit sweep (60 runs)", bestfit_s),
            TimeRow::new("runner: default/bestfit/dynamic (36 runs)", head_to_head_s),
        ],
    );
    eprintln!(
        "  unit costs (counts inside the engine are not visible from outside yet): \
         kernel {kernel_ns:.0} ns/event, dynamic run p50 {:.1} ms, {} trace events per 12 dynamic runs",
        median(&run_ms),
        trace_events
    );
    Ok(RunResult {
        correct: true,
        attempted: jobs,
        failed: 0,
        metrics: fill_missing(metrics),
    })
}
