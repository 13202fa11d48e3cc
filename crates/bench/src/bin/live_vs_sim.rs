//! Side-by-side pool-size decision traces: simulated engine vs the live
//! TCP runtime.
//!
//! Both runtimes drive the same MAPE-K controller (`c_min=2`, `c_max=8`)
//! over the same protocol messages; what differs is everything around it —
//! virtual time vs wall clock, modelled I/O vs real spill files, in-memory
//! mailboxes vs loopback sockets. If the reproduction is faithful, the
//! *shape* of the decision traces should match: every stage resets to
//! `c_min`, every climb is a doubling ascent from `c_min` (with at most a
//! trailing rollback), every decision stays within bounds, and the
//! driver's slot registry ends consistent with the last `PoolSizeChanged`
//! it saw.
//!
//! ```sh
//! cargo run --release -p sae-bench --bin live_vs_sim -- --out traces.json
//! ```
//!
//! `--out <path>` persists both decision traces and the agreement verdicts
//! as a JSON document for offline comparison and plotting.

use sae_core::{MapeConfig, ThreadPolicy};
use sae_dag::EngineConfig;
use sae_live::{terasort, ClusterConfig, LiveCluster, LiveReport};
use sae_workloads::WorkloadKind;

const EXECUTORS: usize = 3;
const C_MIN: usize = 2;
const C_MAX: usize = 8;

fn sim_traces() -> Vec<(String, Vec<Vec<usize>>)> {
    let cfg = EngineConfig::four_node_hdd().with_nodes(EXECUTORS);
    let workload = WorkloadKind::Terasort.build();
    let report = sae_bench::run_workload(
        &cfg,
        &workload,
        ThreadPolicy::Adaptive(MapeConfig::new(C_MIN, C_MAX)),
    );
    report
        .stages
        .iter()
        .map(|s| {
            let mut traces = vec![Vec::new(); EXECUTORS];
            for e in &s.executors {
                traces[e.executor] = e.decisions.clone();
            }
            (s.name.clone(), traces)
        })
        .collect()
}

/// Runs the same-seed loopback Terasort on the live cluster.
fn live_report() -> LiveReport {
    let mut cluster = LiveCluster::launch(ClusterConfig {
        executors: EXECUTORS,
        mape: MapeConfig::new(C_MIN, C_MAX),
        ..ClusterConfig::default()
    })
    .expect("launch live cluster");
    let report = cluster
        .run(&terasort(24, 20_000, 2026))
        .expect("live terasort");
    cluster.shutdown().expect("executor threads exit cleanly");
    report
}

fn decision_traces(report: &LiveReport) -> Vec<Vec<usize>> {
    (0..EXECUTORS)
        .map(|e| {
            report
                .decisions
                .iter()
                .filter(|d| d.executor == e)
                .map(|d| d.size)
                .collect()
        })
        .collect()
}

fn trace_shape(trace: &[usize]) -> String {
    if trace.is_empty() {
        return "(no adaptation)".into();
    }
    let mut s = format!("{:?}", trace);
    if trace.first() == Some(&C_MIN) {
        s.push_str("  [starts at c_min]");
    }
    s
}

/// Split a pool-size decision trace into climb segments: a new segment
/// begins at every reset to `c_min` (each stage start resets the pool, so
/// a two-stage job yields at least two segments per executor).
fn climb_segments(trace: &[usize]) -> Vec<Vec<usize>> {
    let mut segments: Vec<Vec<usize>> = Vec::new();
    for &size in trace {
        if size == C_MIN || segments.is_empty() {
            segments.push(vec![size]);
        } else {
            segments.last_mut().unwrap().push(size);
        }
    }
    segments
}

/// The §5.2 hill-climbing signature: a segment is valid iff it starts at
/// `c_min` and ascends by doubling (capped at `c_max`) — or takes the
/// §5.3 low-I/O shortcut straight to `c_max` — with at most one trailing
/// rollback below the peak. `PoolSizeChanged` is only sent when the size
/// *changes*, so Hold decisions never appear — which is exactly why this
/// shape is checkable on the wire trace.
fn is_doubling_climb(segment: &[usize]) -> bool {
    if segment.first() != Some(&C_MIN) {
        return false;
    }
    let mut i = 1;
    while i < segment.len()
        && (segment[i] == (segment[i - 1] * 2).min(C_MAX)
            || (segment[i] == C_MAX && segment[i] > segment[i - 1]))
    {
        i += 1;
    }
    match segment.len() - i {
        0 => true,
        // One trailing rollback: back down below the peak, never past c_min.
        1 => i >= 2 && segment[i] < segment[i - 1] && segment[i] >= C_MIN,
        _ => false,
    }
}

fn peak(traces: &[Vec<usize>]) -> usize {
    traces.iter().flatten().copied().max().unwrap_or(C_MIN)
}

fn json_trace_array(traces: &[Vec<usize>]) -> String {
    let inner: Vec<String> = traces
        .iter()
        .map(|t| {
            let vals: Vec<String> = t.iter().map(|v| v.to_string()).collect();
            format!("[{}]", vals.join(","))
        })
        .collect();
    format!("[{}]", inner.join(","))
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    sim: &[(String, Vec<Vec<usize>>)],
    live: &LiveReport,
    live_traces: &[Vec<usize>],
    sim_peak: usize,
    live_peak: usize,
    climbs_valid: bool,
    in_bounds: bool,
    registry_consistent: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"executors\": {EXECUTORS}, \"c_min\": {C_MIN}, \"c_max\": {C_MAX}}},\n"
    ));
    out.push_str("  \"sim\": [\n");
    for (i, (name, traces)) in sim.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"stage\": \"{name}\", \"decisions\": {}}}{}\n",
            json_trace_array(traces),
            if i + 1 < sim.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"live\": {{\"runtime_secs\": {:?}, \"decisions\": {}, \"registry\": [{}]}},\n",
        live.runtime_secs,
        json_trace_array(live_traces),
        live.registry
            .iter()
            .map(|s| s.slots.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    out.push_str(&format!(
        "  \"agreement\": {{\"sim_peak\": {sim_peak}, \"live_peak\": {live_peak}, \
         \"climbs_valid\": {climbs_valid}, \"in_bounds\": {in_bounds}, \
         \"registry_consistent\": {registry_consistent}}}\n"
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let mut out_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = Some(args.next().expect("--out requires a path"));
            }
            other => panic!("unknown argument {other:?} (supported: --out <path>)"),
        }
    }

    println!("== simulated engine: adaptive Terasort, {EXECUTORS} nodes, MAPE {C_MIN}..{C_MAX} ==");
    let sim = sim_traces();
    for (name, traces) in &sim {
        println!("stage {name}:");
        for (e, trace) in traces.iter().enumerate() {
            println!("  executor {e}: {}", trace_shape(trace));
        }
    }

    println!();
    println!(
        "== live runtime: loopback Terasort (24 tasks x 20k records), {EXECUTORS} executors =="
    );
    let live = live_report();
    let live_traces = decision_traces(&live);
    for (e, trace) in live_traces.iter().enumerate() {
        println!("  executor {e}: {}", trace_shape(trace));
    }
    println!(
        "  {} PoolSizeChanged round-trips over {:.2}s; final registry: {:?}",
        live.decisions.len(),
        live.runtime_secs,
        live.registry.iter().map(|s| s.slots).collect::<Vec<_>>()
    );

    // The faithfulness checks the traces must share.
    let sim_flat: Vec<Vec<usize>> = sim.iter().flat_map(|(_, ts)| ts.iter().cloned()).collect();
    let in_bounds = sim_flat
        .iter()
        .chain(live_traces.iter())
        .flatten()
        .all(|&d| (C_MIN..=C_MAX).contains(&d));
    let live_resets = live.decisions.iter().any(|d| d.size == C_MIN);
    let registry_consistent = (0..EXECUTORS).all(|e| {
        live.decisions
            .iter()
            .rev()
            .find(|d| d.executor == e)
            .is_none_or(|d| live.registry[e].slots == d.size)
    });

    // Climb-sequence agreement: decompose every non-empty trace from both
    // runtimes into segments and demand each one carries the controller's
    // doubling signature.
    let mut climbs_valid = true;
    for (origin, traces) in [("sim", &sim_flat), ("live", &live_traces)] {
        for (e, trace) in traces.iter().enumerate() {
            for segment in climb_segments(trace) {
                if !is_doubling_climb(&segment) {
                    climbs_valid = false;
                    println!(
                        "  !! {origin} trace {e}: segment {segment:?} is not a doubling climb"
                    );
                }
            }
        }
    }
    let sim_peak = peak(&sim_flat);
    let live_peak = peak(&live_traces);

    println!();
    println!("== agreement ==");
    println!("decisions within [c_min, c_max]:  {in_bounds}");
    println!("every climb segment doubles from c_min (± one rollback): {climbs_valid}");
    println!("peak pool size reached:           sim={sim_peak}  live={live_peak}");
    println!("live registry == last decision per executor: {registry_consistent}");

    if let Some(path) = &out_path {
        let json = render_json(
            &sim,
            &live,
            &live_traces,
            sim_peak,
            live_peak,
            climbs_valid,
            in_bounds,
            registry_consistent,
        );
        std::fs::write(path, json).expect("write --out JSON");
        println!("wrote decision traces to {path}");
    }

    assert!(
        in_bounds && live_resets && registry_consistent,
        "decision traces diverged structurally"
    );
    assert!(
        climbs_valid,
        "a decision trace violated the doubling-climb signature"
    );
    assert!(
        sim_peak > C_MIN,
        "the simulated runtime never climbed above c_min"
    );
    assert!(
        live_peak > C_MIN,
        "the live runtime never climbed above c_min"
    );
    println!("OK: both runtimes show the same adaptation shape");
}
