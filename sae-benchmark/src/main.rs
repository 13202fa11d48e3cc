//! `sae-benchmark`: the one benchmark of this repository.
//!
//! ```text
//! sae-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! sae-benchmark --manifest            # prints BENCHMARK.json
//! sae-benchmark --agree [--sets N]    # two sets of N runs each, spreads and drift vs bounds
//! ```
//!
//! One run measures one workload for `--seconds` seconds and prints, as
//! the last line of stdout, one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. `--trace 0` gives the end-to-end metrics,
//! `--trace 1` the per-layer ones. Everything else (fingerprint, tables,
//! notes) goes to stderr. See README.md beside this file.

mod agree;
mod bed;
mod client;
mod layers;
mod loadgen;
mod replay;
mod server_loads;
mod sim_load;
mod spec;
mod stats;
mod sysinfo;
mod trace;

use std::process::ExitCode;

use spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str =
    "usage: sae-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
                     sae-benchmark --manifest\n       \
                     sae-benchmark --agree [--sets N] [--seconds S] [--seed N] [--workload NAME]";

/// What one run hands to the result line.
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the window.
    pub attempted: usize,
    /// Operations that failed or were refused.
    pub failed: usize,
    /// `(name, value)` for every metric of the requested list.
    pub metrics: Vec<(&'static str, f64)>,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    manifest: bool,
    agree: bool,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        manifest: false,
        agree: false,
        sets: 10,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = num(value()?)?,
            "--seconds" => args.seconds = num(value()?)?.max(1),
            "--trace" => args.trace = num(value()?)? != 0,
            "--sets" => args.sets = num(value()?)?.max(2) as usize,
            "--manifest" => args.manifest = true,
            "--agree" => args.agree = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Formats the result line; values carry every digit they were measured
/// with (`{:?}` is the shortest form that round-trips).
fn result_line(result: &RunResult, specs: &[MetricSpec]) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|m| {
            let value = result
                .metrics
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn run_one(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload}; one of {}",
            names.join(", ")
        ));
    }
    match server_loads::server_workload(workload) {
        Some(wl) => {
            let run = server_loads::run(&wl, seed, seconds, trace)
                .map_err(|e| format!("run is void: {e}"))?;
            layers::server_result(&run, seed, trace)
        }
        None => sim_load::run(seed, seconds, trace),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sae-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", spec::manifest_json());
        return ExitCode::SUCCESS;
    }
    if args.agree {
        return agree::run(args.sets, args.seconds, args.seed, args.workload.as_deref());
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("sae-benchmark: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    match run_one(workload, args.seed, args.seconds, args.trace) {
        Ok(result) => {
            let specs: &[MetricSpec] = if args.trace { &PER_LAYER } else { &END_TO_END };
            for (m, (name, value)) in specs.iter().zip(&result.metrics) {
                debug_assert_eq!(m.name, *name);
                eprintln!("  {:<34} {:>16.6} {}", name, value, m.unit);
            }
            println!("{}", result_line(&result, specs));
            if result.correct && result.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("sae-benchmark: output checks failed or operations failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sae-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
