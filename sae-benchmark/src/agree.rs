//! `--agree`: does the benchmark agree with itself? Two sets of runs of
//! the same build, each run on another seed; per (metric, workload) the
//! spread inside each set and the drift between the sets, against the
//! metric's own bound. This is the acceptance check run locally, and the
//! tool the bounds were calibrated with.

use std::process::{Command, ExitCode};

use sae_live::server::json;

use crate::spec::{Better, MetricSpec, END_TO_END, WORKLOADS};
use crate::stats::{half_range_frac, iqr_frac, median};

/// One child run's end-to-end values, in manifest order.
fn run_child(workload: &str, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .last()
                .unwrap_or("")
        ));
    }
    let doc = json::parse(line).map_err(|e| format!("{workload} seed {seed}: result line: {e}"))?;
    END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: no {} in the result line", m.name))
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it got better).
fn worsening(m: &MetricSpec, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Runs two sets of `runs` runs per workload (all of them, or `only`)
/// and prints the table. Fails on any spread or drift beyond its bound.
pub fn run(runs: usize, seconds: u64, base_seed: u64, only: Option<&str>) -> ExitCode {
    let mut misses = 0;
    println!(
        "{:<18} {:<22} {:>13} {:>8} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median", "iqr_1", "iqr_2", "half_rng", "drift", "bound"
    );
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for i in 0..runs {
                let seed = base_seed + (s * runs + i) as u64;
                eprintln!(
                    "agree: {} set {} run {}/{runs} (seed {seed})",
                    w.name,
                    s + 1,
                    i + 1
                );
                match run_child(w.name, seed, seconds) {
                    Ok(values) => set.push(values),
                    Err(e) => {
                        eprintln!("agree: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for (k, m) in END_TO_END.iter().enumerate() {
            let column = |set: &Vec<Vec<f64>>| set.iter().map(|run| run[k]).collect::<Vec<f64>>();
            let (first, second) = (column(&sets[0]), column(&sets[1]));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (iqr1, iqr2) = (iqr_frac(&first), iqr_frac(&second));
            let drift = worsening(m, median(&first), median(&second));
            // The set-up time's spread is reported but not held to the
            // bound; its drift is.
            let spread_ok = m.name == "setup_s" || (iqr1 <= bound && iqr2 <= bound);
            let ok = spread_ok && drift <= bound;
            let steady = iqr1.max(iqr2) <= bound / 3.0 || m.name == "setup_s";
            misses += usize::from(!ok);
            println!(
                "{:<18} {:<22} {:>13.4} {:>8.4} {:>8.4} {:>8.4} {:>+8.4} {:>7.2}  {}",
                w.name,
                m.name,
                median(&first),
                iqr1,
                iqr2,
                half_range_frac(&first),
                drift,
                bound,
                match (ok, steady) {
                    (false, _) => "MISS",
                    (true, false) => "ok (spread over a third of the bound)",
                    (true, true) => "ok",
                }
            );
        }
    }
    if misses == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("agree: {misses} (metric, workload) pairs outside their bound");
        ExitCode::FAILURE
    }
}
