//! What the process and the box say about themselves: CPU time, peak
//! memory, and the environment fingerprint printed with every run.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Kernel clock ticks per second behind `/proc/self/stat` (USER_HZ is
/// 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds the process's live threads have run, from the scheduler's
/// own nanosecond accounting (`/proc/self/task/*/schedstat`). The
/// `utime`/`stime` of `/proc/self/stat` are sampled on the timer tick:
/// work that starts on a timer wake-up, as an open-loop generator's does,
/// is charged or missed a whole tick at a time, and a per-job CPU figure
/// built on them wanders by 20 % between runs. Threads that have exited
/// drop out of the sum; the fleets and generators here live as long as
/// the window they are measured over. Falls back to the tick counters
/// where schedstat is missing, and to 0.0 where `/proc` is.
pub fn process_cpu_s() -> f64 {
    let ns: Option<u64> = std::fs::read_dir("/proc/self/task").ok().and_then(|tasks| {
        tasks
            .filter_map(Result::ok)
            // A thread may exit between the listing and the read.
            .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
            .map(|s| {
                s.split_whitespace()
                    .next()
                    .and_then(|f| f.parse::<u64>().ok())
            })
            .sum()
    });
    match ns {
        Some(ns) if ns > 0 => ns as f64 / 1e9,
        _ => tick_cpu_s(),
    }
}

/// User + system CPU seconds from the tick counters of `/proc/self/stat`.
fn tick_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields are counted after its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' the first field is #3 (state); utime is #14, stime #15.
    let tick = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(14) + tick(15)) / TICKS_PER_S
}

/// Seconds the hypervisor ran something else while a vCPU of this box
/// wanted to run (`steal` of `/proc/stat`, all CPUs); 0.0 where missing.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            // cpu  user nice system idle iowait irq softirq steal ...
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) in MB; 0.0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type holding `dir`, from the longest matching mount point
/// in `/proc/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind.to_string())
}

/// The commit checked out in `root`, read from `.git` directly: running
/// `git` would search parent directories, and a run must not look outside
/// its checkout. A checkout without `.git` (the acceptance driver's) says so.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "no-git".into();
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

/// The environment a result was measured in, as one JSON object.
pub fn fingerprint(
    workload: &str,
    seed: u64,
    warmup_s: f64,
    window_s: f64,
    generator_workers: usize,
    scratch: &Path,
) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let git_rev = git_rev(Path::new("."));
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"warmup_s\":{warmup_s},\
         \"window_s\":{window_s},\"generator_workers\":{generator_workers},\
         \"nproc\":{},\"kernel\":\"{kernel}\",\"rustc\":\"{}\",\"git_rev\":\"{git_rev}\",\
         \"scratch_fs\":\"{}\"}}",
        nproc(),
        first_line_of("rustc", &["--version"]),
        fs_type(scratch),
    )
}

/// Directory for everything a run writes: beside the executable, so it
/// is inside the checkout's build directory whoever runs the benchmark.
pub fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("sae-benchmark-out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            process_cpu_s() >= before + 0.03,
            "60 ms of spinning is >= 30 ms of CPU"
        );
        assert!(tick_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn fingerprint_names_every_field() {
        let fp = fingerprint("small_closed", 7, 2.0, 20.0, 2, Path::new("."));
        for key in [
            "workload",
            "seed",
            "warmup_s",
            "window_s",
            "generator_workers",
            "nproc",
            "kernel",
            "rustc",
            "git_rev",
            "scratch_fs",
        ] {
            assert!(fp.contains(&format!("\"{key}\":")), "{key} missing in {fp}");
        }
    }
}
