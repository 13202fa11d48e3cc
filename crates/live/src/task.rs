//! Real task bodies for the live executors.
//!
//! Unlike the simulator, which charges virtual seconds for modelled I/O,
//! these tasks *do* the work: a spill task generates Terasort records and
//! writes them through `sae_workloads::spill`; a sort task reads the
//! partition back, sorts it by key and writes the sorted run. Measured I/O
//! (bytes moved, wall time blocked) is recorded into the executor's
//! [`CounterProbe`] so the MAPE-K monitor sees the task's true I/O share —
//! this is the per-task half of the shared probe, needed because all
//! executors of a live cluster share one OS process and `/proc/self/io`
//! alone cannot attribute traffic to an executor.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sae_pool::CounterProbe;
use sae_workloads::datagen::teragen;
use sae_workloads::spill::{read_records, write_records, RECORD_BYTES};

use crate::job::LiveStageKind;

/// Job id the single-job driver runs its job under, on the wire and in
/// the spill dir: its artifacts live in the `j0-` namespace.
pub(crate) const SINGLE_JOB: u64 = 0;

/// Path of job `job` task `task`'s spill partition inside `dir`.
///
/// The job prefix namespaces the shared spill dir: a job server runs many
/// jobs against one fleet and one TempDir, and two jobs' task 3 must not
/// collide (same-keyed files would cross-contaminate lineage recovery).
pub fn spill_path(dir: &Path, job: u64, task: usize) -> PathBuf {
    dir.join(format!("j{job}-t{task}.spill"))
}

/// Path of job `job` task `task`'s sorted output inside `dir`.
pub fn sorted_path(dir: &Path, job: u64, task: usize) -> PathBuf {
    dir.join(format!("j{job}-t{task}.sorted"))
}

/// Derives task `task`'s record-stream seed from the stage seed.
fn task_seed(seed: u64, task: usize) -> u64 {
    seed ^ (task as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Path a corrupt spill is quarantined under for post-mortem inspection.
fn quarantine_path(dir: &Path, job: u64, task: usize) -> PathBuf {
    dir.join(format!("j{job}-t{task}.spill.corrupt"))
}

/// Reads task `task`'s spill partition, recovering from the two spill
/// failure modes:
///
/// * **Corrupt** (checksum/format mismatch): the file is quarantined under
///   `t<task>.spill.corrupt` and the error propagates, so the driver sees
///   a *retryable* task failure instead of a mis-sorted run.
/// * **Missing** (never written here, or quarantined by a previous
///   attempt): the partition is regenerated from its deterministic
///   lineage — `teragen` over [`task_seed`] produces byte-identical
///   records to the original spill task on any executor — re-spilled, and
///   the sort proceeds.
fn read_or_regenerate(
    dir: &Path,
    job: u64,
    task: usize,
    records_per_task: usize,
    seed: u64,
    io_probe: &CounterProbe,
) -> io::Result<Vec<sae_workloads::datagen::TeraRecord>> {
    match read_records(&spill_path(dir, job, task)) {
        Ok(records) => Ok(records),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            let _ = std::fs::rename(spill_path(dir, job, task), quarantine_path(dir, job, task));
            Err(e)
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let records = teragen(records_per_task, task_seed(seed, task));
            let started = Instant::now();
            let bytes = write_records(&spill_path(dir, job, task), &records)?;
            io_probe.record(bytes, started.elapsed());
            Ok(records)
        }
        Err(e) => Err(e),
    }
}

/// Runs one task attempt to completion, recording its I/O into `io_probe`.
///
/// Errors propagate to the caller, which reports a failed
/// `JobTaskOutcome` — e.g. a sort task whose input partition failed its checksum
/// (the corrupt file is quarantined, so the retry regenerates it from
/// lineage and completes).
pub fn run_task(
    kind: LiveStageKind,
    job: u64,
    task: usize,
    records_per_task: usize,
    seed: u64,
    dir: &Path,
    io_probe: &CounterProbe,
) -> io::Result<()> {
    match kind {
        LiveStageKind::Spill => {
            let records = teragen(records_per_task, task_seed(seed, task));
            let started = Instant::now();
            let bytes = write_records(&spill_path(dir, job, task), &records)?;
            io_probe.record(bytes, started.elapsed());
        }
        LiveStageKind::Sort => {
            let read_started = Instant::now();
            let mut records = read_or_regenerate(dir, job, task, records_per_task, seed, io_probe)?;
            io_probe.record(
                (records.len() * RECORD_BYTES) as u64,
                read_started.elapsed(),
            );
            records.sort_unstable_by_key(|r| r.key);
            if records.windows(2).any(|w| w[0].key > w[1].key) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("task {task}: sorted run is out of order"),
                ));
            }
            let write_started = Instant::now();
            let bytes = write_records(&sorted_path(dir, job, task), &records)?;
            io_probe.record(bytes, write_started.elapsed());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sae_workloads::spill::FOOTER_BYTES;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sae-live-task-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spill_then_sort_produces_a_sorted_run() {
        let dir = temp_dir("spill-sort");
        let probe = CounterProbe::new();
        run_task(LiveStageKind::Spill, 0, 4, 300, 11, &dir, &probe).unwrap();
        run_task(LiveStageKind::Sort, 0, 4, 300, 11, &dir, &probe).unwrap();
        let sorted = read_records(&sorted_path(&dir, 0, 4)).unwrap();
        assert_eq!(sorted.len(), 300);
        assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
        let (wait_secs, mb) = probe.sample();
        assert!(wait_secs >= 0.0);
        // Spill write + sort read + sort write = 3 passes over the data;
        // the two writes also carry the checksum footer.
        let expected_mb = (3 * 300 * RECORD_BYTES + 2 * FOOTER_BYTES) as f64 / (1024.0 * 1024.0);
        assert!(
            (mb - expected_mb).abs() < 1e-9,
            "got {mb}, want {expected_mb}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sort_without_spill_regenerates_from_lineage() {
        let dir = temp_dir("no-spill");
        let probe = CounterProbe::new();
        // No spill task ever ran here: the sort regenerates the partition
        // from its deterministic lineage and still produces the same run a
        // spill-then-sort pair would.
        run_task(LiveStageKind::Sort, 0, 0, 10, 1, &dir, &probe).unwrap();
        let mut expected = teragen(10, task_seed(1, 0));
        expected.sort_unstable_by_key(|r| r.key);
        assert_eq!(read_records(&sorted_path(&dir, 0, 0)).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_spill_fails_retryably_then_recovers() {
        let dir = temp_dir("corrupt-spill");
        let probe = CounterProbe::new();
        run_task(LiveStageKind::Spill, 0, 3, 200, 17, &dir, &probe).unwrap();
        // Bit rot lands in the middle of the spill.
        let path = spill_path(&dir, 0, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // First sort attempt: a retryable failure, the corpse quarantined.
        let err = run_task(LiveStageKind::Sort, 0, 3, 200, 17, &dir, &probe).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!path.exists(), "corrupt spill must be quarantined");
        assert!(quarantine_path(&dir, 0, 3).exists());
        // The retry regenerates from lineage and completes.
        run_task(LiveStageKind::Sort, 0, 3, 200, 17, &dir, &probe).unwrap();
        let sorted = read_records(&sorted_path(&dir, 0, 3)).unwrap();
        assert_eq!(sorted.len(), 200);
        assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retried_spill_overwrites_the_partial_attempt() {
        let dir = temp_dir("retry");
        let probe = CounterProbe::new();
        // A "crashed" first attempt leaves a partial record behind.
        std::fs::write(spill_path(&dir, 0, 2), [0u8; 42]).unwrap();
        run_task(LiveStageKind::Spill, 0, 2, 50, 3, &dir, &probe).unwrap();
        run_task(LiveStageKind::Sort, 0, 2, 50, 3, &dir, &probe).unwrap();
        assert_eq!(read_records(&sorted_path(&dir, 0, 2)).unwrap().len(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn task_seeds_differ_per_task() {
        assert_ne!(task_seed(7, 0), task_seed(7, 1));
    }
}
