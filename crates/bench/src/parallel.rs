//! Deterministic scoped-thread fan-out for independent simulation runs.
//!
//! Every simulation in this crate is a pure function of its inputs (seeds
//! live inside `EngineConfig`/`Workload`), so independent runs can execute
//! on any thread without changing their results. The only thing
//! parallelism could perturb is *collection order* — so `par_map_indexed`
//! writes each result into a slot keyed by its input index and returns them
//! in input order, making the output bit-identical to a serial loop
//! regardless of worker count or scheduling.
//!
//! Worker count comes from `worker_count`: the `SAE_BENCH_THREADS`
//! environment variable when set (a value of `1` forces the serial path),
//! otherwise [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads a fan-out may use.
///
/// Reads `SAE_BENCH_THREADS` on every call (cheap relative to a simulation
/// run) so tests can flip between serial and parallel execution.
pub(crate) fn worker_count() -> usize {
    if let Ok(v) = std::env::var("SAE_BENCH_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `0..n` on up to [`worker_count`] scoped threads and
/// returns the results **in input order**.
///
/// Work is handed out through an atomic counter (dynamic load balancing —
/// simulation runs have very uneven durations), but each result lands in
/// the slot of its index, so the returned `Vec` is identical to
/// `(0..n).map(f).collect()` bit for bit. A panicking task propagates out
/// of the scope, same as in the serial loop.
pub(crate) fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = worker_count().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

/// Maps `f` over a slice in parallel, results in input order.
pub(crate) fn par_map_slice<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        // Reverse sleep durations so later indices finish first.
        let out = par_map_indexed(16, |i| {
            std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
            i * i
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_work() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn slice_variant_preserves_order() {
        let items = vec!["a", "bb", "ccc"];
        assert_eq!(par_map_slice(&items, |s| s.len()), vec![1, 2, 3]);
    }
}
