//! A real OS-thread pool with a runtime-adjustable maximum size.
//!
//! The simulated executors in `sae-dag` demonstrate the paper's results at
//! cluster scale; this crate demonstrates the *mechanism* on actual
//! threads: a work-stealing-free, bounded pool whose maximum worker count
//! can be changed while tasks are in flight — the Rust analogue of Java's
//! `ThreadPoolExecutor.setMaximumPoolSize()` that the paper's effector
//! calls (§5.4).
//!
//! * [`DynamicThreadPool`] — the pool itself. Growth takes effect
//!   immediately (new workers spawn); shrink is cooperative (running tasks
//!   finish, surplus workers retire afterwards). Panicking tasks are
//!   contained and counted.
//! * [`AdaptivePool`] — glues a [`DynamicThreadPool`] to the MAPE-K
//!   controller from `sae-core` and a caller-supplied I/O probe, making
//!   the pool self-adaptive end to end.
//!
//! # Examples
//!
//! ```
//! use sae_pool::DynamicThreadPool;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let pool = DynamicThreadPool::new(4);
//! let counter = Arc::new(AtomicUsize::new(0));
//! for _ in 0..100 {
//!     let counter = Arc::clone(&counter);
//!     pool.submit(move || {
//!         counter.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! pool.shutdown();
//! assert_eq!(counter.load(Ordering::Relaxed), 100);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod adaptive;
mod dynamic;
pub mod probe;
pub mod procfs;

pub use adaptive::AdaptivePool;
pub use dynamic::{DynamicThreadPool, PoolMetrics};
pub use probe::{combined_probe, CounterProbe};
