//! The backend-agnostic pool trait the controller's decisions resize.

/// A worker pool whose maximum size can be adjusted at runtime.
///
/// The paper's effector calls Java's
/// `ThreadPoolExecutor.setMaximumPoolSize()`; the simulated executor in
/// `sae-dag` and the real pool in `sae-pool` both implement this trait so
/// the same controller drives either.
pub trait TunablePool {
    /// Current maximum number of concurrently running workers.
    fn max_pool_size(&self) -> usize;

    /// Sets the maximum number of concurrently running workers.
    ///
    /// Implementations must tolerate both growth and shrink while tasks are
    /// in flight: running tasks are never aborted; a shrink takes effect as
    /// tasks complete.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `size` is zero.
    fn set_max_pool_size(&mut self, size: usize);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakePool(usize);

    impl TunablePool for FakePool {
        fn max_pool_size(&self) -> usize {
            self.0
        }
        fn set_max_pool_size(&mut self, size: usize) {
            self.0 = size;
        }
    }

    #[test]
    fn tunable_pool_roundtrip() {
        let mut p = FakePool(32);
        assert_eq!(p.max_pool_size(), 32);
        p.set_max_pool_size(8);
        assert_eq!(p.max_pool_size(), 8);
    }

    #[test]
    fn tunable_pool_is_object_safe() {
        let mut p = FakePool(1);
        let pool: &mut dyn TunablePool = &mut p;
        pool.set_max_pool_size(2);
    }
}
