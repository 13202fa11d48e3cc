//! Concurrency-dependent capacity curves for processor-sharing resources.

/// Maximum number of distinguishable flow classes on a resource.
///
/// Classes let a capacity curve react to the *mix* of traffic (e.g. a disk
/// that slows down when reads and writes interleave). The storage layer uses
/// class 0 for reads, 1 for writes, 2 for shuffle-serving reads.
pub(crate) const MAX_FLOW_CLASSES: usize = 4;

/// The number of active flows on a resource, broken down by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCounts {
    counts: [usize; MAX_FLOW_CLASSES],
}

impl ClassCounts {
    /// Creates an empty count set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Total flows across all classes.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Flows of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class >= MAX_FLOW_CLASSES`.
    pub fn of(&self, class: u8) -> usize {
        self.counts[class as usize]
    }

    pub(crate) fn add(&mut self, class: u8) {
        self.counts[class as usize] += 1;
    }

    pub(crate) fn remove(&mut self, class: u8) {
        debug_assert!(self.counts[class as usize] > 0);
        self.counts[class as usize] -= 1;
    }
}

/// How a resource's aggregate capacity responds to concurrency.
///
/// The curve maps the active [`ClassCounts`] to an aggregate service rate in
/// work units per second. The kernel divides that rate equally among active
/// flows (subject to the optional per-flow cap), which models
/// processor-sharing service (CFQ-style disk scheduling, fair CPU
/// timesharing, per-connection TCP fairness).
///
/// # Examples
///
/// ```
/// use sae_sim::{CapacityCurve, Kernel, Occurrence};
///
/// // A 16-core CPU: aggregate capacity 16 core-seconds/s, but one flow
/// // (thread) can never use more than 1 core.
/// let mut kernel = Kernel::new();
/// let cpu = kernel.add_resource(CapacityCurve::constant(16.0).with_per_flow_cap(1.0));
/// kernel.start_flow(cpu, 0, 2.0, "task");
/// // Alone on 16 cores, 2 core-seconds of work still take 2 s.
/// match kernel.next() {
///     Some(Occurrence::FlowCompleted { at, .. }) => assert_eq!(at.seconds(), 2.0),
///     other => panic!("expected a completion, got {other:?}"),
/// }
/// ```
#[derive(Clone)]
pub struct CapacityCurve {
    kind: CurveKind,
    per_flow_cap: f64,
}

impl std::fmt::Debug for CapacityCurve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            CurveKind::Constant(c) => format!("Constant({c})"),
            CurveKind::Table(t) => format!("Table({} entries)", t.len()),
            CurveKind::Fn(_) => "Fn(..)".to_owned(),
        };
        f.debug_struct("CapacityCurve")
            .field("kind", &kind)
            .field("per_flow_cap", &self.per_flow_cap)
            .finish()
    }
}

#[derive(Clone)]
enum CurveKind {
    /// Capacity independent of concurrency.
    Constant(f64),
    /// A caller-provided table: capacity at n = 1, 2, 3, ... flows
    /// (last entry repeats for larger n). Entry for n = 0 is implicit 0.
    Table(Vec<f64>),
    /// Capacity computed by an arbitrary function of the class mix.
    Fn(std::sync::Arc<dyn Fn(&ClassCounts) -> f64 + Send + Sync>),
}

impl CapacityCurve {
    /// A resource whose aggregate capacity never varies with concurrency.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and positive.
    pub fn constant(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be finite and positive, got {capacity}"
        );
        Self {
            kind: CurveKind::Constant(capacity),
            per_flow_cap: f64::INFINITY,
        }
    }

    /// A resource whose capacity is looked up by flow count.
    ///
    /// `table[i]` is the aggregate capacity with `i + 1` active flows; the
    /// final entry is used for any higher concurrency.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or contains a non-positive/non-finite
    /// entry.
    pub fn table(table: Vec<f64>) -> Self {
        assert!(!table.is_empty(), "capacity table must not be empty");
        for &c in &table {
            assert!(
                c.is_finite() && c > 0.0,
                "capacity table entries must be finite and positive, got {c}"
            );
        }
        Self {
            kind: CurveKind::Table(table),
            per_flow_cap: f64::INFINITY,
        }
    }

    /// A resource whose capacity is an arbitrary function of the class mix.
    ///
    /// The function must return a finite, strictly positive value whenever
    /// at least one flow is active; the kernel asserts this.
    pub fn from_fn(f: impl Fn(&ClassCounts) -> f64 + Send + Sync + 'static) -> Self {
        Self {
            kind: CurveKind::Fn(std::sync::Arc::new(f)),
            per_flow_cap: f64::INFINITY,
        }
    }

    /// Limits how much of the aggregate capacity a single flow may consume
    /// (e.g. one thread ≤ one CPU core).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not positive.
    pub fn with_per_flow_cap(mut self, cap: f64) -> Self {
        assert!(cap > 0.0, "per-flow cap must be positive, got {cap}");
        self.per_flow_cap = cap;
        self
    }

    /// Aggregate capacity for the given class mix.
    pub(crate) fn aggregate(&self, counts: &ClassCounts) -> f64 {
        let n = counts.total();
        if n == 0 {
            return 0.0;
        }
        match &self.kind {
            CurveKind::Constant(c) => *c,
            CurveKind::Table(t) => t[(n - 1).min(t.len() - 1)],
            CurveKind::Fn(f) => f(counts),
        }
    }

    /// Per-flow service rate for the given class mix (equal sharing, capped).
    pub(crate) fn per_flow_rate(&self, counts: &ClassCounts) -> f64 {
        let n = counts.total();
        if n == 0 {
            return 0.0;
        }
        (self.aggregate(counts) / n as f64).min(self.per_flow_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(n: usize) -> ClassCounts {
        let mut c = ClassCounts::new();
        for _ in 0..n {
            c.add(0);
        }
        c
    }

    #[test]
    fn constant_curve_is_flat() {
        let c = CapacityCurve::constant(10.0);
        assert_eq!(c.aggregate(&counts(1)), 10.0);
        assert_eq!(c.aggregate(&counts(100)), 10.0);
        assert_eq!(c.aggregate(&counts(0)), 0.0);
    }

    #[test]
    fn table_curve_lookup_and_saturation() {
        let c = CapacityCurve::table(vec![4.0, 6.0, 7.0]);
        assert_eq!(c.aggregate(&counts(1)), 4.0);
        assert_eq!(c.aggregate(&counts(2)), 6.0);
        assert_eq!(c.aggregate(&counts(3)), 7.0);
        assert_eq!(c.aggregate(&counts(50)), 7.0);
    }

    #[test]
    fn per_flow_rate_shares_equally() {
        let c = CapacityCurve::constant(10.0);
        assert_eq!(c.per_flow_rate(&counts(4)), 2.5);
    }

    #[test]
    fn per_flow_cap_limits_single_flow() {
        let c = CapacityCurve::constant(16.0).with_per_flow_cap(1.0);
        assert_eq!(c.per_flow_rate(&counts(2)), 1.0); // 8.0 uncapped
        assert_eq!(c.per_flow_rate(&counts(32)), 0.5);
    }

    #[test]
    fn fn_curve_sees_class_mix() {
        let c = CapacityCurve::from_fn(|counts| if counts.of(1) > 0 { 5.0 } else { 10.0 });
        let mut mixed = ClassCounts::new();
        mixed.add(0);
        mixed.add(1);
        assert_eq!(c.aggregate(&mixed), 5.0);
        assert_eq!(c.aggregate(&counts(2)), 10.0);
    }

    #[test]
    fn class_counts_bookkeeping() {
        let mut c = ClassCounts::new();
        c.add(0);
        c.add(0);
        c.add(2);
        assert_eq!(c.total(), 3);
        assert_eq!(c.of(0), 2);
        assert_eq!(c.of(2), 1);
        c.remove(0);
        assert_eq!(c.of(0), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = CapacityCurve::constant(0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_table_rejected() {
        let _ = CapacityCurve::table(vec![]);
    }
}
