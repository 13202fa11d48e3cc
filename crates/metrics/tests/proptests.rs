//! Property-based tests for the metric primitives.

use proptest::prelude::*;
use sae_metrics::Histogram;

proptest! {
    /// Histogram min/max/mean are consistent with the recorded values and
    /// quantiles stay within [min, max].
    #[test]
    fn histogram_summary_consistent(values in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert!((s.min - min).abs() < 1e-9);
        prop_assert!((s.max - max).abs() < 1e-9);
        prop_assert!((s.mean - mean).abs() < 1e-6 * mean.max(1.0));
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let est = s.quantile(q).unwrap();
            prop_assert!(est >= min - 1e-9 && est <= max + 1e-9);
        }
    }

    /// Quantile estimates have bounded relative error (the bucket growth
    /// factor) for values inside the tracked range.
    #[test]
    fn histogram_quantile_relative_error(values in prop::collection::vec(0.01f64..1e4, 50..500)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s = h.snapshot();
        let exact = sorted[sorted.len() / 2];
        let est = s.quantile(0.5).unwrap();
        prop_assert!(
            (est - exact).abs() / exact < 0.30,
            "p50 estimate {est} vs exact {exact}"
        );
    }
}
