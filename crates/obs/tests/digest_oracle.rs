//! Acceptance suite for the log-linear quantile digest: p50/p99/p999 must
//! stay within 2% relative error of an exact-sort nearest-rank oracle over
//! proptest-generated distributions, which is the path the profiler and
//! the trace bench rely on.

use omni_obs::{QuantileDigest, RELATIVE_ERROR_BOUND};
use proptest::prelude::*;

/// Nearest-rank exact quantile, same rank convention as the digest
/// (`rank = ceil(q·n)` clamped into `[1, n]`).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn relative_error(est: u64, exact: u64) -> f64 {
    (est as f64 - exact as f64).abs() / (exact as f64).max(1.0)
}

/// Samples spanning the exact region, several log octaves, and
/// second-to-hour-scale latencies in microseconds.
fn sample_value() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, 64u64..4_096, 4_096u64..1_000_000, 1_000_000u64..4_000_000_000,]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantiles_track_the_exact_sort_oracle(
        values in proptest::collection::vec(sample_value(), 1..800)
    ) {
        let mut d = QuantileDigest::new();
        for &v in &values {
            d.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(d.count(), values.len() as u64);
        for q in [0.50, 0.99, 0.999] {
            let exact = exact_quantile(&sorted, q);
            let est = d.quantile(q);
            let err = relative_error(est, exact);
            prop_assert!(
                err <= 0.02,
                "q={} digest={} exact={} err={:.4}",
                q, est, exact, err
            );
        }
    }

}

#[test]
fn advertised_bound_is_under_two_percent() {
    // Compile-time pin: shrinking SUBBUCKETS below the ≤2% acceptance
    // bound fails the build, not just this test.
    const { assert!(RELATIVE_ERROR_BOUND <= 0.02) }
}
