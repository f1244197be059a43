//! Property tests for the quantile sketch's two contracts: every
//! quantile estimate stays within the declared relative-error bound of
//! the exact sorted-order quantile, and `merge` is exactly
//! order-independent.

use proptest::prelude::*;
use swprof::slo::sketch::{QSketch, RELATIVE_ERROR};

/// Exact nearest-rank percentile, the same integer formula the
/// sketch's `quantile_pct` targets (and `swserve::loadgen` uses).
fn exact_pct(sorted: &[u64], pct: u64) -> u64 {
    sorted[((sorted.len() as u64 - 1) * pct / 100) as usize]
}

fn assert_within_bound(samples: &[u64]) {
    let mut sketch = QSketch::new();
    for &v in samples {
        sketch.add(v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    for pct in [50u64, 90, 99] {
        let exact = exact_pct(&sorted, pct);
        let est = sketch.quantile_pct(pct);
        let err = est.abs_diff(exact) as f64;
        assert!(
            err <= RELATIVE_ERROR * exact as f64,
            "p{pct}: est {est} vs exact {exact} over {} samples (bound {})",
            samples.len(),
            RELATIVE_ERROR * exact as f64
        );
    }
}

proptest! {
    /// p50/p90/p99 within the declared bound over uniform latencies.
    #[test]
    fn quantiles_within_bound_uniform(
        samples in prop::collection::vec(1u64..100_000_000, 1..400),
    ) {
        assert_within_bound(&samples);
    }

    /// Same bound over a heavy-tailed (quadratic-ramp) distribution —
    /// the shape chaos loadgen latencies actually take, with a dense
    /// low mode and a sparse convoy tail.
    #[test]
    fn quantiles_within_bound_heavy_tail(
        base in prop::collection::vec(1u64..2_000_000, 1..300),
        tail in prop::collection::vec(8_000_000u64..60_000_000, 0..30),
    ) {
        let mut samples = base;
        samples.extend(tail);
        assert_within_bound(&samples);
    }

    /// Merging any split of a sample set, in either order, yields the
    /// same sketch as bulk insertion — so per-window sketches can roll
    /// up into any-timestamp dashboard percentiles without drift.
    #[test]
    fn merge_is_order_independent(
        samples in prop::collection::vec(0u64..1_000_000_000, 0..300),
        cut in 0usize..300,
    ) {
        let cut = cut.min(samples.len());
        let mut bulk = QSketch::new();
        let mut left = QSketch::new();
        let mut right = QSketch::new();
        for (i, &v) in samples.iter().enumerate() {
            bulk.add(v);
            if i < cut {
                left.add(v);
            } else {
                right.add(v);
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        prop_assert_eq!(&lr, &rl);
        prop_assert_eq!(&lr, &bulk);
        // And quantiles of the merged sketch match the bulk sketch
        // bit-for-bit.
        for pct in [0u64, 50, 99, 100] {
            prop_assert_eq!(lr.quantile_pct(pct), bulk.quantile_pct(pct));
        }
    }

    /// Three-way merges associate: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn merge_associates(
        a in prop::collection::vec(0u64..10_000_000, 0..100),
        b in prop::collection::vec(0u64..10_000_000, 0..100),
        c in prop::collection::vec(0u64..10_000_000, 0..100),
    ) {
        let sk = |vals: &[u64]| {
            let mut s = QSketch::new();
            for &v in vals {
                s.add(v);
            }
            s
        };
        let (sa, sb, sc) = (sk(&a), sk(&b), sk(&c));
        let mut ab_c = sa.clone();
        ab_c.merge(&sb);
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
    }
}
