//! Order statistics for wall-clock samples.

/// Nearest-rank percentile (`0 <= pct <= 100`) of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, or `None` below 20 samples (where not even the median
/// qualifies). A tail is only reported at or below this percentile.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= 10)
}

/// Median, quartiles and count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
    /// them (exclusive method, linear interpolation) and the median as
    /// `statistics.median` does, so spreads read the same here as in
    /// the driver that accepts or rejects the benchmark.
    pub fn of(samples: &[f64]) -> Self {
        let v = sorted(samples);
        let n = v.len();
        assert!(n > 0, "summary of no samples");
        let quartile = |i: usize| {
            if n < 2 {
                return v[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Self {
            n,
            q1: quartile(1),
            p50: (v[(n - 1) / 2] + v[n / 2]) / 2.0,
            q3: quartile(3),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.p50.abs()
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A percentile of `samples`, refused (panic: a harness bug) when fewer
/// than ten samples lie beyond it.
pub fn tail(samples: &[f64], pct: u32) -> f64 {
    assert!(
        tail_percentile(samples.len()).is_some_and(|max| pct <= max),
        "p{pct} of {} samples has fewer than ten samples beyond it",
        samples.len()
    );
    percentile(&sorted(samples), pct as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(94));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        // The rule itself: ten or more samples sort above the reported one.
        for n in [20usize, 57, 200, 360] {
            let p = tail_percentile(n).unwrap() as usize;
            assert!(n - (p * n).div_ceil(100) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - ((p + 1) * n).div_ceil(100) < 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fewer than ten samples beyond")]
    fn tail_refuses_a_thin_percentile() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        tail(&v, 95);
    }

    #[test]
    fn summary_matches_python_statistics() {
        // statistics.quantiles([1..8], n=4) == [2.25, 4.5, 6.75]
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.q1, s.p50, s.q3), (8, 2.25, 4.5, 6.75));
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = Summary::of(&[40.0, 10.0, 20.0]);
        assert_eq!((s.q1, s.p50, s.q3), (10.0, 20.0, 40.0));
        let s = Summary::of(&[5.0]);
        assert_eq!((s.q1, s.p50, s.q3), (5.0, 5.0, 5.0));
    }
}
