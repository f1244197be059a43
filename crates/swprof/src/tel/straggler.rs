//! Straggler detection over per-rank virtual-ns step latencies.
//!
//! No wall clock: the inputs are span durations off the virtual cycle
//! tracks ([`super::Telemetry::span_durations`]). Each rank's step
//! series is smoothed with an EWMA; a rank is flagged when its EWMA
//! sits more than `k` median-absolute-deviations above the fleet
//! median *and* beats a minimum ratio, so a tightly-clustered fleet
//! (MAD ≈ 0) doesn't flag noise.
//!
//! # Degenerate fleets
//!
//! Detection is explicitly total — no panic, no division by zero —
//! on the shapes that break naive MAD math:
//!
//! - **fewer than [`MIN_FLEET`] ranks with data** (including the
//!   single-rank and empty-fleet cases): there is no meaningful fleet
//!   to deviate from, so [`detect`] returns no flags. A lone rank is
//!   by definition the fleet median.
//! - **zero MAD** (every rank's EWMA identical, the common case for a
//!   deterministic simulator before faults): the spread is floored at
//!   `f64::EPSILON * max(median, 1)` so the `k·MAD` comparison stays
//!   finite; the `min_ratio` floor then keeps an exactly-median rank
//!   from flagging on floating-point dust. A fleet of all-equal EWMAs
//!   never flags.
//! - **ranks with empty series** (never ran a step): skipped — they
//!   contribute no EWMA and cannot be flagged.

/// Minimum ranks-with-data for detection to run at all. Below this
/// (single-rank and two-rank fleets) the median and MAD are too
/// degenerate to define an outlier, so [`detect`] returns no flags.
pub const MIN_FLEET: usize = 3;

/// Detector tuning.
#[derive(Debug, Clone, Copy)]
pub struct StragglerConfig {
    /// EWMA smoothing factor in `(0, 1]`; higher = more reactive.
    pub alpha: f64,
    /// MAD multiplier: flag when `ewma - median > k * MAD`.
    pub k: f64,
    /// Floor: also require `ewma > min_ratio * median`.
    pub min_ratio: f64,
}

impl Default for StragglerConfig {
    fn default() -> Self {
        StragglerConfig {
            alpha: 0.3,
            k: 4.0,
            min_ratio: 1.15,
        }
    }
}

/// One flagged rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerFlag {
    /// The drifting rank.
    pub rank: usize,
    /// Its EWMA-smoothed step latency (virtual ns).
    pub ewma_ns: f64,
    /// Fleet median of the per-rank EWMAs.
    pub median_ns: f64,
    /// Median absolute deviation of the per-rank EWMAs.
    pub mad_ns: f64,
}

fn ewma(series: &[u64], alpha: f64) -> Option<f64> {
    let mut it = series.iter();
    let mut acc = *it.next()? as f64;
    for &x in it {
        acc = alpha * x as f64 + (1.0 - alpha) * acc;
    }
    Some(acc)
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Flag ranks whose smoothed step latency drifts above the fleet.
/// `per_rank_ns[r]` is rank `r`'s step-duration series; ranks with an
/// empty series are skipped (they never ran a step).
pub fn detect(per_rank_ns: &[Vec<u64>], cfg: StragglerConfig) -> Vec<StragglerFlag> {
    let ewmas: Vec<Option<f64>> = per_rank_ns.iter().map(|s| ewma(s, cfg.alpha)).collect();
    let mut values: Vec<f64> = ewmas.iter().filter_map(|e| *e).collect();
    if values.len() < MIN_FLEET {
        return Vec::new(); // no meaningful fleet to deviate from
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let med = median(&values);
    let mut devs: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    devs.sort_by(|a, b| a.total_cmp(b));
    let mad = median(&devs);
    // Zero-MAD floor: an all-equal fleet has mad == 0, which would
    // make `ewma - med > k * mad` true for any positive rounding
    // residue. Flooring at an epsilon of the median keeps the
    // comparison finite, and the `min_ratio` gate below keeps
    // dust-sized deviations from flagging.
    let spread = mad.max(f64::EPSILON * med.max(1.0));

    let mut flags = Vec::new();
    for (rank, e) in ewmas.iter().enumerate() {
        let Some(ewma_ns) = *e else { continue };
        if ewma_ns - med > cfg.k * spread && ewma_ns > cfg.min_ratio * med {
            flags.push(StragglerFlag {
                rank,
                ewma_ns,
                median_ns: med,
                mad_ns: mad,
            });
        }
    }
    flags
}

/// Convenience: run [`detect`] on the durations of `label` spans in a
/// finished [`super::Telemetry`].
pub fn detect_spans(
    tel: &super::Telemetry,
    label: &str,
    cfg: StragglerConfig,
) -> Vec<StragglerFlag> {
    detect(&tel.span_durations(label), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fleet_has_no_stragglers() {
        let series: Vec<Vec<u64>> = (0..8).map(|_| vec![1000; 20]).collect();
        assert!(detect(&series, StragglerConfig::default()).is_empty());
    }

    #[test]
    fn drifting_rank_is_flagged() {
        let mut series: Vec<Vec<u64>> = (0..8).map(|_| vec![1000; 20]).collect();
        // Rank 5 drifts upward over the run.
        series[5] = (0..20).map(|i| 1000 + i * 150).collect();
        let flags = detect(&series, StragglerConfig::default());
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].rank, 5);
        assert!(flags[0].ewma_ns > flags[0].median_ns * 1.15);
    }

    #[test]
    fn jittery_but_centered_fleet_stays_quiet() {
        // ±5% jitter around a common mean must not flag anyone.
        let series: Vec<Vec<u64>> = (0..8)
            .map(|r| (0..20).map(|i| 1000 + ((r * 7 + i * 13) % 100)).collect())
            .collect();
        assert!(detect(&series, StragglerConfig::default()).is_empty());
    }

    #[test]
    fn tiny_fleets_never_flag() {
        let series = vec![vec![1000; 5], vec![9000; 5]];
        assert!(detect(&series, StragglerConfig::default()).is_empty());
    }

    #[test]
    fn single_rank_fleet_is_quiet() {
        // One rank is the fleet median by definition: no flags, no
        // panic, whatever its values look like.
        for series in [
            vec![vec![1_000_000; 50]],
            vec![vec![0; 3]],
            vec![(0..40).map(|i| i * i * 999).collect::<Vec<u64>>()],
        ] {
            assert!(detect(&series, StragglerConfig::default()).is_empty());
        }
    }

    #[test]
    fn empty_fleet_and_empty_series_are_quiet() {
        assert!(detect(&[], StragglerConfig::default()).is_empty());
        // Ranks that never ran a step contribute nothing; with fewer
        // than MIN_FLEET live ranks the fleet is degenerate.
        let series = vec![Vec::new(), vec![1000; 5], Vec::new(), vec![1000; 5]];
        assert!(detect(&series, StragglerConfig::default()).is_empty());
    }

    #[test]
    fn zero_mad_all_equal_fleet_never_flags() {
        // Every EWMA identical: MAD is exactly 0. The epsilon floor
        // plus the min_ratio gate must keep the fleet quiet at any
        // size and any magnitude (including all-zero).
        for magnitude in [0u64, 1, 1000, u32::MAX as u64] {
            let series: Vec<Vec<u64>> = (0..16).map(|_| vec![magnitude; 10]).collect();
            let flags = detect(&series, StragglerConfig::default());
            assert!(flags.is_empty(), "magnitude {magnitude}: {flags:?}");
        }
    }

    #[test]
    fn zero_mad_fleet_still_catches_a_real_straggler() {
        // 15 identical ranks (MAD 0 among themselves) + 1 rank 10×
        // slower: the floor must not suppress a genuine outlier.
        let mut series: Vec<Vec<u64>> = (0..16).map(|_| vec![1000; 10]).collect();
        series[7] = vec![10_000; 10];
        let flags = detect(&series, StragglerConfig::default());
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].rank, 7);
    }

    #[test]
    fn min_fleet_boundary() {
        // Exactly MIN_FLEET live ranks: detection runs.
        let mut series: Vec<Vec<u64>> = (0..MIN_FLEET).map(|_| vec![1000; 10]).collect();
        series[1] = vec![50_000; 10];
        let flags = detect(&series, StragglerConfig::default());
        assert_eq!(flags.len(), 1, "{flags:?}");
        // One fewer: quiet.
        let small: Vec<Vec<u64>> = series.into_iter().take(MIN_FLEET - 1).collect();
        assert!(detect(&small, StragglerConfig::default()).is_empty());
    }
}
