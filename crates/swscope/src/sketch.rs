//! Deterministic log-bucket quantile sketch (DDSketch-style) with a
//! proven relative-error bound and commutative merge.
//!
//! DDSketch buckets values by `ceil(log_gamma(v))`, which needs a
//! float logarithm — a per-platform liability in a repo whose gate
//! asserts *byte*-identical replays. This sketch keeps the same
//! log-bucket idea but derives the bucket purely from the integer bit
//! pattern: each power-of-two octave is split into `2^SUBBUCKET_BITS`
//! equal sub-buckets, so the bucket of `v` is `(shift, v >> shift)`
//! with `shift = msb(v) - SUBBUCKET_BITS` (0 when `v` is small enough
//! to be stored exactly).
//!
//! # Error bound
//!
//! For `shift = s >= 1` the bucket `(s, i)` covers `[i·2^s,
//! (i+1)·2^s)` and the estimate is the midpoint `i·2^s + 2^(s-1)`, so
//! the absolute error is at most `2^(s-1)`. Any value in that bucket
//! has its most significant bit at position `SUBBUCKET_BITS + s`,
//! i.e. `v >= 2^(SUBBUCKET_BITS+s)`; hence
//!
//! ```text
//! |estimate - v| / v  <=  2^(s-1) / 2^(SUBBUCKET_BITS+s)
//!                      =  2^-(SUBBUCKET_BITS+1)  =  RELATIVE_ERROR
//! ```
//!
//! For `shift = 0` the bucket holds exactly one integer and the
//! estimate is exact. [`QSketch::quantile_pct`] walks buckets in
//! ascending value order to the same nearest-rank index the exact
//! percentile uses (`(n-1)·pct/100`), so its answer is the bucket
//! midpoint of the *true* order statistic — within `RELATIVE_ERROR`
//! of it, as the proptests in `tests/sketch_proptests.rs` assert over
//! random latency distributions.
//!
//! # Merge
//!
//! A sketch is a bag of `(bucket, count)` pairs plus min/max/count;
//! [`QSketch::merge`] adds counts bucket-wise. Addition of `u64`
//! counts is commutative and associative, so merges are
//! order-independent *exactly* (not just approximately) — the
//! property that lets per-window sketches roll up into any-timestamp
//! dashboard percentiles.

use std::collections::BTreeMap;

/// Sub-buckets per power-of-two octave, as a bit count.
pub const SUBBUCKET_BITS: u32 = 6;

/// Guaranteed relative accuracy of every quantile estimate:
/// `2^-(SUBBUCKET_BITS+1)` = 1/128.
pub const RELATIVE_ERROR: f64 = 1.0 / (1u64 << (SUBBUCKET_BITS + 1)) as f64;

/// Bucket of `v`: `(shift, v >> shift)`. Keys order by value —
/// `shift = 0` covers `v < 2^(SUBBUCKET_BITS+1)` and each larger
/// shift covers the next octave — so lexicographic `(shift, index)`
/// order is ascending value order.
fn bucket(v: u64) -> (u8, u64) {
    // v = 0 has leading_zeros() = 64; saturating_sub pins msb to 0.
    let msb = 63u32.saturating_sub(v.leading_zeros());
    let shift = msb.saturating_sub(SUBBUCKET_BITS) as u8;
    (shift, v >> shift)
}

/// Representative value of bucket `(shift, index)`: the midpoint of
/// the covered range (the exact value when the bucket is one wide).
fn midpoint(shift: u8, index: u64) -> u64 {
    if shift == 0 {
        index
    } else {
        (index << shift) + (1u64 << (shift - 1))
    }
}

/// A mergeable quantile sketch over `u64` samples (virtual-ns
/// latencies). All state is integer; two sketches fed the same
/// multiset of samples are equal, whatever the insertion or merge
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QSketch {
    buckets: BTreeMap<(u8, u64), u64>,
    count: u64,
    min: u64,
    max: u64,
}

impl QSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn add(&mut self, v: u64) {
        *self.buckets.entry(bucket(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
    }

    /// Fold `other` into `self`. Exactly order-independent: merging
    /// `a` into `b` or `b` into `a` (or re-adding every sample one by
    /// one) produces equal sketches.
    pub fn merge(&mut self, other: &QSketch) {
        if other.count == 0 {
            return;
        }
        for (&key, &n) in &other.buckets {
            *self.buckets.entry(key).or_insert(0) += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (exact), or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (exact), or 0 when empty.
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Nearest-rank percentile estimate: the bucket midpoint of the
    /// order statistic at index `(count-1)·pct/100` (the same integer
    /// rank formula the exact reports use), within [`RELATIVE_ERROR`]
    /// of that element. Returns 0 for an empty sketch.
    pub fn quantile_pct(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count - 1) * pct.min(100) / 100;
        let mut seen = 0u64;
        for (&(shift, index), &n) in &self.buckets {
            seen += n;
            if seen > rank {
                // Clamp into the observed range: the true order
                // statistic lies in [min, max], and clamping can only
                // move the midpoint closer to it.
                return midpoint(shift, index).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_pct(sorted: &[u64], pct: u64) -> u64 {
        sorted[((sorted.len() as u64 - 1) * pct / 100) as usize]
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QSketch::new();
        for v in 0..128u64 {
            s.add(v);
        }
        // Every value below 2^(SUBBUCKET_BITS+1) = 128 sits in its own
        // one-wide bucket, so quantiles are exact.
        for pct in [0, 25, 50, 90, 99, 100] {
            let exact = 127 * pct / 100;
            assert_eq!(s.quantile_pct(pct), exact, "pct {pct}");
        }
    }

    #[test]
    fn bound_holds_on_a_geometric_series() {
        let vals: Vec<u64> = (0..500u64).map(|i| 1 + i * i * 37).collect();
        let mut s = QSketch::new();
        for &v in &vals {
            s.add(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for pct in [1, 10, 50, 90, 99] {
            let exact = exact_pct(&sorted, pct);
            let est = s.quantile_pct(pct);
            let err = est.abs_diff(exact) as f64;
            assert!(
                err <= RELATIVE_ERROR * exact as f64,
                "pct {pct}: est {est} exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_bulk_insert() {
        let mut all = QSketch::new();
        let mut a = QSketch::new();
        let mut b = QSketch::new();
        for i in 0..300u64 {
            let v = (i * 7919) % 100_000;
            all.add(v);
            if i % 2 == 0 {
                a.add(v);
            } else {
                b.add(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must commute");
        assert_eq!(ab, all, "merge must equal bulk insertion");
    }

    #[test]
    fn empty_and_singleton_edges() {
        let e = QSketch::new();
        assert_eq!(e.quantile_pct(50), 0);
        assert_eq!((e.min(), e.max(), e.count()), (0, 0, 0));
        let mut s = QSketch::new();
        s.add(123_456_789);
        for pct in [0, 50, 100] {
            let est = s.quantile_pct(pct);
            let err = est.abs_diff(123_456_789) as f64;
            assert!(err <= RELATIVE_ERROR * 123_456_789.0);
        }
        let mut m = QSketch::new();
        m.merge(&s);
        assert_eq!(m, s);
        m.merge(&e);
        assert_eq!(m, s, "merging an empty sketch is a no-op");
    }

    #[test]
    fn zero_samples_are_representable() {
        let mut s = QSketch::new();
        s.add(0);
        s.add(0);
        s.add(1_000_000);
        assert_eq!(s.quantile_pct(0), 0);
        assert_eq!(s.min(), 0);
    }
}
