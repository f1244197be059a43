//! The session's metrics registry: counters, gauges, and fixed
//! log2-bucket histograms behind one snapshot API.
//!
//! The registry absorbs the stats that used to be scattered across the
//! substrate — DMA bytes/transactions/alignment, cache hits/misses/
//! evictions, LDM high-water occupancy, Bit-Map touched-line ratios,
//! RDMA message sizes — into uniformly named series. It is part of the
//! session's [`Recording`](crate::Recording): a mutator checks for a
//! session itself (one thread-local read without one, so a site needs no
//! guard), and all updates are plain integer merges under one mutex, so a
//! snapshot after two identical runs is bit-identical whatever the
//! interleaving.
//!
//! Naming convention: dotted lowercase paths, most-significant system
//! first (`dma.bytes`, `cache.read.misses`, `net.msg_bytes`).

use std::collections::BTreeMap;

use crate::scope::lock;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i >= 1`
/// holds values `v` with `floor(log2(v)) == i - 1`, the last bucket
/// absorbs everything larger.
pub const HIST_BUCKETS: usize = 33;

/// A histogram over fixed log2 buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    // [u64; 33] is past the 32-element Default impl limit.
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for a value.
    fn bucket_of(v: u64) -> usize {
        match v {
            0 => 0,
            v => ((v.ilog2() as usize) + 1).min(HIST_BUCKETS - 1),
        }
    }

    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// Monotonically accumulating sum.
    Counter(u64),
    /// High-water mark (see [`gauge_max`]).
    Gauge(u64),
    /// Log2-bucketed distribution (boxed: the bucket array dwarfs the
    /// scalar variants).
    Histogram(Box<Histogram>),
}

impl Metric {
    /// Kind name used by the JSONL exporter.
    pub fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    /// Scalar view: counter/gauge value, histogram sum.
    pub fn value(&self) -> u64 {
        match self {
            Metric::Counter(v) | Metric::Gauge(v) => *v,
            Metric::Histogram(h) => h.sum,
        }
    }
}

/// A sorted, point-in-time copy of the registry.
///
/// Construction goes through [`Snapshot::from_entries`], which sorts by
/// metric name, so every exporter and gate consumer sees one canonical
/// order without re-sorting. Dereferences to a slice of
/// `(name, metric)` pairs for iteration and indexing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot(Vec<(String, Metric)>);

impl Snapshot {
    /// Build a snapshot from arbitrary-order entries, sorting by name.
    pub fn from_entries(mut entries: Vec<(String, Metric)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Self(entries)
    }

    /// Look up one metric by name (binary search over the sorted pairs).
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.0[i].1)
    }

    /// Iterate `(name, metric)` pairs in name order.
    pub fn iter(&self) -> std::slice::Iter<'_, (String, Metric)> {
        self.0.iter()
    }
}

impl std::ops::Deref for Snapshot {
    type Target = [(String, Metric)];
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Snapshot {
    type Item = &'a (String, Metric);
    type IntoIter = std::slice::Iter<'a, (String, Metric)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Run `f` on the registry entry `name` of the calling thread's session,
/// created as `fresh()`.
fn update(name: &'static str, fresh: impl FnOnce() -> Metric, f: impl FnOnce(&mut Metric)) {
    crate::RECORDING.with(|r| f(lock(&r.metrics).entry(name).or_insert_with(fresh)));
}

/// Add `v` to counter `name`, creating it at zero.
#[inline]
pub fn counter_add(name: &'static str, v: u64) {
    update(
        name,
        || Metric::Counter(0),
        |m| match m {
            Metric::Counter(c) => *c += v,
            other => debug_assert!(false, "{name} is a {}", other.kind()),
        },
    );
}

/// Raise gauge `name` to `v` if larger (high-water marks).
#[inline]
pub fn gauge_max(name: &'static str, v: u64) {
    update(
        name,
        || Metric::Gauge(0),
        |m| match m {
            Metric::Gauge(g) => *g = (*g).max(v),
            other => debug_assert!(false, "{name} is a {}", other.kind()),
        },
    );
}

/// Record `v` into histogram `name`.
#[inline]
pub fn histogram_record(name: &'static str, v: u64) {
    update(
        name,
        || Metric::Histogram(Box::default()),
        |m| match m {
            Metric::Histogram(h) => h.record(v),
            other => debug_assert!(false, "{name} is a {}", other.kind()),
        },
    );
}

/// Sorted copy of a registry (what `Session::finish` returns).
pub(crate) fn snapshot_of(registry: &BTreeMap<&'static str, Metric>) -> Snapshot {
    Snapshot::from_entries(
        registry
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// Look up one metric in a snapshot (delegates to [`Snapshot::get`]).
pub fn get<'a>(snap: &'a Snapshot, name: &str) -> Option<&'a Metric> {
    snap.get(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_stays_empty() {
        assert!(!crate::enabled());
        counter_add("x", 1);
        gauge_max("y", 2);
        histogram_record("z", 3);
        let s = crate::Session::begin();
        assert!(s.finish().metrics.is_empty());
    }

    #[test]
    fn counters_gauges_histograms() {
        let s = crate::Session::begin();
        counter_add("dma.bytes", 100);
        counter_add("dma.bytes", 28);
        gauge_max("ldm.high_water", 10);
        gauge_max("ldm.high_water", 4);
        for v in [0u64, 1, 2, 3, 4, 1000] {
            histogram_record("sizes", v);
        }
        let snap = s.finish().metrics;
        assert_eq!(get(&snap, "dma.bytes").unwrap().value(), 128);
        assert_eq!(get(&snap, "ldm.high_water").unwrap().value(), 10);
        let Metric::Histogram(h) = get(&snap, "sizes").unwrap() else {
            panic!("not a histogram");
        };
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[Histogram::bucket_of(1000)], 1);
    }

    #[test]
    fn from_entries_sorts_and_get_binary_searches() {
        let snap = Snapshot::from_entries(vec![
            ("z.last".to_string(), Metric::Counter(3)),
            ("a.first".to_string(), Metric::Counter(1)),
            ("m.mid".to_string(), Metric::Gauge(2)),
        ]);
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
        assert_eq!(snap.get("m.mid").unwrap().value(), 2);
        assert!(snap.get("absent").is_none());
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let s = crate::Session::begin();
        counter_add("b", 1);
        counter_add("a", 1);
        counter_add("c", 1);
        let snap = s.finish().metrics;
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
