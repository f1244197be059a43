//! Performance accounting: cycle counters and traffic statistics.
//!
//! Every simulated hardware resource (DMA engine, gld/gst port, SIMD unit)
//! reports into a [`PerfCounters`] owned by the executing core's context.
//! Counters are plain data so per-CPE counters can be merged after a
//! parallel region (parallel wall time = max over CPEs, traffic = sum).

use crate::params;

/// Cycle and traffic counters for one simulated core (CPE or MPE).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerfCounters {
    /// Total simulated cycles spent on this core.
    pub cycles: u64,
    /// Cycles attributed to DMA transfers (subset of `cycles`).
    pub dma_cycles: u64,
    /// Aggregate-bandwidth cost of this core's DMA traffic: the cycles
    /// the whole CG's memory system needs for these bytes at the Table 2
    /// rate. Summed over CPEs it floors the wall time of a parallel
    /// region (roofline composition).
    pub dma_bw_cycles: u64,
    /// Cycles attributed to gld/gst accesses (subset of `cycles`).
    pub gld_cycles: u64,
    /// Cycles attributed to arithmetic (scalar + SIMD; subset of `cycles`).
    pub compute_cycles: u64,
    /// Number of DMA transactions issued.
    pub dma_transactions: u64,
    /// Bytes moved by DMA (both directions).
    pub dma_bytes: u64,
    /// Number of gld/gst operations issued.
    pub gld_ops: u64,
    /// Bytes moved by gld/gst accesses (both directions).
    pub gld_bytes: u64,
    /// Scalar floating-point operations executed.
    pub scalar_flops: u64,
    /// SIMD vector operations executed (each processes 4 f32 lanes).
    pub simd_ops: u64,
    /// SIMD shuffle (`vshuff`) operations executed.
    pub shuffle_ops: u64,
}

impl PerfCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge `other` into `self` as a *sequential* composition:
    /// cycles add up, traffic adds up.
    pub fn merge_seq(&mut self, other: &PerfCounters) {
        self.cycles += other.cycles;
        self.dma_cycles += other.dma_cycles;
        self.dma_bw_cycles += other.dma_bw_cycles;
        self.gld_cycles += other.gld_cycles;
        self.compute_cycles += other.compute_cycles;
        self.dma_transactions += other.dma_transactions;
        self.dma_bytes += other.dma_bytes;
        self.gld_ops += other.gld_ops;
        self.gld_bytes += other.gld_bytes;
        self.scalar_flops += other.scalar_flops;
        self.simd_ops += other.simd_ops;
        self.shuffle_ops += other.shuffle_ops;
    }

    /// Merge `other` into `self` as a *parallel* composition: wall-clock
    /// cycles take the maximum (the slowest core gates the region), traffic
    /// adds up. Per-category cycle breakdowns also take the contribution of
    /// whichever total is larger, which keeps `cycles >= dma + gld + compute`
    /// an invariant for reporting purposes.
    pub fn merge_par(&mut self, other: &PerfCounters) {
        if other.cycles > self.cycles {
            self.cycles = other.cycles;
            self.dma_cycles = other.dma_cycles;
            self.gld_cycles = other.gld_cycles;
            self.compute_cycles = other.compute_cycles;
        }
        self.dma_bw_cycles += other.dma_bw_cycles;
        self.dma_transactions += other.dma_transactions;
        self.dma_bytes += other.dma_bytes;
        self.gld_ops += other.gld_ops;
        self.gld_bytes += other.gld_bytes;
        self.scalar_flops += other.scalar_flops;
        self.simd_ops += other.simd_ops;
        self.shuffle_ops += other.shuffle_ops;
    }

    /// Simulated wall time in nanoseconds.
    pub fn ns(&self) -> f64 {
        params::cycles_to_ns(self.cycles)
    }

    /// Simulated wall time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns() / 1e6
    }

    /// Effective DMA bandwidth achieved, in GB/s (0 if no DMA occurred).
    pub fn effective_dma_gbs(&self) -> f64 {
        if self.dma_cycles == 0 {
            return 0.0;
        }
        self.dma_bytes as f64 / params::cycles_to_ns(self.dma_cycles)
    }

    /// Total floating-point operations: scalar flops plus each SIMD
    /// vector op counted as [`params::SIMD_F32_LANES`] lane-flops
    /// (shuffles are data movement, not arithmetic, and are excluded).
    pub fn flops(&self) -> u64 {
        self.scalar_flops + self.simd_ops * params::SIMD_F32_LANES as u64
    }

    /// Bytes this core moved through main memory: DMA plus gld/gst
    /// traffic. The denominator of [`Self::arithmetic_intensity`].
    pub fn moved_bytes(&self) -> u64 {
        self.dma_bytes + self.gld_bytes
    }

    /// Arithmetic intensity in flop/byte against main-memory traffic.
    /// `None` when the region moved no bytes (a pure-compute region sits
    /// off the bandwidth roof entirely).
    pub fn arithmetic_intensity(&self) -> Option<f64> {
        match self.moved_bytes() {
            0 => None,
            b => Some(self.flops() as f64 / b as f64),
        }
    }

    /// Achieved compute rate in GFLOP/s over this region's simulated
    /// wall time (0 when no cycles elapsed).
    pub fn achieved_gflops(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.flops() as f64 / self.ns()
    }
}

/// A named timing breakdown: ordered list of `(label, counters)` pairs.
///
/// Used by the full-step engine to reproduce Table 1's per-kernel ratios.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    entries: Vec<(String, PerfCounters)>,
}

impl Breakdown {
    /// Empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `counters` under `label`, merging sequentially if the label exists.
    pub fn add(&mut self, label: &str, counters: PerfCounters) {
        if let Some((_, c)) = self.entries.iter_mut().find(|(l, _)| l == label) {
            c.merge_seq(&counters);
        } else {
            self.entries.push((label.to_string(), counters));
        }
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PerfCounters)> {
        self.entries.iter().map(|(l, c)| (l.as_str(), c))
    }

    /// Total cycles across all entries.
    pub fn total_cycles(&self) -> u64 {
        self.entries.iter().map(|(_, c)| c.cycles).sum()
    }

    /// Fraction of total cycles spent in `label` (0 if absent or empty).
    pub fn fraction(&self, label: &str) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 0.0;
        }
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, c)| c.cycles as f64 / total as f64)
            .unwrap_or(0.0)
    }

    /// Full counters recorded under `label`.
    pub fn get(&self, label: &str) -> Option<&PerfCounters> {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, c)| c)
    }

    /// Cycles recorded under `label`.
    pub fn cycles(&self, label: &str) -> u64 {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, c)| c.cycles)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(cycles: u64, bytes: u64) -> PerfCounters {
        PerfCounters {
            cycles,
            dma_bytes: bytes,
            dma_transactions: 1,
            ..Default::default()
        }
    }

    #[test]
    fn seq_merge_adds_everything() {
        let mut a = c(100, 64);
        a.merge_seq(&c(50, 32));
        assert_eq!(a.cycles, 150);
        assert_eq!(a.dma_bytes, 96);
        assert_eq!(a.dma_transactions, 2);
    }

    #[test]
    fn par_merge_takes_max_cycles_sums_traffic() {
        let mut a = c(100, 64);
        a.merge_par(&c(50, 32));
        assert_eq!(a.cycles, 100);
        assert_eq!(a.dma_bytes, 96);
        let mut b = c(10, 8);
        b.merge_par(&c(500, 8));
        assert_eq!(b.cycles, 500);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut b = Breakdown::new();
        b.add("force", c(900, 0));
        b.add("list", c(100, 0));
        assert!((b.fraction("force") - 0.9).abs() < 1e-12);
        assert!((b.fraction("list") - 0.1).abs() < 1e-12);
        assert_eq!(b.fraction("absent"), 0.0);
    }

    #[test]
    fn breakdown_merges_same_label() {
        let mut b = Breakdown::new();
        b.add("x", c(10, 1));
        b.add("x", c(5, 2));
        assert_eq!(b.cycles("x"), 15);
        assert_eq!(b.iter().count(), 1);
    }

    #[test]
    fn effective_bandwidth() {
        let p = PerfCounters {
            dma_cycles: params::ns_to_cycles(10.0),
            dma_bytes: 300,
            ..Default::default()
        };
        // 300 B in ~10ns = ~30 GB/s (cycle rounding allows ~5% slack).
        assert!((p.effective_dma_gbs() - 30.0).abs() < 1.5);
    }
}
