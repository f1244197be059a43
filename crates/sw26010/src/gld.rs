//! Global load/store (gld/gst) cost model.
//!
//! When a CPE touches main memory with ordinary load/store instructions
//! instead of DMA, each access pays a long round-trip latency (paper §1:
//! "CPEs have to access parameters in MPE memory by global load/store
//! instructions (gld/gst) with high latency"). The unoptimized MPE-only
//! and naive CPE baselines are dominated by this cost, which is what the
//! particle-package and cache strategies eliminate.

use crate::params::GLD_GST_LATENCY_CYCLES;
use crate::perf::PerfCounters;

/// Issue `n` dependent global loads/stores of up to 8 bytes each.
///
/// Dependent accesses cannot overlap, so cost is `n * latency`. This is
/// the access pattern of pointer-chasing through non-contiguous particle
/// arrays (paper Algorithm 1 commentary).
pub fn gld_dependent(perf: &mut PerfCounters, n: u64) {
    gld_at(perf, n, n * GLD_GST_LATENCY_CYCLES);
}

/// Issue `n` independent global loads/stores that the hardware can
/// pipeline with modest overlap. SW26010 CPEs have very limited MLP; we
/// model an overlap factor of 4 outstanding requests.
pub fn gld_pipelined(perf: &mut PerfCounters, n: u64) {
    const OVERLAP: u64 = 4;
    let cycles = n.div_ceil(OVERLAP) * GLD_GST_LATENCY_CYCLES;
    gld_at(perf, n, cycles);
}

/// Bytes one gld/gst word access moves.
pub const GLD_WORD_BYTES: u64 = 8;

fn gld_at(perf: &mut PerfCounters, n: u64, cycles: u64) {
    let bytes = n * GLD_WORD_BYTES;
    perf.cycles += cycles;
    perf.gld_cycles += cycles;
    perf.gld_ops += n;
    perf.gld_bytes += bytes;
    swprof::metrics::counter_add("gld.ops", n);
    swprof::metrics::counter_add("gld.bytes", bytes);
    crate::trace::emit_gld(n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependent_cost_is_linear() {
        let mut p = PerfCounters::new();
        gld_dependent(&mut p, 10);
        assert_eq!(p.cycles, 10 * GLD_GST_LATENCY_CYCLES);
        assert_eq!(p.gld_ops, 10);
    }

    #[test]
    fn pipelined_is_cheaper_than_dependent() {
        let mut a = PerfCounters::new();
        let mut b = PerfCounters::new();
        gld_dependent(&mut a, 16);
        gld_pipelined(&mut b, 16);
        assert!(b.cycles < a.cycles);
        assert_eq!(a.gld_ops, b.gld_ops);
    }
}
