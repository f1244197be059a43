//! Network-on-chip between the four core groups of one SW26010.
//!
//! The four CGs of a chip share a NoC; inter-CG traffic is cheaper than
//! the external fat-tree but not free. The scaling experiments place one
//! MPI rank per CG (paper §3: "every CG of SW26010 supports one MPI
//! thread"), so rank pairs on the same chip communicate through this
//! model while off-chip pairs go through `swnet`.

use crate::params;
use crate::perf::PerfCounters;

/// NoC bandwidth between CGs, GB/s (shared memory controller class).
pub const NOC_BANDWIDTH_GBS: f64 = 16.0;

/// Fixed latency of one inter-CG message, nanoseconds.
pub const NOC_LATENCY_NS: f64 = 300.0;

/// Cycles for moving `bytes` between two CGs of the same chip.
pub fn transfer_cycles(bytes: usize) -> u64 {
    let ns = NOC_LATENCY_NS + bytes as f64 / NOC_BANDWIDTH_GBS;
    params::ns_to_cycles(ns)
}

/// Account an inter-CG transfer on the initiating side.
pub fn transfer(perf: &mut PerfCounters, bytes: usize) {
    let c = transfer_cycles(bytes);
    perf.cycles += c;
    perf.dma_cycles += c;
    perf.dma_bytes += bytes as u64;
    perf.dma_transactions += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_messages() {
        let small = transfer_cycles(8);
        let latency_only = params::ns_to_cycles(NOC_LATENCY_NS);
        assert!(small >= latency_only && small < latency_only + 10);
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let mb = 1 << 20;
        let c = transfer_cycles(mb);
        let expected_ns = mb as f64 / NOC_BANDWIDTH_GBS;
        assert!((params::cycles_to_ns(c) - expected_ns) / expected_ns < 0.01);
    }
}
