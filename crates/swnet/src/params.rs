//! Constants of the TaihuLight interconnect, like the chip's in
//! `sw26010::params`. Latencies and bandwidth follow published MPI
//! benchmark numbers for the Sunway network (~1 us MPI latency, 16 GB/s
//! peak); the MPE's modest memory bandwidth makes the 4-copy chain
//! expensive, which is what §3.6 exploits.

/// Distance class between two ranks on the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankDistance {
    /// Same CG: no network involved.
    SameRank,
    /// Different CGs of one chip: network-on-chip.
    SameChip,
    /// Same supernode: one fat-tree level.
    SameSupernode,
    /// Across the central switch: full fat-tree traversal.
    CrossTree,
}

impl RankDistance {
    /// Wire latency of this distance class, ns.
    pub fn latency_ns(self) -> f64 {
        match self {
            RankDistance::SameRank => 0.0,
            RankDistance::SameChip => LAT_CHIP_NS,
            RankDistance::SameSupernode => LAT_SUPERNODE_NS,
            RankDistance::CrossTree => LAT_CROSS_NS,
        }
    }
}

/// Wire latency to a CG on the same chip, ns.
pub const LAT_CHIP_NS: f64 = 300.0;

/// Wire latency within a supernode, ns.
pub const LAT_SUPERNODE_NS: f64 = 1_000.0;

/// Wire latency across the central switch, ns.
pub const LAT_CROSS_NS: f64 = 2_000.0;

/// Network bandwidth per rank, GB/s.
pub const BANDWIDTH_GBS: f64 = 16.0;

/// Host memory bandwidth used by the MPI copy chain, GB/s.
pub const MEM_BANDWIDTH_GBS: f64 = 8.0;

/// Buffer copies on the MPI path (paper §3.6: "the data has to be
/// copied four times").
pub const MPI_COPIES: u32 = 4;

/// Per-message software overhead of MPI (kernel entry, packet
/// assembly), ns.
pub const MPI_SW_OVERHEAD_NS: f64 = 12_000.0;

/// Per-message overhead of RDMA (doorbell + completion), ns.
pub const RDMA_SW_OVERHEAD_NS: f64 = 200.0;

/// How long a rank waits on a silent peer (halo exchange, epoch
/// barrier) before declaring it dead, ns: ~100x the worst cross-tree
/// latency, far above any retransmit backoff the fault plane can
/// produce, so a timeout means a dead rank, not a slow one.
pub const LIVENESS_TIMEOUT_NS: f64 = 200_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering() {
        use RankDistance::*;
        assert!(SameRank.latency_ns() < SameChip.latency_ns());
        assert!(SameChip.latency_ns() < SameSupernode.latency_ns());
        assert!(SameSupernode.latency_ns() < CrossTree.latency_ns());
    }

    #[test]
    fn mpi_has_more_overhead_than_rdma() {
        const { assert!(MPI_SW_OVERHEAD_NS > 5.0 * RDMA_SW_OVERHEAD_NS) };
        assert_eq!(MPI_COPIES, 4);
    }
}
