//! Network model parameters.

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

/// Tunable parameters of the interconnect model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// Wire latency to a CG on the same chip, ns.
    pub lat_chip_ns: f64,
    /// Wire latency within a supernode, ns.
    pub lat_supernode_ns: f64,
    /// Wire latency across the central switch, ns.
    pub lat_cross_ns: f64,
    /// Network bandwidth per rank, GB/s.
    pub bandwidth_gbs: f64,
    /// Host memory bandwidth used by the MPI copy chain, GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Number of buffer copies on the MPI path (paper §3.6: "the data has
    /// to be copied four times").
    pub mpi_copies: u32,
    /// Per-message software overhead of MPI (kernel entry, packet
    /// assembly), ns.
    pub mpi_sw_overhead_ns: f64,
    /// Per-message overhead of RDMA (doorbell + completion), ns.
    pub rdma_sw_overhead_ns: f64,
    /// How long a rank waits on a silent peer (halo exchange, epoch
    /// barrier) before declaring it dead, ns. Long enough that
    /// congestion jitter and retransmit backoff never trip it.
    pub liveness_timeout_ns: f64,
}

impl NetParams {
    /// TaihuLight-like defaults. Latencies and bandwidth follow published
    /// MPI benchmark numbers for the Sunway network (~1 us MPI latency,
    /// 16 GB/s peak); the MPE's modest memory bandwidth makes the 4-copy
    /// chain expensive, which is what §3.6 exploits.
    pub fn taihulight() -> Self {
        Self {
            lat_chip_ns: 300.0,
            lat_supernode_ns: 1_000.0,
            lat_cross_ns: 2_000.0,
            bandwidth_gbs: 16.0,
            mem_bandwidth_gbs: 8.0,
            mpi_copies: 4,
            mpi_sw_overhead_ns: 12_000.0,
            rdma_sw_overhead_ns: 200.0,
            // ~100x the worst cross-tree latency: far above any
            // retransmit backoff the fault plane can produce, so a
            // timeout means a dead rank, not a slow one.
            liveness_timeout_ns: 200_000.0,
        }
    }

    /// Wire latency for a distance class.
    pub fn latency_ns(&self, d: RankDistance) -> f64 {
        match d {
            RankDistance::SameRank => 0.0,
            RankDistance::SameChip => self.lat_chip_ns,
            RankDistance::SameSupernode => self.lat_supernode_ns,
            RankDistance::CrossTree => self.lat_cross_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering() {
        let p = NetParams::taihulight();
        assert!(p.latency_ns(RankDistance::SameRank) < p.latency_ns(RankDistance::SameChip));
        assert!(p.latency_ns(RankDistance::SameChip) < p.latency_ns(RankDistance::SameSupernode));
        assert!(p.latency_ns(RankDistance::SameSupernode) < p.latency_ns(RankDistance::CrossTree));
    }

    #[test]
    fn mpi_has_more_overhead_than_rdma() {
        let p = NetParams::taihulight();
        assert!(p.mpi_sw_overhead_ns > 5.0 * p.rdma_sw_overhead_ns);
        assert_eq!(p.mpi_copies, 4);
    }
}
