//! # swnet — TaihuLight interconnect cost model
//!
//! TaihuLight connects 40 960 SW26010 chips with a two-level fat-tree;
//! each chip exposes four core groups, one MPI rank per CG (paper §1,
//! §3). GROMACS communication is "high frequency with small message
//! size" (§3.6), so per-message *software* overhead dominates; the paper
//! replaces the 4-copy MPI path with zero-copy RDMA.
//!
//! This crate models exactly the quantities those observations depend
//! on: message latency as a function of rank distance (same chip, same
//! supernode, cross-tree), per-byte costs including the MPI copy chain
//! vs the RDMA direct path, and the collectives GROMACS uses (halo
//! exchange, PME all-to-all, energy all-reduce). All results are
//! simulated nanoseconds.

//! ```
//! use swnet::{message_ns, RankDistance, Topology, Transport};
//!
//! let mpi = message_ns(Transport::Mpi, RankDistance::SameSupernode, 64);
//! let rdma = message_ns(Transport::Rdma, RankDistance::SameSupernode, 64);
//! assert!(rdma < mpi); // §3.6: zero-copy beats the 4-copy path
//! let topo = Topology::new(512);
//! assert_eq!(topo.distance(0, 3), RankDistance::SameChip);
//! ```

pub mod collectives;
pub mod liveness;
pub mod params;
pub mod pme_comm;
pub mod seqno;
pub mod transport;

pub use collectives::{
    allreduce_ns, alltoall_ns, halo_exchange_ns, traced_allreduce_ns, traced_halo_exchange_ns,
};
pub use liveness::{epoch_barrier, epoch_barrier_traced, halo_timeout_ns, BarrierOutcome};
pub use params::RankDistance;
pub use pme_comm::{pme_fft_comm_ns, traced_pme_fft_comm_ns};
pub use seqno::{Delivery, SeqChannel, TransmitReport};
pub use transport::{message_ns, Transport};

/// Rank topology: maps MPI ranks (one per CG) onto chips and supernodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of ranks (CGs) in the job.
    pub n_ranks: usize,
}

impl Topology {
    /// A job of `n_ranks` CGs, packed 4 per chip, 1024 CGs per supernode
    /// (256 chips), matching TaihuLight's packing.
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks >= 1);
        Self { n_ranks }
    }

    /// Chip index of a rank.
    pub fn chip(&self, rank: usize) -> usize {
        rank / 4
    }

    /// Supernode index of a rank (256 chips = 1024 CGs per supernode).
    pub fn supernode(&self, rank: usize) -> usize {
        rank / 1024
    }

    /// Classify the distance between two ranks.
    pub fn distance(&self, a: usize, b: usize) -> RankDistance {
        if a == b {
            RankDistance::SameRank
        } else if self.chip(a) == self.chip(b) {
            RankDistance::SameChip
        } else if self.supernode(a) == self.supernode(b) {
            RankDistance::SameSupernode
        } else {
            RankDistance::CrossTree
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_packing() {
        let t = Topology::new(4096);
        assert_eq!(t.chip(0), 0);
        assert_eq!(t.chip(3), 0);
        assert_eq!(t.chip(4), 1);
        assert_eq!(t.supernode(1023), 0);
        assert_eq!(t.supernode(1024), 1);
    }

    #[test]
    fn distance_classification() {
        let t = Topology::new(4096);
        assert_eq!(t.distance(5, 5), RankDistance::SameRank);
        assert_eq!(t.distance(0, 3), RankDistance::SameChip);
        assert_eq!(t.distance(0, 4), RankDistance::SameSupernode);
        assert_eq!(t.distance(0, 2048), RankDistance::CrossTree);
    }
}
