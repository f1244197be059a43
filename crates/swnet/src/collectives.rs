//! Collective operation cost models.
//!
//! GROMACS uses: neighbor halo exchange every step (forces/coordinates),
//! an all-reduce for energies ("Comm. energies" in Table 1 — 18.7% of
//! Case 2 time), and an all-to-all inside the PME 3-D FFT. All are
//! modeled with standard log-tree / linear algorithms on top of
//! `message_ns` in the transport module.

use crate::params::RankDistance;
use crate::transport::{message_ns, Transport};
use crate::Topology;

/// Worst-case distance class present in a job of `n` ranks.
fn worst_distance(topo: &Topology) -> RankDistance {
    if topo.n_ranks <= 1 {
        RankDistance::SameRank
    } else if topo.n_ranks <= 4 {
        RankDistance::SameChip
    } else if topo.n_ranks <= 1024 {
        RankDistance::SameSupernode
    } else {
        RankDistance::CrossTree
    }
}

/// Recursive-doubling all-reduce of `bytes` per rank: `2 log2(P)` rounds
/// (reduce-scatter + all-gather), message size halving per round.
pub fn allreduce_ns(topo: &Topology, transport: Transport, bytes: usize) -> f64 {
    let p = topo.n_ranks;
    if p <= 1 {
        return 0.0;
    }
    let rounds = (p as f64).log2().ceil() as u32;
    let dist = worst_distance(topo);
    let mut total = 0.0;
    let mut chunk = bytes;
    for _ in 0..rounds {
        total += message_ns(transport, dist, chunk.max(8));
        chunk = (chunk / 2).max(8);
    }
    2.0 * total
}

/// Pairwise-exchange all-to-all with `bytes_per_pair` to each of the
/// other `P-1` ranks (the PME FFT transpose pattern).
pub fn alltoall_ns(topo: &Topology, transport: Transport, bytes_per_pair: usize) -> f64 {
    let p = topo.n_ranks;
    if p <= 1 {
        return 0.0;
    }
    let dist = worst_distance(topo);
    (p - 1) as f64 * message_ns(transport, dist, bytes_per_pair.max(8))
}

/// Halo exchange with `n_neighbors` face neighbors, `halo_bytes` each
/// (both directions overlap; the per-step cost is the serialized sends
/// plus one wire time).
pub fn halo_exchange_ns(
    topo: &Topology,
    transport: Transport,
    n_neighbors: usize,
    halo_bytes: usize,
) -> f64 {
    if topo.n_ranks <= 1 || n_neighbors == 0 {
        return 0.0;
    }
    let dist = worst_distance(topo);
    n_neighbors as f64 * message_ns(transport, dist, halo_bytes.max(8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_collectives_are_free() {
        let t = Topology::new(1);
        assert_eq!(allreduce_ns(&t, Transport::Mpi, 1024), 0.0);
        assert_eq!(alltoall_ns(&t, Transport::Mpi, 1024), 0.0);
    }

    #[test]
    fn allreduce_scales_logarithmically() {
        let t64 = allreduce_ns(&Topology::new(64), Transport::Rdma, 64);
        let t512 = allreduce_ns(&Topology::new(512), Transport::Rdma, 64);
        // 512 ranks = 9 rounds vs 6 rounds: ~1.5x, far from 8x.
        let ratio = t512 / t64;
        assert!(ratio > 1.2 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn alltoall_scales_linearly() {
        let t64 = alltoall_ns(&Topology::new(64), Transport::Rdma, 64);
        let t512 = alltoall_ns(&Topology::new(512), Transport::Rdma, 64);
        let ratio = t512 / t64;
        assert!(ratio > 6.0 && ratio < 10.0, "ratio {ratio}");
    }

    #[test]
    fn rdma_collectives_beat_mpi() {
        let t = Topology::new(512);
        assert!(allreduce_ns(&t, Transport::Rdma, 256) < allreduce_ns(&t, Transport::Mpi, 256));
        assert!(
            halo_exchange_ns(&t, Transport::Rdma, 6, 4096)
                < halo_exchange_ns(&t, Transport::Mpi, 6, 4096)
        );
    }

    #[test]
    fn small_jobs_stay_on_chip() {
        let on_chip = allreduce_ns(&Topology::new(4), Transport::Rdma, 64);
        let off_chip = allreduce_ns(&Topology::new(8), Transport::Rdma, 64);
        assert!(on_chip < off_chip);
    }
}
