//! PME mesh communication plan.
//!
//! A distributed 3-D FFT of a `K^3` grid over `R` ranks performs two
//! transposes per direction (slab or pencil decomposition), each an
//! all-to-all moving the whole grid once; forward + inverse = four
//! transposes per PME evaluation. §2.1 singles this out: "To parallelize
//! PME, the Fast Fourier Transformation is supposed to be used in many
//! processes, causing heavy-duty communication."

use crate::transport::Transport;
use crate::{alltoall_ns, Topology};

/// Bytes of complex grid data owned by each rank (`K^3 / R` points of
/// 16 B).
fn grid_bytes_per_rank(grid: usize, n_ranks: usize) -> usize {
    (grid * grid * grid * 16).div_ceil(n_ranks.max(1))
}

/// Communication time (ns) of one full PME evaluation (forward + inverse
/// FFT, two transposes each) for a `grid^3` mesh over the topology.
pub fn pme_fft_comm_ns(topo: &Topology, transport: Transport, grid: usize) -> f64 {
    if topo.n_ranks <= 1 {
        return 0.0;
    }
    // Each transpose is an all-to-all whose per-pair payload is the
    // rank's grid share split across all peers.
    let per_pair = grid_bytes_per_rank(grid, topo.n_ranks) / topo.n_ranks.max(1);
    4.0 * alltoall_ns(topo, transport, per_pair.max(16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_is_free() {
        assert_eq!(pme_fft_comm_ns(&Topology::new(1), Transport::Rdma, 64), 0.0);
    }

    #[test]
    fn comm_grows_with_rank_count() {
        // Per-pair messages shrink but message count grows quadratically:
        // at GROMACS scales the all-to-all becomes latency-bound and the
        // total grows with R.
        let t = |r: usize| pme_fft_comm_ns(&Topology::new(r), Transport::Rdma, 64);
        assert!(t(64) < t(256));
        assert!(t(256) < t(1024));
    }

    #[test]
    fn bigger_grids_cost_more() {
        let topo = Topology::new(64);
        let small = pme_fft_comm_ns(&topo, Transport::Rdma, 32);
        let large = pme_fft_comm_ns(&topo, Transport::Rdma, 128);
        assert!(large > small);
    }

    #[test]
    fn rdma_helps_the_latency_bound_regime() {
        let topo = Topology::new(512);
        let mpi = pme_fft_comm_ns(&topo, Transport::Mpi, 64);
        let rdma = pme_fft_comm_ns(&topo, Transport::Rdma, 64);
        assert!(rdma * 2.0 < mpi, "mpi {mpi} vs rdma {rdma}");
    }
}
