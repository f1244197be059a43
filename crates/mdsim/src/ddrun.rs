//! Functional domain-decomposed force computation.
//!
//! The multi-CG experiments cost-model communication, but the domain
//! decomposition itself must be *correct*: each rank computing only its
//! local + halo interactions, with halo forces sent home, has to
//! reproduce the single-rank forces exactly. This module actually
//! executes that distributed algorithm (sequentially over ranks) and is
//! validated against the global reference — the functional backbone
//! under the Fig. 12 scaling model.
//!
//! Ownership rule for avoiding double counting: a rank computes a pair
//! `(i, j)` when it owns `i`, and either it owns `j` too (counted once
//! with `i < j`) or `j` is a halo particle with `global_id(i) <
//! global_id(j)` — the symmetric half-shell rule. Forces on halo
//! particles accumulate locally and are reduced onto their home ranks
//! afterwards ("Wait + comm. F").

use swprof::scope::Who;

use crate::domain::Decomposition;
use crate::grid::CellGrid;
use crate::nonbonded::{pair_interaction, NbEnergies, NbParams};
use crate::system::System;
use crate::vec3::Vec3;

/// Per-rank communication statistics from a distributed force pass.
#[derive(Debug, Clone, Default)]
pub struct DdStats {
    /// Local particles per rank.
    pub local: Vec<usize>,
    /// Halo particles imported per rank.
    pub halo: Vec<usize>,
    /// Halo force contributions sent home per rank.
    pub forces_returned: Vec<usize>,
}

/// Compute non-bonded forces with an `n_ranks`-way domain decomposition.
/// Forces accumulate into `sys.force`; energies and communication
/// statistics are returned. Result must equal the single-rank kernels.
pub fn compute_forces_dd(
    sys: &mut System,
    n_ranks: usize,
    params: &NbParams,
) -> (NbEnergies, DdStats) {
    let decomposition = Decomposition::new(sys.pbc, n_ranks);
    let parts = decomposition.partition(&sys.pos);
    let rc2 = params.r_cut * params.r_cut;
    let n_types = sys.topology.n_types();
    let c6t = sys.topology.c6_table().to_vec();
    let c12t = sys.topology.c12_table().to_vec();
    // Split the system borrows so the inner closure can mutate forces
    // while reading everything else.
    let pbc = sys.pbc;
    let all_pos = sys.pos.clone();
    let type_id = &sys.type_id;
    let charge = &sys.charge;
    let exclusions = &sys.exclusions;
    let force = &mut sys.force;
    let excluded = |i: usize, j: usize| exclusions[i].binary_search(&(j as u32)).is_ok();

    let mut en = NbEnergies::default();
    let mut stats = DdStats::default();
    // Forces indexed globally; each rank's halo contributions land here
    // directly, which *is* the "send home and add" reduction (ranks are
    // executed sequentially, so there is no write conflict to emulate).
    for (rank, local) in parts.iter().enumerate() {
        let _rank_span = swprof::span("dd.rank");
        // Cross-rank tracing: bind this iteration to its rank's
        // virtual timeline and wrap the whole force pass in a per-rank
        // "step" span. Everything is gated on one thread-local read, so
        // the untraced path (all existing chaos/differential tests) is
        // a handful of no-ops and a binding nobody reads.
        let _rank = Who {
            rank: Some(rank),
            ..Who::current()
        }
        .enter();
        let _tel_span = swprof::tel::span("step");
        let pairs_before = en.pairs_within_cutoff;
        let halo = decomposition.halo_of(rank, &all_pos, params.r_cut);
        stats.local.push(local.len());
        stats.halo.push(halo.len());
        swprof::metrics::counter_add("dd.local_particles", local.len() as u64);
        swprof::metrics::counter_add("dd.halo_particles", halo.len() as u64);

        // The rank's visible particle set: locals then halos.
        let mut visible: Vec<u32> = Vec::with_capacity(local.len() + halo.len());
        visible.extend_from_slice(local);
        visible.extend_from_slice(&halo);
        let n_local = local.len();
        let positions: Vec<Vec3> = visible.iter().map(|&g| all_pos[g as usize]).collect();
        let grid = CellGrid::build(&pbc, &positions, params.r_cut.max(0.3));

        let mut halo_forces = 0usize;
        for li in 0..n_local {
            let gi = visible[li] as usize;
            let pi = positions[li];
            grid.for_range(&pbc, pi, params.r_cut, |lj| {
                let lj = lj as usize;
                if lj == li {
                    return;
                }
                let gj = visible[lj] as usize;
                let j_is_local = lj < n_local;
                // Half-shell ownership: locals once by index order; halo
                // pairs once by global id order.
                if j_is_local {
                    if lj < li {
                        return;
                    }
                } else if gj < gi {
                    return;
                }
                if excluded(gi, gj) {
                    return;
                }
                let d = pbc.min_image(pi, positions[lj]);
                let r2 = d.norm2();
                if r2 >= rc2 || r2 == 0.0 {
                    return;
                }
                let (c6, c12) = (
                    c6t[type_id[gi] * n_types + type_id[gj]],
                    c12t[type_id[gi] * n_types + type_id[gj]],
                );
                let qq = charge[gi] * charge[gj];
                let (f_over_r, e_lj, e_coul) = pair_interaction(r2, c6, c12, qq, params);
                let f = d * f_over_r;
                force[gi] += f;
                force[gj] -= f;
                en.lj += e_lj as f64;
                en.coulomb += e_coul as f64;
                en.pairs_within_cutoff += 1;
                if !j_is_local {
                    halo_forces += 1;
                }
            });
        }
        stats.forces_returned.push(halo_forces);
        swprof::metrics::counter_add("dd.forces_returned", halo_forces as u64);
        // Advance the rank's clock by a work proxy: pair interactions
        // dominate, ~6 flops-equivalents each. The halo forces go home
        // on the driver's channel.
        let rank_pairs = en.pairs_within_cutoff - pairs_before;
        swprof::tel::tick(rank_pairs * 6 + local.len() as u64);
    }
    (en, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonbonded::{compute_forces_brute, max_force_diff, Coulomb};
    use crate::water::water_box;

    fn params() -> NbParams {
        NbParams {
            r_cut: 0.7,
            coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
        }
    }

    #[test]
    fn dd_forces_match_the_global_reference() {
        for n_ranks in [2usize, 4, 8] {
            let mut a = water_box(400, 300.0, 71);
            let mut b = a.clone();
            let p = params();
            let (en_dd, stats) = compute_forces_dd(&mut a, n_ranks, &p);
            let en_ref = compute_forces_brute(&mut b, &p);
            assert_eq!(
                en_dd.pairs_within_cutoff, en_ref.pairs_within_cutoff,
                "{n_ranks} ranks: pair counts differ"
            );
            let rel = (en_dd.total() - en_ref.total()).abs() / en_ref.total().abs();
            assert!(rel < 1e-6, "{n_ranks} ranks: energy {rel}");
            let fmax = b.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
            let diff = max_force_diff(&a.force, &b.force);
            assert!(diff / fmax < 1e-4, "{n_ranks} ranks: force diff {diff}");
            // Sanity on the communication stats.
            assert_eq!(stats.local.iter().sum::<usize>(), a.n());
            assert!(stats.halo.iter().sum::<usize>() > 0);
        }
    }

    #[test]
    fn single_rank_needs_no_halo() {
        let mut sys = water_box(100, 300.0, 72);
        let (_, stats) = compute_forces_dd(&mut sys, 1, &params());
        assert_eq!(stats.halo, vec![0]);
        assert_eq!(stats.forces_returned, vec![0]);
    }

    #[test]
    fn halo_grows_with_rank_count() {
        // The locals always sum to the system; the imported surface grows.
        let p = params();
        let halo = |ranks: usize| -> usize {
            let mut sys = water_box(600, 300.0, 73);
            compute_forces_dd(&mut sys, ranks, &p).1.halo.iter().sum()
        };
        let h2 = halo(2);
        let h8 = halo(8);
        assert!(h8 > h2, "halo should grow: {h2} -> {h8}");
    }

    #[test]
    fn every_pair_computed_exactly_once() {
        // Count pairs with a parity trick: re-run with unit "charges" and
        // compare the pair count against brute force on an LJ fluid.
        let top = crate::topology::Topology::lj_fluid(500);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let pbc = crate::pbc::PbcBox::cubic(3.0);
        let pos: Vec<Vec3> = (0..500)
            .map(|_| {
                crate::vec3::vec3(
                    rng.gen_range(0.0..3.0),
                    rng.gen_range(0.0..3.0),
                    rng.gen_range(0.0..3.0),
                )
            })
            .collect();
        let sys0 = System::from_topology(top, pbc, pos);
        let p = NbParams {
            r_cut: 0.8,
            coulomb: Coulomb::None,
        };
        let mut a = sys0.clone();
        let mut b = sys0;
        let (en_dd, _) = compute_forces_dd(&mut a, 8, &p);
        let en_ref = compute_forces_brute(&mut b, &p);
        assert_eq!(en_dd.pairs_within_cutoff, en_ref.pairs_within_cutoff);
    }
}
