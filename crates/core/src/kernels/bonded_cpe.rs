//! Bonded ("Bound", Fig. 1) interactions on the CPEs.
//!
//! Bonded terms are computed from a fixed list of particles (paper §2.1),
//! and molecules are disjoint: distributing whole molecules across CPEs
//! gives conflict-free force writes with no copies, no marks, and
//! perfectly contiguous DMA (a molecule's atoms are adjacent in the
//! original particle order). Each CPE streams batches of molecules in,
//! evaluates bonds/angles/dihedrals, and streams the forces back.

use mdsim::bonded::BondedEnergies;
use mdsim::system::System;
use mdsim::Vec3;
use sw26010::cg::CoreGroup;
use sw26010::dma::{Dir, DmaEngine};
use sw26010::perf::PerfCounters;
use sw26010::pool::block_range;
use sw26010::simd::meter;

/// Molecules fetched per DMA batch (3-site water: 8 x 36 B = 288 B in,
/// same out — near the knee of the Table 2 curve).
const MOLS_PER_BATCH: usize = 8;

/// Metered cycles per harmonic bond (scalar stream incl. sqrt).
const BOND_FLOPS: u64 = 14;
/// Metered cycles per harmonic angle.
const ANGLE_FLOPS: u64 = 40;
/// Metered cycles per periodic dihedral.
const DIHEDRAL_FLOPS: u64 = 90;

/// Result of the CPE bonded pass.
pub struct BondedCpeResult {
    /// Forces in particle order (bonded contributions only).
    pub forces: Vec<Vec3>,
    /// Energy terms.
    pub energies: BondedEnergies,
    /// Simulated cost of the parallel region.
    pub total: PerfCounters,
}

/// Evaluate all bonded terms of `sys` on the simulated CPE grid.
pub fn run_bonded_cpe(sys: &System, cg: &CoreGroup) -> BondedCpeResult {
    // Expand (kind, base) per molecule once (host-side list the MPE keeps).
    let mut molecules: Vec<(usize, usize)> = Vec::new();
    let mut base = 0usize;
    for &(kind_idx, count) in &sys.topology.blocks {
        let n_atoms = sys.topology.kinds[kind_idx].n_atoms();
        for _ in 0..count {
            molecules.push((kind_idx, base));
            base += n_atoms;
        }
    }

    let run = cg.spawn("bonded.calc", |ctx| {
        ctx.ldm
            .reserve("molecule batch", 2 * MOLS_PER_BATCH * 4 * 12)
            .expect("batch fits LDM");
        // A scratch system view: we accumulate forces locally and only
        // for atoms of our own molecules (disjoint), so a plain local
        // clone of the force slots suffices functionally.
        let mut local = sys.clone();
        local.clear_forces();
        let mut en = BondedEnergies::default();
        let range = block_range(molecules.len(), cg.n_cpes, ctx.id);
        let mut in_batch = 0usize;
        for &(kind_idx, mol_base) in &molecules[range.clone()] {
            let kind = &sys.topology.kinds[kind_idx];
            if in_batch == 0 {
                // Stream a batch of molecule coordinates in and the
                // previous batch's forces out.
                let bytes = MOLS_PER_BATCH * kind.n_atoms() * 12;
                DmaEngine::transfer_shared(&mut ctx.perf, Dir::Get, bytes, true);
                DmaEngine::transfer_shared(&mut ctx.perf, Dir::Put, bytes, true);
            }
            in_batch = (in_batch + 1) % MOLS_PER_BATCH;
            for b in &kind.bonds {
                en.bond += mdsim::bonded::harmonic_bond(
                    &mut local,
                    mol_base + b.i,
                    mol_base + b.j,
                    b.r0,
                    b.k,
                );
                meter::scalar_flops(&mut ctx.perf, BOND_FLOPS);
                meter::scalar_divsqrt(&mut ctx.perf, 1);
            }
            for a in &kind.angles {
                en.angle += mdsim::bonded::harmonic_angle(
                    &mut local,
                    mol_base + a.i,
                    mol_base + a.j,
                    mol_base + a.k,
                    a.theta0,
                    a.ktheta,
                );
                meter::scalar_flops(&mut ctx.perf, ANGLE_FLOPS);
                meter::scalar_divsqrt(&mut ctx.perf, 2);
            }
            for d in &kind.dihedrals {
                en.dihedral += mdsim::bonded::periodic_dihedral(
                    &mut local,
                    mol_base + d.i,
                    mol_base + d.j,
                    mol_base + d.k,
                    mol_base + d.l,
                    d.mult,
                    d.phi0,
                    d.kphi,
                );
                meter::scalar_flops(&mut ctx.perf, DIHEDRAL_FLOPS);
                meter::scalar_divsqrt(&mut ctx.perf, 3);
            }
        }
        // Extract only this CPE's force range (molecules are disjoint).
        let forces: Vec<(usize, Vec3)> = molecules[range]
            .iter()
            .flat_map(|&(kind_idx, mol_base)| {
                let n = sys.topology.kinds[kind_idx].n_atoms();
                (mol_base..mol_base + n).map(|i| (i, local.force[i]))
            })
            .collect();
        (forces, en)
    });

    let mut forces = vec![Vec3::ZERO; sys.n()];
    let mut energies = BondedEnergies::default();
    for (local_forces, en) in &run.results {
        for &(i, f) in local_forces {
            forces[i] += f;
        }
        energies.bond += en.bond;
        energies.angle += en.angle;
        energies.dihedral += en.dihedral;
    }
    BondedCpeResult {
        forces,
        energies,
        total: run.region,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::water::water_box;

    #[test]
    fn cpe_bonded_matches_host_reference() {
        let sys = water_box(300, 300.0, 81);
        let out = run_bonded_cpe(&sys, &CoreGroup::new());
        let mut r = sys.clone();
        r.clear_forces();
        let en_ref = mdsim::bonded::compute_bonded(&mut r);
        assert!(
            (out.energies.total() - en_ref.total()).abs() < 1e-6 * en_ref.total().abs().max(1.0)
        );
        let fmax = r.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        for (a, b) in out.forces.iter().zip(&r.force) {
            assert!((*a - *b).norm() <= 1e-4 * fmax.max(1.0));
        }
        assert!(out.total.cycles > 0);
    }

    #[test]
    fn bonded_work_parallelizes_over_molecules() {
        let sys = water_box(600, 300.0, 82);
        let par = run_bonded_cpe(&sys, &CoreGroup::new());
        let ser = run_bonded_cpe(&sys, &CoreGroup::with_cpes(1));
        assert!(
            par.total.cycles * 8 < ser.total.cycles,
            "parallel {} vs serial {}",
            par.total.cycles,
            ser.total.cycles
        );
    }

    #[test]
    fn bonded_cost_is_small_next_to_nonbonded() {
        // Table 1's story: bonded terms are cheap relative to the
        // short-range kernel on the same system.
        use crate::cpelist::CpePairList;
        use crate::kernels::rma::{run_rma, RmaConfig};
        use crate::package::{PackageLayout, PackedSystem};
        use mdsim::nonbonded::NbParams;
        use mdsim::pairlist::{ListKind, PairList};
        let sys = water_box(800, 300.0, 83);
        let cg = CoreGroup::new();
        let bonded = run_bonded_cpe(&sys, &cg);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        let list = PairList::build(&sys, 0.7, ListKind::Half);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let cpe = CpePairList::build(&sys, &list);
        let nb = run_rma(&psys, &cpe, &params, &cg, RmaConfig::MARK);
        assert!(
            bonded.total.cycles * 3 < nb.total.cycles,
            "bonded {} vs nonbonded {}",
            bonded.total.cycles,
            nb.total.cycles
        );
    }
}
