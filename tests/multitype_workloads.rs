//! Workload generality: the optimized kernels must handle systems beyond
//! 2-type SPC water — TIP3P and a 4-type saline solution — since the LJ
//! type table, charge pipeline, and exclusion masks all depend on the
//! topology.

use sw_gromacs::mdsim::nonbonded::{compute_forces_half, max_force_diff, NbParams};
use sw_gromacs::mdsim::pairlist::{ListKind, PairList};
use sw_gromacs::mdsim::water::saline_box;
use sw_gromacs::mdsim::{System, Topology};
use sw_gromacs::sw26010::CoreGroup;
use sw_gromacs::swgmx::{run_rma, CpePairList, PackageLayout, PackedSystem, RmaConfig};

fn check_kernel_against_reference(sys: &System, r_cut: f32) {
    let params = NbParams {
        r_cut,
        ..NbParams::paper_default()
    };
    let list = PairList::build(sys, r_cut, ListKind::Half);
    let psys = PackedSystem::build(sys, list.clustering.clone(), PackageLayout::Transposed);
    let cpe = CpePairList::build(sys, &list);
    let out = run_rma(&psys, &cpe, &params, &CoreGroup::new(), RmaConfig::MARK);

    let mut r = sys.clone();
    r.clear_forces();
    let en = compute_forces_half(&mut r, &list, &params);
    assert_eq!(out.energies.pairs_within_cutoff, en.pairs_within_cutoff);
    let rel = (out.energies.total() - en.total()).abs() / en.total().abs().max(1.0);
    assert!(rel < 1e-5, "energy {rel}");
    let fmax = r.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
    assert!(max_force_diff(&out.forces, &r.force) / fmax < 1e-3);
}

#[test]
fn saline_solution_through_the_full_stack() {
    let sys = saline_box(700, 24, 300.0, 5);
    assert_eq!(sys.topology.n_types(), 4);
    assert_eq!(sys.n(), 700 * 3 + 48);
    // Net charge neutral.
    let q: f32 = sys.charge.iter().sum();
    assert!(q.abs() < 1e-3, "net charge {q}");
    check_kernel_against_reference(&sys, 0.7);
}

#[test]
fn tip3p_differs_from_spc_but_both_work() {
    let spc = Topology::spc_water(10);
    let tip3p = Topology::tip3p_water(10);
    // Same shape, different parameters.
    assert_eq!(spc.n_particles(), tip3p.n_particles());
    assert_ne!(spc.lj(0, 0), tip3p.lj(0, 0));
    assert_ne!(spc.types[0].charge, tip3p.types[0].charge);
    // Both charge-neutral per molecule.
    for top in [&spc, &tip3p] {
        let q: f32 = top.kinds[0]
            .atom_types
            .iter()
            .map(|&t| top.types[t].charge)
            .sum();
        assert!(q.abs() < 1e-6);
    }
}

#[test]
fn ion_lj_table_uses_combination_rules() {
    let top = Topology::saline(10, 2);
    // Na (2) - Cl (3) cross term: Lorentz-Berthelot of the two.
    let (c6_nacl, c12_nacl) = top.lj(2, 3);
    let sigma = 0.5 * (0.2160 + 0.4830) as f32;
    let eps = (1.475f32 * 0.0535).sqrt();
    assert!((c6_nacl - 4.0 * eps * sigma.powi(6)).abs() / c6_nacl < 1e-5);
    assert!((c12_nacl - 4.0 * eps * sigma.powi(12)).abs() / c12_nacl < 1e-5);
    // Ion-water oxygen cross terms exist and are positive.
    let (c6_nao, _) = top.lj(2, 0);
    assert!(c6_nao > 0.0);
}

#[test]
fn ions_feel_strong_coulomb_forces() {
    let sys = saline_box(300, 12, 300.0, 6);
    let params = NbParams {
        r_cut: 0.7,
        ..NbParams::paper_default()
    };
    let list = PairList::build(&sys, 0.7, ListKind::Half);
    let mut r = sys.clone();
    r.clear_forces();
    compute_forces_half(&mut r, &list, &params);
    // Average force magnitude on ions should comfortably exceed that on
    // water hydrogens (full +-1 e charges vs +-0.41).
    let n_water_atoms = 300 * 3;
    let ion_mean: f32 = r.force[n_water_atoms..]
        .iter()
        .map(|f| f.norm())
        .sum::<f32>()
        / 24.0;
    assert!(ion_mean > 0.0);
    assert!(r.force[n_water_atoms..]
        .iter()
        .all(|f| f.norm().is_finite()));
}

/// The lowering takes a shortcut for cluster pairs that share no
/// molecule; on a system whose molecules straddle clusters, with ions
/// between them and fillers padding every cell, each mask must still be
/// the per-member-pair conditions.
#[test]
fn masks_equal_the_per_pair_reference_across_cluster_boundaries() {
    use sw_gromacs::mdsim::FILLER;
    let sys = saline_box(700, 24, 300.0, 5);
    for kind in [ListKind::Half, ListKind::Full] {
        let list = PairList::build(&sys, 0.7, kind);
        let cpe = CpePairList::build(&sys, &list);
        let (mut crossing, mut fillers) = (0, 0);
        for ci in 0..list.n_clusters() {
            let mi = list.clustering.members(ci);
            for (e, &cj) in cpe.entries_of(ci).zip(list.neighbors_of(ci)) {
                let mj = list.clustering.members(cj as usize);
                let mut want = 0u16;
                for (ai, &a) in mi.iter().enumerate() {
                    for (bj, &b) in mj.iter().enumerate() {
                        if a == FILLER || b == FILLER {
                            fillers += 1;
                            continue;
                        }
                        let excluded = sys.is_excluded(a as usize, b as usize);
                        crossing += (excluded && cj as usize != ci) as usize;
                        let counted_as_mirror =
                            kind == ListKind::Half && cj as usize == ci && bj <= ai;
                        if a != b && !excluded && !counted_as_mirror {
                            want |= 1 << (ai * 4 + bj);
                        }
                    }
                }
                assert_eq!(cpe.masks[e], want, "{kind:?} entry {e} ({ci}, {cj})");
            }
        }
        assert!(crossing > 100, "{crossing} exclusions cross clusters");
        assert!(fillers > 100, "{fillers} filler slots");
    }
}

/// `(physics_checksum, lj bits, coulomb bits, pairs_within_cutoff)`.
type Pinned = (u64, u64, u64, u64);

/// The native RMA, RCA and USTC kernels on `saline_box(700, 24, 300.0,
/// 5)` at `r_cut` 0.7, recorded while the inner loop still gathered its
/// LJ parameters per call. Four types, so ion rows, ion-water cross
/// terms and the hydrogens' LJ skip all reach the pinned bits.
const SALINE_RMA: Pinned = (
    0x1b7ec33b700872a1,
    0x40da1906e39b5600,
    0x40c0b2e75029a000,
    180_887,
);
const SALINE_RCA: Pinned = (
    0x6da934e315aac86d,
    0x40da1906ea365480,
    0x40c0b2e76d9e0000,
    361_774,
);
const SALINE_USTC: Pinned = (
    0x22d12ca0098d32d2,
    0x40da1906e39b5600,
    0x40c0b2e75029a000,
    180_887,
);

#[test]
fn native_kernels_reproduce_the_saline_bits_on_every_lane_implementation() {
    use sw_gromacs::sw26010::LanePool;
    use sw_gromacs::swgmx::check::physics_checksum;
    use sw_gromacs::swgmx::kernels::native::{
        run_rca_native_on, run_rma_native_on, run_ustc_native_on, WriteStrategy,
    };
    use sw_gromacs::swgmx::kernels::native_simd::LaneImpl;
    use sw_gromacs::swgmx::KernelResult;

    type RunOn = fn(LaneImpl, &PackedSystem, &CpePairList, &NbParams, &LanePool) -> KernelResult;
    let sys = saline_box(700, 24, 300.0, 5);
    let params = NbParams {
        r_cut: 0.7,
        ..NbParams::paper_default()
    };
    let kernels: [(&str, ListKind, RunOn, Pinned); 3] = [
        (
            "rma",
            ListKind::Half,
            |l, p, c, q, pool| run_rma_native_on(l, p, c, q, pool, WriteStrategy::CopiesWithMarks),
            SALINE_RMA,
        ),
        ("rca", ListKind::Full, run_rca_native_on, SALINE_RCA),
        ("ustc", ListKind::Half, run_ustc_native_on, SALINE_USTC),
    ];
    for (name, kind, run_on, want) in kernels {
        let list = PairList::build(&sys, params.r_cut, kind);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering, PackageLayout::Transposed);
        for lanes in LaneImpl::available() {
            for threads in [1, 2, 4] {
                let out = run_on(
                    lanes,
                    &psys,
                    &cpe,
                    &params,
                    &LanePool::with_threads(threads),
                );
                let got = (
                    physics_checksum(&out.forces, &out.energies),
                    out.energies.lj.to_bits(),
                    out.energies.coulomb.to_bits(),
                    out.energies.pairs_within_cutoff,
                );
                assert_eq!(
                    got,
                    want,
                    "{name} on {} lanes, {threads} threads",
                    lanes.name()
                );
            }
        }
    }
}
