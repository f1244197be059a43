//! The "Ori" baseline: the original GROMACS port running on the MPE
//! alone (Fig. 8 leftmost bar, Fig. 11 "MPE" bars).
//!
//! The MPE is a conventional cached core, so it does not pay gld/gst
//! latencies — it is simply one slow core against 64 CPEs. The cost
//! model charges the scalar instruction stream plus a per-package memory
//! cost representing its L1/L2 behaviour on the scattered particle
//! arrays.

use mdsim::nonbonded::{NbEnergies, NbParams};
use mdsim::pairlist::ListKind;
use sw26010::cg::CoreGroup;
use sw26010::perf::{Breakdown, PerfCounters};
use sw26010::trace;

use crate::check::{REGION_FORCES, REGION_POS};
use crate::cpelist::CpePairList;
use crate::kernels::common::{
    add_package, cluster_pair_metered, Arith, EntryJ, KernelResult, RowShifts,
};
use crate::kernels::native_simd::LaneImpl;
use crate::package::{PackedSystem, FORCE_WORDS};

/// Average cycles per scattered-array access on the MPE. The original
/// GROMACS layout spreads one particle over position/type/charge arrays
/// ("all the other elements are not stored in a contiguous area of
/// memory", §3.1); over the benchmark's multi-MB working set those
/// accesses mix L1/L2 hits with ~100 ns DDR3 misses; with ~75% L1 hits
/// (3 cyc), ~18% L2 (20 cyc) and ~7% DDR (~160 cyc) the average is
/// ~17 cycles per access.
pub const MPE_LOAD_CYCLES: u64 = 17;

/// Scattered loads to assemble one particle (x/y/z + type + charge from
/// separate arrays, the §3.1 observation the particle package removes).
pub const LOADS_PER_PARTICLE: u64 = 4;

/// The MPE is a dual-issue out-of-order core with real caches; on the
/// scalar interaction stream it retires roughly twice as many of the
/// metered single-issue operations per cycle as an in-order CPE.
pub const MPE_IPC_NUM: u64 = 2;

/// Run Algorithm 1 serially on the MPE.
pub fn run_ori(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    cg: &CoreGroup,
) -> KernelResult {
    assert_eq!(list.kind, ListKind::Half);
    let n_pkg = psys.n_packages();
    let lanes = LaneImpl::detect();
    let mut slot_forces = vec![0.0f32; n_pkg * FORCE_WORDS];
    let mut energies = NbEnergies::default();

    let (_, mut perf) = cg.mpe_section(|mpe| {
        let mut shifts = RowShifts::default();
        for ci in 0..n_pkg {
            let pkg_i = psys.package(ci);
            shifts.derive_on(lanes, psys, list, ci);
            mpe.perf.cycles += 4 * LOADS_PER_PARTICLE * MPE_LOAD_CYCLES;
            let mut fi = [0.0f32; FORCE_WORDS];
            for e in list.entries_of(ci) {
                let cj = list.neighbors[e] as usize;
                // Gather the four inner particles from scattered arrays.
                mpe.perf.cycles += 4 * LOADS_PER_PARTICLE * MPE_LOAD_CYCLES;
                let pkg_j = psys.package(cj);
                let mut fj = [0.0f32; FORCE_WORDS];
                let before = mpe.perf.cycles;
                let (el, ec, n) = cluster_pair_metered(
                    Arith::Scalar,
                    psys,
                    pkg_i,
                    EntryJ::of(list, &shifts, e, pkg_j),
                    params,
                    &mut fi,
                    &mut fj,
                    &mut mpe.perf,
                );
                // The MPE retires the same stream faster (superscalar).
                let compute = mpe.perf.cycles - before;
                mpe.perf.cycles -= compute - compute / MPE_IPC_NUM;
                energies.lj += el;
                energies.coulomb += ec;
                energies.pairs_within_cutoff += n as u64;
                if cj == ci {
                    for k in 0..FORCE_WORDS {
                        fi[k] += fj[k];
                    }
                } else {
                    // Per-pair reaction update, read-modify-write of the
                    // scattered force array (Algorithm 1 line 9).
                    mpe.perf.cycles += 2 * n as u64 * MPE_LOAD_CYCLES;
                    add_package(&mut slot_forces, cj, &fj);
                }
            }
            mpe.perf.cycles += 4 * 2 * MPE_LOAD_CYCLES;
            add_package(&mut slot_forces, ci, &fi);
        }
        // What the MPE touched in main memory: every package's
        // position, and the whole slot-ordered force array.
        trace::shared_read(REGION_POS, 0, psys.pos.len());
        trace::shared_write(REGION_FORCES, 0, slot_forces.len());
    });

    let mut phases = Breakdown::new();
    // All cycles counted above are a single serial phase.
    let total = std::mem::take(&mut perf);
    phases.add("calc", total);
    let mut sum = PerfCounters::new();
    for (_, c) in phases.iter() {
        sum.merge_seq(c);
    }
    KernelResult {
        forces: psys.forces_to_particle_order(&slot_forces),
        energies,
        total: sum,
        phases,
        read_miss_ratio: 0.0,
        write_miss_ratio: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{PackageLayout, PackedSystem};
    use mdsim::nonbonded::{compute_forces_half, max_force_diff};
    use mdsim::pairlist::PairList;
    use mdsim::water::water_box;

    #[test]
    fn ori_matches_reference() {
        let sys = water_box(800, 300.0, 81);
        let list = PairList::build(&sys, 0.7, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Interleaved);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        let out = run_ori(&psys, &cpe, &params, &CoreGroup::new());

        let mut r = sys.clone();
        r.clear_forces();
        let en = compute_forces_half(&mut r, &list, &params);
        assert_eq!(out.energies.pairs_within_cutoff, en.pairs_within_cutoff);
        let fmax = r.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        assert!(max_force_diff(&out.forces, &r.force) / fmax < 1e-3);
    }

    #[test]
    fn ori_is_much_slower_than_parallel_kernels() {
        use crate::kernels::rma::{run_rma, RmaConfig};
        let sys = water_box(800, 300.0, 82);
        let list = PairList::build(&sys, 0.7, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        let cg = CoreGroup::new();
        let ori = run_ori(&psys, &cpe, &params, &cg);
        let mark = run_rma(&psys, &cpe, &params, &cg, RmaConfig::MARK);
        let speedup = ori.total.cycles as f64 / mark.total.cycles as f64;
        assert!(speedup > 10.0, "Mark speedup over Ori only {speedup:.1}x");
    }
}
