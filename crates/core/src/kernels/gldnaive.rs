//! The "naive CPE port" ablation rung: parallelize Algorithm 1 across
//! the 64 CPEs with **no data restructuring at all** — every particle
//! element is fetched from MPE memory with individual gld/gst
//! instructions, exactly the situation §1 warns about ("CPEs have to
//! access parameters in MPE memory by global load/store instructions
//! (gld/gst) with high latency").
//!
//! The paper's Fig. 8 ladder starts at `Pkg`; this rung sits between
//! `Ori` and `Pkg` and quantifies how much of `Pkg`'s gain is the move
//! to CPEs versus the data aggregation itself.

use mdsim::nonbonded::{NbEnergies, NbParams};
use mdsim::pairlist::ListKind;
use sw26010::cg::CoreGroup;
use sw26010::gld;
use sw26010::perf::{Breakdown, PerfCounters};
use sw26010::pool::block_range;

use crate::cpelist::CpePairList;
use crate::kernels::common::{
    add_package, cluster_pair_metered, Arith, EntryJ, KernelResult, RowShifts,
};
use crate::kernels::native_simd::LaneImpl;
use crate::package::{PackedSystem, FORCE_WORDS, PKG_WORDS};

/// Run Algorithm 1 on all CPEs with per-element gld/gst accesses.
///
/// Functionally identical to the other scalar kernels (same math, same
/// list); only the memory cost model differs: 20 dependent gld words per
/// fetched package, 2 x 12 gst/gld words per reaction update, all at the
/// ~180-cycle gld round-trip.
pub fn run_gld_naive(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    cg: &CoreGroup,
) -> KernelResult {
    assert_eq!(list.kind, ListKind::Half);
    let n_pkg = psys.n_packages();
    let lanes = LaneImpl::detect();

    let calc = cg.spawn("gldnaive.calc", |ctx| {
        let mut updates: Vec<(u32, [f32; FORCE_WORDS])> = Vec::new();
        let mut e_lj = 0.0f64;
        let mut e_coul = 0.0f64;
        let mut n_pairs = 0u64;
        let mut shifts = RowShifts::default();
        for ci in block_range(n_pkg, cg.n_cpes, ctx.id) {
            // Own package: 20 words, pipelined gld (independent loads).
            gld::gld_pipelined(&mut ctx.perf, PKG_WORDS as u64);
            let pkg_i = psys.package(ci);
            shifts.derive_on(lanes, psys, list, ci);
            // Neighbor-list entries arrive by gld too (index + mask).
            gld::gld_dependent(&mut ctx.perf, list.entries_of(ci).len() as u64);
            let mut fi = [0.0f32; FORCE_WORDS];
            for e in list.entries_of(ci) {
                let cj = list.neighbors[e] as usize;
                gld::gld_pipelined(&mut ctx.perf, PKG_WORDS as u64);
                let pkg_j = psys.package(cj);
                let mut fj = [0.0f32; FORCE_WORDS];
                let (el, ec, n) = cluster_pair_metered(
                    Arith::Scalar,
                    psys,
                    pkg_i,
                    EntryJ::of(list, &shifts, e, pkg_j),
                    params,
                    &mut fi,
                    &mut fj,
                    &mut ctx.perf,
                );
                e_lj += el;
                e_coul += ec;
                n_pairs += n as u64;
                if cj == ci {
                    for k in 0..FORCE_WORDS {
                        fi[k] += fj[k];
                    }
                } else {
                    // Per-pair read-modify-write of 3 words via gld+gst.
                    gld::gld_dependent(&mut ctx.perf, 2 * 3 * n as u64);
                    updates.push((cj as u32, fj));
                }
            }
            gld::gld_dependent(&mut ctx.perf, 2 * FORCE_WORDS as u64);
            updates.push((ci as u32, fi));
        }
        (updates, e_lj, e_coul, n_pairs)
    });

    // The naive port ships updates to per-CPE copies exactly like the
    // RMA scheme; apply them functionally (the gld costs above already
    // covered the traffic).
    let mut slot_forces = vec![0.0f32; n_pkg * FORCE_WORDS];
    let mut energies = NbEnergies::default();
    for (updates, e_lj, e_coul, n_pairs) in &calc.results {
        for (pkg, f) in updates {
            add_package(&mut slot_forces, *pkg as usize, f);
        }
        energies.lj += e_lj;
        energies.coulomb += e_coul;
        energies.pairs_within_cutoff += n_pairs;
    }

    let mut phases = Breakdown::new();
    phases.add("calc", calc.region);
    let mut total = PerfCounters::new();
    total.merge_seq(&calc.region);
    KernelResult {
        forces: psys.forces_to_particle_order(&slot_forces),
        energies,
        total,
        phases,
        read_miss_ratio: 0.0,
        write_miss_ratio: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::rma::{run_rma, RmaConfig};
    use crate::package::PackageLayout;
    use mdsim::nonbonded::{compute_forces_half, max_force_diff, NbParams};
    use mdsim::pairlist::PairList;
    use mdsim::water::water_box;

    fn setup() -> (mdsim::System, PackedSystem, CpePairList, NbParams) {
        let sys = water_box(800, 300.0, 61);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        let list = PairList::build(&sys, 0.7, ListKind::Half);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let cpe = CpePairList::build(&sys, &list);
        (sys, psys, cpe, params)
    }

    #[test]
    fn gld_naive_matches_reference() {
        let (sys, psys, cpe, params) = setup();
        let out = run_gld_naive(&psys, &cpe, &params, &CoreGroup::new());
        let mut r = sys.clone();
        r.clear_forces();
        let list = PairList::build(&r, 0.7, ListKind::Half);
        let en = compute_forces_half(&mut r, &list, &params);
        assert_eq!(out.energies.pairs_within_cutoff, en.pairs_within_cutoff);
        let fmax = r.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        assert!(max_force_diff(&out.forces, &r.force) / fmax < 1e-3);
    }

    #[test]
    fn gld_naive_sits_between_nothing_and_pkg() {
        // The ablation's point: moving to CPEs without data aggregation
        // is still gld-latency-bound, and Pkg's DMA aggregation beats it.
        let (_, psys, cpe, params) = setup();
        let cg = CoreGroup::new();
        let naive = run_gld_naive(&psys, &cpe, &params, &cg);
        let pkg = run_rma(&psys, &cpe, &params, &cg, RmaConfig::PKG);
        assert!(
            pkg.total.cycles < naive.total.cycles,
            "Pkg {} should beat gld-naive {}",
            pkg.total.cycles,
            naive.total.cycles
        );
        // And gld cost dominates the naive version.
        assert!(naive.total.gld_cycles > naive.total.compute_cycles);
    }
}
