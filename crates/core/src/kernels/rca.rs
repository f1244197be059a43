//! The RCA baseline (Algorithm 2; the SW_LAMMPS strategy \[8\], Fig. 9
//! "SW_LAMMPS"): walk a **full** neighbor list and update only the outer
//! cluster.
//!
//! Every interaction is computed twice — once from each side — but the
//! outer clusters are disjoint across CPEs, so force writes never
//! conflict: no copies, no initialization, no reduction. The trade is
//! doubled compute and doubled fetch traffic, which is why Mark beats it
//! (§4.3: RCA reached 16.4x vs Mark's 63x).

use mdsim::nonbonded::{NbEnergies, NbParams};
use mdsim::pairlist::ListKind;
use sw26010::cache::CacheGeometry;
use sw26010::cache::ReadCache;
use sw26010::cg::CoreGroup;
use sw26010::dma::{Dir, DmaEngine};
use sw26010::perf::{Breakdown, PerfCounters};
use sw26010::pool::block_range;

use crate::check::{REGION_FORCES, REGION_POS};
use crate::cpelist::CpePairList;
use crate::kernels::common::{
    add_package, cluster_pair_metered, miss_ratio, Arith, EntryJ, KernelResult, RowShifts,
};
use crate::kernels::native_simd::LaneImpl;
use crate::package::{PackedSystem, FORCE_BYTES, FORCE_WORDS, PKG_WORDS};

/// Run the RCA kernel over a full list. Uses the read cache (SW_LAMMPS
/// had an equivalent fetch scheme) but scalar arithmetic, matching the
/// configuration its published speedup corresponds to.
pub fn run_rca(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    cg: &CoreGroup,
) -> KernelResult {
    assert_eq!(list.kind, ListKind::Full, "RCA walks a full list");
    let n_pkg = psys.n_packages();
    let lanes = LaneImpl::detect();
    let pkg_geo = CacheGeometry::paper_default(PKG_WORDS);

    let calc = cg.spawn("rca.calc", |ctx| {
        ctx.ldm
            .reserve("read cache", pkg_geo.ldm_bytes())
            .expect("read cache fits LDM");
        ctx.ldm.reserve("list buffer", 2048).expect("list buffer");
        let mut read_cache = ReadCache::new(pkg_geo);
        read_cache.bind_region(REGION_POS, 0);
        let mut forces: Vec<(usize, [f32; FORCE_WORDS])> = Vec::new();
        let mut e_lj = 0.0f64;
        let mut e_coul = 0.0f64;
        let mut n_pairs = 0u64;
        let mut shifts = RowShifts::default();
        for ci in block_range(n_pkg, cg.n_cpes, ctx.id) {
            // A copy: the cache is read again for every inner package.
            let pkg_i: [f32; PKG_WORDS] = read_cache
                .get(&mut ctx.perf, &psys.pos, ci)
                .try_into()
                .expect("a package is PKG_WORDS long");
            DmaEngine::transfer_shared(&mut ctx.perf, Dir::Get, list.stream_bytes(ci), true);
            shifts.derive_on(lanes, psys, list, ci);
            let mut fi = [0.0f32; FORCE_WORDS];
            for e in list.entries_of(ci) {
                let cj = list.neighbors[e] as usize;
                let pkg_j = read_cache.get(&mut ctx.perf, &psys.pos, cj);
                // fj is computed but discarded: Algorithm 2 only updates
                // the outer particles (line 10).
                let mut fj_discard = [0.0f32; FORCE_WORDS];
                let (el, ec, n) = cluster_pair_metered(
                    Arith::Scalar,
                    psys,
                    &pkg_i,
                    EntryJ::of(list, &shifts, e, pkg_j),
                    params,
                    &mut fi,
                    &mut fj_discard,
                    &mut ctx.perf,
                );
                e_lj += el;
                e_coul += ec;
                n_pairs += n as u64;
            }
            // One conflict-free put per outer cluster.
            DmaEngine::transfer_shared_at(
                &mut ctx.perf,
                Dir::Put,
                REGION_FORCES,
                ci * FORCE_BYTES,
                FORCE_BYTES,
            );
            forces.push((ci, fi));
        }
        (forces, e_lj, e_coul, n_pairs, read_cache.stats())
    });

    let mut slot_forces = vec![0.0f32; n_pkg * FORCE_WORDS];
    let mut energies = NbEnergies::default();
    let mut hits = 0u64;
    let mut misses = 0u64;
    for (forces, e_lj, e_coul, n_pairs, stats) in &calc.results {
        for (ci, fi) in forces {
            add_package(&mut slot_forces, *ci, fi);
        }
        // Full list counts every interaction twice; halve energies.
        energies.lj += 0.5 * e_lj;
        energies.coulomb += 0.5 * e_coul;
        energies.pairs_within_cutoff += n_pairs;
        hits += stats.hits;
        misses += stats.misses;
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
        read_miss_ratio: miss_ratio(misses, hits),
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
    fn rca_matches_reference() {
        let sys = water_box(800, 300.0, 91);
        let full = PairList::build(&sys, 0.7, ListKind::Full);
        let cpe = CpePairList::build(&sys, &full);
        let psys = PackedSystem::build(&sys, full.clustering.clone(), PackageLayout::Interleaved);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        let out = run_rca(&psys, &cpe, &params, &CoreGroup::new());

        let mut r = sys.clone();
        r.clear_forces();
        let half = PairList::build(&r, 0.7, ListKind::Half);
        let en = compute_forces_half(&mut r, &half, &params);
        // RCA evaluates each pair twice.
        assert_eq!(out.energies.pairs_within_cutoff, 2 * en.pairs_within_cutoff);
        let rel = (out.energies.total() - en.total()).abs() / en.total().abs();
        assert!(
            rel < 1e-5,
            "energy {} vs {}",
            out.energies.total(),
            en.total()
        );
        let fmax = r.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        assert!(max_force_diff(&out.forces, &r.force) / fmax < 1e-3);
    }

    #[test]
    fn rca_doubles_compute_relative_to_mark() {
        use crate::kernels::rma::{run_rma, RmaConfig};
        let sys = water_box(800, 300.0, 92);
        let half = PairList::build(&sys, 0.7, ListKind::Half);
        let full = PairList::build(&sys, 0.7, ListKind::Full);
        let cpe_half = CpePairList::build(&sys, &half);
        let cpe_full = CpePairList::build(&sys, &full);
        let psys = PackedSystem::build(&sys, half.clustering.clone(), PackageLayout::Transposed);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        let cg = CoreGroup::new();
        let rca = run_rca(&psys, &cpe_full, &params, &cg);
        let mark = run_rma(&psys, &cpe_half, &params, &cg, RmaConfig::MARK);
        assert!(
            rca.total.cycles > mark.total.cycles,
            "RCA {} should lose to Mark {}",
            rca.total.cycles,
            mark.total.cycles
        );
    }
}
