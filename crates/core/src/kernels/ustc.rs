//! The USTC pipeline baseline \[29\] (Fig. 9 "USTC_GMX"): CPEs compute
//! interactions and ship force updates to the MPE, which applies them to
//! the single force array while the CPEs keep computing.
//!
//! The write conflict disappears because only the MPE writes forces, but
//! the pipeline is throughput-limited by whichever side is slower —
//! "it is hard to strike a computation balance between CPEs and MPE"
//! (§4.3) — and the MPE must apply one update record per cluster-pair
//! side, which loses to the Bit-Map scheme.

use mdsim::nonbonded::{NbEnergies, NbParams};
use mdsim::pairlist::ListKind;
use sw26010::cache::{CacheGeometry, ReadCache};
use sw26010::cg::CoreGroup;
use sw26010::dma::{Dir, DmaEngine};
use sw26010::perf::{Breakdown, PerfCounters};
use sw26010::pool::block_range;

use crate::check::REGION_POS;
use crate::cpelist::CpePairList;
use crate::kernels::common::{
    add_package, cluster_pair_metered, miss_ratio, Arith, EntryJ, KernelResult, RowShifts,
};
use crate::kernels::native_simd::LaneImpl;
use crate::package::{PackedSystem, FORCE_WORDS, PKG_WORDS};

/// MPE cycles to pop one update record and apply 12 floats to the force
/// array (cached read-modify-write plus queue bookkeeping).
pub const MPE_APPLY_CYCLES: u64 = 45;

/// Bytes per update record shipped to the MPE (package index + 12 f32).
pub const RECORD_BYTES: usize = 4 + FORCE_WORDS * 4;

/// Run the USTC-style pipelined kernel over a half list.
pub fn run_ustc(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    cg: &CoreGroup,
) -> KernelResult {
    assert_eq!(list.kind, ListKind::Half);
    let n_pkg = psys.n_packages();
    let lanes = LaneImpl::detect();
    let pkg_geo = CacheGeometry::paper_default(PKG_WORDS);

    let calc = cg.spawn("ustc.calc", |ctx| {
        ctx.ldm
            .reserve("read cache", pkg_geo.ldm_bytes())
            .expect("read cache fits LDM");
        ctx.ldm
            .reserve("record buffer", 4096)
            .expect("record buffer fits LDM");
        let mut read_cache = ReadCache::new(pkg_geo);
        read_cache.bind_region(REGION_POS, 0);
        let mut records: Vec<(u32, [f32; FORCE_WORDS])> = Vec::new();
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
                let mut fj = [0.0f32; FORCE_WORDS];
                let (el, ec, n) = cluster_pair_metered(
                    Arith::Scalar,
                    psys,
                    &pkg_i,
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
                    // Ship the reaction update to the MPE queue.
                    DmaEngine::transfer_shared(&mut ctx.perf, Dir::Put, RECORD_BYTES, true);
                    records.push((cj as u32, fj));
                }
            }
            DmaEngine::transfer_shared(&mut ctx.perf, Dir::Put, RECORD_BYTES, true);
            records.push((ci as u32, fi));
        }
        (records, e_lj, e_coul, n_pairs, read_cache.stats())
    });

    // MPE side: apply every record serially. The pipeline overlaps with
    // the CPE computation, so the kernel time is max(CPE, MPE).
    let mut slot_forces = vec![0.0f32; n_pkg * FORCE_WORDS];
    let mut energies = NbEnergies::default();
    let mut n_records = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    for (records, e_lj, e_coul, n_pairs, stats) in &calc.results {
        for (pkg, f) in records {
            add_package(&mut slot_forces, *pkg as usize, f);
        }
        n_records += records.len() as u64;
        energies.lj += e_lj;
        energies.coulomb += e_coul;
        energies.pairs_within_cutoff += n_pairs;
        hits += stats.hits;
        misses += stats.misses;
    }
    let mpe_cycles = n_records * MPE_APPLY_CYCLES;

    let mut phases = Breakdown::new();
    phases.add("calc (CPE)", calc.region);
    let mpe_perf = PerfCounters {
        cycles: mpe_cycles,
        ..Default::default()
    };
    phases.add("apply (MPE)", mpe_perf);
    // Pipelined: wall time is the slower side.
    let mut total = PerfCounters::new();
    total.merge_par(&calc.region);
    total.merge_par(&mpe_perf);
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
    fn ustc_matches_reference() {
        let sys = water_box(800, 300.0, 95);
        let list = PairList::build(&sys, 0.7, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Interleaved);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        let out = run_ustc(&psys, &cpe, &params, &CoreGroup::new());

        let mut r = sys.clone();
        r.clear_forces();
        let en = compute_forces_half(&mut r, &list, &params);
        assert_eq!(out.energies.pairs_within_cutoff, en.pairs_within_cutoff);
        let fmax = r.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        assert!(max_force_diff(&out.forces, &r.force) / fmax < 1e-3);
    }

    #[test]
    fn pipeline_is_bounded_by_slower_side() {
        let sys = water_box(800, 300.0, 96);
        let list = PairList::build(&sys, 0.7, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Interleaved);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        let out = run_ustc(&psys, &cpe, &params, &CoreGroup::new());
        let cpe_c = out.phases.cycles("calc (CPE)");
        let mpe_c = out.phases.cycles("apply (MPE)");
        assert_eq!(out.total.cycles, cpe_c.max(mpe_c));
    }

    #[test]
    fn ustc_loses_to_mark() {
        use crate::kernels::rma::{run_rma, RmaConfig};
        let sys = water_box(800, 300.0, 97);
        let list = PairList::build(&sys, 0.7, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let params = NbParams {
            r_cut: 0.7,
            ..NbParams::paper_default()
        };
        let cg = CoreGroup::new();
        let ustc = run_ustc(&psys, &cpe, &params, &cg);
        let mark = run_rma(&psys, &cpe, &params, &cg, RmaConfig::MARK);
        assert!(ustc.total.cycles > mark.total.cycles);
    }
}
