//! The RMA-family force kernel: every CPE keeps a private copy of the
//! force array in main memory (redundant memory approach) and the copies
//! are reduced afterwards. Four of the paper's five ladder rungs (Fig. 8)
//! are configurations of this one kernel:
//!
//! | rung    | read cache | write cache | SIMD | Bit-Map |
//! |---------|-----------|-------------|------|---------|
//! | `Pkg`   | no        | no          | no   | no      |
//! | `Cache` | yes       | yes         | no   | no      |
//! | `Vec`   | yes       | yes         | yes  | no      |
//! | `Mark`  | yes       | yes         | yes  | yes     |
//!
//! Without the Bit-Map, the copies must be zero-initialized before the
//! calculation and every copy line takes part in the reduction — the two
//! overheads §3.3 eliminates.

use mdsim::nonbonded::{NbEnergies, NbParams};
use mdsim::pairlist::ListKind;
use sw26010::cache::{CacheGeometry, ReadCache, WriteCache};
use sw26010::cg::CoreGroup;
use sw26010::dma::{Dir, DmaEngine};
use sw26010::perf::{Breakdown, PerfCounters};
use sw26010::pool::block_range;
use sw26010::BitMap;

use crate::check::{REGION_COPIES, REGION_FORCES, REGION_POS};
use crate::cpelist::CpePairList;
use crate::kernels::common::{
    add_energy, add_package, cluster_pair_metered, miss_ratio, Arith, EntryJ, KernelResult,
    RowShifts,
};
use crate::kernels::native_simd::LaneImpl;
use crate::package::{PackageLayout, PackedSystem, FORCE_WORDS, PKG_BYTES, PKG_WORDS};

/// Configuration selecting a ladder rung (or any ablation combination).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmaConfig {
    /// Use the §3.1 read cache for inner-cluster packages.
    pub read_cache: bool,
    /// Use the §3.2 deferred-update write cache for force updates.
    pub write_cache: bool,
    /// Use the §3.4 `floatv4` arithmetic.
    pub simd: bool,
    /// Use the §3.3 Bit-Map update marks.
    pub marks: bool,
}

impl RmaConfig {
    /// Fig. 8 "Pkg": data aggregation only.
    pub const PKG: Self = Self {
        read_cache: false,
        write_cache: false,
        simd: false,
        marks: false,
    };
    /// Fig. 8 "Cache": + read & write caches.
    pub const CACHE: Self = Self {
        read_cache: true,
        write_cache: true,
        simd: false,
        marks: false,
    };
    /// Fig. 8 "Vec" (= Fig. 9 "RMA_GMX"): + vectorization.
    pub const VEC: Self = Self {
        read_cache: true,
        write_cache: true,
        simd: true,
        marks: false,
    };
    /// Fig. 8 "Mark" (= Fig. 9 "MARK_GMX"): + Bit-Map.
    pub const MARK: Self = Self {
        read_cache: true,
        write_cache: true,
        simd: true,
        marks: true,
    };

    /// Display name matching the figures.
    pub fn name(&self) -> &'static str {
        match (self.read_cache, self.simd, self.marks) {
            (false, _, _) => "Pkg",
            (true, false, _) => "Cache",
            (true, true, false) => "Vec",
            (true, true, true) => "Mark",
        }
    }
}

/// Per-CPE output of the calculation phase.
struct CpeOut {
    copy: Vec<f32>,
    marks: Option<BitMap>,
    wc_id: Option<u64>,
    e_lj: f64,
    e_coul: f64,
    n_pairs: u64,
    read_stats: sw26010::CacheStats,
    write_stats: sw26010::CacheStats,
}

/// Run the RMA-family kernel.
///
/// `psys` must use the transposed package layout when `cfg.simd` is set
/// (the Fig. 6 precondition). The list must be a half list.
pub fn run_rma(
    psys: &PackedSystem,
    list: &CpePairList,
    params: &NbParams,
    cg: &CoreGroup,
    cfg: RmaConfig,
) -> KernelResult {
    assert_eq!(list.kind, ListKind::Half, "RMA kernels walk a half list");
    let arith = if cfg.simd {
        assert_eq!(
            psys.layout,
            PackageLayout::Transposed,
            "the floatv4 rungs load component vectors: transposed packages only"
        );
        Arith::Simd
    } else {
        Arith::Scalar
    };
    let n_pkg = psys.n_packages();
    let lanes = LaneImpl::detect();
    let force_geo = CacheGeometry::paper_default(FORCE_WORDS);
    // Each per-CPE copy is padded to a whole number of write-cache lines:
    // the tail line's writeback is a full-line DMA, and without padding it
    // would stomp the next CPE's copy (swcheck SWC110 catches exactly this).
    let copy_stride = n_pkg.div_ceil(force_geo.line_elems) * force_geo.line_words();
    let pkg_geo = CacheGeometry::paper_default(PKG_WORDS);
    let mut phases = Breakdown::new();

    // ---- init phase: zero the per-CPE copies (skipped with marks) ----
    if !cfg.marks {
        let init = cg.spawn("rma.init", |ctx| {
            // Each CPE streams zeros over its whole copy at contended
            // bandwidth, in cache-line-sized puts.
            let line_bytes = force_geo.line_bytes();
            let base = ctx.id * copy_stride * 4;
            let total = copy_stride * 4;
            let mut off = 0;
            while off < total {
                let sz = (total - off).min(line_bytes);
                DmaEngine::transfer_shared_at(
                    &mut ctx.perf,
                    Dir::Put,
                    REGION_COPIES,
                    base + off,
                    sz,
                );
                off += sz;
            }
        });
        phases.add("init", init.region);
    }

    // ---- calculation phase ----
    let calc = cg.spawn("rma.calc", |ctx| {
        // LDM budget: caches + accumulators + list stream buffer.
        let copy_base_words = ctx.id * copy_stride;
        let mut read_cache = cfg.read_cache.then(|| {
            ctx.ldm
                .reserve("read cache", pkg_geo.ldm_bytes())
                .expect("read cache fits LDM");
            let mut rc = ReadCache::new(pkg_geo);
            rc.bind_region(REGION_POS, 0);
            rc
        });
        let mut write_cache = cfg.write_cache.then(|| {
            let mut wc = if cfg.marks {
                WriteCache::with_marks(force_geo, n_pkg)
            } else {
                WriteCache::new(force_geo)
            };
            // Geometry plus, with marks, the Bit-Map.
            ctx.ldm
                .reserve("write cache", wc.ldm_bytes())
                .expect("write cache fits LDM");
            wc.bind_region(REGION_COPIES, copy_base_words);
            wc
        });
        ctx.ldm.reserve("list buffer", 2048).expect("list buffer");
        ctx.ldm
            .reserve_array::<f32>("accumulators", 2 * FORCE_WORDS)
            .expect("accumulators");

        let range = block_range(n_pkg, cg.n_cpes, ctx.id);
        // The reduction reads only marked lines (Alg. 4), so with marks a
        // CPE that owns no cluster needs no copy at all.
        let mut copy = if cfg.marks && range.is_empty() {
            Vec::new()
        } else {
            vec![0.0f32; copy_stride]
        };
        let mut direct_marks = cfg.marks.then(|| BitMap::new(n_pkg.div_ceil(8)));
        let mut e_lj = 0.0f64;
        let mut e_coul = 0.0f64;
        let mut n_pairs = 0u64;

        // A package is copied onto the stack: through the read cache if
        // present, else one DMA per package.
        let mut fetch = |perf: &mut PerfCounters, c: usize| -> [f32; PKG_WORDS] {
            let words = match read_cache.as_mut() {
                Some(rc) => rc.get(perf, &psys.pos, c),
                None => {
                    DmaEngine::transfer_shared(perf, Dir::Get, PKG_BYTES, true);
                    psys.package(c)
                }
            };
            words.try_into().expect("a package is PKG_WORDS long")
        };
        let mut shifts = RowShifts::default();
        for ci in range {
            let pkg_i = fetch(&mut ctx.perf, ci);
            // Stream this cluster's slice of the pair list.
            DmaEngine::transfer_shared(&mut ctx.perf, Dir::Get, list.stream_bytes(ci), true);
            shifts.derive_on(lanes, psys, list, ci);

            let mut fi = [0.0f32; FORCE_WORDS];
            for e in list.entries_of(ci) {
                let cj = list.neighbors[e] as usize;
                let pkg_j = fetch(&mut ctx.perf, cj);
                let mut fj = [0.0f32; FORCE_WORDS];
                let (el, ec, n) = cluster_pair_metered(
                    arith,
                    psys,
                    &pkg_i,
                    EntryJ::of(list, &shifts, e, &pkg_j),
                    params,
                    &mut fi,
                    &mut fj,
                    &mut ctx.perf,
                );
                e_lj += el;
                e_coul += ec;
                n_pairs += n as u64;
                if cj == ci {
                    // Self pair: the reaction forces land in the same
                    // package accumulator.
                    for k in 0..FORCE_WORDS {
                        fi[k] += fj[k];
                    }
                } else {
                    update_force(
                        &mut write_cache,
                        &mut direct_marks,
                        &mut copy,
                        copy_base_words,
                        cj,
                        &fj,
                        n as u64,
                        &mut ctx.perf,
                    );
                }
            }
            // F(A) is accumulated in registers and stored once per outer
            // particle (Algorithm 1 line 13).
            update_force(
                &mut write_cache,
                &mut direct_marks,
                &mut copy,
                copy_base_words,
                ci,
                &fi,
                4,
                &mut ctx.perf,
            );
        }

        // Flush the write cache so the copy is complete.
        if let Some(wc) = write_cache.as_mut() {
            wc.flush(&mut ctx.perf, &mut copy);
        }
        CpeOut {
            copy,
            marks: match write_cache.as_mut() {
                Some(wc) => wc.take_marks(),
                None => direct_marks,
            },
            wc_id: write_cache.as_ref().map(WriteCache::trace_id),
            e_lj,
            e_coul,
            n_pairs,
            read_stats: read_cache
                .as_ref()
                .map(ReadCache::stats)
                .unwrap_or_default(),
            write_stats: write_cache
                .as_ref()
                .map(WriteCache::stats)
                .unwrap_or_default(),
        }
    });
    phases.add("calc", calc.region);

    // ---- reduction phase ----
    let copies: Vec<&Vec<f32>> = calc.results.iter().map(|o| &o.copy).collect();
    let mark_refs: Option<Vec<&BitMap>> = if cfg.marks {
        Some(
            calc.results
                .iter()
                .map(|o| o.marks.as_ref().unwrap())
                .collect(),
        )
    } else {
        None
    };
    if swprof::enabled() {
        if let Some(marks) = &mark_refs {
            // Bit-Map coverage: how many copy lines were ever touched.
            // The untouched remainder is exactly the fetch + reduce work
            // the marks eliminate (§3.3).
            let touched: u64 = marks.iter().map(|m| m.count_ones() as u64).sum();
            let total: u64 = marks.iter().map(|m| m.len() as u64).sum();
            swprof::metrics::counter_add("bitmap.lines_touched", touched);
            swprof::metrics::counter_add("bitmap.lines_total", total);
        }
    }
    let wc_ids: Vec<u64> = calc.results.iter().filter_map(|o| o.wc_id).collect();
    let cache_ids = (wc_ids.len() == copies.len()).then_some(wc_ids.as_slice());
    let (slot_forces, reduce_region) = reduce_copies(
        cg,
        &copies,
        mark_refs.as_deref(),
        cache_ids,
        n_pkg,
        force_geo,
    );
    phases.add("reduce", reduce_region);

    // ---- assemble result ----
    let mut energies = NbEnergies::default();
    let mut read_hits = 0u64;
    let mut read_misses = 0u64;
    let mut write_hits = 0u64;
    let mut write_misses = 0u64;
    for o in &calc.results {
        add_energy(&mut energies, o.e_lj, o.e_coul, o.n_pairs);
        read_hits += o.read_stats.hits;
        read_misses += o.read_stats.misses;
        write_hits += o.write_stats.hits;
        write_misses += o.write_stats.misses;
    }

    let mut total = PerfCounters::new();
    for (_, c) in phases.iter() {
        total.merge_seq(c);
    }
    KernelResult {
        forces: psys.forces_to_particle_order(&slot_forces),
        energies,
        total,
        phases,
        read_miss_ratio: miss_ratio(read_misses, read_hits),
        write_miss_ratio: miss_ratio(write_misses, write_hits),
    }
}

/// Route one force-package delta into the copy.
///
/// With a write cache (Cache/Vec/Mark rungs) this is one deferred
/// accumulate. Without one (Pkg rung), Algorithm 1 is taken literally:
/// "after every calculation of particle pairs, the interaction of B
/// particle will be updated" — each of the `n_updates` per-particle
/// contributions is a dependent 12 B read-modify-write round trip, which
/// is "too frequent for the low bandwidth between MPE and CPEs" (§3.2)
/// and is exactly the cost deferred update removes.
#[allow(clippy::too_many_arguments)] // private helper mirroring Alg. 1's state
fn update_force(
    write_cache: &mut Option<WriteCache>,
    direct_marks: &mut Option<BitMap>,
    copy: &mut [f32],
    copy_base_words: usize,
    pkg: usize,
    delta: &[f32; FORCE_WORDS],
    n_updates: u64,
    perf: &mut PerfCounters,
) {
    match write_cache {
        Some(wc) => wc.update(perf, copy, pkg, delta),
        None => {
            const PARTICLE_FORCE_BYTES: usize = 12; // one xyz triple
            for _ in 0..n_updates {
                DmaEngine::transfer_shared(perf, Dir::Get, PARTICLE_FORCE_BYTES, true);
                DmaEngine::transfer_shared(perf, Dir::Put, PARTICLE_FORCE_BYTES, true);
            }
            add_package(copy, pkg, delta);
            let base = pkg * FORCE_WORDS;
            sw26010::trace::shared_write(
                REGION_COPIES,
                copy_base_words + base,
                copy_base_words + base + FORCE_WORDS,
            );
            if let Some(m) = direct_marks {
                m.set(pkg / 8);
            }
        }
    }
}

/// Reduce per-CPE copies into one slot-ordered force array (Alg. 4).
///
/// Lines are distributed across CPEs; with marks, only copy lines whose
/// mark bit is set are fetched and added (`init_skips` on the gather
/// side). `cache_ids` (when given, parallel to `copies`) are the trace
/// ids of the write caches that produced the copies; each consumed line
/// is reported to the checker so mark coverage can be audited. Returns
/// the summed array and the phase cost.
pub fn reduce_copies(
    cg: &CoreGroup,
    copies: &[&Vec<f32>],
    marks: Option<&[&BitMap]>,
    cache_ids: Option<&[u64]>,
    n_pkg: usize,
    geo: CacheGeometry,
) -> (Vec<f32>, PerfCounters) {
    let line_pkgs = geo.line_elems;
    let n_lines = n_pkg.div_ceil(line_pkgs);
    let line_words = geo.line_words();
    let copy_words = n_pkg * FORCE_WORDS;
    // Copies are padded to a whole number of lines (see `run_rma`).
    let copy_stride = n_lines * line_words;

    let out = cg.spawn("rma.reduce", |ctx| {
        ctx.ldm
            .reserve("reduce buffers", 2 * geo.line_bytes())
            .expect("reduce buffers fit LDM");
        let line_range = block_range(n_lines, cg.n_cpes, ctx.id);
        let mut partial = vec![0.0f32; line_range.len() * line_words];
        for (li, line) in line_range.clone().enumerate() {
            let word_lo = line * line_words;
            let word_hi = (word_lo + line_words).min(copy_words);
            let acc_base = li * line_words;
            for (c, copy) in copies.iter().enumerate() {
                if let Some(m) = marks {
                    if !m[c].get(line) {
                        continue; // Alg. 4 line 4: unmarked -> skip fetch
                    }
                }
                if let Some(ids) = cache_ids {
                    sw26010::trace::reduce_line(ids[c], line);
                }
                DmaEngine::transfer_shared_at(
                    &mut ctx.perf,
                    Dir::Get,
                    REGION_COPIES,
                    (c * copy_stride + word_lo) * 4,
                    (word_hi - word_lo) * 4,
                );
                for (k, w) in (word_lo..word_hi).enumerate() {
                    partial[acc_base + k] += copy[w];
                }
                sw26010::simd::meter::simd_ops(&mut ctx.perf, (line_words as u64) / 4);
            }
            // One put of the reduced line to the final force array.
            DmaEngine::transfer_shared_at(
                &mut ctx.perf,
                Dir::Put,
                REGION_FORCES,
                word_lo * 4,
                (word_hi - word_lo) * 4,
            );
        }
        (line_range, partial)
    });

    let mut slot_forces = vec![0.0f32; copy_words];
    for (line_range, partial) in &out.results {
        if line_range.is_empty() {
            continue;
        }
        let word_lo = line_range.start * line_words;
        let n = partial.len().min(copy_words.saturating_sub(word_lo));
        slot_forces[word_lo..word_lo + n].copy_from_slice(&partial[..n]);
    }
    (slot_forces, out.region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::nonbonded::{compute_forces_half, max_force_diff};
    use mdsim::pairlist::PairList;
    use mdsim::water::water_box;

    /// Test radius: boxes of >= 800 molecules (~2.9 nm) keep
    /// rlist + 2 x cluster radius under half the box edge, so the
    /// per-cluster-pair shifts are exact minimum images.
    const RLIST: f32 = 0.7;

    fn test_params() -> NbParams {
        NbParams {
            r_cut: RLIST,
            ..NbParams::paper_default()
        }
    }

    fn setup(n_mol: usize, seed: u64) -> (mdsim::System, PackedSystem, CpePairList, NbParams) {
        let sys = water_box(n_mol, 300.0, seed);
        let list = PairList::build(&sys, RLIST, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        (sys, psys, cpe, test_params())
    }

    fn reference(sys: &mdsim::System, params: &NbParams) -> (Vec<mdsim::Vec3>, NbEnergies) {
        let mut r = sys.clone();
        let list = PairList::build(&r, RLIST, ListKind::Half);
        r.clear_forces();
        let en = compute_forces_half(&mut r, &list, params);
        (r.force, en)
    }

    fn check_against_reference(cfg: RmaConfig) {
        let (sys, psys, cpe, params) = setup(800, 71);
        let cg = CoreGroup::new();
        let out = run_rma(&psys, &cpe, &params, &cg, cfg);
        let (f_ref, en_ref) = reference(&sys, &params);
        assert_eq!(out.energies.pairs_within_cutoff, en_ref.pairs_within_cutoff);
        let rel = (out.energies.total() - en_ref.total()).abs() / en_ref.total().abs();
        assert!(
            rel < 1e-5,
            "{cfg:?}: energy {} vs {}",
            out.energies.total(),
            en_ref.total()
        );
        let fmax = f_ref.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        let diff = max_force_diff(&out.forces, &f_ref);
        assert!(
            diff / fmax < 1e-3,
            "{cfg:?}: force diff {diff} (fmax {fmax})"
        );
    }

    /// `PerfCounters` from its twelve fields in declaration order.
    fn counters(v: [u64; 12]) -> PerfCounters {
        PerfCounters {
            cycles: v[0],
            dma_cycles: v[1],
            dma_bw_cycles: v[2],
            gld_cycles: v[3],
            compute_cycles: v[4],
            dma_transactions: v[5],
            dma_bytes: v[6],
            gld_ops: v[7],
            gld_bytes: v[8],
            scalar_flops: v[9],
            simd_ops: v[10],
            shuffle_ops: v[11],
        }
    }

    #[test]
    fn simulated_cost_is_pinned_across_host_schedules() {
        // Counters of this box: `Mark` from the commit before
        // `CoreGroup::spawn` dealt lanes round-robin (the host schedule
        // moves no cycle), the other seven from the commit before the
        // instruction charges left the cluster-pair bodies (a charge is a
        // function of an entry's mask and in-cutoff count, nothing else).
        let (sys, psys, cpe, params) = setup(300, 71);
        let full = PairList::build(&sys, RLIST, ListKind::Full);
        let cpe_full = CpePairList::build(&sys, &full);
        let psys_full =
            PackedSystem::build(&sys, full.clustering.clone(), PackageLayout::Transposed);
        let cg = CoreGroup::new();
        use crate::kernels::{run_gld_naive, run_ori, run_rca, run_ustc};
        let rma = |cfg| run_rma(&psys, &cpe, &params, &cg, cfg).total;
        #[rustfmt::skip]
        let pinned = [
            ("Mark", rma(RmaConfig::MARK),
             [157424, 66611, 88417, 0, 80373, 3639, 1774160, 0, 0, 309288, 1605867, 72720]),
            ("Pkg", rma(RmaConfig::PKG),
             [1870292, 1405918, 1855292, 0, 170446, 151251, 4633584, 0, 0, 3819403, 56832, 0]),
            ("Cache", rma(RmaConfig::CACHE),
             [329601, 93708, 178296, 0, 166877, 8375, 3589184, 0, 0, 3819403, 56832, 0]),
            ("Vec", rma(RmaConfig::VEC),
             [244460, 94831, 178296, 0, 80613, 8375, 3589184, 0, 0, 309288, 1637331, 72720]),
            ("rca", run_rca(&psys_full, &cpe_full, &params, &cg).total,
             [245815, 23152, 108653, 0, 217663, 3220, 2133370, 0, 0, 7638806, 0, 0]),
            ("ustc", run_ustc(&psys, &cpe, &params, &cg).total,
             [545400, 0, 191552, 0, 0, 13514, 1554320, 0, 0, 3819403, 0, 0]),
            ("ori", run_ori(&psys, &cpe, &params, &cg).total,
             [8088528, 0, 0, 0, 4881979, 0, 0, 0, 0, 3819403, 0, 0]),
            ("gldnaive", run_gld_naive(&psys, &cpe, &params, &cg).total,
             [3055530, 0, 0, 2881620, 168910, 0, 0, 661668, 5293344, 3819403, 0, 0]),
        ];
        for (name, got, want) in pinned {
            assert_eq!(got, counters(want), "{name}");
        }
    }

    #[test]
    fn simulated_cost_is_pinned_on_boxes_with_idle_lanes() {
        // Served-job boxes, at the cutoff the engine clamps them to: 8
        // and 15 clusters for 64 CPEs, so most lanes of every region own
        // nothing. Counters and checksums from the commit before idle
        // lanes stopped building their caches, copies and Bit-Maps.
        use crate::check::physics_checksum;
        use crate::kernels::{run_gld_naive, run_ori, run_rca, run_ustc};
        #[rustfmt::skip]
        let pinned = [
            (8, [
                ("Mark", [14672, 4066, 675, 0, 606, 33, 11918, 0, 0, 168, 1101, 90], 0xa3f90f68ce81a017),
                ("Pkg", [44888, 27172, 3783, 0, 1840, 240, 52606, 0, 0, 989, 1536, 0], 0xa3f90f68ce81a017),
                ("Cache", [41502, 23786, 3107, 0, 1840, 161, 61070, 0, 0, 989, 1536, 0], 0xa3f90f68ce81a017),
                ("Vec", [41612, 23786, 3107, 0, 1950, 161, 61070, 0, 0, 168, 2445, 90], 0xa3f90f68ce81a017),
                ("rca", [6302, 945, 448, 0, 357, 24, 5900, 0, 0, 1978, 0, 0], 0xcaaaab81991b1f1f),
                ("ustc", [6807, 1503, 532, 0, 304, 31, 6170, 0, 0, 989, 0, 0], 0xa3f90f68ce81a017),
                ("ori", [8174, 0, 0, 0, 1117, 0, 0, 0, 0, 989, 0, 0], 0xa3f90f68ce81a017),
                ("gldnaive", [15924, 0, 0, 10620, 304, 0, 0, 715, 5720, 989, 0, 0], 0xa3f90f68ce81a017),
            ]),
            (16, [
                ("Mark", [19060, 7041, 1796, 0, 2019, 86, 33482, 0, 0, 1384, 7665, 366], 0x5deba52891bcfd75),
                ("Pkg", [57815, 37497, 8648, 0, 3566, 581, 105914, 0, 0, 8594, 3072, 0], 0x947d184d12dd2ccb),
                ("Cache", [45523, 25205, 6562, 0, 3566, 342, 129434, 0, 0, 8594, 3072, 0], 0x947d184d12dd2ccb),
                ("Vec", [45152, 25205, 6562, 0, 3195, 342, 129434, 0, 0, 1384, 10185, 366], 0x5deba52891bcfd75),
                ("rca", [8645, 1354, 1320, 0, 2291, 60, 21846, 0, 0, 17188, 0, 0], 0xf68b2e64b7842be0),
                ("ustc", [10048, 3018, 1648, 0, 2030, 99, 18990, 0, 0, 8594, 0, 0], 0x947d184d12dd2ccb),
                ("ori", [29412, 0, 0, 0, 9618, 0, 0, 0, 0, 8594, 0, 0], 0x947d184d12dd2ccb),
                ("gldnaive", [39250, 0, 0, 32220, 2030, 0, 0, 2277, 18216, 8594, 0, 0], 0x947d184d12dd2ccb),
            ]),
        ];
        let cg = CoreGroup::new();
        for (n_mol, rows) in pinned {
            let sys = water_box(n_mol, 300.0, 71);
            let l = sys.pbc.lengths();
            let rlist = 0.3 * l.x.min(l.y).min(l.z);
            let params = NbParams {
                r_cut: rlist,
                ..NbParams::paper_default()
            };
            let half = PairList::build(&sys, rlist, ListKind::Half);
            let full = PairList::build(&sys, rlist, ListKind::Full);
            let cpe = CpePairList::build(&sys, &half);
            let cpe_full = CpePairList::build(&sys, &full);
            let psys =
                PackedSystem::build(&sys, half.clustering.clone(), PackageLayout::Transposed);
            let psys_full =
                PackedSystem::build(&sys, full.clustering.clone(), PackageLayout::Transposed);
            let runs = [
                run_rma(&psys, &cpe, &params, &cg, RmaConfig::MARK),
                run_rma(&psys, &cpe, &params, &cg, RmaConfig::PKG),
                run_rma(&psys, &cpe, &params, &cg, RmaConfig::CACHE),
                run_rma(&psys, &cpe, &params, &cg, RmaConfig::VEC),
                run_rca(&psys_full, &cpe_full, &params, &cg),
                run_ustc(&psys, &cpe, &params, &cg),
                run_ori(&psys, &cpe, &params, &cg),
                run_gld_naive(&psys, &cpe, &params, &cg),
            ];
            for ((name, want, checksum), out) in rows.into_iter().zip(runs) {
                assert_eq!(out.total, counters(want), "{name}, {n_mol} waters");
                let got = physics_checksum(&out.forces, &out.energies);
                assert_eq!(got, checksum, "{name}, {n_mol} waters");
            }
        }
    }

    #[test]
    fn pkg_matches_reference() {
        check_against_reference(RmaConfig::PKG);
    }

    #[test]
    fn cache_matches_reference() {
        check_against_reference(RmaConfig::CACHE);
    }

    #[test]
    fn vec_matches_reference() {
        check_against_reference(RmaConfig::VEC);
    }

    #[test]
    fn mark_matches_reference() {
        check_against_reference(RmaConfig::MARK);
    }

    #[test]
    fn ladder_is_monotone() {
        let (_, psys, cpe, params) = setup(800, 5);
        let cg = CoreGroup::new();
        let t = |cfg| run_rma(&psys, &cpe, &params, &cg, cfg).total.cycles;
        let pkg = t(RmaConfig::PKG);
        let cache = t(RmaConfig::CACHE);
        let vec = t(RmaConfig::VEC);
        let mark = t(RmaConfig::MARK);
        assert!(pkg > cache, "Pkg {pkg} vs Cache {cache}");
        assert!(cache > vec, "Cache {cache} vs Vec {vec}");
        assert!(vec > mark, "Vec {vec} vs Mark {mark}");
    }

    #[test]
    fn mark_skips_init_phase() {
        let (_, psys, cpe, params) = setup(800, 9);
        let cg = CoreGroup::new();
        let with = run_rma(&psys, &cpe, &params, &cg, RmaConfig::MARK);
        let without = run_rma(&psys, &cpe, &params, &cg, RmaConfig::VEC);
        assert_eq!(with.phases.cycles("init"), 0);
        assert!(without.phases.cycles("init") > 0);
        assert!(with.phases.cycles("reduce") < without.phases.cycles("reduce"));
    }

    #[test]
    fn read_cache_hit_ratio_is_high() {
        // §4.2: "the cache-miss rate in both write cache and read cache
        // are under 15%".
        let (_, psys, cpe, params) = setup(800, 13);
        let cg = CoreGroup::new();
        let out = run_rma(&psys, &cpe, &params, &cg, RmaConfig::MARK);
        assert!(
            out.read_miss_ratio < 0.15,
            "read miss {}",
            out.read_miss_ratio
        );
        assert!(
            out.write_miss_ratio < 0.15,
            "write miss {}",
            out.write_miss_ratio
        );
    }

    #[test]
    fn reduction_with_marks_equals_reduction_without() {
        let (_, psys, cpe, params) = setup(800, 15);
        let cg = CoreGroup::new();
        let a = run_rma(&psys, &cpe, &params, &cg, RmaConfig::VEC);
        let b = run_rma(&psys, &cpe, &params, &cg, RmaConfig::MARK);
        let diff = max_force_diff(&a.forces, &b.forces);
        assert!(diff < 1e-6, "forces differ by {diff}");
    }
}
