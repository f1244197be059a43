//! CPE-parallel pair-list generation (§3.5).
//!
//! "Researchers seldom accelerate the establishment of the pair list by
//! CPEs" — the paper does: every CPE generates the neighbor lists of its
//! block of clusters into a private temporary region of main memory, and
//! the lists are finally gathered into one CSR pair list with per-cluster
//! start/end indices.
//!
//! The random accesses here are cluster *centers* chased through the cell
//! grid. With the direct-mapped read cache this access pattern thrashes
//! (the paper measured >85% misses): neighbor cells along the slowest
//! grid axis sit a power-of-two stride apart in cluster-id space and
//! collide on the same cache set, and every cluster rescans the same 27
//! cells. A two-way associative cache removes the ping-pong (§3.5:
//! 85% -> 10%).

use mdsim::cluster::Clustering;
use mdsim::pairlist::{ListKind, PairList};
use mdsim::pairsearch::PairSearch;
use mdsim::system::System;
use sw26010::cache::{CacheGeometry, ReadCache};
use sw26010::cg::CoreGroup;
use sw26010::dma::{Dir, DmaEngine};
use sw26010::perf::PerfCounters;
use sw26010::pool::block_range;

/// f32 words per center element in the packed centers array
/// (x, y, z, radius).
pub const CENTER_WORDS: usize = 4;

/// f32 words per element of the packed member positions (4 x 3).
const MEMBER_WORDS: usize = 12;

/// Result of a CPE pair-list generation run.
#[derive(Debug)]
pub struct PairGenResult {
    /// The generated list (geometrically identical to the host builder's).
    pub list: PairList,
    /// Simulated cost of the generation.
    pub perf: PerfCounters,
    /// Center-cache miss ratio observed.
    pub miss_ratio: f64,
}

/// Generate a cluster pair list on the simulated CPEs.
///
/// `ways` selects the center-cache associativity: 1 reproduces the
/// thrashing configuration, 2 the paper's fix.
///
/// The geometry is [`PairSearch`]'s, the same search the host builder
/// runs; what is metered is the access stream a CPE issues while doing
/// it, replayed over each cluster's candidates in walk order.
pub fn generate_pairlist(
    sys: &System,
    rlist: f32,
    kind: ListKind,
    cg: &CoreGroup,
    ways: usize,
) -> PairGenResult {
    let clustering = Clustering::build(&sys.pbc, &sys.pos, rlist.max(0.3));
    let nc = clustering.n_clusters;
    let search = PairSearch::new(&sys.pbc, &sys.pos, &clustering, rlist, kind);
    // The "main memory" data the CPEs chase are the cluster centers and,
    // cached separately, the member positions of the exact refinement
    // stage. The search holds both already, so the replay only charges
    // the caches (`ReadCache::touch`) and copies no line.
    //
    // 16 sets to keep the center working set tight enough that the
    // conflict behaviour of §3.5 is visible; 2-way doubles the capacity
    // at the colliding sets, which is the point.
    let geo = CacheGeometry::new(16, ways, 8, CENTER_WORDS);
    let member_geo = CacheGeometry::new(16, ways, 8, MEMBER_WORDS);

    let run = cg.spawn("pairgen.search", |ctx| {
        ctx.ldm
            .reserve("center cache", geo.ldm_bytes())
            .expect("center cache fits LDM");
        ctx.ldm
            .reserve("neighbor staging", 4096)
            .expect("staging fits LDM");
        ctx.ldm
            .reserve("member cache", member_geo.ldm_bytes())
            .expect("member cache fits LDM");
        let mut cache = ReadCache::new(geo);
        let mut member_cache = ReadCache::new(member_geo);
        // Per-CPE temporary neighbor storage ("every CPE keeps a
        // temporary memory in the main memory"): this block's rows back
        // to back, and where each ends.
        let mut neighbors: Vec<u32> = Vec::new();
        let mut row_ends: Vec<u32> = Vec::new();
        let mut candidates = Vec::new();
        let mut staged_bytes = 0usize;
        for ci in block_range(nc, cg.n_cpes, ctx.id) {
            search.scan(ci, &mut candidates);
            // Own center through the cache.
            cache.touch(&mut ctx.perf, ci);
            let row = neighbors.len();
            let mut coarse_passes = 0u64;
            for cand in &candidates {
                let cj = cand.cluster();
                cache.touch(&mut ctx.perf, cj);
                if cand.passed_coarse() {
                    // Exact member-pair refinement: candidate member
                    // positions come through a cached line.
                    member_cache.touch(&mut ctx.perf, cj);
                    coarse_passes += 1;
                    if cand.in_range() {
                        neighbors.push(cj as u32);
                    }
                }
            }
            // Coarse center check: ~12 flops a candidate; refinement: up
            // to 16 member checks of 11.
            let flops = 12 * candidates.len() as u64 + 16 * 11 * coarse_passes;
            sw26010::simd::meter::scalar_flops(&mut ctx.perf, flops);
            neighbors[row..].sort_unstable();
            // Stage the finished neighbor run to main memory in chunks.
            staged_bytes += (neighbors.len() - row) * 4 + 8;
            while staged_bytes >= 2048 {
                DmaEngine::transfer_shared(&mut ctx.perf, Dir::Put, 2048, true);
                staged_bytes -= 2048;
            }
            row_ends.push(neighbors.len() as u32);
        }
        if staged_bytes > 0 {
            DmaEngine::transfer_shared(&mut ctx.perf, Dir::Put, staged_bytes, true);
        }
        (neighbors, row_ends, cache.stats())
    });

    // Gather phase: the CPEs' blocks are contiguous in cluster order, so
    // concatenating them is the list; rebase each block's row ends into
    // the CSR offsets (the "start and end index" computation).
    let perf = run.region;
    let mut offsets = Vec::with_capacity(nc + 1);
    let mut neighbors = Vec::with_capacity(run.results.iter().map(|r| r.0.len()).sum());
    offsets.push(0u32);
    let (mut hits, mut misses) = (0u64, 0u64);
    for (block, row_ends, stats) in run.results {
        let base = neighbors.len() as u32;
        offsets.extend(row_ends.iter().map(|end| base + end));
        neighbors.extend(block);
        hits += stats.hits;
        misses += stats.misses;
    }

    let list = PairList {
        clustering,
        offsets,
        neighbors,
        rlist,
        kind,
    };
    PairGenResult {
        list,
        perf,
        miss_ratio: if hits + misses == 0 {
            0.0
        } else {
            misses as f64 / (hits + misses) as f64
        },
    }
}

/// Controlled replay of the §3.5 cell-walk access pattern against a
/// center cache of the given associativity.
///
/// During list generation every cluster scans the 27-cell neighborhood of
/// its own cell; consecutive clusters share almost the entire scan, so a
/// cache *should* serve it — but the cells along the slow grid axis sit a
/// near-power-of-two stride apart in element space and collide on the
/// same sets of a direct-mapped cache, evicting each other every scan
/// (the paper measured >85% misses). Two-way associativity keeps both
/// conflicting rows resident (~10%). This function reproduces that
/// experiment on the cache substrate with a representative grid
/// (`12 x 8 x 6` cells of 4 clusters, 128-set cache, single-element
/// lines) and returns the observed miss ratio.
pub fn grid_walk_miss_study(ways: usize) -> f64 {
    let dims = [12usize, 8, 6];
    let per_cell = 4usize;
    let geo = CacheGeometry::new(128, ways, 1, CENTER_WORDS);
    let mut cache = ReadCache::new(geo);
    let mut perf = PerfCounters::new();
    let idx = |cx: isize, cy: isize, cz: isize| -> usize {
        let w = |v: isize, d: usize| v.rem_euclid(d as isize) as usize;
        (w(cx, dims[0]) * dims[1] + w(cy, dims[1])) * dims[2] + w(cz, dims[2])
    };
    for cx in 0..dims[0] as isize {
        for cy in 0..dims[1] as isize {
            for cz in 0..dims[2] as isize {
                for dx in -1isize..=1 {
                    for dy in -1isize..=1 {
                        for dz in -1isize..=1 {
                            let c = idx(cx + dx, cy + dy, cz + dz);
                            for e in 0..per_cell {
                                cache.touch(&mut perf, c * per_cell + e);
                            }
                        }
                    }
                }
            }
        }
    }
    cache.stats().miss_ratio().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::water::water_box;

    #[test]
    fn cpe_generated_list_matches_host_builder() {
        let sys = water_box(150, 300.0, 31);
        let cg = CoreGroup::new();
        let gen = generate_pairlist(&sys, 1.0, ListKind::Half, &cg, 2);
        let host = PairList::build(&sys, 1.0, ListKind::Half);
        assert_eq!(gen.list.offsets, host.offsets);
        assert_eq!(gen.list.neighbors, host.neighbors);
    }

    #[test]
    fn simulated_cost_is_pinned_across_host_schedules() {
        // Counters of this box at the commit before `CoreGroup::spawn`
        // dealt lanes round-robin: the host schedule moves no cycle.
        let sys = water_box(150, 300.0, 31);
        let gen = generate_pairlist(&sys, 1.0, ListKind::Half, &CoreGroup::new(), 2);
        assert_eq!(
            gen.perf,
            PerfCounters {
                cycles: 91932,
                dma_cycles: 11320,
                dma_bw_cycles: 14671,
                gld_cycles: 0,
                compute_cycles: 75612,
                dma_transactions: 874,
                dma_bytes: 248820,
                gld_ops: 0,
                gld_bytes: 0,
                scalar_flops: 1733280,
                simd_ops: 0,
                shuffle_ops: 0,
            }
        );
    }

    /// Counters and miss ratios at the commit before the search moved
    /// onto lanes and out from under the meter: the replay over the
    /// core's candidates charges what the metered walk charged.
    #[test]
    fn simulated_cost_is_pinned_across_the_search_rewrite() {
        let pinned = |sys: &System, rlist, kind, ways, perf: PerfCounters, miss_ratio: f64| {
            let gen = generate_pairlist(sys, rlist, kind, &CoreGroup::new(), ways);
            assert_eq!(gen.perf, perf, "{kind:?}, {ways}-way");
            assert_eq!(gen.miss_ratio, miss_ratio, "{kind:?}, {ways}-way");
        };
        let sys = water_box(150, 300.0, 31);
        // The thrashing direct-mapped center cache.
        pinned(
            &sys,
            1.0,
            ListKind::Half,
            1,
            PerfCounters {
                cycles: 94757,
                dma_cycles: 14145,
                dma_bw_cycles: 15048,
                gld_cycles: 0,
                compute_cycles: 75612,
                dma_transactions: 899,
                dma_bytes: 254836,
                gld_ops: 0,
                gld_bytes: 0,
                scalar_flops: 1733280,
                simd_ops: 0,
                shuffle_ops: 0,
            },
            0.0452814219212865,
        );
        // No half filter: every candidate of the walk is replayed.
        pinned(
            &sys,
            1.0,
            ListKind::Full,
            2,
            PerfCounters {
                cycles: 93033,
                dma_cycles: 11329,
                dma_bw_cycles: 27704,
                gld_cycles: 0,
                compute_cycles: 76704,
                dma_transactions: 1610,
                dma_bytes: 472456,
                gld_ops: 0,
                gld_bytes: 0,
                scalar_flops: 3440992,
                simd_ops: 0,
                shuffle_ops: 0,
            },
            0.041970802919708027,
        );
        // Five cells an axis at this radius: the walk culls cells, so
        // candidate order depends on which survive.
        let sys = water_box(600, 300.0, 37);
        let clustering = Clustering::build(&sys.pbc, &sys.pos, 0.5);
        let search = PairSearch::new(&sys.pbc, &sys.pos, &clustering, 0.5, ListKind::Full);
        let mut candidates = Vec::new();
        search.scan(0, &mut candidates);
        assert!(
            candidates.len() < clustering.n_clusters,
            "no cell was culled"
        );
        pinned(
            &sys,
            0.5,
            ListKind::Half,
            2,
            PerfCounters {
                cycles: 581118,
                dma_cycles: 385214,
                dma_bw_cycles: 302751,
                gld_cycles: 0,
                compute_cycles: 190904,
                dma_transactions: 23890,
                dma_bytes: 3627832,
                gld_ops: 0,
                gld_bytes: 0,
                scalar_flops: 5568696,
                simd_ops: 0,
                shuffle_ops: 0,
            },
            0.15460671282146055,
        );
    }

    /// Counters and miss ratios of served-job boxes (8 and 14 clusters
    /// for 64 CPEs, at the cutoff the engine clamps them to) from the
    /// commit before idle lanes stopped building their caches and the
    /// replay stopped copying lines.
    #[test]
    fn simulated_cost_is_pinned_on_boxes_with_idle_lanes() {
        let pinned = |n_mol, perf: PerfCounters, miss_ratio: f64| {
            let sys = water_box(n_mol, 300.0, 31);
            let l = sys.pbc.lengths();
            let rlist = 0.3 * l.x.min(l.y).min(l.z);
            let gen = generate_pairlist(&sys, rlist, ListKind::Half, &CoreGroup::new(), 2);
            assert_eq!(gen.perf, perf, "{n_mol} waters");
            assert_eq!(gen.miss_ratio, miss_ratio, "{n_mol} waters");
        };
        pinned(
            8,
            PerfCounters {
                cycles: 6708,
                dma_cycles: 908,
                dma_bw_cycles: 344,
                gld_cycles: 0,
                compute_cycles: 800,
                dma_transactions: 24,
                dma_bytes: 4208,
                gld_ops: 0,
                gld_bytes: 0,
                scalar_flops: 3952,
                simd_ops: 0,
                shuffle_ops: 0,
            },
            0.18181818181818182,
        );
        pinned(
            16,
            PerfCounters {
                cycles: 9175,
                dma_cycles: 1543,
                dma_bw_cycles: 850,
                gld_cycles: 0,
                compute_cycles: 2632,
                dma_transactions: 58,
                dma_bytes: 11572,
                gld_ops: 0,
                gld_bytes: 0,
                scalar_flops: 18860,
                simd_ops: 0,
                shuffle_ops: 0,
            },
            0.18487394957983194,
        );
    }

    #[test]
    fn generated_list_covers_cutoff() {
        let sys = water_box(80, 300.0, 32);
        let cg = CoreGroup::new();
        let gen = generate_pairlist(&sys, 1.0, ListKind::Half, &cg, 2);
        assert_eq!(gen.list.verify_coverage(&sys, 1.0), None);
    }

    #[test]
    fn grid_walk_thrashes_direct_mapped_only() {
        // §3.5: "The cache miss ratio is more than 85%, because of
        // serious cache thrashing. ... the two-way associative Cache ...
        // reducing the cache miss ratio from more than 85% to 10%."
        let direct = grid_walk_miss_study(1);
        let two_way = grid_walk_miss_study(2);
        assert!(direct > 0.6, "direct-mapped miss {direct:.2}");
        assert!(two_way < 0.25, "2-way miss {two_way:.2}");
        assert!(direct > 3.0 * two_way);
    }

    #[test]
    fn cache_choice_does_not_change_the_list() {
        let sys = water_box(400, 300.0, 33);
        let cg = CoreGroup::new();
        let direct = generate_pairlist(&sys, 1.0, ListKind::Half, &cg, 1);
        let assoc = generate_pairlist(&sys, 1.0, ListKind::Half, &cg, 2);
        assert_eq!(direct.list.neighbors, assoc.list.neighbors);
        assert_eq!(direct.list.offsets, assoc.list.offsets);
    }

    #[test]
    fn generation_parallelizes() {
        let sys = water_box(400, 300.0, 34);
        let full_cg = CoreGroup::new();
        let one_cpe = CoreGroup::with_cpes(1);
        let par = generate_pairlist(&sys, 1.0, ListKind::Half, &full_cg, 2);
        let ser = generate_pairlist(&sys, 1.0, ListKind::Half, &one_cpe, 2);
        assert_eq!(par.list.neighbors, ser.list.neighbors);
        // Compute parallelizes; the DMA share is bandwidth-bound either
        // way, so the overall win is well below 64x.
        assert!(
            par.perf.cycles * 3 < ser.perf.cycles,
            "parallel {} vs serial {}",
            par.perf.cycles,
            ser.perf.cycles
        );
    }
}
