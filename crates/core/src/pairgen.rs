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
use mdsim::grid::CellGrid;
use mdsim::pairlist::{clusters_in_range, ListKind, PairList};
use mdsim::system::System;
use sw26010::cache::{CacheGeometry, ReadCache};
use sw26010::cg::CoreGroup;
use sw26010::dma::{Dir, DmaEngine};
use sw26010::perf::PerfCounters;

/// f32 words per center element in the packed centers array
/// (x, y, z, radius).
pub const CENTER_WORDS: usize = 4;

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
pub fn generate_pairlist(
    sys: &System,
    rlist: f32,
    kind: ListKind,
    cg: &CoreGroup,
    ways: usize,
) -> PairGenResult {
    let clustering = Clustering::build(&sys.pbc, &sys.pos, rlist.max(0.3));
    let nc = clustering.n_clusters;
    // Packed centers array: the "main memory" data the CPEs chase.
    let mut centers_packed = vec![0.0f32; nc * CENTER_WORDS];
    let mut centers = Vec::with_capacity(nc);
    let mut max_radius = 0.0f32;
    for c in 0..nc {
        let ctr = clustering.center(&sys.pbc, &sys.pos, c);
        let r = clustering.radius(&sys.pbc, &sys.pos, c, ctr);
        centers_packed[c * CENTER_WORDS] = ctr.x;
        centers_packed[c * CENTER_WORDS + 1] = ctr.y;
        centers_packed[c * CENTER_WORDS + 2] = ctr.z;
        centers_packed[c * CENTER_WORDS + 3] = r;
        centers.push(ctr);
        max_radius = max_radius.max(r);
    }
    let reach_max = rlist + 2.0 * max_radius;
    let grid = CellGrid::build(&sys.pbc, &centers, (reach_max / 2.0).max(0.4));

    // Pack member positions (12 words per cluster) for the exact
    // refinement stage; cached separately from centers.
    let mut members_packed = vec![0.0f32; nc * 12];
    for c in 0..nc {
        for (lane, &m) in clustering.members(c).iter().enumerate() {
            if m == mdsim::FILLER {
                continue;
            }
            let p = sys.pos[m as usize];
            members_packed[c * 12 + 3 * lane] = p.x;
            members_packed[c * 12 + 3 * lane + 1] = p.y;
            members_packed[c * 12 + 3 * lane + 2] = p.z;
        }
    }

    // 16 sets to keep the center working set tight enough that the
    // conflict behaviour of §3.5 is visible; 2-way doubles the capacity
    // at the colliding sets, which is the point.
    let geo = CacheGeometry::new(16, ways, 8, CENTER_WORDS);
    let member_geo = CacheGeometry::new(16, ways, 8, 12);

    swprof::next_region_label("pairgen.search");
    let run = cg.spawn(|ctx| {
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
        // temporary memory in the main memory").
        let mut local: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut staged_bytes = 0usize;
        for ci in cg.block_range(nc, ctx.id) {
            // Own center through the cache.
            let own = {
                let e = cache.get(&mut ctx.perf, &centers_packed, ci);
                [e[0], e[1], e[2], e[3]]
            };
            let own_center = mdsim::vec3(own[0], own[1], own[2]);
            let mut neigh: Vec<u32> = Vec::new();
            grid.for_range(&sys.pbc, own_center, reach_max, |cj| {
                let cj = cj as usize;
                if kind == ListKind::Half && cj < ci {
                    return;
                }
                let e = cache.get(&mut ctx.perf, &centers_packed, cj);
                let other = mdsim::vec3(e[0], e[1], e[2]);
                let reach = rlist + own[3] + e[3];
                // Coarse center check: ~12 flops.
                sw26010::simd::meter::scalar_flops(&mut ctx.perf, 12);
                if sys.pbc.dist2(own_center, other) <= reach * reach {
                    // Exact member-pair refinement (same predicate as the
                    // host builder): candidate member positions come
                    // through a cached line, then up to 16 checks.
                    member_cache.get(&mut ctx.perf, &members_packed, cj);
                    sw26010::simd::meter::scalar_flops(&mut ctx.perf, 16 * 11);
                    if clusters_in_range(&sys.pbc, &sys.pos, &clustering, ci, cj, rlist) {
                        neigh.push(cj as u32);
                    }
                }
            });
            neigh.sort_unstable();
            // Stage the finished neighbor run to main memory in chunks.
            staged_bytes += neigh.len() * 4 + 8;
            while staged_bytes >= 2048 {
                DmaEngine::transfer_shared(&mut ctx.perf, Dir::Put, 2048, true);
                staged_bytes -= 2048;
            }
            local.push((ci as u32, neigh));
        }
        if staged_bytes > 0 {
            DmaEngine::transfer_shared(&mut ctx.perf, Dir::Put, staged_bytes, true);
        }
        (local, cache.stats().clone())
    });

    // Gather phase: concatenate per-CPE lists in cluster order and build
    // the CSR offsets (the "start and end index" computation).
    let mut per_cluster: Vec<Vec<u32>> = vec![Vec::new(); nc];
    let mut hits = 0u64;
    let mut misses = 0u64;
    for (local, stats) in calc_results(&run) {
        for (ci, neigh) in local {
            per_cluster[*ci as usize] = neigh.clone();
        }
        hits += stats.hits;
        misses += stats.misses;
    }
    let mut offsets = Vec::with_capacity(nc + 1);
    let mut neighbors = Vec::new();
    offsets.push(0u32);
    for n in &per_cluster {
        neighbors.extend_from_slice(n);
        offsets.push(neighbors.len() as u32);
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
        perf: run.region,
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
    let n_elems = dims[0] * dims[1] * dims[2] * per_cell;
    let geo = CacheGeometry::new(128, ways, 1, CENTER_WORDS);
    let mut cache = ReadCache::new(geo);
    let backing = vec![0.0f32; n_elems * CENTER_WORDS];
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
                                cache.get(&mut perf, &backing, c * per_cell + e);
                            }
                        }
                    }
                }
            }
        }
    }
    cache.stats().miss_ratio().unwrap_or(0.0)
}

type CpeLocal = (Vec<(u32, Vec<u32>)>, sw26010::CacheStats);

fn calc_results(run: &sw26010::SpawnResult<CpeLocal>) -> impl Iterator<Item = &CpeLocal> {
    run.results.iter()
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
