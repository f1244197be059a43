//! Differential tests of the pair-search core (`mdsim::pairsearch`)
//! against a brute-force oracle: every cluster pair through the scalar
//! two-stage predicate (`pbc.dist2` of the centers, then
//! `clusters_in_range`), no grid and no lanes.
//!
//! The properties run on **every lane implementation the host offers**
//! and compare for equality — the list the core produces is the
//! oracle's, and every candidate's stage flags are the scalar booleans
//! (the CPE cost model of `swgmx::pairgen` is replayed over them).
//!
//! Inputs are hostile on purpose: clusters straddling the box faces,
//! box edges barely above twice the search reach (one or two grid cells
//! per axis, the serve-sized boxes), positions left unwrapped several
//! boxes away (the lanes' scalar fallback), all-filler and
//! single-member clusters, coincident particles, member pairs an ulp
//! either side of `rlist`, and pairs exactly half a box edge apart.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sw_gromacs::mdsim::cluster::{Clustering, CLUSTER_SIZE, FILLER};
use sw_gromacs::mdsim::pairlist::{clusters_in_range, ListKind, PairList};
use sw_gromacs::mdsim::pairsearch::PairSearch;
use sw_gromacs::mdsim::{vec3, PbcBox, Vec3};
use sw_gromacs::swgmx::kernels::native_simd::{for_each_lanes8, Lanes8};

/// The next `f32` after `x` in direction `up` (positive finite `x`).
fn step_ulp(x: f32, up: bool) -> f32 {
    f32::from_bits(if up { x.to_bits() + 1 } else { x.to_bits() - 1 })
}

/// How the particles are grouped into clusters.
#[derive(Debug, Clone, Copy)]
enum Grouping {
    /// `Clustering::build`: spatial cells, fillers pad each cell.
    Spatial,
    /// Arbitrary order with fillers anywhere, whole clusters of them
    /// included — members of one cluster can be a box apart.
    Scattered,
}

struct Case {
    pbc: PbcBox,
    pos: Vec<Vec3>,
    clustering: Clustering,
    rlist: f32,
}

fn hostile_case(seed: u64, n: usize, edge: f32, rlist: f32, grouping: Grouping) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    // Anisotropic, so the axes disagree about how many cells they get.
    let pbc = PbcBox::new(
        edge,
        edge * rng.gen_range(1.0f32..1.4),
        edge * rng.gen_range(1.0f32..1.8),
    );
    let l = pbc.lengths();
    let mut pos: Vec<Vec3> = (0..n)
        .map(|_| {
            vec3(
                rng.gen_range(0.0..l.x),
                rng.gen_range(0.0..l.y),
                rng.gen_range(0.0..l.z),
            )
        })
        .collect();
    for i in 1..n {
        match rng.gen_range(0..9) {
            // Coincident with an earlier particle.
            0 => pos[i] = pos[rng.gen_range(0..i)],
            // An ulp either side of `rlist` from an earlier particle,
            // or exactly on it, along one axis.
            1 => {
                let r = match rng.gen_range(0..3) {
                    0 => rlist,
                    1 => step_ulp(rlist, true),
                    _ => step_ulp(rlist, false),
                };
                let mut p = pos[rng.gen_range(0..i)];
                match rng.gen_range(0..3) {
                    0 => p.x += r,
                    1 => p.y -= r,
                    _ => p.z += r,
                }
                pos[i] = p;
            }
            // On a box face, or just outside it.
            2 => pos[i].x = [0.0, l.x, -1e-6, step_ulp(l.x, false)][rng.gen_range(0..4)],
            // Left unwrapped, up to three boxes away.
            3 => {
                pos[i].x += l.x * rng.gen_range(-3i32..=3) as f32;
                pos[i].y += l.y * rng.gen_range(-3i32..=3) as f32;
                pos[i].z += l.z * rng.gen_range(-2i32..=2) as f32;
            }
            // Half a box edge from an earlier particle: the tie of the
            // minimum image's rounding.
            4 => {
                let mut p = pos[rng.gen_range(0..i)];
                match rng.gen_range(0..3) {
                    0 => p.x += 0.5 * l.x,
                    1 => p.y -= 0.5 * l.y,
                    _ => p.z += 0.5 * l.z,
                }
                pos[i] = p;
            }
            _ => {}
        }
    }
    let clustering = match grouping {
        Grouping::Spatial => Clustering::build(&pbc, &pos, rlist.max(0.3)),
        Grouping::Scattered => {
            let mut slots = Vec::new();
            let mut next = 0u32;
            while (next as usize) < n {
                // 0: a cluster of fillers; 1: a single member.
                let members = rng.gen_range(0..=CLUSTER_SIZE);
                let at = rng.gen_range(0..CLUSTER_SIZE);
                for k in 0..CLUSTER_SIZE {
                    let taken = (k + CLUSTER_SIZE - at) % CLUSTER_SIZE < members;
                    if taken && (next as usize) < n {
                        slots.push(next);
                        next += 1;
                    } else {
                        slots.push(FILLER);
                    }
                }
            }
            let mut cluster_of = vec![0u32; n];
            for (slot, &p) in slots.iter().enumerate() {
                if p != FILLER {
                    cluster_of[p as usize] = (slot / CLUSTER_SIZE) as u32;
                }
            }
            Clustering {
                n_clusters: slots.len() / CLUSTER_SIZE,
                slots,
                cluster_of,
            }
        }
    };
    Case {
        pbc,
        pos,
        clustering,
        rlist,
    }
}

/// The scalar stage booleans (coarse, listed) of every cluster pair,
/// `[ci][cj]`.
fn oracle_stages(case: &Case) -> Vec<Vec<(bool, bool)>> {
    let Case {
        pbc,
        pos,
        clustering,
        rlist,
    } = case;
    let nc = clustering.n_clusters;
    let centers: Vec<(Vec3, f32)> = (0..nc)
        .map(|c| {
            let center = clustering.center(pbc, pos, c);
            (center, clustering.radius(pbc, pos, c, center))
        })
        .collect();
    let stages = |ci: usize, cj: usize| {
        let reach = rlist + centers[ci].1 + centers[cj].1;
        let coarse = pbc.dist2(centers[ci].0, centers[cj].0) <= reach * reach;
        let exact = clusters_in_range(pbc, pos, clustering, ci, cj, *rlist);
        (coarse, coarse && exact)
    };
    (0..nc)
        .map(|ci| (0..nc).map(|cj| stages(ci, cj)).collect())
        .collect()
}

/// The oracle's row of outer cluster `ci`.
fn oracle_row(stages: &[Vec<(bool, bool)>], kind: ListKind, ci: usize) -> Vec<u32> {
    let first = if kind == ListKind::Half { ci } else { 0 };
    (first..stages.len())
        .filter(|&cj| stages[ci][cj].1)
        .map(|cj| cj as u32)
        .collect()
}

/// The core on lanes `L` against the oracle: rows, then stage flags.
fn core_matches_oracle<L: Lanes8>(
    isa: L::Isa,
    case: &Case,
    stages: &[Vec<(bool, bool)>],
    kind: ListKind,
) {
    let search = PairSearch::new(&case.pbc, &case.pos, &case.clustering, case.rlist, kind);
    let mut candidates = Vec::new();
    for ci in 0..stages.len() {
        search.scan_on::<L>(isa, ci, &mut candidates);
        let mut row: Vec<u32> = candidates
            .iter()
            .filter(|c| c.in_range())
            .map(|c| c.cluster() as u32)
            .collect();
        row.sort_unstable();
        let at = format!("{} lanes, {kind:?}, row {ci}", L::NAME);
        assert_eq!(row, oracle_row(stages, kind, ci), "{at}");
        for cand in &candidates {
            let cj = cand.cluster();
            assert!(kind == ListKind::Full || cj >= ci, "{at}: half filter");
            let flags = (cand.passed_coarse(), cand.in_range());
            assert_eq!(flags, stages[ci][cj], "{at}, candidate {cj}");
        }
    }
}

fn check_case(case: &Case) {
    let stages = oracle_stages(case);
    for kind in [ListKind::Half, ListKind::Full] {
        for_each_lanes8!(core_matches_oracle, case, &stages, kind);
        // The builder, on the lanes the host selects.
        let list = PairList::build_with_clustering(
            &case.pbc,
            &case.pos,
            case.clustering.clone(),
            case.rlist,
            kind,
        );
        assert_eq!(list.offsets.len(), stages.len() + 1);
        for ci in 0..stages.len() {
            let want = oracle_row(&stages, kind, ci);
            assert_eq!(list.neighbors_of(ci), want, "{kind:?} row {ci}");
        }
    }
}

proptest! {
    /// Spatial clusterings, from serve-sized boxes (24–72 particles,
    /// one or two cells per axis, `rlist` clamped to 30% of the edge as
    /// `Engine::new` does) up to a few hundred particles.
    #[test]
    fn spatial_clusterings_match_the_oracle(
        seed in any::<u64>(),
        n in 1usize..160,
        edge in 0.85f32..2.6,
        rlist_share in 0.12f32..0.3,
    ) {
        check_case(&hostile_case(seed, n, edge, edge * rlist_share, Grouping::Spatial));
    }

    /// Clusterings no spatial sort produced: wide clusters (radius up to
    /// half the box), fillers in any slot, clusters of nothing else.
    #[test]
    fn scattered_clusterings_match_the_oracle(
        seed in any::<u64>(),
        n in 1usize..60,
        edge in 0.85f32..2.0,
        rlist_share in 0.12f32..0.45,
    ) {
        check_case(&hostile_case(seed, n, edge, edge * rlist_share, Grouping::Scattered));
    }
}

/// The lane implementation this run exercised, for the CI log.
#[test]
fn prints_the_lane_implementations() {
    fn name<L: Lanes8>(_: L::Isa, names: &mut Vec<&'static str>) {
        names.push(L::NAME);
    }
    let mut names = Vec::new();
    for_each_lanes8!(name, &mut names);
    println!(
        "pair search differential ran on lanes: {}",
        names.join(", ")
    );
}
