//! The pair search: for one outer cluster, which clusters hold a member
//! within `rlist` of one of its members (minimum image).
//!
//! This is the one implementation behind both list builders — the host
//! [`PairList::build_with_clustering`](crate::pairlist::PairList) and the
//! simulated CPE generation of §3.5, which replays its cost model over
//! the outcome. It is the two-stage search GROMACS performs, on the
//! same eight lanes as the force kernel:
//!
//! 1. **coarse** — cluster centres within `rlist + rᵢ + rⱼ`, eight
//!    candidates per operation, streamed in [`CellGrid::for_range`]
//!    order from centre arrays sorted by cell;
//! 2. **exact** — the 4×4 member test of every coarse pass as two
//!    rows of eight (two outer members broadcast against the four inner
//!    ones), without which the list carries several times more cluster
//!    pairs than the kernel needs.
//!
//! Both stages reproduce the boolean of the scalar expressions
//! (`pbc.dist2(cᵢ, cⱼ) <= reach²` and
//! [`clusters_in_range`](crate::pairlist::clusters_in_range)) on every
//! pair: lanes evaluate the same IEEE operations in the same order
//! ([`PbcBox::min_image8`] is the scalar minimum image on every lane).
//! Filler slots hold NaN coordinates, so their lanes compare false
//! without a mask.

use wide::{LaneImpl, Lanes8};

use crate::cluster::{Clustering, CLUSTER_SIZE, FILLER};
use crate::grid::CellGrid;
use crate::pairlist::ListKind;
use crate::pbc::{le8, PbcBox};
use crate::vec3::{vec3, Vec3};

pub(crate) const LANES: usize = 8;
const COARSE: u32 = 1 << 30;
const IN_RANGE: u32 = 1 << 31;

/// One cluster the search examined for an outer cluster, and how far it
/// got: every candidate passed the half-list filter, some the coarse
/// test, and of those some the exact one.
#[derive(Debug, Clone, Copy)]
pub struct Candidate(u32);

impl Candidate {
    /// The candidate cluster's index.
    #[inline]
    pub fn cluster(self) -> usize {
        (self.0 & !(COARSE | IN_RANGE)) as usize
    }

    /// Whether the centres are within `rlist` plus both radii.
    #[inline]
    pub fn passed_coarse(self) -> bool {
        self.0 & COARSE != 0
    }

    /// Whether some member pair is within `rlist`: the cluster pair
    /// belongs in the list.
    #[inline]
    pub fn in_range(self) -> bool {
        self.0 & IN_RANGE != 0
    }
}

/// The search over one clustering at fixed positions.
#[derive(Debug)]
pub struct PairSearch {
    pbc: PbcBox,
    rlist: f32,
    kind: ListKind,
    /// `rlist` plus twice the largest cluster radius.
    reach_max: f32,
    /// Cluster centres, binned.
    grid: CellGrid,
    /// `[x, y, z, radius]` per cluster.
    centers: Vec<[f32; 4]>,
    /// The columns of `centers` in `grid.spatial_order()`, each with
    /// `LANES` trailing NaNs so a cell's last chunk loads whole.
    by_cell: [Vec<f32>; 4],
    /// Per cluster, the members' x, y and z rows; NaN in filler slots.
    members: Vec<[[f32; CLUSTER_SIZE]; 3]>,
}

impl PairSearch {
    /// Set the search up over `clustering` at positions `pos`.
    pub fn new(
        pbc: &PbcBox,
        pos: &[Vec3],
        clustering: &Clustering,
        rlist: f32,
        kind: ListKind,
    ) -> Self {
        let nc = clustering.n_clusters;
        assert!(nc < COARSE as usize, "cluster ids share a word with flags");
        let mut centers = Vec::with_capacity(nc);
        let mut points = Vec::with_capacity(nc);
        let mut max_radius = 0.0f32;
        for c in 0..nc {
            let ctr = clustering.center(pbc, pos, c);
            let r = clustering.radius(pbc, pos, c, ctr);
            centers.push([ctr.x, ctr.y, ctr.z, r]);
            points.push(ctr);
            max_radius = max_radius.max(r);
        }
        let reach_max = rlist + 2.0 * max_radius;
        // Fine grid + ranged search: candidate volume tracks the search
        // sphere instead of 27 coarse cells.
        let grid = CellGrid::build(pbc, &points, (reach_max / 2.0).max(0.4));
        let by_cell = std::array::from_fn(|k| {
            let column = grid.spatial_order().iter().map(|&c| centers[c as usize][k]);
            column.chain([f32::NAN; LANES]).collect()
        });
        let members = (0..nc)
            .map(|c| {
                let slots = clustering.members(c);
                std::array::from_fn(|axis| {
                    std::array::from_fn(|k| match slots[k] {
                        FILLER => f32::NAN,
                        p => [pos[p as usize].x, pos[p as usize].y, pos[p as usize].z][axis],
                    })
                })
            })
            .collect();
        Self {
            pbc: *pbc,
            rlist,
            kind,
            reach_max,
            grid,
            centers,
            by_cell,
            members,
        }
    }

    /// Fill `out` with every candidate of outer cluster `ci`, in
    /// [`CellGrid::for_range`] order (a half list skips clusters below
    /// `ci`), on the lanes [`LaneImpl::detect`] picks.
    pub fn scan(&self, ci: usize, out: &mut Vec<Candidate>) {
        self.scan_with(LaneImpl::detect(), ci, out)
    }

    /// [`PairSearch::scan`] on `lanes`.
    pub(crate) fn scan_with(&self, lanes: LaneImpl, ci: usize, out: &mut Vec<Candidate>) {
        wide::on_lanes!(lanes, scan_lanes, scan_avx2, self, ci, out)
    }

    /// [`PairSearch::scan`] on the lane implementation `L`; every
    /// implementation fills `out` identically.
    ///
    /// Lane operations inline into their caller and nowhere else (see
    /// [`Lanes8`]), so none sits inside a closure here.
    #[inline(always)]
    pub fn scan_on<L: Lanes8>(&self, isa: L::Isa, ci: usize, out: &mut Vec<Candidate>) {
        out.clear();
        let [x, y, z, radius] = self.centers[ci];
        let own = vec3(x, y, z);
        let (own_x, own_y, own_z) = (L::splat(isa, x), L::splat(isa, y), L::splat(isa, z));
        let reach_own = L::splat(isa, self.rlist + radius);
        let order = self.grid.spatial_order();
        let [col_x, col_y, col_z, col_r] = &self.by_cell;
        // Rows of the exact test: outer members (0, 1) and (2, 3), each
        // broadcast over four lanes, against the inner cluster's four.
        let mi = &self.members[ci];
        let rows = [
            [
                pair8::<L>(isa, &mi[0], 0),
                pair8::<L>(isa, &mi[1], 0),
                pair8::<L>(isa, &mi[2], 0),
            ],
            [
                pair8::<L>(isa, &mi[0], 2),
                pair8::<L>(isa, &mi[1], 2),
                pair8::<L>(isa, &mi[2], 2),
            ],
        ];
        // Positions in `out` of coarse passes awaiting the exact test:
        // the stages alternate in batches, so neither's control flow
        // waits on the other's results.
        const QUEUE: usize = 64;
        let mut queue = [0u32; QUEUE + LANES];
        let mut queued = 0;
        for cell in self.grid.cells_in_range(&self.pbc, own, self.reach_max) {
            let cell = self.grid.cell_range(cell);
            // Ids ascend within a cell: the half filter cuts a prefix.
            let mut k = match self.kind {
                ListKind::Half => {
                    cell.start + order[cell.clone()].partition_point(|&cj| (cj as usize) < ci)
                }
                ListKind::Full => cell.start,
            };
            while k < cell.end {
                let n = (cell.end - k).min(LANES);
                let d = [
                    own_x - load8::<L>(isa, col_x, k),
                    own_y - load8::<L>(isa, col_y, k),
                    own_z - load8::<L>(isa, col_z, k),
                ];
                let d = self.pbc.min_image8(isa, d);
                let reach = reach_own + load8::<L>(isa, col_r, k);
                // Lanes past the cell's end hold its successor's centers.
                let live = (1 << n) - 1;
                let pass = le8(norm2(d), reach * reach).movemask() & live;
                let chunk = out.len();
                let ids = order[k..k + n].iter().enumerate();
                out.extend(ids.map(|(lane, &cj)| Candidate(cj | ((pass >> lane & 1) * COARSE))));
                // Queue the coarse passes without branching on them.
                for lane in 0..LANES {
                    queue[queued] = (chunk + lane) as u32;
                    queued += (pass >> lane & 1) as usize;
                }
                if queued >= QUEUE {
                    self.refine::<L>(isa, &rows, &queue[..queued], out);
                    queued = 0;
                }
                k += n;
            }
        }
        self.refine::<L>(isa, &rows, &queue[..queued], out);
    }

    /// Flag the candidates at `queue`'s positions in `out` that pass the
    /// exact test.
    #[inline(always)]
    fn refine<L: Lanes8>(
        &self,
        isa: L::Isa,
        rows: &[[L; 3]; 2],
        queue: &[u32],
        out: &mut [Candidate],
    ) {
        for &at in queue {
            let cand = &mut out[at as usize];
            cand.0 |= self.members_in_range::<L>(isa, rows, cand.cluster()) as u32 * IN_RANGE;
        }
    }

    /// The exact test: whether a member of the outer cluster (`rows`)
    /// is within `rlist` of a member of cluster `cj`.
    #[inline(always)]
    fn members_in_range<L: Lanes8>(&self, isa: L::Isa, rows: &[[L; 3]; 2], cj: usize) -> bool {
        let r2 = self.rlist * self.rlist;
        let mj = &self.members[cj];
        let inner = [
            L::from_halves(isa, &mj[0], &mj[0]),
            L::from_halves(isa, &mj[1], &mj[1]),
            L::from_halves(isa, &mj[2], &mj[2]),
        ];
        let mut any = 0;
        for outer in rows {
            let d = [
                outer[0] - inner[0],
                outer[1] - inner[1],
                outer[2] - inner[2],
            ];
            let d = self.pbc.min_image8(isa, d);
            any |= le8(norm2(d), L::splat(isa, r2)).movemask();
        }
        any != 0
    }
}

/// The eight values of `column` from index `k`.
#[inline(always)]
fn load8<L: Lanes8>(isa: L::Isa, column: &[f32], k: usize) -> L {
    let chunk: &[f32; LANES] = column[k..k + LANES].try_into().expect("LANES long");
    L::from_array(isa, *chunk)
}

/// Members `a` and `a + 1` of a member row, each over four lanes.
#[inline(always)]
pub(crate) fn pair8<L: Lanes8>(isa: L::Isa, row: &[f32; CLUSTER_SIZE], a: usize) -> L {
    L::from_halves(isa, &[row[a]; CLUSTER_SIZE], &[row[a + 1]; CLUSTER_SIZE])
}

/// `x² + y² + z²`, associated as [`Vec3::norm2`].
#[inline(always)]
pub(crate) fn norm2<L: Lanes8>(d: [L; 3]) -> L {
    d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
}

/// [`PairSearch::scan_on`] with the lane token first, as
/// [`wide::on_lanes!`] calls a lane body.
#[inline(always)]
fn scan_lanes<L: Lanes8>(isa: L::Isa, search: &PairSearch, ci: usize, out: &mut Vec<Candidate>) {
    search.scan_on::<L>(isa, ci, out)
}

/// [`scan_lanes`] compiled with AVX2 enabled, so the whole
/// `#[inline(always)]` chain becomes `ymm` code.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "avx2")]
fn scan_avx2(isa: wide::Avx2, search: &PairSearch, ci: usize, out: &mut Vec<Candidate>) {
    scan_lanes::<wide::f32x8_avx2>(isa, search, ci, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::water::water_box;

    #[test]
    fn scan_fills_what_the_portable_lanes_fill() {
        let sys = water_box(120, 300.0, 5);
        let rlist = 0.7;
        let clustering = Clustering::build(&sys.pbc, &sys.pos, rlist);
        let bits = |v: &[Candidate]| v.iter().map(|c| c.0).collect::<Vec<_>>();
        for kind in [ListKind::Half, ListKind::Full] {
            let search = PairSearch::new(&sys.pbc, &sys.pos, &clustering, rlist, kind);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut pairs = 0;
            for ci in 0..clustering.n_clusters {
                search.scan(ci, &mut got);
                search.scan_on::<wide::f32x8>((), ci, &mut want);
                assert_eq!(bits(&got), bits(&want), "{kind:?} cluster {ci}");
                pairs += got.iter().filter(|c| c.in_range()).count();
            }
            assert!(pairs > clustering.n_clusters, "{kind:?}: a real list");
        }
    }
}
