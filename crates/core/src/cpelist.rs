//! The pair list in the form the CPE kernels consume: CSR cluster
//! neighbors plus a 16-bit interaction mask and a periodic shift vector
//! per cluster pair.
//!
//! Masks fold three conditions the scalar reference checks per particle
//! pair — filler slots, intramolecular exclusions, and self-pair
//! deduplication — into one bit test (bit `ai*4 + bj`), which is also how
//! the real GROMACS nbnxn kernels handle exclusions. Shift vectors bake
//! the minimum-image convention into the list so the inner kernel is
//! branch-free: `d = pos_a - (pos_b + shift)`.

use mdsim::cluster::Clustering;
use mdsim::pairlist::{ListKind, PairList};
use mdsim::pbc::PbcBox;
use mdsim::system::System;
use sw26010::pool::{block_range, LanePool};
use sw26010::trace;

use crate::check::{REGION_CENTERS, REGION_SHIFTS};

use crate::kernels::native_simd::{on_lanes, LaneImpl, Lanes8};

/// Bytes of list data streamed per neighbor entry (index + mask + shift).
pub const LIST_ENTRY_BYTES: usize = 4 + 2 + 12;

/// A kernel-ready cluster pair list.
#[derive(Debug, Clone)]
pub struct CpePairList {
    /// CSR offsets per outer cluster.
    pub offsets: Vec<u32>,
    /// Inner cluster per entry.
    pub neighbors: Vec<u32>,
    /// Interaction mask per entry: bit `ai*4+bj` set = compute the pair.
    pub masks: Vec<u16>,
    /// Periodic shift (added to inner-cluster positions) per entry.
    pub shifts: Vec<[f32; 3]>,
    /// Half or full convention (inherited from the source list).
    pub kind: ListKind,
    /// Build radius.
    pub rlist: f32,
    /// Cluster centers the shifts were last computed from, one column
    /// per axis; kept so that a refresh allocates nothing.
    centers: [Vec<f32>; 3],
}

impl CpePairList {
    /// Lower a geometric [`PairList`] into kernel form, computing masks
    /// from `sys`'s exclusions and shifts from cluster centers.
    ///
    /// The lowering has two halves with different lifetimes. The CSR and
    /// the masks are a function of the clustering, the exclusions and the
    /// list kind only, so they hold for as long as the list does; the
    /// shifts follow the positions and go stale every step
    /// ([`CpePairList::update_shifts`] brings them up to date in place).
    pub fn build(sys: &System, list: &PairList) -> Self {
        let mut lowered = Self {
            offsets: list.offsets.clone(),
            neighbors: list.neighbors.clone(),
            masks: list.interaction_masks(sys),
            shifts: vec![[0.0; 3]; list.n_pairs()],
            kind: list.kind,
            rlist: list.rlist,
            centers: [const { Vec::new() }; 3],
        };
        // One block: filled here, the pool is never asked.
        lowered.update_shifts(sys, &list.clustering, &LanePool::with_threads(1), 1);
        lowered
    }

    /// Recompute every entry's shift from `sys`'s current positions:
    /// translate the inner cluster's center to its minimum image
    /// relative to the outer cluster's center. `clustering` must be the
    /// one the list was built over. Rows are independent: they are
    /// filled as `n_blocks` runs of rows, on `pool`'s lanes when that is
    /// two or more, and the shifts are the same bits at every split.
    pub fn update_shifts(
        &mut self,
        sys: &System,
        clustering: &Clustering,
        pool: &LanePool,
        n_blocks: usize,
    ) {
        let nc = self.n_clusters();
        for column in &mut self.centers {
            column.resize(nc, 0.0);
        }
        for c in 0..nc {
            let center = clustering.center(&sys.pbc, &sys.pos, c);
            self.centers[0][c] = center.x;
            self.centers[1][c] = center.y;
            self.centers[2][c] = center.z;
        }
        // Only a refresh that goes to lanes has accesses to order.
        let tracing = n_blocks >= 2 && trace::enabled();
        if tracing {
            trace::shared_write(REGION_CENTERS, 0, 3 * nc);
        }
        let n_blocks = n_blocks.max(1);
        let (offsets, neighbors) = (&self.offsets[..], &self.neighbors[..]);
        let mut rest = &mut self.shifts[..];
        let blocks = (0..n_blocks).map(|b| {
            let rows = block_range(nc, n_blocks, b);
            let entries = (offsets[rows.end] - offsets[rows.start]) as usize;
            let (shifts, after) = std::mem::take(&mut rest).split_at_mut(entries);
            rest = after;
            RowBlock {
                rows,
                shifts,
                offsets,
                neighbors,
                centers: &self.centers,
                pbc: &sys.pbc,
            }
        });
        let lanes = LaneImpl::detect();
        pool.run_blocks(blocks.collect(), |_, block| {
            if tracing {
                let first = 3 * offsets[block.rows.start] as usize;
                trace::shared_read(REGION_CENTERS, 0, 3 * nc);
                trace::shared_write(REGION_SHIFTS, first, first + 3 * block.shifts.len());
            }
            on_lanes!(lanes, shift_rows, shift_rows_avx2, block);
        });
    }

    /// Number of outer clusters.
    pub fn n_clusters(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Entry index range of outer cluster `ci`.
    #[inline]
    pub fn entries_of(&self, ci: usize) -> std::ops::Range<usize> {
        self.offsets[ci] as usize..self.offsets[ci + 1] as usize
    }

    /// Total entries.
    pub fn n_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// Bytes of list data streamed for cluster `ci` (index+mask+shift).
    pub fn stream_bytes(&self, ci: usize) -> usize {
        self.entries_of(ci).len() * LIST_ENTRY_BYTES
    }
}

/// A run of the list's rows with their shifts — `shifts[0]` is the
/// first entry of row `rows.start` — which is what one lane of a refresh
/// owns, and what it reads.
struct RowBlock<'a> {
    rows: std::ops::Range<usize>,
    shifts: &'a mut [[f32; 3]],
    offsets: &'a [u32],
    neighbors: &'a [u32],
    centers: &'a [Vec<f32>; 3],
    pbc: &'a PbcBox,
}

/// Every entry's shift in `block`'s rows from the cluster centers — the
/// inner center seen from the outer one through the minimum image,
/// minus the inner center — eight entries of a row per operation.
#[inline(always)]
fn shift_rows<L: Lanes8>(isa: L::Isa, block: &mut RowBlock<'_>) {
    let RowBlock {
        offsets,
        neighbors,
        centers: [cx, cy, cz],
        pbc,
        ..
    } = *block;
    const LANES: usize = 8;
    let first = offsets[block.rows.start] as usize;
    for ci in block.rows.clone() {
        let own = [
            L::splat(isa, cx[ci]),
            L::splat(isa, cy[ci]),
            L::splat(isa, cz[ci]),
        ];
        let row = offsets[ci] as usize..offsets[ci + 1] as usize;
        for start in row.clone().step_by(LANES) {
            let ids = &neighbors[start..row.end.min(start + LANES)];
            let other = [
                gather8::<L>(isa, cx, ids),
                gather8::<L>(isa, cy, ids),
                gather8::<L>(isa, cz, ids),
            ];
            let d = pbc.min_image8(
                isa,
                [own[0] - other[0], own[1] - other[1], own[2] - other[2]],
            );
            let [sx, sy, sz] = [
                ((own[0] - d[0]) - other[0]).to_array(),
                ((own[1] - d[1]) - other[1]).to_array(),
                ((own[2] - d[2]) - other[2]).to_array(),
            ];
            let shifts = &mut block.shifts[start - first..start - first + ids.len()];
            for (lane, shift) in shifts.iter_mut().enumerate() {
                *shift = [sx[lane], sy[lane], sz[lane]];
            }
        }
    }
}

/// `column[id]` for up to eight ids; zero in the lanes past them.
#[inline(always)]
fn gather8<L: Lanes8>(isa: L::Isa, column: &[f32], ids: &[u32]) -> L {
    let mut lanes = [0.0f32; 8];
    for (lane, &id) in lanes.iter_mut().zip(ids) {
        *lane = column[id as usize];
    }
    L::from_array(isa, lanes)
}

/// [`shift_rows`] compiled with AVX2 enabled.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "avx2")]
fn shift_rows_avx2(isa: crate::kernels::native_simd::Avx2, block: &mut RowBlock<'_>) {
    shift_rows::<crate::kernels::native_simd::f32x8_avx2>(isa, block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::cluster::FILLER;
    use mdsim::water::water_box;
    use mdsim::Vec3;

    fn setup() -> (System, PairList, CpePairList) {
        // rlist + 2 x cluster radius must stay under half the box edge
        // for the per-cluster shifts to be exact minimum images.
        let sys = water_box(600, 300.0, 51);
        let list = PairList::build(&sys, 0.6, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        (sys, list, cpe)
    }

    #[test]
    fn mask_bits_match_reference_conditions() {
        let (sys, list, cpe) = setup();
        let mut entry = 0;
        for ci in 0..list.n_clusters() {
            let mi = list.clustering.members(ci);
            for &cj in list.neighbors_of(ci) {
                let cj = cj as usize;
                let mj = list.clustering.members(cj);
                let mask = cpe.masks[entry];
                for (ai, &a) in mi.iter().enumerate() {
                    for (bj, &b) in mj.iter().enumerate() {
                        let bit = mask >> (ai * 4 + bj) & 1 == 1;
                        let expect = a != FILLER
                            && b != FILLER
                            && a != b
                            && !(ci == cj && bj <= ai)
                            && !sys.is_excluded(a as usize, b as usize);
                        assert_eq!(bit, expect, "entry {entry} ai={ai} bj={bj}");
                    }
                }
                entry += 1;
            }
        }
    }

    #[test]
    fn each_interacting_pair_counted_once_in_half_list() {
        let (_, _, cpe) = setup();
        // Popcount over all masks = number of particle pairs the kernel
        // will evaluate; each unordered pair exactly once.
        let mut seen = std::collections::HashSet::new();
        let mut entry = 0;
        for ci in 0..cpe.n_clusters() {
            for e in cpe.entries_of(ci) {
                let cj = cpe.neighbors[e] as usize;
                let mask = cpe.masks[entry];
                for bitpos in 0..16 {
                    if mask >> bitpos & 1 == 1 {
                        let (ai, bj) = (bitpos / 4, bitpos % 4);
                        let a = ci * 4 + ai;
                        let b = cj * 4 + bj;
                        let key = (a.min(b), a.max(b));
                        assert!(seen.insert(key), "pair {key:?} duplicated");
                    }
                }
                entry += 1;
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn shifts_realize_minimum_image() {
        use crate::package::{PackageLayout, PackedSystem};
        let (sys, list, cpe) = setup();
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Interleaved);
        let mut entry = 0;
        let mut checked = 0u32;
        for ci in 0..list.n_clusters() {
            for &cj in list.neighbors_of(ci) {
                let cj = cj as usize;
                let s = cpe.shifts[entry];
                let mask = cpe.masks[entry];
                for ai in 0..4 {
                    for bj in 0..4 {
                        if mask >> (ai * 4 + bj) & 1 == 0 {
                            continue;
                        }
                        let (xa, ya, za, ..) = psys.read_particle(psys.package(ci), ai);
                        let (xb, yb, zb, ..) = psys.read_particle(psys.package(cj), bj);
                        let d_kernel =
                            mdsim::vec3(xa - (xb + s[0]), ya - (yb + s[1]), za - (zb + s[2]))
                                .norm();
                        let a = list.clustering.members(ci)[ai] as usize;
                        let b = list.clustering.members(cj)[bj] as usize;
                        let d_ref = sys.pbc.min_image(sys.pos[a], sys.pos[b]).norm();
                        // Exact minimum image within the list radius.
                        if d_ref < 0.6 {
                            assert!(
                                (d_kernel - d_ref).abs() < 1e-4,
                                "entry {entry} ({ai},{bj}): {d_kernel} vs {d_ref}"
                            );
                            checked += 1;
                        }
                    }
                }
                entry += 1;
            }
        }
        assert!(checked > 1000, "only {checked} pairs checked");
    }

    /// The shift of inner center `cj` seen from outer center `ci`: the
    /// per-entry expression `update_shifts` evaluated one entry at a
    /// time before it moved onto lanes.
    fn shift_of(pbc: &PbcBox, ci: Vec3, cj: Vec3) -> [f32; 3] {
        let d = pbc.min_image(ci, cj);
        let imaged = ci - d; // cj center seen from ci
        let s = imaged - cj;
        [s.x, s.y, s.z]
    }

    /// Every entry's [`shift_of`], from the cluster centers.
    fn scalar_shifts(sys: &System, clustering: &Clustering, cpe: &CpePairList) -> Vec<[u32; 3]> {
        let centers: Vec<Vec3> = (0..cpe.n_clusters())
            .map(|c| clustering.center(&sys.pbc, &sys.pos, c))
            .collect();
        let mut shifts = Vec::with_capacity(cpe.n_entries());
        for ci in 0..cpe.n_clusters() {
            for e in cpe.entries_of(ci) {
                let cj = cpe.neighbors[e] as usize;
                let s = shift_of(&sys.pbc, centers[ci], centers[cj]);
                shifts.push(s.map(f32::to_bits));
            }
        }
        shifts
    }

    fn shift_bits(cpe: &CpePairList) -> Vec<[u32; 3]> {
        cpe.shifts.iter().map(|s| s.map(f32::to_bits)).collect()
    }

    /// `cpe.shifts` recomputed on lanes `L` from the centers it holds.
    fn lanes_reproduce<L: Lanes8>(isa: L::Isa, cpe: &mut CpePairList, pbc: &PbcBox) {
        let want = shift_bits(cpe);
        cpe.shifts.fill([f32::NAN; 3]);
        let mut every_row = RowBlock {
            rows: 0..cpe.offsets.len() - 1,
            shifts: &mut cpe.shifts,
            offsets: &cpe.offsets,
            neighbors: &cpe.neighbors,
            centers: &cpe.centers,
            pbc,
        };
        shift_rows::<L>(isa, &mut every_row);
        assert_eq!(shift_bits(cpe), want, "{} lanes", L::NAME);
    }

    #[test]
    fn shifts_equal_the_scalar_expression_through_ten_steps_of_drift() {
        use crate::kernels::native_simd::for_each_lanes8;
        // A box three list radii wide, where most cluster pairs sit
        // across a face from each other, left to drift unwrapped.
        let mut sys = water_box(200, 300.0, 52);
        let list = PairList::build(&sys, 0.5, ListKind::Full);
        let mut cpe = CpePairList::build(&sys, &list);
        let pools = [1, 2, 4].map(LanePool::with_threads);
        let edge = sys.pbc.lengths().x;
        for step in 0..10 {
            for (p, v) in sys.pos.iter_mut().zip(&sys.vel) {
                *p += *v * 0.05;
            }
            // Whole molecules carried boxes away: centers the lane form
            // of the minimum image hands back to the scalar one.
            for atom in 3 * step..3 * step + 3 {
                sys.pos[atom].x += 2.0 * edge;
                sys.pos[atom + 30].z -= 3.0 * edge;
            }
            let want = scalar_shifts(&sys, &list.clustering, &cpe);
            for pool in &pools {
                for n_blocks in [1, 2, 64] {
                    cpe.shifts.fill([f32::NAN; 3]);
                    cpe.update_shifts(&sys, &list.clustering, pool, n_blocks);
                    assert_eq!(
                        shift_bits(&cpe),
                        want,
                        "step {step}, {n_blocks} on {pool:?}"
                    );
                }
            }
            assert_eq!(
                shift_bits(&CpePairList::build(&sys, &list)),
                want,
                "step {step}, one block"
            );
            for_each_lanes8!(lanes_reproduce, &mut cpe, &sys.pbc);
        }
        let outside = sys.pos.iter().filter(|p| p.x < 0.0 || p.x >= edge).count();
        assert!(outside > 20, "only {outside} particles left the box");
    }

    #[test]
    fn a_shift_at_half_the_box_keeps_the_sign_of_the_scalar_rounding() {
        // Two clusters of coincident members exactly half an edge apart:
        // `d / L` is ±0.5, which `round` takes away from zero.
        let mut sys = water_box(3, 300.0, 53);
        sys.pbc = PbcBox::cubic(2.0);
        sys.pos.truncate(8);
        for (i, p) in sys.pos.iter_mut().enumerate() {
            *p = mdsim::vec3(if i < 4 { 0.25 } else { 1.25 }, 0.5, 0.5);
        }
        let list = PairList {
            clustering: Clustering::identity(8),
            offsets: vec![0, 2, 4],
            neighbors: vec![0, 1, 0, 1],
            rlist: 0.9,
            kind: ListKind::Full,
        };
        let mut cpe = CpePairList {
            offsets: list.offsets.clone(),
            neighbors: list.neighbors.clone(),
            masks: vec![0; 4],
            shifts: vec![[0.0; 3]; 4],
            kind: list.kind,
            rlist: list.rlist,
            centers: [const { Vec::new() }; 3],
        };
        cpe.update_shifts(&sys, &list.clustering, &LanePool::with_threads(1), 1);
        assert_eq!(
            shift_bits(&cpe),
            scalar_shifts(&sys, &list.clustering, &cpe)
        );
        assert_eq!(cpe.shifts[1], [-2.0, 0.0, 0.0]);
        assert_eq!(cpe.shifts[2], [2.0, 0.0, 0.0]);
    }

    #[test]
    fn stream_bytes_counts_entries() {
        let (_, _, cpe) = setup();
        let total: usize = (0..cpe.n_clusters()).map(|c| cpe.stream_bytes(c)).sum();
        assert_eq!(total, cpe.n_entries() * LIST_ENTRY_BYTES);
    }
}
