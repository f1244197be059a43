//! Cell lists: spatial binning over the periodic box.
//!
//! Used by the pair-list builder (bin cluster centers), the water-box
//! sorter (spatial reordering into clusters), and domain decomposition.

use crate::pbc::PbcBox;
use crate::vec3::Vec3;

/// A uniform grid of cells spanning a periodic box.
#[derive(Debug, Clone)]
pub struct CellGrid {
    dims: [usize; 3],
    cell_len: Vec3,
    /// CSR: `heads[c]..heads[c+1]` indexes `items` for cell `c`.
    heads: Vec<u32>,
    items: Vec<u32>,
}

impl CellGrid {
    /// Bin `points` into cells of edge at least `min_cell` (nm). The grid
    /// always has at least one cell per axis.
    pub fn build(pbc: &PbcBox, points: &[Vec3], min_cell: f32) -> Self {
        assert!(min_cell > 0.0);
        let l = pbc.lengths();
        let dims = [
            ((l.x / min_cell).floor() as usize).max(1),
            ((l.y / min_cell).floor() as usize).max(1),
            ((l.z / min_cell).floor() as usize).max(1),
        ];
        let cell_len = Vec3 {
            x: l.x / dims[0] as f32,
            y: l.y / dims[1] as f32,
            z: l.z / dims[2] as f32,
        };
        let n_cells = dims[0] * dims[1] * dims[2];
        let mut counts = vec![0u32; n_cells + 1];
        let cell_of = |p: &Vec3| -> usize {
            let w = pbc.wrap(*p);
            let cx = ((w.x / cell_len.x) as usize).min(dims[0] - 1);
            let cy = ((w.y / cell_len.y) as usize).min(dims[1] - 1);
            let cz = ((w.z / cell_len.z) as usize).min(dims[2] - 1);
            (cx * dims[1] + cy) * dims[2] + cz
        };
        let cells: Vec<usize> = points.iter().map(cell_of).collect();
        for &c in &cells {
            counts[c + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let heads = counts.clone();
        let mut cursor = heads.clone();
        let mut items = vec![0u32; points.len()];
        for (i, &c) in cells.iter().enumerate() {
            items[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        Self {
            dims,
            cell_len,
            heads,
            items,
        }
    }

    /// Grid dimensions per axis.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total cell count.
    pub fn n_cells(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Point indices stored in cell `c`.
    pub fn cell_items(&self, c: usize) -> &[u32] {
        &self.items[self.cell_range(c)]
    }

    /// 3-D cell coordinates containing point `p`.
    fn cell_coords(&self, pbc: &PbcBox, p: Vec3) -> [usize; 3] {
        let w = pbc.wrap(p);
        [
            ((w.x / self.cell_len.x) as usize).min(self.dims[0] - 1),
            ((w.y / self.cell_len.y) as usize).min(self.dims[1] - 1),
            ((w.z / self.cell_len.z) as usize).min(self.dims[2] - 1),
        ]
    }

    /// A spatial sort permutation: point indices ordered by cell, then by
    /// original index within the cell.
    pub fn spatial_order(&self) -> &[u32] {
        &self.items
    }

    /// Index range of cell `c` in [`CellGrid::spatial_order`]; ascending
    /// point indices within a cell.
    pub fn cell_range(&self, c: usize) -> std::ops::Range<usize> {
        self.heads[c] as usize..self.heads[c + 1] as usize
    }

    /// Visit every point in cells whose minimum distance to `p` is at
    /// most `range` (periodic): as many cell rings as `range` requires,
    /// minus the cells whose nearest face is beyond `range`, so the
    /// candidate volume tracks the search sphere instead of 27 oversized
    /// cells.
    pub fn for_range(&self, pbc: &PbcBox, p: Vec3, range: f32, mut f: impl FnMut(u32)) {
        for c in self.cells_in_range(pbc, p, range) {
            for &it in self.cell_items(c) {
                f(it);
            }
        }
    }

    /// The cell walk of [`CellGrid::for_range`]: each visited cell's
    /// linear index, once, in visit order.
    pub fn cells_in_range(&self, pbc: &PbcBox, p: Vec3, range: f32) -> Vec<usize> {
        let c = self.cell_coords(pbc, p);
        let w = pbc.wrap(p);
        let l = pbc.lengths();
        let rings = |axis_len: f32, d: usize| -> isize {
            let cell = axis_len / d as f32;
            ((range / cell).ceil() as isize).min(d as isize / 2)
        };
        let rx = rings(l.x, self.dims[0]);
        let ry = rings(l.y, self.dims[1]);
        let rz = rings(l.z, self.dims[2]);
        // Periodic distance from w to the nearest face of cell index `ci`
        // along one axis.
        let axis_gap = |x: f32, ci: isize, d: usize, lx: f32| -> f32 {
            let cell = lx / d as f32;
            let lo = ci as f32 * cell;
            let hi = lo + cell;
            if x >= lo && x < hi {
                return 0.0;
            }
            let d1 = (x - hi).rem_euclid(lx);
            let d2 = (lo - x).rem_euclid(lx);
            d1.min(d2)
        };
        // A gap and a wrapped cell coordinate depend on their own axis
        // only: one of each per ring offset.
        let ring = |x: f32, c: usize, d: usize, lx: f32, r: isize| -> Vec<(f32, usize)> {
            (-r..=r)
                .map(|o| {
                    let ci = c as isize + o;
                    (axis_gap(x, ci, d, lx), ci.rem_euclid(d as isize) as usize)
                })
                .collect()
        };
        let ring_x = ring(w.x, c[0], self.dims[0], l.x, rx);
        let ring_y = ring(w.y, c[1], self.dims[1], l.y, ry);
        let ring_z = ring(w.z, c[2], self.dims[2], l.z, rz);
        let mut cells = Vec::with_capacity(ring_x.len() * ring_y.len() * ring_z.len());
        // Wrapped rings can name a cell twice: keep its first visit.
        let mut seen = vec![0u64; self.n_cells().div_ceil(64)];
        for &(gx, cx) in &ring_x {
            if gx > range {
                continue;
            }
            for &(gy, cy) in &ring_y {
                if gx * gx + gy * gy > range * range {
                    continue;
                }
                for &(gz, cz) in &ring_z {
                    if gx * gx + gy * gy + gz * gz > range * range {
                        continue;
                    }
                    let idx = (cx * self.dims[1] + cy) * self.dims[2] + cz;
                    let (word, bit) = (idx / 64, 1u64 << (idx % 64));
                    if seen[word] & bit == 0 {
                        seen[word] |= bit;
                        cells.push(idx);
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::vec3;

    #[test]
    fn every_point_lands_in_exactly_one_cell() {
        let pbc = PbcBox::cubic(4.0);
        let pts: Vec<Vec3> = (0..100)
            .map(|i| {
                vec3(
                    (i as f32 * 0.37) % 4.0,
                    (i as f32 * 0.61) % 4.0,
                    (i as f32 * 0.83) % 4.0,
                )
            })
            .collect();
        let g = CellGrid::build(&pbc, &pts, 1.0);
        let mut seen = vec![false; pts.len()];
        for c in 0..g.n_cells() {
            for &i in g.cell_items(c) {
                assert!(!seen[i as usize], "duplicate {i}");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn small_box_degenerates_to_single_cell() {
        let pbc = PbcBox::cubic(0.8);
        let pts = vec![vec3(0.1, 0.1, 0.1), vec3(0.7, 0.7, 0.7)];
        let g = CellGrid::build(&pbc, &pts, 1.0);
        assert_eq!(g.n_cells(), 1);
        let mut count = 0;
        g.for_range(&pbc, pts[0], 1.0, |_| count += 1);
        assert_eq!(count, 2);
    }

    #[test]
    fn for_range_finds_all_points_within_range() {
        let pbc = PbcBox::new(5.0, 4.0, 6.0);
        let pts: Vec<Vec3> = (0..300)
            .map(|i| {
                vec3(
                    (i as f32 * 1.37) % 5.0,
                    (i as f32 * 2.61) % 4.0,
                    (i as f32 * 0.53) % 6.0,
                )
            })
            .collect();
        for cell in [0.5f32, 0.9, 2.0] {
            let g = CellGrid::build(&pbc, &pts, cell);
            for range in [0.6f32, 1.3, 2.4] {
                for qi in (0..pts.len()).step_by(17) {
                    let q = pts[qi];
                    let mut found: Vec<usize> = Vec::new();
                    g.for_range(&pbc, q, range, |i| {
                        if pbc.dist2(pts[i as usize], q) <= range * range {
                            found.push(i as usize);
                        }
                    });
                    found.sort_unstable();
                    found.dedup();
                    let brute: Vec<usize> = (0..pts.len())
                        .filter(|&i| pbc.dist2(pts[i], q) <= range * range)
                        .collect();
                    assert_eq!(found, brute, "cell {cell} range {range} q {qi}");
                }
            }
        }
    }

    #[test]
    fn for_range_visits_fewer_points_than_full_neighborhood() {
        // The point of the ranged search: with cells much smaller than
        // the range it visits ~sphere volume, not the 27 range-sized
        // cells a one-ring walk of a coarse grid does.
        let pbc = PbcBox::cubic(8.0);
        let pts: Vec<Vec3> = (0..4000)
            .map(|i| {
                vec3(
                    (i as f32 * 0.137) % 8.0,
                    (i as f32 * 0.261) % 8.0,
                    (i as f32 * 0.053) % 8.0,
                )
            })
            .collect();
        let range = 1.6f32;
        let fine = CellGrid::build(&pbc, &pts, 0.8);
        let coarse = CellGrid::build(&pbc, &pts, range);
        let mut fine_count = 0usize;
        let mut coarse_count = 0usize;
        fine.for_range(&pbc, pts[0], range, |_| fine_count += 1);
        coarse.for_range(&pbc, pts[0], range, |_| coarse_count += 1);
        assert!(
            fine_count * 2 < coarse_count,
            "ranged {fine_count} vs 27-cell {coarse_count}"
        );
    }

    #[test]
    fn spatial_order_is_a_permutation() {
        let pbc = PbcBox::cubic(3.0);
        let pts: Vec<Vec3> = (0..50)
            .map(|i| vec3((i as f32 * 0.7) % 3.0, (i as f32 * 0.9) % 3.0, 0.5))
            .collect();
        let g = CellGrid::build(&pbc, &pts, 1.0);
        let mut order = g.spatial_order().to_vec();
        order.sort_unstable();
        let expect: Vec<u32> = (0..50).collect();
        assert_eq!(order, expect);
    }
}
