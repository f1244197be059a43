//! Spatial domain decomposition across MPI ranks (one rank per CG).
//!
//! GROMACS decomposes the box into a 3-D grid of domains; each rank owns
//! the particles inside its domain and imports a halo shell of width
//! `r_cut` from its neighbors every step ("Wait + comm. F" and
//! "Comm. energies" rows of Table 1). This module provides the geometric
//! decomposition, the owner assignment, and halo membership — the inputs
//! the `swnet` communication model and the Fig. 12 scaling study need.

use crate::pbc::PbcBox;
use crate::vec3::Vec3;

/// A 3-D grid decomposition of a periodic box into `nx*ny*nz` domains.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Domains per axis.
    pub dims: [usize; 3],
    /// Box being decomposed.
    pub pbc: PbcBox,
}

impl Decomposition {
    /// Decompose for `n_ranks` ranks, choosing per-axis factors as close
    /// to the cube root as possible (largest factors on largest edges).
    pub fn new(pbc: PbcBox, n_ranks: usize) -> Self {
        assert!(n_ranks >= 1);
        let dims = factor3(n_ranks);
        // Map the largest factor to the longest box edge.
        let l = pbc.lengths();
        let mut axes = [(l.x, 0usize), (l.y, 1), (l.z, 2)];
        axes.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let mut sorted_dims = dims;
        sorted_dims.sort_unstable();
        sorted_dims.reverse(); // largest first
        let mut out = [1usize; 3];
        for (k, &(_, axis)) in axes.iter().enumerate() {
            out[axis] = sorted_dims[k];
        }
        Self { dims: out, pbc }
    }

    /// Total rank count.
    pub fn n_ranks(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Rank owning position `p`.
    pub fn owner(&self, p: Vec3) -> usize {
        let w = self.pbc.wrap(p);
        let l = self.pbc.lengths();
        let c = |x: f32, lx: f32, d: usize| ((x / lx * d as f32) as usize).min(d - 1);
        let ix = c(w.x, l.x, self.dims[0]);
        let iy = c(w.y, l.y, self.dims[1]);
        let iz = c(w.z, l.z, self.dims[2]);
        (ix * self.dims[1] + iy) * self.dims[2] + iz
    }

    /// 3-D coordinates of a rank.
    fn coords(&self, rank: usize) -> [usize; 3] {
        let iz = rank % self.dims[2];
        let iy = (rank / self.dims[2]) % self.dims[1];
        let ix = rank / (self.dims[1] * self.dims[2]);
        [ix, iy, iz]
    }

    /// Lower/upper corner of a rank's domain.
    pub fn bounds(&self, rank: usize) -> (Vec3, Vec3) {
        let c = self.coords(rank);
        let l = self.pbc.lengths();
        let lo = Vec3 {
            x: l.x * c[0] as f32 / self.dims[0] as f32,
            y: l.y * c[1] as f32 / self.dims[1] as f32,
            z: l.z * c[2] as f32 / self.dims[2] as f32,
        };
        let hi = Vec3 {
            x: l.x * (c[0] + 1) as f32 / self.dims[0] as f32,
            y: l.y * (c[1] + 1) as f32 / self.dims[1] as f32,
            z: l.z * (c[2] + 1) as f32 / self.dims[2] as f32,
        };
        (lo, hi)
    }

    /// Assign every position to its owner; returns per-rank index lists.
    pub fn partition(&self, pos: &[Vec3]) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.n_ranks()];
        for (i, p) in pos.iter().enumerate() {
            out[self.owner(*p)].push(i as u32);
        }
        out
    }

    /// Minimum-image distance from point `p` to the *boundary surface* of
    /// rank `r`'s domain (0 if inside).
    fn distance_to_domain(&self, rank: usize, p: Vec3) -> f32 {
        let (lo, hi) = self.bounds(rank);
        let l = self.pbc.lengths();
        let w = self.pbc.wrap(p);
        let axis_dist = |x: f32, lo: f32, hi: f32, lx: f32, d: usize| -> f32 {
            if x >= lo && x < hi {
                return 0.0;
            }
            if d == 1 {
                return 0.0; // single domain spans the axis
            }
            // Distance to the nearer face, periodic.

            (x - hi).rem_euclid(lx).min((lo - x).rem_euclid(lx))
        };
        let dx = axis_dist(w.x, lo.x, hi.x, l.x, self.dims[0]);
        let dy = axis_dist(w.y, lo.y, hi.y, l.y, self.dims[1]);
        let dz = axis_dist(w.z, lo.z, hi.z, l.z, self.dims[2]);
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Halo members of rank `r`: indices of positions owned by other
    /// ranks but within `r_cut` of `r`'s domain.
    pub fn halo_of(&self, rank: usize, pos: &[Vec3], r_cut: f32) -> Vec<u32> {
        pos.iter()
            .enumerate()
            .filter(|(_, p)| self.owner(**p) != rank && self.distance_to_domain(rank, **p) < r_cut)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Face-adjacent neighbor ranks (6-connectivity, periodic, deduped).
    pub fn neighbors(&self, rank: usize) -> Vec<usize> {
        let c = self.coords(rank);
        let mut out = Vec::new();
        for axis in 0..3 {
            for dir in [-1isize, 1] {
                if self.dims[axis] == 1 {
                    continue;
                }
                let mut n = c;
                n[axis] = ((c[axis] as isize + dir).rem_euclid(self.dims[axis] as isize)) as usize;
                let r = (n[0] * self.dims[1] + n[1]) * self.dims[2] + n[2];
                if r != rank && !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        out
    }
}

/// Factor `n` into three factors as close to `n^(1/3)` as possible.
fn factor3(n: usize) -> [usize; 3] {
    let mut best = [n, 1, 1];
    let mut best_score = usize::MAX;
    let mut a = 1;
    while a * a * a <= n {
        if n.is_multiple_of(a) {
            let m = n / a;
            let mut b = a;
            while b * b <= m {
                if m.is_multiple_of(b) {
                    let c = m / b;
                    // Score: surface area of the (a, b, c) box — smaller
                    // is more cubic.
                    let score = a * b + b * c + a * c;
                    if score < best_score {
                        best_score = score;
                        best = [c, b, a];
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::vec3;
    use crate::water::water_box;

    #[test]
    fn factor3_prefers_cubic() {
        assert_eq!(factor3(8), [2, 2, 2]);
        assert_eq!(factor3(64), [4, 4, 4]);
        assert_eq!(factor3(512), [8, 8, 8]);
        assert_eq!(factor3(12), [3, 2, 2]);
        let f = factor3(7);
        assert_eq!(f.iter().product::<usize>(), 7);
    }

    #[test]
    fn partition_covers_all_particles_once() {
        let sys = water_box(100, 300.0, 19);
        let d = Decomposition::new(sys.pbc, 8);
        let parts = d.partition(&sys.pos);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, sys.n());
        let mut seen = vec![false; sys.n()];
        for part in &parts {
            for &i in part {
                assert!(!seen[i as usize]);
                seen[i as usize] = true;
            }
        }
    }

    #[test]
    fn partition_is_roughly_balanced() {
        let sys = water_box(1000, 300.0, 4);
        let d = Decomposition::new(sys.pbc, 8);
        let parts = d.partition(&sys.pos);
        let expect = sys.n() / 8;
        for p in &parts {
            let rel = (p.len() as f64 - expect as f64).abs() / expect as f64;
            assert!(rel < 0.5, "rank has {} of expected {}", p.len(), expect);
        }
    }

    #[test]
    fn owner_respects_bounds() {
        let pbc = PbcBox::cubic(8.0);
        let d = Decomposition::new(pbc, 8);
        for rank in 0..8 {
            let (lo, hi) = d.bounds(rank);
            let mid = (lo + hi) * 0.5;
            assert_eq!(d.owner(mid), rank);
        }
    }

    #[test]
    fn halo_contains_exactly_near_boundary_foreigners() {
        let pbc = PbcBox::cubic(4.0);
        let d = Decomposition::new(pbc, 2); // split along one axis
                                            // A particle just across the boundary from rank 0.
        let (lo0, hi0) = d.bounds(0);
        let inside = vec3((lo0.x + hi0.x) * 0.5, 2.0, 2.0);
        let just_outside = vec3(hi0.x + 0.05, 2.0, 2.0);
        let far_outside = vec3(hi0.x + 1.5, 2.0, 2.0);
        let pos = vec![inside, just_outside, far_outside];
        let halo = d.halo_of(0, &pos, 0.5);
        assert_eq!(halo, vec![1]);
    }

    #[test]
    fn neighbors_periodic() {
        let pbc = PbcBox::cubic(8.0);
        let d = Decomposition::new(pbc, 8); // 2x2x2
        let n = d.neighbors(0);
        assert_eq!(n.len(), 3, "2x2x2: one neighbor per axis (wrap = same)");
        let d64 = Decomposition::new(pbc, 64); // 4x4x4
        assert_eq!(d64.neighbors(0).len(), 6);
    }

    #[test]
    fn halo_fraction_shrinks_with_domain_size() {
        // Weak-scaling intuition: bigger domains -> smaller halo fraction.
        let small = water_box(200, 300.0, 6);
        let large = water_box(1600, 300.0, 6);
        let ds = Decomposition::new(small.pbc, 8);
        let dl = Decomposition::new(large.pbc, 8);
        let hs = ds.halo_of(0, &small.pos, 1.0).len() as f64 / (small.n() as f64 / 8.0);
        let hl = dl.halo_of(0, &large.pos, 1.0).len() as f64 / (large.n() as f64 / 8.0);
        assert!(hl < hs, "halo fraction small={hs:.2} large={hl:.2}");
    }
}
