//! Particle packages (paper §3.1 Fig. 2 and §3.4 Fig. 6).
//!
//! GROMACS stores position, type, and charge in separate arrays; a CPE
//! fetching one particle therefore issues several tiny (4-8 B) accesses
//! at < 1 GB/s (Table 2). The particle package aggregates all data of the
//! four particles of one cluster into a single contiguous structure of
//! 20 f32 words (80 B), fetched by one DMA at ~16 GB/s, and a cache line
//! of eight packages (640 B) runs near peak bandwidth.
//!
//! Two in-package layouts:
//! - [`PackageLayout::Interleaved`] (Fig. 2): per particle
//!   `x y z t c | x y z t c | ...` — natural for scalar kernels;
//! - [`PackageLayout::Transposed`] (Fig. 6): per component
//!   `x1 x2 x3 x4 | y1.. | z1.. | t1.. | c1..` — the same 4 floats load
//!   directly into one `floatv4` register, which is what makes the
//!   vectorized kernel's pre-treatment free.

use mdsim::cluster::{Clustering, CLUSTER_SIZE, FILLER};
use mdsim::system::System;

/// f32 words per particle in a package (x, y, z, type, charge).
pub const WORDS_PER_PARTICLE: usize = 5;

/// f32 words per package (4 particles).
pub const PKG_WORDS: usize = CLUSTER_SIZE * WORDS_PER_PARTICLE;

/// Bytes per package.
pub const PKG_BYTES: usize = PKG_WORDS * 4;

/// f32 words per *force* package (x, y, z per particle, interleaved).
pub const FORCE_WORDS: usize = CLUSTER_SIZE * 3;

/// Bytes per force package.
pub const FORCE_BYTES: usize = FORCE_WORDS * 4;

/// In-package data layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackageLayout {
    /// Fig. 2: particle-major (`x y z t c` per particle).
    Interleaved,
    /// Fig. 6: component-major (`x1 x2 x3 x4 y1 ...`).
    Transposed,
}

/// A system repacked into particle packages, plus the kernel tables.
///
/// `pos` is the flat "main memory" array the simulated CPEs DMA from;
/// slot order follows the clustering (slot = cluster * 4 + lane).
#[derive(Debug, Clone)]
pub struct PackedSystem {
    /// Number of real particles.
    pub n_particles: usize,
    /// The clustering defining slot order.
    pub clustering: Clustering,
    /// Package layout in `pos`.
    pub layout: PackageLayout,
    /// Packaged particle data, `n_packages * PKG_WORDS` f32 words.
    pub pos: Vec<f32>,
    /// Number of atom types.
    pub n_types: usize,
    /// Flat `n_types^2` C6 table.
    pub c6: Vec<f32>,
    /// Flat `n_types^2` C12 table.
    pub c12: Vec<f32>,
}

/// `(x, y, z, type, charge)` of `lane` in a transposed package.
#[inline(always)]
pub fn read_transposed(pkg: &[f32], lane: usize) -> (f32, f32, f32, usize, f32) {
    (
        pkg[lane],
        pkg[CLUSTER_SIZE + lane],
        pkg[2 * CLUSTER_SIZE + lane],
        pkg[3 * CLUSTER_SIZE + lane] as usize,
        pkg[4 * CLUSTER_SIZE + lane],
    )
}

impl PackedSystem {
    /// Package `sys` according to `clustering`. Positions are stored
    /// *unwrapped to the cluster center's periodic image*: every member
    /// sits within the cluster radius of the center, so one shift vector
    /// per cluster pair realizes the minimum-image convention even for
    /// clusters straddling the box boundary. Filler slots get the cluster
    /// center (finite distances) with type 0 and charge 0; their mask
    /// bits are off in the pair list, so they never contribute.
    pub fn build(sys: &System, clustering: Clustering, layout: PackageLayout) -> Self {
        let mut packed = Self {
            n_particles: sys.n(),
            pos: vec![0.0f32; clustering.n_clusters * PKG_WORDS],
            clustering,
            layout,
            n_types: sys.topology.n_types(),
            c6: sys.topology.c6_table().to_vec(),
            c12: sys.topology.c12_table().to_vec(),
        };
        packed.repack(sys);
        packed
    }

    /// Rewrite `pos` in place from `sys`'s current positions, as
    /// [`PackedSystem::build`] fills it. The clustering, the layout and
    /// the LJ tables live as long as the pair list; only the positions
    /// go stale between rebuilds.
    pub fn repack(&mut self, sys: &System) {
        for c in 0..self.clustering.n_clusters {
            let members = self.clustering.members(c);
            let center = self.clustering.center(&sys.pbc, &sys.pos, c);
            for (lane, &m) in members.iter().enumerate() {
                let (p, t, q) = if m == FILLER {
                    (center, 0usize, 0.0f32)
                } else {
                    let i = m as usize;
                    // Member at its image nearest the center.
                    let unwrapped = center + sys.pbc.min_image(sys.pos[i], center);
                    (unwrapped, sys.type_id[i], sys.charge[i])
                };
                let vals = [p.x, p.y, p.z, t as f32, q];
                for (comp, &v) in vals.iter().enumerate() {
                    let idx = match self.layout {
                        PackageLayout::Interleaved => {
                            c * PKG_WORDS + lane * WORDS_PER_PARTICLE + comp
                        }
                        PackageLayout::Transposed => c * PKG_WORDS + comp * CLUSTER_SIZE + lane,
                    };
                    self.pos[idx] = v;
                }
            }
        }
    }

    /// Number of packages.
    pub fn n_packages(&self) -> usize {
        self.clustering.n_clusters
    }

    /// The 20 words of package `c`.
    #[inline]
    pub fn package(&self, c: usize) -> &[f32] {
        &self.pos[c * PKG_WORDS..(c + 1) * PKG_WORDS]
    }

    /// Read `(x, y, z, type, charge)` of `lane` from a package slice in
    /// this system's layout.
    #[inline]
    pub fn read_particle(&self, pkg: &[f32], lane: usize) -> (f32, f32, f32, usize, f32) {
        match self.layout {
            PackageLayout::Interleaved => {
                let b = lane * WORDS_PER_PARTICLE;
                (
                    pkg[b],
                    pkg[b + 1],
                    pkg[b + 2],
                    pkg[b + 3] as usize,
                    pkg[b + 4],
                )
            }
            PackageLayout::Transposed => read_transposed(pkg, lane),
        }
    }

    /// LJ `(C6, C12)` for a type pair.
    #[inline]
    pub fn lj(&self, ta: usize, tb: usize) -> (f32, f32) {
        (
            self.c6[ta * self.n_types + tb],
            self.c12[ta * self.n_types + tb],
        )
    }

    /// Map forces stored in slot order (interleaved xyz per slot) back to
    /// original particle order.
    pub fn forces_to_particle_order(&self, slot_forces: &[f32]) -> Vec<mdsim::Vec3> {
        let mut out = vec![mdsim::Vec3::ZERO; self.n_particles];
        for (slot, &m) in self.clustering.slots.iter().enumerate() {
            if m == FILLER {
                continue;
            }
            out[m as usize] = mdsim::vec3(
                slot_forces[3 * slot],
                slot_forces[3 * slot + 1],
                slot_forces[3 * slot + 2],
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::water::water_box;

    fn packed(layout: PackageLayout) -> (mdsim::System, PackedSystem) {
        let sys = water_box(30, 300.0, 41);
        let clustering = Clustering::build(&sys.pbc, &sys.pos, 1.0);
        let p = PackedSystem::build(&sys, clustering, layout);
        (sys, p)
    }

    #[test]
    fn package_size_matches_paper_scale() {
        // Paper: "the data block size for one access increases from 4 B
        // to 108 B"; our 5-word particles give 80 B packages — same
        // order, one DMA per cluster.
        assert_eq!(PKG_BYTES, 80);
        assert_eq!(FORCE_BYTES, 48);
    }

    fn assert_roundtrip(layout: PackageLayout) {
        let (sys, p) = packed(layout);
        for c in 0..p.n_packages() {
            for (lane, &m) in p.clustering.members(c).iter().enumerate() {
                if m == FILLER {
                    continue;
                }
                let i = m as usize;
                let (x, y, z, t, q) = p.read_particle(p.package(c), lane);
                // Positions are stored unwrapped to the cluster center:
                // equal to the original modulo box periods.
                let stored = mdsim::vec3(x, y, z);
                let d = sys.pbc.min_image(stored, sys.pos[i]).norm();
                assert!(d < 1e-5, "cluster {c} lane {lane}: image error {d}");
                assert_eq!(t, sys.type_id[i]);
                assert_eq!(q, sys.charge[i]);
            }
        }
    }

    #[test]
    fn roundtrip_interleaved() {
        assert_roundtrip(PackageLayout::Interleaved);
    }

    #[test]
    fn roundtrip_transposed() {
        assert_roundtrip(PackageLayout::Transposed);
    }

    #[test]
    fn members_are_compact_around_center() {
        let (sys, p) = packed(PackageLayout::Interleaved);
        for c in 0..p.n_packages() {
            let ctr = p.clustering.center(&sys.pbc, &sys.pos, c);
            for lane in 0..4 {
                let (x, y, z, ..) = p.read_particle(p.package(c), lane);
                let d = (mdsim::vec3(x, y, z) - ctr).norm();
                // Stored positions are *plain* (non-periodic) offsets
                // from the center, bounded by the cluster radius.
                assert!(d < 1.0, "cluster {c}: member {d} nm from center");
            }
        }
    }

    #[test]
    fn transposed_components_are_contiguous() {
        let (_, p) = packed(PackageLayout::Transposed);
        let pkg = p.package(0);
        // First four words are the four x coordinates.
        let xs: Vec<f32> = (0..4).map(|lane| p.read_particle(pkg, lane).0).collect();
        assert_eq!(&pkg[0..4], xs.as_slice());
    }

    #[test]
    fn filler_slots_have_zero_charge() {
        let sys = water_box(3, 300.0, 1); // 9 particles -> 3 pkg, 3 fillers
        let clustering = Clustering::identity(sys.n());
        let p = PackedSystem::build(&sys, clustering, PackageLayout::Interleaved);
        let last = p.package(p.n_packages() - 1);
        for lane in 0..4 {
            let m = p.clustering.members(p.n_packages() - 1)[lane];
            if m == FILLER {
                let (.., q) = p.read_particle(last, lane);
                assert_eq!(q, 0.0);
            }
        }
    }

    #[test]
    fn force_order_roundtrip() {
        let (_, p) = packed(PackageLayout::Interleaved);
        let n_slots = p.n_packages() * CLUSTER_SIZE;
        let mut slot_forces = vec![0.0f32; 3 * n_slots];
        for (slot, &m) in p.clustering.slots.iter().enumerate() {
            if m != FILLER {
                slot_forces[3 * slot] = m as f32;
            }
        }
        let out = p.forces_to_particle_order(&slot_forces);
        for (i, f) in out.iter().enumerate() {
            assert_eq!(f.x, i as f32);
        }
    }
}
