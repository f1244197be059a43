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

use std::collections::BTreeMap;

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
    /// LJ rows, `n_types` per distinct package type signature (the
    /// four type words); see [`PackedSystem::lj_rows`].
    pub lj_rows: Vec<LjRow>,
    /// Type signature index of each package.
    pub pkg_sig: Vec<u32>,
}

/// One outer type against the four slots of a package: the `(c6, c12)`
/// lanes the native inner loop loads as half of its j-vector, and
/// whether any lane is nonzero (a NaN parameter counts as nonzero).
#[derive(Debug, Clone, Copy)]
pub struct LjRow {
    pub c6: [f32; CLUSTER_SIZE],
    pub c12: [f32; CLUSTER_SIZE],
    pub on: bool,
}

impl LjRow {
    /// Outer type `t` against slot types `tj`, each pair through `lj`.
    pub fn new(
        t: usize,
        tj: [usize; CLUSTER_SIZE],
        lj: impl Fn(usize, usize) -> (f32, f32),
    ) -> Self {
        let p = tj.map(|tb| lj(t, tb));
        let on = p.iter().any(|&(c6, c12)| !(c6 == 0.0 && c12 == 0.0));
        let (c6, c12) = (p.map(|p| p.0), p.map(|p| p.1));
        Self { c6, c12, on }
    }
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
    /// bits are off in the pair list, so they never contribute. The LJ
    /// rows of every package type signature are built here.
    pub fn build(sys: &System, clustering: Clustering, layout: PackageLayout) -> Self {
        let mut packed = Self {
            n_particles: sys.n(),
            pos: vec![0.0f32; clustering.n_clusters * PKG_WORDS],
            clustering,
            layout,
            n_types: sys.topology.n_types(),
            c6: sys.topology.c6_table().to_vec(),
            c12: sys.topology.c12_table().to_vec(),
            lj_rows: Vec::new(),
            pkg_sig: Vec::new(),
        };
        packed.repack(sys);
        // A slot's type never changes, so the rows are built once, from
        // the packages' own type words (fillers read as type 0).
        let (mut sigs, mut rows) = (BTreeMap::new(), Vec::new());
        for c in 0..packed.n_packages() {
            let tj = std::array::from_fn(|lane| packed.read_particle(packed.package(c), lane).3);
            let next = sigs.len() as u32;
            let sig = *sigs.entry(tj).or_insert_with(|| {
                let lj = |a, b| packed.lj(a, b);
                rows.extend((0..packed.n_types).map(|t| LjRow::new(t, tj, lj)));
                next
            });
            packed.pkg_sig.push(sig);
        }
        packed.lj_rows = rows;
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

    /// The LJ rows of package `c`'s type signature, by outer type.
    #[inline]
    pub fn lj_rows(&self, c: usize) -> &[LjRow] {
        let base = self.pkg_sig[c] as usize * self.n_types;
        &self.lj_rows[base..base + self.n_types]
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

    /// "Some lane nonzero" as the native kernel decided it while it
    /// gathered its parameters per call: lane compares over all eight.
    fn gathered_lj_on(c6: [f32; 8], c12: [f32; 8]) -> bool {
        use crate::kernels::native_simd::{f32x8, Lanes8};
        let lanes = |v| <f32x8 as Lanes8>::from_array((), v);
        let zero = lanes([0.0; 8]);
        (lanes(c6).cmp_eq(zero) & lanes(c12).cmp_eq(zero)).movemask() != 0xFF
    }

    #[test]
    fn every_row_holds_the_lookups_of_its_package_lanes() {
        let saline = mdsim::water::saline_box(300, 12, 300.0, 6);
        for sys in [water_box(30, 300.0, 41), saline] {
            let clustering = Clustering::build(&sys.pbc, &sys.pos, 1.0);
            let p = PackedSystem::build(&sys, clustering, PackageLayout::Transposed);
            assert_eq!(p.lj_rows.len() % p.n_types, 0);
            let mut fillers = 0;
            for c in 0..p.n_packages() {
                let rows = p.lj_rows(c);
                assert_eq!(rows.len(), p.n_types);
                for (lane, &m) in p.clustering.members(c).iter().enumerate() {
                    let tj = p.read_particle(p.package(c), lane).3;
                    if m == FILLER {
                        assert_eq!(tj, 0, "a filler reads as type 0");
                        fillers += 1;
                    }
                    for (t, row) in rows.iter().enumerate() {
                        let (c6, c12) = p.lj(t, tj);
                        assert_eq!(
                            row.c6[lane].to_bits(),
                            c6.to_bits(),
                            "c6 ({c}, {t}, {lane})"
                        );
                        assert_eq!(
                            row.c12[lane].to_bits(),
                            c12.to_bits(),
                            "c12 ({c}, {t}, {lane})"
                        );
                    }
                }
            }
            assert!(fillers > 0, "the boxes pad some clusters");
            assert!(p.lj_rows.iter().any(|r| !r.on), "hydrogen rows skip LJ");
        }
    }

    #[test]
    fn lj_on_matches_the_gathered_predicate() {
        // Type 1 has no LJ at all, type 2's C6 against type 0 is NaN and
        // type 3 carries -0.0, which compares equal to zero.
        let lj = |a: usize, b: usize| match (a.min(b), a.max(b)) {
            (1, _) | (_, 1) => (0.0, 0.0),
            (0, 2) => (f32::NAN, 0.0),
            (_, 3) => (-0.0, -0.0),
            _ => (2.6e-3, 2.6e-6),
        };
        let sigs: Vec<[usize; 4]> = (0..256)
            .map(|s| std::array::from_fn(|k| (s >> (2 * k)) & 3))
            .collect();
        for t in 0..4 {
            let rows: Vec<LjRow> = sigs.iter().map(|&tj| LjRow::new(t, tj, lj)).collect();
            for (a, ra) in sigs.iter().zip(&rows) {
                for (b, rb) in sigs.iter().zip(&rows) {
                    let (c6, c12): (Vec<f32>, Vec<f32>) =
                        a.iter().chain(b).map(|&tj| lj(t, tj)).unzip();
                    let want = gathered_lj_on(c6.try_into().unwrap(), c12.try_into().unwrap());
                    assert_eq!(ra.on | rb.on, want, "t {t}: {a:?} {b:?}");
                }
            }
        }
        assert!(LjRow::new(0, [2, 1, 1, 1], lj).on, "a NaN lane counts");
        assert!(!LjRow::new(1, [0, 1, 2, 3], lj).on, "an all-zero type");
        assert!(!LjRow::new(3, [3, 3, 1, 3], lj).on, "-0.0 is zero");
    }

    #[test]
    fn the_row_table_does_not_grow_with_the_particle_count() {
        let count = |n_mol| {
            let sys = water_box(n_mol, 300.0, 7);
            let clustering = Clustering::build(&sys.pbc, &sys.pos, 1.0);
            let p = PackedSystem::build(&sys, clustering, PackageLayout::Transposed);
            assert_eq!(p.pkg_sig.len(), p.n_packages());
            p.lj_rows.len() / p.n_types
        };
        let (small, large) = (count(1334), count(16_000));
        assert_eq!(small, large, "4 002 vs 48 000 particles");
        assert!(small <= 16, "two types fill at most 2^4 signatures");
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
