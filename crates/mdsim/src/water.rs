//! Deterministic water-box generator.
//!
//! Stands in for the `water_GMX50_bare` benchmark inputs (paper §4.1):
//! SPC-like 3-site rigid water at liquid density, produced from a seed so
//! every experiment is reproducible. Molecules sit on a cubic lattice with
//! random orientations and a small positional jitter; the lattice spacing
//! realizes water's ~33.3 molecules/nm^3 number density, so cutoffs and
//! pair-list sizes match the paper's workload characteristics.

use rand::{Rng, SeedableRng};

use crate::pbc::PbcBox;
use crate::system::System;
use crate::topology::Topology;
use crate::vec3::{vec3, Vec3};

/// Liquid-water number density, molecules per nm^3.
pub const WATER_DENSITY_PER_NM3: f64 = 33.3;

/// O-H bond length of SPC water, nm.
pub const D_OH: f32 = 0.1;

/// H-O-H angle of SPC water, radians.
pub fn theta_hoh() -> f32 {
    109.47f32.to_radians()
}

/// Build a water box of `n_mol` molecules (3 atoms each) at liquid
/// density, thermalized to `t_ref` kelvin, from `seed`.
pub fn water_box(n_mol: usize, t_ref: f64, seed: u64) -> System {
    assert!(n_mol > 0);
    let edge = (n_mol as f64 / WATER_DENSITY_PER_NM3).cbrt() as f32;
    let pbc = PbcBox::cubic(edge.max(0.6));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    // Lattice with enough sites for all molecules.
    let sites_per_edge = (n_mol as f64).cbrt().ceil() as usize;
    let spacing = pbc.lengths().x / sites_per_edge as f32;
    let jitter = spacing * 0.1;

    let mut pos = Vec::with_capacity(3 * n_mol);
    let mut placed = 0;
    'outer: for ix in 0..sites_per_edge {
        for iy in 0..sites_per_edge {
            for iz in 0..sites_per_edge {
                if placed == n_mol {
                    break 'outer;
                }
                let center = vec3(
                    (ix as f32 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
                    (iy as f32 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
                    (iz as f32 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
                );
                let (h1, h2) = random_water_orientation(&mut rng);
                pos.push(pbc.wrap(center));
                pos.push(pbc.wrap(center + h1));
                pos.push(pbc.wrap(center + h2));
                placed += 1;
            }
        }
    }
    assert_eq!(placed, n_mol, "lattice too small for requested molecules");

    let mut sys = System::from_topology(Topology::spc_water(n_mol), pbc, pos);
    sys.thermalize(t_ref, &mut rng);
    sys
}

/// A water box specified by *particle* count (must be divisible by 3),
/// matching the paper's "12K/24K/48K particles" phrasing.
pub fn water_box_particles(n_particles: usize, t_ref: f64, seed: u64) -> System {
    assert_eq!(n_particles % 3, 0, "water particle count must be 3 x mol");
    water_box(n_particles / 3, t_ref, seed)
}

/// A lattice water box relaxed by constrained steepest descent and
/// re-thermalized — the stand-in for the equilibrated benchmark inputs
/// the paper downloads. Use this for any run that integrates dynamics;
/// the raw lattice has close contacts that a 2 fs step cannot survive.
pub fn water_box_equilibrated(n_mol: usize, t_ref: f64, seed: u64) -> System {
    use crate::constraints::ConstraintSet;
    use crate::minimize::steepest_descent;
    use crate::nonbonded::{Coulomb, NbParams};
    let mut sys = water_box(n_mol, t_ref, seed);
    let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
    let r_cut = 0.9f32.min(0.3 * sys.pbc.lengths().x);
    let params = NbParams {
        r_cut,
        coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
    };
    steepest_descent(&mut sys, &params, Some(&cs), 150, 1_000.0, 0.01);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
    sys.thermalize(t_ref, &mut rng);
    // Remove velocity components along the constraints so the first
    // constrained step doesn't have to absorb them.
    cs.project_velocities(&mut sys);
    sys
}

/// A saline box: `n_mol` waters with `n_pairs` Na+/Cl- pairs replacing
/// waters at random lattice sites — a four-atom-type workload.
pub fn saline_box(n_mol: usize, n_pairs: usize, t_ref: f64, seed: u64) -> System {
    assert!(n_mol > 0 && n_pairs > 0);
    // Generate water for n_mol + n_pairs*? positions: place ions on their
    // own lattice sites after the waters.
    let total_sites = n_mol + 2 * n_pairs;
    let edge = (total_sites as f64 / WATER_DENSITY_PER_NM3).cbrt() as f32;
    let pbc = PbcBox::cubic(edge.max(0.8));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sites_per_edge = (total_sites as f64).cbrt().ceil() as usize;
    let spacing = pbc.lengths().x / sites_per_edge as f32;
    let jitter = spacing * 0.1;
    let mut centers = Vec::with_capacity(total_sites);
    'outer: for ix in 0..sites_per_edge {
        for iy in 0..sites_per_edge {
            for iz in 0..sites_per_edge {
                if centers.len() == total_sites {
                    break 'outer;
                }
                centers.push(vec3(
                    (ix as f32 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
                    (iy as f32 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
                    (iz as f32 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
                ));
            }
        }
    }
    assert_eq!(centers.len(), total_sites);
    // Topology order: waters, then Na+, then Cl-.
    let mut pos = Vec::with_capacity(3 * n_mol + 2 * n_pairs);
    for c in centers.iter().take(n_mol) {
        let (h1, h2) = random_water_orientation(&mut rng);
        pos.push(pbc.wrap(*c));
        pos.push(pbc.wrap(*c + h1));
        pos.push(pbc.wrap(*c + h2));
    }
    for c in centers.iter().skip(n_mol) {
        pos.push(pbc.wrap(*c));
    }
    let mut sys = System::from_topology(Topology::saline(n_mol, n_pairs), pbc, pos);
    sys.thermalize(t_ref, &mut rng);
    sys
}

/// Two random O->H vectors with the SPC geometry.
fn random_water_orientation(rng: &mut impl Rng) -> (Vec3, Vec3) {
    // Random orthonormal frame from two random unit vectors.
    let a = random_unit(rng);
    let mut b = random_unit(rng);
    // Gram-Schmidt; retry degenerate draws.
    while a.cross(b).norm2() < 1e-4 {
        b = random_unit(rng);
    }
    let e1 = a;
    let e2 = (b - e1 * e1.dot(b)).normalized();
    let half = theta_hoh() / 2.0;
    let h1 = (e1 * half.cos() + e2 * half.sin()) * D_OH;
    let h2 = (e1 * half.cos() - e2 * half.sin()) * D_OH;
    (h1, h2)
}

fn random_unit(rng: &mut impl Rng) -> Vec3 {
    loop {
        let v = vec3(
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
        );
        let n2 = v.norm2();
        if n2 > 1e-4 && n2 < 1.0 {
            return v / n2.sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{fnv1a, FNV1A_OFFSET};

    #[test]
    fn density_is_liquid_water() {
        let s = water_box(1000, 300.0, 1);
        let density = 1000.0 / s.pbc.volume();
        assert!(
            (density - WATER_DENSITY_PER_NM3).abs() / WATER_DENSITY_PER_NM3 < 0.02,
            "density {density}"
        );
    }

    #[test]
    fn geometry_is_spc() {
        let s = water_box(64, 300.0, 2);
        for m in 0..64 {
            let o = s.pos[3 * m];
            let h1 = s.pos[3 * m + 1];
            let h2 = s.pos[3 * m + 2];
            let d1 = s.pbc.min_image(h1, o).norm();
            let d2 = s.pbc.min_image(h2, o).norm();
            assert!((d1 - D_OH).abs() < 1e-4, "mol {m}: dOH1 = {d1}");
            assert!((d2 - D_OH).abs() < 1e-4, "mol {m}: dOH2 = {d2}");
            let v1 = s.pbc.min_image(h1, o).normalized();
            let v2 = s.pbc.min_image(h2, o).normalized();
            let angle = v1.dot(v2).clamp(-1.0, 1.0).acos();
            assert!((angle - theta_hoh()).abs() < 1e-3, "mol {m}: angle {angle}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = water_box(100, 300.0, 42);
        let b = water_box(100, 300.0, 42);
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.vel, b.vel);
        let c = water_box(100, 300.0, 43);
        assert_ne!(a.pos, c.pos);
    }

    #[test]
    fn particle_count_constructor() {
        let s = water_box_particles(12_000, 300.0, 3);
        assert_eq!(s.n(), 12_000);
    }

    #[test]
    #[should_panic]
    fn non_multiple_of_three_rejected() {
        let _ = water_box_particles(1000, 300.0, 0);
    }

    /// FNV-1a over every position and velocity bit.
    fn state_bits(sys: &System) -> u64 {
        let comps = sys.pos.iter().chain(&sys.vel).flat_map(|v| [v.x, v.y, v.z]);
        comps.fold(FNV1A_OFFSET, |h, c| fnv1a(h, &c.to_bits().to_le_bytes()))
    }

    #[test]
    fn equilibrated_boxes_keep_their_bits() {
        // Recorded from the scalar force walk the lanes replaced.
        for (n_mol, pin) in [(64, 0x36083e490ac2798c), (216, 0xacb65b04b539ff6e)] {
            let sys = water_box_equilibrated(n_mol, 300.0, 5);
            assert_eq!(state_bits(&sys), pin, "{n_mol} molecules");
        }
    }

    #[test]
    fn all_positions_inside_box() {
        let s = water_box(200, 300.0, 9);
        let l = s.pbc.lengths();
        for p in &s.pos {
            assert!(p.x >= 0.0 && p.x < l.x);
            assert!(p.y >= 0.0 && p.y < l.y);
            assert!(p.z >= 0.0 && p.z < l.z);
        }
    }
}
