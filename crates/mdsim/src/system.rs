//! Particle system state: positions, velocities, forces, and per-particle
//! metadata, plus the global exclusion list derived from the topology.

use crate::pbc::PbcBox;
use crate::topology::{Topology, KB};
use crate::vec3::Vec3;

/// Full mutable state of one MD system (or one domain of it).
#[derive(Debug, Clone)]
pub struct System {
    /// Simulation box.
    pub pbc: PbcBox,
    /// Positions, nm.
    pub pos: Vec<Vec3>,
    /// Velocities, nm/ps.
    pub vel: Vec<Vec3>,
    /// Forces, kJ mol^-1 nm^-1.
    pub force: Vec<Vec3>,
    /// Atom type id of each particle.
    pub type_id: Vec<usize>,
    /// Charge of each particle, e.
    pub charge: Vec<f32>,
    /// Mass of each particle, u.
    pub mass: Vec<f32>,
    /// Molecule id of each particle (for exclusions and constraints).
    pub mol_id: Vec<usize>,
    /// Per-particle exclusion lists (global indices, sorted).
    pub exclusions: Vec<Vec<u32>>,
    /// Force-field topology.
    pub topology: Topology,
}

/// A run of consecutive atoms as the update sees them, `first` being
/// the system index of the one at `[0]`: what one caller of the update
/// owns while it runs.
pub struct Atoms<'a> {
    /// System index of the first atom.
    pub first: usize,
    /// Positions, updated in place.
    pub pos: &'a mut [Vec3],
    /// Velocities, updated in place.
    pub vel: &'a mut [Vec3],
    /// Forces on the same atoms.
    pub force: &'a [Vec3],
    /// Their masses.
    pub mass: &'a [f32],
    /// The box they live in.
    pub pbc: PbcBox,
}

impl System {
    /// The atoms in consecutive runs of `per`, for the update; all of
    /// them in one when `per` is `usize::MAX`.
    pub fn atom_runs(&mut self, per: usize) -> Vec<Atoms<'_>> {
        let pbc = self.pbc;
        let runs = self.pos.chunks_mut(per).zip(self.vel.chunks_mut(per));
        let runs = runs.zip(self.force.chunks(per).zip(self.mass.chunks(per)));
        let runs = runs.enumerate();
        runs.map(|(b, ((pos, vel), (force, mass)))| Atoms {
            first: b * per,
            pos,
            vel,
            force,
            mass,
            pbc,
        })
        .collect()
    }

    /// Assemble a system from a topology and positions. Velocities start at
    /// zero; metadata (type/charge/mass/mol/exclusions) is expanded from
    /// the topology's molecule blocks, in block order.
    pub fn from_topology(topology: Topology, pbc: PbcBox, pos: Vec<Vec3>) -> Self {
        let n = topology.n_particles();
        assert_eq!(pos.len(), n, "positions must match topology particle count");
        let mut type_id = Vec::with_capacity(n);
        let mut charge = Vec::with_capacity(n);
        let mut mass = Vec::with_capacity(n);
        let mut mol_id = Vec::with_capacity(n);
        let mut exclusions: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut base = 0usize;
        let mut mol = 0usize;
        for &(kind_idx, count) in &topology.blocks {
            let kind = &topology.kinds[kind_idx];
            for _ in 0..count {
                for &t in &kind.atom_types {
                    type_id.push(t);
                    charge.push(topology.types[t].charge);
                    mass.push(topology.types[t].mass);
                    mol_id.push(mol);
                }
                for &(i, j) in &kind.exclusions {
                    let (gi, gj) = (base + i, base + j);
                    exclusions[gi].push(gj as u32);
                    exclusions[gj].push(gi as u32);
                }
                base += kind.n_atoms();
                mol += 1;
            }
        }
        for e in &mut exclusions {
            e.sort_unstable();
        }
        Self {
            pbc,
            pos,
            vel: vec![Vec3::ZERO; n],
            force: vec![Vec3::ZERO; n],
            type_id,
            charge,
            mass,
            mol_id,
            exclusions,
            topology,
        }
    }

    /// Number of particles.
    pub fn n(&self) -> usize {
        self.pos.len()
    }

    /// True if `j` is excluded from nonbonded interaction with `i`.
    #[inline]
    pub fn is_excluded(&self, i: usize, j: usize) -> bool {
        self.exclusions[i].binary_search(&(j as u32)).is_ok()
    }

    /// Zero the force array.
    pub fn clear_forces(&mut self) {
        self.force.fill(Vec3::ZERO);
    }

    /// Kinetic energy in kJ/mol.
    pub fn kinetic_energy(&self) -> f64 {
        self.vel
            .iter()
            .zip(&self.mass)
            .map(|(v, &m)| 0.5 * m as f64 * v.norm2() as f64)
            .sum()
    }

    /// Instantaneous temperature in K from `dof` degrees of freedom.
    pub fn temperature(&self, dof: usize) -> f64 {
        if dof == 0 {
            return 0.0;
        }
        2.0 * self.kinetic_energy() / (dof as f64 * KB)
    }

    /// Degrees of freedom for rigid 3-site water (3 per molecule removed
    /// by constraints, 3 for center-of-mass motion).
    pub fn dof_rigid_water(&self) -> usize {
        let n_mol = self.mol_id.last().map_or(0, |&m| m + 1);
        (3 * self.n()).saturating_sub(3 * n_mol + 3)
    }

    /// Degrees of freedom without constraints.
    pub fn dof_unconstrained(&self) -> usize {
        (3 * self.n()).saturating_sub(3)
    }

    /// Total linear momentum (u nm/ps).
    pub fn momentum(&self) -> Vec3 {
        let mut p = Vec3::ZERO;
        for (v, &m) in self.vel.iter().zip(&self.mass) {
            p += *v * m;
        }
        p
    }

    /// Remove center-of-mass velocity.
    fn remove_com_velocity(&mut self) {
        let p = self.momentum();
        let m_total: f32 = self.mass.iter().sum();
        if m_total == 0.0 {
            return;
        }
        let v_com = p / m_total;
        for v in &mut self.vel {
            *v -= v_com;
        }
    }

    /// Assign Maxwell-Boltzmann velocities at temperature `t_ref` (K) using
    /// the given RNG, then remove COM drift.
    pub fn thermalize(&mut self, t_ref: f64, rng: &mut impl rand::Rng) {
        use rand::distributions::Distribution;
        for i in 0..self.n() {
            let sd = (KB * t_ref / self.mass[i] as f64).sqrt() as f32;
            let normal = NormalApprox { sd };
            self.vel[i] = Vec3 {
                x: normal.sample(rng),
                y: normal.sample(rng),
                z: normal.sample(rng),
            };
        }
        self.remove_com_velocity();
    }
}

/// Gaussian sampler via the sum-of-12-uniforms approximation: good to the
/// tails we care about and avoids pulling in a distributions crate.
struct NormalApprox {
    sd: f32,
}

impl rand::distributions::Distribution<f32> for NormalApprox {
    fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        let s: f32 = (0..12).map(|_| rng.gen::<f32>()).sum();
        (s - 6.0) * self.sd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::vec3::vec3;
    use rand::SeedableRng;

    fn tiny_water() -> System {
        let top = Topology::spc_water(2);
        let pos = vec![
            vec3(1.0, 1.0, 1.0),
            vec3(1.1, 1.0, 1.0),
            vec3(1.0, 1.1, 1.0),
            vec3(2.0, 2.0, 2.0),
            vec3(2.1, 2.0, 2.0),
            vec3(2.0, 2.1, 2.0),
        ];
        System::from_topology(top, PbcBox::cubic(3.0), pos)
    }

    #[test]
    fn metadata_expansion() {
        let s = tiny_water();
        assert_eq!(s.n(), 6);
        assert_eq!(s.type_id, vec![0, 1, 1, 0, 1, 1]);
        assert_eq!(s.mol_id, vec![0, 0, 0, 1, 1, 1]);
        assert!((s.charge[0] + 0.82).abs() < 1e-6);
        assert!((s.mass[1] - 1.008).abs() < 1e-6);
    }

    #[test]
    fn exclusions_are_intramolecular_and_symmetric() {
        let s = tiny_water();
        assert!(s.is_excluded(0, 1));
        assert!(s.is_excluded(1, 0));
        assert!(s.is_excluded(1, 2));
        assert!(!s.is_excluded(0, 3));
        assert!(!s.is_excluded(2, 4));
    }

    #[test]
    fn thermalize_hits_target_temperature() {
        let top = Topology::spc_water(500);
        let n = top.n_particles();
        let pos = vec![Vec3::ZERO; n];
        let mut s = System::from_topology(top, PbcBox::cubic(5.0), pos);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        s.thermalize(300.0, &mut rng);
        let t = s.temperature(s.dof_unconstrained());
        assert!((t - 300.0).abs() / 300.0 < 0.05, "T = {t}");
        // COM removal is exact up to f32 accumulation over 1500 atoms.
        assert!(s.momentum().norm() < 0.05, "p = {:?}", s.momentum());
    }

    #[test]
    fn dof_counts() {
        let s = tiny_water();
        assert_eq!(s.dof_unconstrained(), 15);
        assert_eq!(s.dof_rigid_water(), 18 - 6 - 3);
    }

    #[test]
    fn kinetic_energy_of_known_velocity() {
        let mut s = tiny_water();
        s.vel[0] = vec3(1.0, 0.0, 0.0);
        let ke = s.kinetic_energy();
        assert!((ke - 0.5 * 15.999_4) < 1e-3);
    }
}
