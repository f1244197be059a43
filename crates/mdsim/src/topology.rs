//! Force-field topology: atom types, Lennard-Jones tables, bonded terms,
//! and intramolecular exclusions.
//!
//! The short-range kernel (paper Eq. 1/2) needs per-type-pair `C6`/`C12`
//! coefficients; GROMACS stores them in a flat `ntypes x ntypes` table
//! indexed by the two particles' type ids, which is exactly the layout the
//! particle package carries the type id for (Fig. 2).

/// Coulomb conversion factor in kJ mol^-1 nm e^-2 (GROMACS `ONE_4PI_EPS0`).
pub const KE: f64 = 138.935_458;

/// Boltzmann constant in kJ mol^-1 K^-1.
pub const KB: f64 = 0.008_314_462_6;

/// One atom type: mass, charge, and LJ parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomType {
    /// Display name ("OW", "HW", ...).
    pub name: &'static str,
    /// Mass in u.
    pub mass: f32,
    /// Partial charge in e.
    pub charge: f32,
    /// LJ sigma in nm (0 disables LJ for this type).
    pub sigma: f32,
    /// LJ epsilon in kJ/mol.
    pub epsilon: f32,
}

/// Harmonic bond between two atoms (indices are intra-molecule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bond {
    /// First atom (index within molecule).
    pub i: usize,
    /// Second atom (index within molecule).
    pub j: usize,
    /// Equilibrium length, nm.
    pub r0: f32,
    /// Force constant, kJ mol^-1 nm^-2.
    pub k: f32,
}

/// Harmonic angle i-j-k (j is the vertex).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Angle {
    /// First flanking atom.
    pub i: usize,
    /// Vertex atom.
    pub j: usize,
    /// Second flanking atom.
    pub k: usize,
    /// Equilibrium angle, radians.
    pub theta0: f32,
    /// Force constant, kJ mol^-1 rad^-2.
    pub ktheta: f32,
}

/// Periodic proper dihedral i-j-k-l around the j-k axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dihedral {
    /// First atom.
    pub i: usize,
    /// Second atom (axis start).
    pub j: usize,
    /// Third atom (axis end).
    pub k: usize,
    /// Fourth atom.
    pub l: usize,
    /// Multiplicity n in `V = k (1 + cos(n phi - phi0))`.
    pub mult: u32,
    /// Phase phi0, radians.
    pub phi0: f32,
    /// Force constant, kJ/mol.
    pub kphi: f32,
}

/// A molecule template: atom types plus bonded terms and exclusions.
#[derive(Debug, Clone, PartialEq)]
pub struct MoleculeKind {
    /// Name of the molecule ("SPC water").
    pub name: String,
    /// Type id (into [`Topology::types`]) of each atom in the molecule.
    pub atom_types: Vec<usize>,
    /// Harmonic bonds (used when running flexible; constrained otherwise).
    pub bonds: Vec<Bond>,
    /// Harmonic angles.
    pub angles: Vec<Angle>,
    /// Periodic dihedrals (4-body).
    pub dihedrals: Vec<Dihedral>,
    /// Pairs excluded from non-bonded interactions (intra-molecular).
    pub exclusions: Vec<(usize, usize)>,
}

impl MoleculeKind {
    /// Number of atoms per molecule.
    pub fn n_atoms(&self) -> usize {
        self.atom_types.len()
    }
}

/// Whole-system topology: the type table plus the molecule composition.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Atom types, indexed by type id.
    pub types: Vec<AtomType>,
    /// Molecule kinds present.
    pub kinds: Vec<MoleculeKind>,
    /// `(kind index, count)` of each molecule block, in particle order.
    pub blocks: Vec<(usize, usize)>,
    /// Flat `ntypes*ntypes` C6 table (kJ mol^-1 nm^6).
    c6: Vec<f32>,
    /// Flat `ntypes*ntypes` C12 table (kJ mol^-1 nm^12).
    c12: Vec<f32>,
}

impl Topology {
    /// Build a topology, deriving combined LJ tables with Lorentz-Berthelot
    /// rules from the per-type sigma/epsilon.
    pub fn new(
        types: Vec<AtomType>,
        kinds: Vec<MoleculeKind>,
        blocks: Vec<(usize, usize)>,
    ) -> Self {
        let n = types.len();
        let mut c6 = vec![0.0f32; n * n];
        let mut c12 = vec![0.0f32; n * n];
        for a in 0..n {
            for b in 0..n {
                let sigma = 0.5 * (types[a].sigma + types[b].sigma);
                let eps = (types[a].epsilon * types[b].epsilon).sqrt();
                let s6 = sigma.powi(6);
                c6[a * n + b] = 4.0 * eps * s6;
                c12[a * n + b] = 4.0 * eps * s6 * s6;
            }
        }
        Self {
            types,
            kinds,
            blocks,
            c6,
            c12,
        }
    }

    /// Number of atom types.
    pub fn n_types(&self) -> usize {
        self.types.len()
    }

    /// `(C6, C12)` for a type pair.
    #[inline]
    pub fn lj(&self, ta: usize, tb: usize) -> (f32, f32) {
        let n = self.types.len();
        (self.c6[ta * n + tb], self.c12[ta * n + tb])
    }

    /// Flat C6 table (row-major `ntypes x ntypes`).
    pub fn c6_table(&self) -> &[f32] {
        &self.c6
    }

    /// Flat C12 table.
    pub fn c12_table(&self) -> &[f32] {
        &self.c12
    }

    /// Total number of particles described.
    pub fn n_particles(&self) -> usize {
        self.blocks
            .iter()
            .map(|&(k, count)| self.kinds[k].n_atoms() * count)
            .sum()
    }

    /// SPC water topology for `n_mol` molecules: 3-site rigid water with
    /// LJ on oxygen only, qO = -0.82 e, qH = +0.41 e, dOH = 0.1 nm,
    /// HOH angle 109.47 degrees.
    pub fn spc_water(n_mol: usize) -> Self {
        let ow = AtomType {
            name: "OW",
            mass: 15.999_4,
            charge: -0.82,
            sigma: 0.316_557,
            epsilon: 0.650_17,
        };
        let hw = AtomType {
            name: "HW",
            mass: 1.008,
            charge: 0.41,
            sigma: 0.0,
            epsilon: 0.0,
        };
        let theta0 = 109.47f32.to_radians();
        let kind = MoleculeKind {
            name: "SPC water".into(),
            atom_types: vec![0, 1, 1],
            bonds: vec![
                Bond {
                    i: 0,
                    j: 1,
                    r0: 0.1,
                    k: 345_000.0,
                },
                Bond {
                    i: 0,
                    j: 2,
                    r0: 0.1,
                    k: 345_000.0,
                },
            ],
            angles: vec![Angle {
                i: 1,
                j: 0,
                k: 2,
                theta0,
                ktheta: 383.0,
            }],
            dihedrals: vec![],
            exclusions: vec![(0, 1), (0, 2), (1, 2)],
        };
        Self::new(vec![ow, hw], vec![kind], vec![(0, n_mol)])
    }

    /// TIP3P water: same 3-site geometry as SPC with slightly different
    /// charges and oxygen LJ (Jorgensen et al.), the other ubiquitous
    /// rigid water in GROMACS benchmarks.
    pub fn tip3p_water(n_mol: usize) -> Self {
        let ow = AtomType {
            name: "OW",
            mass: 15.999_4,
            charge: -0.834,
            sigma: 0.315_061,
            epsilon: 0.636_386,
        };
        let hw = AtomType {
            name: "HW",
            mass: 1.008,
            charge: 0.417,
            sigma: 0.0,
            epsilon: 0.0,
        };
        let theta0 = 104.52f32.to_radians();
        let kind = MoleculeKind {
            name: "TIP3P water".into(),
            atom_types: vec![0, 1, 1],
            bonds: vec![
                Bond {
                    i: 0,
                    j: 1,
                    r0: 0.09572,
                    k: 502_416.0,
                },
                Bond {
                    i: 0,
                    j: 2,
                    r0: 0.09572,
                    k: 502_416.0,
                },
            ],
            angles: vec![Angle {
                i: 1,
                j: 0,
                k: 2,
                theta0,
                ktheta: 628.02,
            }],
            dihedrals: vec![],
            exclusions: vec![(0, 1), (0, 2), (1, 2)],
        };
        Self::new(vec![ow, hw], vec![kind], vec![(0, n_mol)])
    }

    /// Saline solution: `n_mol` SPC waters plus `n_pairs` Na+/Cl- ion
    /// pairs — a four-type system exercising the full LJ type table
    /// (ion parameters from the Joung-Cheatham set, rounded).
    pub fn saline(n_mol: usize, n_pairs: usize) -> Self {
        let mut base = Self::spc_water(n_mol);
        let na = AtomType {
            name: "NA",
            mass: 22.989_8,
            charge: 1.0,
            sigma: 0.2160,
            epsilon: 1.475,
        };
        let cl = AtomType {
            name: "CL",
            mass: 35.453,
            charge: -1.0,
            sigma: 0.4830,
            epsilon: 0.0535,
        };
        let mut types = base.types.clone();
        types.push(na); // type 2
        types.push(cl); // type 3
        let mut kinds = base.kinds.clone();
        kinds.push(MoleculeKind {
            name: "Na+".into(),
            atom_types: vec![2],
            bonds: vec![],
            angles: vec![],
            dihedrals: vec![],
            exclusions: vec![],
        });
        kinds.push(MoleculeKind {
            name: "Cl-".into(),
            atom_types: vec![3],
            bonds: vec![],
            angles: vec![],
            dihedrals: vec![],
            exclusions: vec![],
        });
        let mut blocks = base.blocks.clone();
        blocks.push((1, n_pairs));
        blocks.push((2, n_pairs));
        base = Self::new(types, kinds, blocks);
        base
    }

    /// Pure LJ fluid of `n` identical particles (no charge, no molecules);
    /// handy for isolated kernel tests.
    pub fn lj_fluid(n: usize) -> Self {
        let t = AtomType {
            name: "LJ",
            mass: 39.948, // argon
            charge: 0.0,
            sigma: 0.3405,
            epsilon: 0.996,
        };
        let kind = MoleculeKind {
            name: "LJ atom".into(),
            atom_types: vec![0],
            bonds: vec![],
            angles: vec![],
            dihedrals: vec![],
            exclusions: vec![],
        };
        Self::new(vec![t], vec![kind], vec![(0, n)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lj_table_symmetric_and_consistent() {
        let top = Topology::spc_water(1);
        let (c6_oo, c12_oo) = top.lj(0, 0);
        let sigma = 0.316_557f32;
        let eps = 0.650_17f32;
        assert!((c6_oo - 4.0 * eps * sigma.powi(6)).abs() < 1e-6);
        assert!((c12_oo - 4.0 * eps * sigma.powi(12)).abs() < 1e-9);
        // Hydrogen has no LJ.
        assert_eq!(top.lj(1, 1), (0.0, 0.0));
        assert_eq!(top.lj(0, 1), top.lj(1, 0));
    }

    #[test]
    fn spc_water_counts() {
        let top = Topology::spc_water(100);
        assert_eq!(top.n_particles(), 300);
        assert_eq!(top.kinds[0].n_atoms(), 3);
        assert_eq!(top.kinds[0].exclusions.len(), 3);
    }

    #[test]
    fn water_is_neutral() {
        let top = Topology::spc_water(1);
        let q: f32 = top.kinds[0]
            .atom_types
            .iter()
            .map(|&t| top.types[t].charge)
            .sum();
        assert!(q.abs() < 1e-6);
    }

    #[test]
    fn lj_fluid_has_no_exclusions() {
        let top = Topology::lj_fluid(10);
        assert_eq!(top.n_particles(), 10);
        assert!(top.kinds[0].exclusions.is_empty());
    }
}
