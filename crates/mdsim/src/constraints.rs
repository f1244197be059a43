//! Holonomic distance constraints (rigid water) via SHAKE/RATTLE.
//!
//! GROMACS keeps benchmark water rigid with SETTLE; we implement the
//! equivalent constraint dynamics with the iterative SHAKE algorithm
//! (plus the RATTLE velocity correction), which converges to the same
//! constrained trajectory and is easier to verify: after `apply`, every
//! constrained distance equals its target to the tolerance, and the
//! corrections conserve linear momentum because each correction pair is
//! mass-weighted and antiparallel. This substitution is recorded in
//! DESIGN.md; the paper's "Constraints" row (Table 1) only needs *a*
//! constraint solver with the right cost shape.

use crate::system::{Atoms, System};
use crate::vec3::Vec3;

/// One distance constraint between global atoms `i` and `j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint {
    /// First atom.
    pub i: usize,
    /// Second atom.
    pub j: usize,
    /// Target distance, nm.
    pub d: f32,
}

/// The constraints of a system of rigid 3-site molecules, with solver
/// parameters: molecule `m` is atoms `3m..3m + 3` and constraints
/// `3m..3m + 3`, and no constraint leaves its molecule.
#[derive(Debug, Clone)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
    /// `1 / mass` of every atom of the system the set was built for.
    inv_mass: Vec<f32>,
    /// Relative tolerance on squared distances.
    pub tol: f32,
    /// Iteration cap.
    pub max_iter: usize,
}

/// The sweep count of two solves taken together: the larger, or `None`
/// if either did not converge.
pub fn most_sweeps(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    a.zip(b).map(|(a, b)| a.max(b))
}

impl ConstraintSet {
    /// Rigid SPC water constraints for every 3-site molecule of `sys`:
    /// two O-H bonds at `d_oh` and the H-H distance implied by the
    /// equilibrium angle.
    pub fn rigid_water(sys: &System, d_oh: f32, theta: f32) -> Self {
        let d_hh = 2.0 * d_oh * (theta / 2.0).sin();
        let n_mol = sys.mol_id.last().map_or(0, |&m| m + 1);
        let mut constraints = Vec::with_capacity(3 * n_mol);
        for m in 0..n_mol {
            let o = 3 * m;
            constraints.push(Constraint {
                i: o,
                j: o + 1,
                d: d_oh,
            });
            constraints.push(Constraint {
                i: o,
                j: o + 2,
                d: d_oh,
            });
            constraints.push(Constraint {
                i: o + 1,
                j: o + 2,
                d: d_hh,
            });
        }
        Self {
            constraints,
            inv_mass: sys.mass.iter().map(|&m| 1.0 / m).collect(),
            tol: 1e-4, // GROMACS shake-tol default; 1e-6 is below f32 reach
            max_iter: 200,
        }
    }

    /// Number of constrained molecules.
    pub fn n_mol(&self) -> usize {
        self.constraints.len() / 3
    }

    /// SHAKE position correction: move `sys.pos` so every constraint is
    /// satisfied, using `old_pos` (pre-step positions, where constraints
    /// held) as the reference directions. Also applies the matching
    /// velocity correction `dv = dx / dt` when `dt > 0`.
    ///
    /// Returns the number of iterations used, or `None` if the solver did
    /// not converge within `max_iter`.
    pub fn apply(&self, sys: &mut System, old_pos: &[Vec3], dt: f32) -> Option<usize> {
        let mut all = sys.atom_runs(usize::MAX);
        let Some(atoms) = all.first_mut() else {
            return Some(1);
        };
        let mut sweeps = Some(1);
        for m in 0..self.n_mol() {
            let old = [old_pos[3 * m], old_pos[3 * m + 1], old_pos[3 * m + 2]];
            sweeps = most_sweeps(sweeps, self.solve_molecule(m, atoms, &old, dt));
        }
        sweeps
    }

    /// SHAKE molecule `m` of `atoms` to its first clean sweep, against
    /// the positions `old` its three atoms had before the update.
    ///
    /// A sweep over every molecule skips a constraint that already
    /// holds, and nothing outside a molecule moves its atoms; so solving
    /// the molecules one after the other is, constraint by constraint,
    /// the arithmetic of sweeping them all until the last has converged,
    /// and the largest count returned here is that solver's.
    pub(crate) fn solve_molecule(
        &self,
        m: usize,
        atoms: &mut Atoms<'_>,
        old: &[Vec3; 3],
        dt: f32,
    ) -> Option<usize> {
        let Atoms { pos, vel, pbc, .. } = atoms;
        // Atom `3m` within `atoms`; constraint atoms are relative to it.
        let base = 3 * m - atoms.first;
        for iter in 0..self.max_iter {
            let mut done = true;
            for c in &self.constraints[3 * m..3 * m + 3] {
                let (i, j) = (c.i - 3 * m, c.j - 3 * m);
                let d2 = c.d * c.d;
                let now = pbc.min_image(pos[base + i], pos[base + j]);
                let r2 = now.norm2();
                let diff = r2 - d2;
                if diff.abs() > self.tol * d2 {
                    done = false;
                    let reference = pbc.min_image(old[i], old[j]);
                    let denom =
                        2.0 * (self.inv_mass[c.i] + self.inv_mass[c.j]) * reference.dot(now);
                    if denom.abs() < 1e-12 {
                        continue;
                    }
                    let g = diff / denom;
                    let corr = reference * g;
                    let dx_i = -corr * self.inv_mass[c.i];
                    let dx_j = corr * self.inv_mass[c.j];
                    pos[base + i] += dx_i;
                    pos[base + j] += dx_j;
                    if dt > 0.0 {
                        vel[base + i] += dx_i / dt;
                        vel[base + j] += dx_j / dt;
                    }
                }
            }
            if done {
                return Some(iter + 1);
            }
        }
        None
    }

    /// RATTLE velocity projection: remove velocity components along each
    /// constraint so constrained distances stay fixed to first order.
    pub fn project_velocities(&self, sys: &mut System) {
        let inv_mass = &self.inv_mass;
        for _ in 0..self.max_iter.min(50) {
            let mut worst = 0.0f32;
            for c in &self.constraints {
                let d = sys.pbc.min_image(sys.pos[c.i], sys.pos[c.j]);
                let vrel = sys.vel[c.i] - sys.vel[c.j];
                let dot = d.dot(vrel);
                let denom = d.norm2() * (inv_mass[c.i] + inv_mass[c.j]);
                if denom == 0.0 {
                    continue;
                }
                let g = dot / denom;
                sys.vel[c.i] -= d * (g * inv_mass[c.i]);
                sys.vel[c.j] += d * (g * inv_mass[c.j]);
                worst = worst.max(dot.abs());
            }
            if worst < 1e-6 {
                break;
            }
        }
    }

    /// Largest relative violation `|r - d| / d` over all constraints.
    pub fn max_violation(&self, sys: &System) -> f32 {
        self.constraints
            .iter()
            .map(|c| {
                let r = sys.pbc.min_image(sys.pos[c.i], sys.pos[c.j]).norm();
                (r - c.d).abs() / c.d
            })
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::water::{theta_hoh, water_box, D_OH};

    /// The solver `apply` was before it went molecule by molecule: sweep
    /// every constraint of the system until one sweep finds them all
    /// satisfied.
    fn global_sweep(
        cs: &ConstraintSet,
        sys: &mut System,
        old_pos: &[Vec3],
        dt: f32,
    ) -> Option<usize> {
        let inv_mass: Vec<f32> = sys.mass.iter().map(|&m| 1.0 / m).collect();
        for iter in 0..cs.max_iter {
            let mut done = true;
            for c in &cs.constraints {
                let d2 = c.d * c.d;
                let now = sys.pbc.min_image(sys.pos[c.i], sys.pos[c.j]);
                let r2 = now.norm2();
                let diff = r2 - d2;
                if diff.abs() > cs.tol * d2 {
                    done = false;
                    let reference = sys.pbc.min_image(old_pos[c.i], old_pos[c.j]);
                    let denom = 2.0 * (inv_mass[c.i] + inv_mass[c.j]) * reference.dot(now);
                    if denom.abs() < 1e-12 {
                        continue;
                    }
                    let g = diff / denom;
                    let corr = reference * g;
                    let dx_i = -corr * inv_mass[c.i];
                    let dx_j = corr * inv_mass[c.j];
                    sys.pos[c.i] += dx_i;
                    sys.pos[c.j] += dx_j;
                    if dt > 0.0 {
                        sys.vel[c.i] += dx_i / dt;
                        sys.vel[c.j] += dx_j / dt;
                    }
                }
            }
            if done {
                return Some(iter + 1);
            }
        }
        None
    }

    fn bits(v: &[Vec3]) -> Vec<[u32; 3]> {
        v.iter()
            .map(|p| [p.x, p.y, p.z].map(f32::to_bits))
            .collect()
    }

    /// A box whose faces cut through molecules — every atom wrapped on
    /// its own, so the atoms of those sit a box length apart — perturbed
    /// as if an unconstrained step had run.
    fn straddling_perturbed(seed: u64) -> (System, Vec<Vec3>) {
        let mut sys = water_box(60, 300.0, seed);
        // The first oxygen just inside the three lower faces.
        let shift = crate::vec3::vec3(0.03, 0.03, 0.03) - sys.pos[0];
        for p in &mut sys.pos {
            *p = sys.pbc.wrap(*p + shift);
        }
        let old = sys.pos.clone();
        for (k, p) in sys.pos.iter_mut().enumerate() {
            p.x += 0.004 * ((k % 5) as f32 - 2.0);
            p.y += 0.003 * ((k % 3) as f32 - 1.0);
            p.z -= 0.002 * ((k % 4) as f32 - 1.5);
        }
        (sys, old)
    }

    #[test]
    fn molecule_by_molecule_is_the_global_sweep_bit_for_bit() {
        for seed in [6, 7, 8] {
            let (sys, old) = straddling_perturbed(seed);
            let half = 0.5 * sys.pbc.lengths().x;
            for axis in [|p: &Vec3| p.x, |p: &Vec3| p.y, |p: &Vec3| p.z] {
                let cut = old
                    .chunks(3)
                    .filter(|m| (axis(&m[0]) - axis(&m[1])).abs() > half);
                assert!(cut.count() > 0, "seed {seed}: a face cuts no molecule");
            }
            // A converging solve, one cut short, and one with no velocity
            // correction (the minimizer's).
            for (max_iter, dt) in [(200, 0.002), (2, 0.002), (200, 0.0)] {
                let mut cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
                cs.max_iter = max_iter;
                let (mut a, mut b) = (sys.clone(), sys.clone());
                let want = global_sweep(&cs, &mut a, &old, dt);
                let got = cs.apply(&mut b, &old, dt);
                assert_eq!(got, want, "seed {seed}, max_iter {max_iter}");
                assert_eq!(want.is_none(), max_iter == 2);
                assert_eq!(
                    bits(&b.pos),
                    bits(&a.pos),
                    "seed {seed}, max_iter {max_iter}"
                );
                assert_eq!(
                    bits(&b.vel),
                    bits(&a.vel),
                    "seed {seed}, max_iter {max_iter}"
                );
            }
        }
    }

    #[test]
    fn water_constraints_satisfied_at_generation() {
        let sys = water_box(20, 300.0, 5);
        let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
        assert_eq!(cs.constraints.len(), 60);
        assert!(cs.max_violation(&sys) < 1e-3);
    }

    #[test]
    fn shake_restores_perturbed_geometry() {
        let mut sys = water_box(10, 300.0, 6);
        let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
        let old = sys.pos.clone();
        // Perturb positions as if an unconstrained step had run.
        for (k, p) in sys.pos.iter_mut().enumerate() {
            p.x += 0.004 * ((k % 5) as f32 - 2.0);
            p.y += 0.003 * ((k % 3) as f32 - 1.0);
        }
        let iters = cs.apply(&mut sys, &old, 0.002).expect("converged");
        assert!(iters < 200);
        assert!(cs.max_violation(&sys) < 5e-3, "{}", cs.max_violation(&sys));
    }

    #[test]
    fn shake_conserves_momentum() {
        let mut sys = water_box(10, 300.0, 7);
        let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
        let old = sys.pos.clone();
        for (k, p) in sys.pos.iter_mut().enumerate() {
            p.z += 0.003 * ((k % 7) as f32 - 3.0);
        }
        let p_before = sys.momentum();
        cs.apply(&mut sys, &old, 0.002).unwrap();
        let p_after = sys.momentum();
        assert!(
            (p_after - p_before).norm() < 1e-2,
            "momentum drift {:?}",
            p_after - p_before
        );
    }

    #[test]
    fn velocity_projection_removes_radial_components() {
        let mut sys = water_box(5, 300.0, 8);
        let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
        cs.project_velocities(&mut sys);
        for c in &cs.constraints {
            let d = sys.pbc.min_image(sys.pos[c.i], sys.pos[c.j]);
            let vrel = sys.vel[c.i] - sys.vel[c.j];
            assert!(
                d.dot(vrel).abs() < 1e-3,
                "residual radial velocity on ({}, {})",
                c.i,
                c.j
            );
        }
    }

    #[test]
    fn hh_distance_matches_angle() {
        let sys = water_box(1, 0.0, 1);
        let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
        let d_hh = cs.constraints[2].d;
        assert!((d_hh - 0.1633).abs() < 1e-3, "d_hh = {d_hh}");
    }
}
