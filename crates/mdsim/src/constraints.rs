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

use crate::system::System;
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

/// A set of constraints with solver parameters.
#[derive(Debug, Clone)]
pub struct ConstraintSet {
    /// The constraints.
    pub constraints: Vec<Constraint>,
    /// Relative tolerance on squared distances.
    pub tol: f32,
    /// Iteration cap.
    pub max_iter: usize,
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
            tol: 1e-4, // GROMACS shake-tol default; 1e-6 is below f32 reach
            max_iter: 200,
        }
    }

    /// SHAKE position correction: move `sys.pos` so every constraint is
    /// satisfied, using `old_pos` (pre-step positions, where constraints
    /// held) as the reference directions. Also applies the matching
    /// velocity correction `dv = dx / dt` when `dt > 0`.
    ///
    /// Returns the number of iterations used, or `None` if the solver did
    /// not converge within `max_iter`.
    pub fn apply(&self, sys: &mut System, old_pos: &[Vec3], dt: f32) -> Option<usize> {
        let inv_mass: Vec<f32> = sys.mass.iter().map(|&m| 1.0 / m).collect();
        for iter in 0..self.max_iter {
            let mut done = true;
            for c in &self.constraints {
                let d2 = c.d * c.d;
                let now = sys.pbc.min_image(sys.pos[c.i], sys.pos[c.j]);
                let r2 = now.norm2();
                let diff = r2 - d2;
                if diff.abs() > self.tol * d2 {
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

    /// RATTLE velocity projection: remove velocity components along each
    /// constraint so constrained distances stay fixed to first order.
    pub fn project_velocities(&self, sys: &mut System) {
        let inv_mass: Vec<f32> = sys.mass.iter().map(|&m| 1.0 / m).collect();
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
