//! Leapfrog integrator and Berendsen thermostat — the "Update
//! configuration" stage of the MD workflow (paper Fig. 1, Table 1 rows
//! "Update" and "Constraints").

use crate::constraints::{most_sweeps, ConstraintSet};
use crate::system::{Atoms, System};

/// One leapfrog step without constraints:
/// `v(t+dt/2) = v(t-dt/2) + a(t) dt`, `x(t+dt) = x(t) + v(t+dt/2) dt`.
pub fn leapfrog_step(sys: &mut System, dt: f32) {
    for i in 0..sys.n() {
        let a = sys.force[i] / sys.mass[i];
        sys.vel[i] += a * dt;
        sys.pos[i] += sys.vel[i] * dt;
    }
}

/// [`leapfrog_step`] of the atoms at `range` of `atoms`.
fn leapfrog(atoms: &mut Atoms<'_>, range: std::ops::Range<usize>, dt: f32) {
    for i in range {
        let a = atoms.force[i] / atoms.mass[i];
        atoms.vel[i] += a * dt;
        atoms.pos[i] += atoms.vel[i] * dt;
    }
}

/// One constrained leapfrog step of `atoms`, a run of whole molecules:
/// each is updated and then SHAKEn against the positions it had on
/// entry, which never leave the stack; atoms past the last constrained
/// molecule are only updated. Rigid-water constraints stay inside a
/// molecule, so a system updated run by run — in any order, or all at
/// once on different threads — ends on the bits of [`leapfrog_step`]
/// followed by [`ConstraintSet::apply`].
///
/// Returns the most sweeps a molecule took, or `None` if one of them
/// did not converge within `max_iter`.
pub fn leapfrog_constrained_block(
    atoms: &mut Atoms<'_>,
    dt: f32,
    constraints: &ConstraintSet,
) -> Option<usize> {
    let n = atoms.pos.len();
    let mols = atoms.first / 3..constraints.n_mol().min((atoms.first + n) / 3);
    let mut sweeps = Some(1);
    for m in mols.clone() {
        let at = 3 * m - atoms.first;
        let old = [atoms.pos[at], atoms.pos[at + 1], atoms.pos[at + 2]];
        leapfrog(atoms, at..at + 3, dt);
        sweeps = most_sweeps(sweeps, constraints.solve_molecule(m, atoms, &old, dt));
    }
    leapfrog(atoms, 3 * mols.len()..n, dt);
    sweeps
}

/// One constrained leapfrog step: unconstrained update followed by SHAKE
/// position correction against the pre-step positions.
///
/// Returns `false` if the constraint solver failed to converge.
pub fn leapfrog_step_constrained(sys: &mut System, dt: f32, constraints: &ConstraintSet) -> bool {
    let mut all = sys.atom_runs(usize::MAX);
    let converged = |atoms| leapfrog_constrained_block(atoms, dt, constraints).is_some();
    all.iter_mut().all(converged)
}

/// Berendsen weak-coupling thermostat: rescale velocities toward `t_ref`
/// with time constant `tau` (ps). `t_now` is the current instantaneous
/// temperature; no-op when it is zero.
pub fn berendsen_scale(sys: &mut System, dt: f32, tau: f32, t_ref: f64, t_now: f64) {
    if t_now <= 0.0 {
        return;
    }
    let lambda = (1.0 + (dt / tau) as f64 * (t_ref / t_now - 1.0)).sqrt() as f32;
    for v in &mut sys.vel {
        *v = *v * lambda;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbc::PbcBox;
    use crate::topology::Topology;
    use crate::vec3::vec3;
    use crate::water::{theta_hoh, water_box, D_OH};

    #[test]
    fn free_particle_moves_linearly() {
        let top = Topology::lj_fluid(1);
        let mut s = System::from_topology(top, PbcBox::cubic(10.0), vec![vec3(5.0, 5.0, 5.0)]);
        s.vel[0] = vec3(1.0, 0.0, 0.0);
        for _ in 0..100 {
            leapfrog_step(&mut s, 0.01);
        }
        assert!((s.pos[0].x - 6.0).abs() < 1e-4);
    }

    #[test]
    fn constant_force_gives_quadratic_trajectory() {
        let top = Topology::lj_fluid(1);
        let mut s = System::from_topology(top, PbcBox::cubic(100.0), vec![vec3(5.0, 5.0, 5.0)]);
        let mass = s.mass[0];
        let f = 10.0f32;
        let dt = 0.001f32;
        let steps = 1000;
        for _ in 0..steps {
            s.force[0] = vec3(f, 0.0, 0.0);
            leapfrog_step(&mut s, dt);
        }
        let t = steps as f32 * dt;
        // Leapfrog with v(-dt/2)=0 gives x = 0.5 a t^2 + O(dt) offset.
        let expect = 5.0 + 0.5 * (f / mass) * t * t;
        assert!(
            (s.pos[0].x - expect).abs() / expect < 0.01,
            "{} vs {}",
            s.pos[0].x,
            expect
        );
    }

    #[test]
    fn constrained_step_keeps_water_rigid() {
        let mut s = water_box(10, 300.0, 9);
        let cs = ConstraintSet::rigid_water(&s, D_OH, theta_hoh());
        for _ in 0..20 {
            s.clear_forces();
            assert!(leapfrog_step_constrained(&mut s, 0.002, &cs));
        }
        assert!(cs.max_violation(&s) < 1e-2, "{}", cs.max_violation(&s));
    }

    #[test]
    fn berendsen_moves_temperature_toward_target() {
        let mut s = water_box(50, 600.0, 10);
        let dof = s.dof_unconstrained();
        let t0 = s.temperature(dof);
        for _ in 0..200 {
            let t = s.temperature(dof);
            berendsen_scale(&mut s, 0.002, 0.1, 300.0, t);
        }
        let t1 = s.temperature(dof);
        assert!(
            (t1 - 300.0).abs() < (t0 - 300.0).abs() * 0.1,
            "T {t0} -> {t1}"
        );
    }
}
