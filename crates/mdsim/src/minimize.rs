//! Steepest-descent energy minimization.
//!
//! Lattice-generated water boxes contain close contacts that produce
//! enormous initial forces; the paper's benchmark inputs are equilibrated
//! structures. A short constrained steepest descent removes the bad
//! contacts so dynamics at the benchmark time step (2 fs) is stable.

use crate::constraints::ConstraintSet;
use crate::nonbonded::{compute_forces_half, NbParams};
use crate::pairlist::{ListKind, PairList};
use crate::system::System;

/// Result of a minimization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinimizeReport {
    /// Steps actually taken.
    pub steps: usize,
    /// Largest force component at exit, kJ mol^-1 nm^-1.
    pub f_max: f32,
    /// Potential energy at exit, kJ/mol.
    pub energy: f64,
}

/// Constrained steepest descent: move along forces with a displacement
/// cap of `max_disp` nm per step, re-satisfying `constraints` after each
/// move, until `f_max < f_tol` or `max_steps` is reached. A force that is
/// not finite stops it before any atom moves; the report's `f_max` is
/// then that force's (non-finite) norm.
pub fn steepest_descent(
    sys: &mut System,
    params: &NbParams,
    constraints: Option<&ConstraintSet>,
    max_steps: usize,
    f_tol: f32,
    max_disp: f32,
) -> MinimizeReport {
    let mut report = MinimizeReport {
        steps: 0,
        f_max: f32::INFINITY,
        energy: 0.0,
    };
    let mut list: Option<PairList> = None;
    for step in 0..max_steps {
        if step % 5 == 0 || list.is_none() {
            list = Some(PairList::build(sys, params.r_cut * 1.1, ListKind::Half));
        }
        sys.clear_forces();
        let en = compute_forces_half(sys, list.as_ref().unwrap(), params);
        // `f32::max` drops a NaN: the first non-finite force ends the
        // descent before any atom moves, and is the reported `f_max`.
        let norms = sys.force.iter().map(|f| f.norm());
        let f_max = match norms.clone().find(|n| !n.is_finite()) {
            Some(bad) => bad,
            None => norms.fold(0.0f32, f32::max),
        };
        report = MinimizeReport {
            steps: step + 1,
            f_max,
            energy: en.total(),
        };
        if f_max < f_tol || !f_max.is_finite() {
            break;
        }
        let alpha = max_disp / f_max;
        let old = sys.pos.clone();
        for i in 0..sys.n() {
            sys.pos[i] += sys.force[i] * alpha;
        }
        if let Some(cs) = constraints {
            cs.apply(sys, &old, 0.0);
        }
    }
    sys.clear_forces();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ConstraintSet;
    use crate::nonbonded::Coulomb;
    use crate::water::{theta_hoh, water_box, D_OH};

    fn params() -> NbParams {
        NbParams {
            r_cut: 0.7,
            coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
        }
    }

    #[test]
    fn minimization_lowers_energy_and_forces() {
        let mut sys = water_box(100, 300.0, 201);
        let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
        let p = params();
        // Initial state.
        let mut probe = sys.clone();
        let list = PairList::build(&probe, 0.8, ListKind::Half);
        let e0 = compute_forces_half(&mut probe, &list, &p).total();
        let f0 = probe.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);

        let report = steepest_descent(&mut sys, &p, Some(&cs), 60, 1e3, 0.01);
        assert!(report.energy < e0, "E {} -> {}", e0, report.energy);
        assert!(report.f_max < f0, "fmax {} -> {}", f0, report.f_max);
        // Constraints still hold.
        assert!(cs.max_violation(&sys) < 1e-2);
    }

    #[test]
    fn minimized_box_is_stable_under_dynamics() {
        use crate::integrate::leapfrog_step_constrained;
        let mut sys = water_box(80, 300.0, 202);
        let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
        let p = params();
        steepest_descent(&mut sys, &p, Some(&cs), 80, 2e3, 0.01);
        // Rethermalize and integrate: temperature must stay bounded.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        sys.thermalize(300.0, &mut rng);
        let dof = sys.dof_rigid_water();
        let mut list = PairList::build(&sys, 0.8, ListKind::Half);
        for step in 0..50 {
            if step % 10 == 0 {
                list = PairList::build(&sys, 0.8, ListKind::Half);
            }
            sys.clear_forces();
            compute_forces_half(&mut sys, &list, &p);
            assert!(leapfrog_step_constrained(&mut sys, 0.002, &cs));
        }
        // The lattice start equilibrates hot (potential energy released as
        // heat); a genuine 2 fs integration blow-up reads >10^4 K.
        let t = sys.temperature(dof);
        assert!(t < 2500.0, "temperature exploded: {t} K");
    }

    #[test]
    fn a_non_finite_force_stops_the_descent_before_anything_moves() {
        let mut sys = water_box(8, 300.0, 204);
        // Two molecules' oxygens 1e-21 nm apart at the origin (where f32
        // resolves it): r^-2 overflows and the pair's force is inf - inf.
        sys.pos[0] = crate::vec3::Vec3::ZERO;
        sys.pos[3] = crate::vec3::vec3(1e-21, 0.0, 0.0);
        let before = sys.pos.clone();
        let report = steepest_descent(&mut sys, &params(), None, 10, 1e3, 0.01);
        assert!(!report.f_max.is_finite(), "f_max {}", report.f_max);
        assert_eq!(report.steps, 1);
        assert_eq!(sys.pos, before);
    }

    #[test]
    fn converges_quickly_on_already_relaxed_system() {
        let mut sys = water_box(50, 300.0, 203);
        let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
        let p = params();
        steepest_descent(&mut sys, &p, Some(&cs), 100, 2e3, 0.01);
        let again = steepest_descent(&mut sys, &p, Some(&cs), 100, 2e3, 0.01);
        assert!(
            again.steps <= 30,
            "took {} steps on relaxed system",
            again.steps
        );
    }
}
