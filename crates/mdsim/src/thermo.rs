//! Thermodynamic observables: pressure from the virial theorem and
//! kinetic-theory helpers.
//!
//! `P = (2 KE + W) / (3 V)` with `W = sum_ij f_ij . r_ij` the pair
//! virial the non-bonded kernels accumulate. Units: kJ mol^-1 nm^-3,
//! convertible to bar via [`PRESSURE_TO_BAR`].

use crate::nonbonded::NbEnergies;
use crate::system::System;
use crate::topology::KB;

/// 1 kJ mol^-1 nm^-3 expressed in bar (GROMACS' pressure unit factor).
pub const PRESSURE_TO_BAR: f64 = 16.605_39;

/// Instantaneous pressure in kJ mol^-1 nm^-3.
pub fn pressure(sys: &System, en: &NbEnergies) -> f64 {
    (2.0 * sys.kinetic_energy() + en.virial) / (3.0 * sys.pbc.volume())
}

/// Ideal-gas pressure `rho k_B T` at the system's current kinetic
/// temperature, in kJ mol^-1 nm^-3 — the no-interaction reference.
pub fn ideal_gas_pressure(sys: &System, dof: usize) -> f64 {
    let rho = sys.n() as f64 / sys.pbc.volume();
    rho * KB * sys.temperature(dof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonbonded::{compute_forces_brute, Coulomb, NbParams};
    use crate::pbc::PbcBox;
    use crate::system::System;
    use crate::topology::Topology;
    use crate::vec3::vec3;

    #[test]
    fn non_interacting_gas_matches_ideal_law() {
        // Thermalized particles with zero virial: P = rho kB T exactly
        // (up to the COM-removal dof bookkeeping).
        use rand::SeedableRng;
        let top = Topology::lj_fluid(500);
        let pos = (0..500)
            .map(|i| {
                vec3(
                    (i % 10) as f32 * 0.5,
                    ((i / 10) % 10) as f32 * 0.5,
                    (i / 100) as f32 * 0.5,
                )
            })
            .collect();
        let mut sys = System::from_topology(top, PbcBox::cubic(5.0), pos);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        sys.thermalize(300.0, &mut rng);
        let en = NbEnergies::default(); // no interactions at all
        let p = pressure(&sys, &en);
        let p_ideal = ideal_gas_pressure(&sys, 3 * sys.n());
        assert!((p - p_ideal).abs() / p_ideal < 1e-6, "{p} vs {p_ideal}");
    }

    #[test]
    fn compressed_lj_solid_has_positive_pressure() {
        // Argon on an over-compressed lattice: repulsive cores dominate,
        // the virial is positive and the pressure far above ideal.
        let n = 4usize;
        let a = 0.33f32; // slightly under sigma = 0.3405 -> repulsive
        let top = Topology::lj_fluid(n * n * n);
        let mut pos = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    pos.push(vec3(x as f32 * a, y as f32 * a, z as f32 * a));
                }
            }
        }
        let mut sys = System::from_topology(top, PbcBox::cubic(a * n as f32), pos);
        let params = NbParams {
            r_cut: 0.6,
            coulomb: Coulomb::None,
        };
        let en = compute_forces_brute(&mut sys, &params);
        assert!(en.virial > 0.0, "virial {}", en.virial);
        assert!(pressure(&sys, &en) * PRESSURE_TO_BAR > 100.0);
    }

    #[test]
    fn dilute_lj_gas_has_negative_virial_correction() {
        // Below-critical density at moderate spacing: attraction wins,
        // the virial is negative and P < P_ideal.
        let n = 4usize;
        let a = 0.42f32; // near the LJ minimum (2^(1/6) sigma = 0.382)
        let top = Topology::lj_fluid(n * n * n);
        let mut pos = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    pos.push(vec3(x as f32 * a, y as f32 * a, z as f32 * a));
                }
            }
        }
        let mut sys = System::from_topology(top, PbcBox::cubic(a * n as f32), pos);
        let params = NbParams {
            r_cut: 0.8,
            coulomb: Coulomb::None,
        };
        let en = compute_forces_brute(&mut sys, &params);
        assert!(en.virial < 0.0, "virial {}", en.virial);
    }

    #[test]
    fn virial_consistent_between_half_and_full_lists() {
        use crate::pairlist::{ListKind, PairList};
        let sys0 = crate::water::water_box(300, 300.0, 61);
        let params = NbParams {
            r_cut: 0.7,
            coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
        };
        let mut a = sys0.clone();
        let mut b = sys0;
        let half = PairList::build(&a, 0.7, ListKind::Half);
        let full = PairList::build(&b, 0.7, ListKind::Full);
        let ea = crate::nonbonded::compute_forces_half(&mut a, &half, &params);
        let eb = crate::nonbonded::compute_forces_full(&mut b, &full, &params);
        assert!(
            (ea.virial - eb.virial).abs() < 1e-6 * ea.virial.abs().max(1.0),
            "{} vs {}",
            ea.virial,
            eb.virial
        );
    }
}
