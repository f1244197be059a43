//! End-to-end dynamics on the full stack: the engine must hold rigid
//! water together, keep the temperature in a physical band under the
//! thermostat, conserve momentum, and produce a parsable trajectory
//! through the fast-I/O path.

use sw_gromacs::mdsim::constraints::ConstraintSet;
use sw_gromacs::mdsim::water::{theta_hoh, water_box_equilibrated, D_OH};
use sw_gromacs::swgmx::engine::{Engine, EngineConfig, Version};
use sw_gromacs::swgmx::fastio::{write_frame, BufferedWriter};

#[test]
fn hundred_steps_of_water_stay_physical() {
    let sys = water_box_equilibrated(600, 300.0, 9);
    let dof = sys.dof_rigid_water();
    let mut engine = Engine::new(
        sys,
        EngineConfig {
            nstxout: 0,
            ..EngineConfig::paper(Version::Other)
        },
    );
    let mut energies = Vec::new();
    for _ in 0..100 {
        let en = engine.step();
        energies.push(en.total() + engine.sys.kinetic_energy());
    }
    // Constraints hold.
    let cs = ConstraintSet::rigid_water(&engine.sys, D_OH, theta_hoh());
    assert!(cs.max_violation(&engine.sys) < 1e-2);
    // Temperature in a physical band under the Berendsen thermostat.
    let t = engine.sys.temperature(dof);
    assert!((150.0..600.0).contains(&t), "T = {t} K");
    // Momentum conserved (no net drift pumped in).
    assert!(
        engine.sys.momentum().norm() < 5.0,
        "p = {:?}",
        engine.sys.momentum()
    );
    // Total energy bounded (no blow-up).
    let e0 = energies[10].abs();
    let e_last = energies.last().unwrap().abs();
    assert!(e_last < 3.0 * e0 + 1e4, "energy blew up: {e0} -> {e_last}");
}

#[test]
fn optimized_and_reference_dynamics_stay_close() {
    // Fig. 13 in miniature: run the optimized engine and a pure-mdsim
    // reference loop from the same start; the energy traces must stay in
    // the same band.
    use sw_gromacs::mdsim::integrate::{berendsen_scale, leapfrog_step_constrained};
    use sw_gromacs::mdsim::nonbonded::compute_forces_half;
    use sw_gromacs::mdsim::pairlist::{ListKind, PairList};

    let sys0 = water_box_equilibrated(600, 300.0, 31);
    let dof = sys0.dof_rigid_water();

    let mut opt = Engine::new(
        sys0.clone(),
        EngineConfig {
            nstxout: 0,
            ..EngineConfig::paper(Version::Other)
        },
    );
    let cfg = *opt.config();
    let mut e_opt = 0.0;
    for _ in 0..60 {
        let en = opt.step();
        e_opt = en.total() + opt.sys.kinetic_energy();
    }

    let mut sys = sys0;
    let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
    let mut e_ref = 0.0;
    let mut list = PairList::build(&sys, cfg.rlist, ListKind::Half);
    for step in 0..60 {
        if step % cfg.nstlist == 0 {
            list = PairList::build(&sys, cfg.rlist, ListKind::Half);
        }
        sys.clear_forces();
        let en = compute_forces_half(&mut sys, &list, &cfg.params);
        e_ref = en.total() + sys.kinetic_energy();
        leapfrog_step_constrained(&mut sys, cfg.dt, &cs);
        let t = sys.temperature(dof);
        berendsen_scale(&mut sys, cfg.dt, 0.1, 300.0, t);
    }
    let rel = (e_opt - e_ref).abs() / e_ref.abs().max(1.0);
    assert!(rel < 0.05, "energy divergence: opt {e_opt} vs ref {e_ref}");
}

#[test]
fn trajectory_roundtrip_through_fast_io() {
    let sys = water_box_equilibrated(100, 300.0, 77);
    let mut w = BufferedWriter::with_capacity(Vec::new(), 1 << 20);
    write_frame(&mut w, &sys.pos).unwrap();
    let text = String::from_utf8(w.into_inner().unwrap()).unwrap();
    let mut parsed = 0;
    for (line, p) in text.lines().zip(&sys.pos) {
        let cols: Vec<f32> = line.split(' ').map(|c| c.parse().unwrap()).collect();
        assert_eq!(cols.len(), 3);
        assert!((cols[0] - p.x).abs() <= 5.01e-4, "{} vs {}", cols[0], p.x);
        assert!((cols[1] - p.y).abs() <= 5.01e-4);
        assert!((cols[2] - p.z).abs() <= 5.01e-4);
        parsed += 1;
    }
    assert_eq!(parsed, sys.n());
}

#[test]
fn thirty_steps_of_the_4k_box_end_on_the_recorded_trajectory_bits() {
    // The `md_*_4k` benchmark input (seed 2026): 1334 lattice waters, 30
    // constrained steepest-descent steps, re-thermalised. The literals
    // are FNV-1a over every position and velocity bit after 30 steps, as
    // the commit before the update and the shift refresh went to lanes
    // (8fa7d53) produced them; the box is above the update's grain, so
    // the native engine updates on lanes every step, and its kernels
    // derive every row's shifts on their own lanes.
    use rand::SeedableRng;
    use sw_gromacs::mdsim::math::{fnv1a, FNV1A_OFFSET};
    use sw_gromacs::mdsim::nonbonded::{Coulomb, NbParams};
    use sw_gromacs::swgmx::backend::BackendSel;
    let mut sys = sw_gromacs::mdsim::water::water_box(1334, 300.0, 2026);
    let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
    let params = NbParams {
        r_cut: 0.9f32.min(0.3 * sys.pbc.lengths().x),
        coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
    };
    sw_gromacs::mdsim::minimize::steepest_descent(&mut sys, &params, Some(&cs), 30, 1_000.0, 0.01);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026 ^ 0x5eed);
    sys.thermalize(300.0, &mut rng);
    cs.project_velocities(&mut sys);
    for (backend, recorded) in [
        (BackendSel::Metered, 0xaf15651842d2cdf1u64),
        (BackendSel::Native, 0xc16a0bd0f40ffe0e),
    ] {
        let mut engine = Engine::new(
            sys.clone(),
            EngineConfig {
                nstxout: 0,
                backend,
                ..EngineConfig::paper(Version::Other)
            },
        );
        engine.run(30);
        assert_eq!(engine.constraint_failures(), 0);
        let words = engine.sys.pos.iter().chain(&engine.sys.vel);
        let words = words.flat_map(|p| [p.x, p.y, p.z]);
        let sum = words.fold(FNV1A_OFFSET, |h, c| fnv1a(h, &c.to_bits().to_le_bytes()));
        assert_eq!(sum, recorded, "{backend:?}: {sum:#018x}");
    }
}
