//! Figure 13: accuracy of the optimized implementation — total energy
//! and temperature traces of the optimized (simulated-SW26010) engine
//! against the scalar x86-style reference over a long run.
//!
//! The paper compares 500,000 steps of a 48 K water box between the
//! optimized SW version and an E5-2680-v3 run and argues the deviation
//! stays bounded. We run both engines (the optimized Mark kernel vs the
//! mdsim scalar reference kernel) from identical initial conditions and
//! report the traces plus their drift statistics.

use bench::{header, BenchJson};
use mdsim::constraints::ConstraintSet;
use mdsim::integrate::{berendsen_scale, leapfrog_step_constrained};
use mdsim::nonbonded::compute_forces_half_masked;
use mdsim::pairlist::{ListKind, PairList};
use mdsim::water::{theta_hoh, D_OH};
use swgmx::engine::{Engine, EngineConfig, Version};

struct Trace {
    steps: Vec<usize>,
    energy: Vec<f64>,
    temperature: Vec<f64>,
}

fn main() -> std::io::Result<()> {
    header(
        "Figure 13 — accuracy: energy & temperature traces",
        "optimized (simulated SW26010) vs scalar reference dynamics",
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_mol, n_steps, sample) = if quick {
        (500usize, 500usize, 25usize)
    } else {
        (2_000, 5_000, 100)
    };
    println!(
        "workload: {} water molecules, {} steps, sampled every {}",
        n_mol, n_steps, sample
    );

    let sys0 = mdsim::water::water_box_equilibrated(n_mol, 300.0, 77);

    // Optimized path: the full engine (Mark kernel on the simulated CG).
    let mut opt = Engine::new(
        sys0.clone(),
        EngineConfig {
            nstxout: 0,
            ..EngineConfig::paper(Version::Other)
        },
    );
    let mut opt_trace = Trace {
        steps: vec![],
        energy: vec![],
        temperature: vec![],
    };
    let dof = sys0.dof_rigid_water();
    for step in 0..n_steps {
        let en = opt.step();
        if step % sample == 0 {
            opt_trace.steps.push(step);
            opt_trace.energy.push(en.total() + opt.sys.kinetic_energy());
            opt_trace.temperature.push(opt.sys.temperature(dof));
        }
    }

    // Reference path: scalar kernels, same configuration.
    let cfg = *opt.config();
    let mut sys = sys0.clone();
    let cs = ConstraintSet::rigid_water(&sys, D_OH, theta_hoh());
    let mut ref_trace = Trace {
        steps: vec![],
        energy: vec![],
        temperature: vec![],
    };
    // The masks follow the list, so they are computed once per list.
    let mut list = None;
    for step in 0..n_steps {
        if step % cfg.nstlist == 0 {
            let built = PairList::build(&sys, cfg.rlist, ListKind::Half);
            let masks = built.interaction_masks(&sys);
            list = Some((built, masks));
        }
        let (list, masks) = list.as_ref().expect("built on step 0");
        sys.clear_forces();
        let en = compute_forces_half_masked(&mut sys, list, masks, &cfg.params);
        if step % sample == 0 {
            ref_trace.steps.push(step);
            ref_trace.energy.push(en.total() + sys.kinetic_energy());
            ref_trace.temperature.push(sys.temperature(dof));
        }
        leapfrog_step_constrained(&mut sys, cfg.dt, &cs);
        if let Some(t_ref) = cfg.t_ref {
            let t = sys.temperature(dof);
            berendsen_scale(&mut sys, cfg.dt, 0.1, t_ref, t);
        }
    }

    println!(
        "\n{:>8} {:>14} {:>14} {:>10} {:>10}",
        "step", "E_opt", "E_ref", "T_opt", "T_ref"
    );
    for i in 0..opt_trace.steps.len() {
        println!(
            "{:>8} {:>14.1} {:>14.1} {:>10.1} {:>10.1}",
            opt_trace.steps[i],
            opt_trace.energy[i],
            ref_trace.energy[i],
            opt_trace.temperature[i],
            ref_trace.temperature[i]
        );
    }

    // Deviation statistics over the second half (equilibrated part).
    let half = opt_trace.steps.len() / 2;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let e_opt = mean(&opt_trace.energy[half..]);
    let e_ref = mean(&ref_trace.energy[half..]);
    let t_opt = mean(&opt_trace.temperature[half..]);
    let t_ref_m = mean(&ref_trace.temperature[half..]);
    println!("\nsecond-half means:");
    println!(
        "  energy      opt {e_opt:.1} vs ref {e_ref:.1} kJ/mol  ({:+.3}% relative)",
        100.0 * (e_opt - e_ref) / e_ref.abs()
    );
    println!(
        "  temperature opt {t_opt:.1} vs ref {t_ref_m:.1} K     ({:+.2} K)",
        t_opt - t_ref_m
    );
    println!(
        "\npaper claim: the optimized implementation's energy/temperature \
         deviation from the reference platform stays within a bounded band \
         over a long run (their Fig. 13, 500 K steps)"
    );

    let mut json = BenchJson::new("fig13_accuracy");
    json.config_num("molecules", n_mol as f64)
        .config_num("steps", n_steps as f64)
        .config_str("mode", if quick { "quick" } else { "full" });
    json.metric("energy.opt", e_opt)
        .metric("energy.ref", e_ref)
        .metric("energy.rel_dev", (e_opt - e_ref) / e_ref.abs())
        .metric("temperature.opt", t_opt)
        .metric("temperature.ref", t_ref_m)
        .metric("temperature.dev_k", t_opt - t_ref_m);
    json.wall_cycles(opt.breakdown.total_cycles()).write()
}
